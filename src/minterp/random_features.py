"""Random feature maps, kernel matrices, and the minimum-l2-norm interpolant.

Two bounded feature families are shipped: ReLU ridge features with
parameters uniform on the l1 sphere, and cosine features with Gaussian
frequencies.  The exact kernel k(x, x') = E_w[phi(x;w) phi(x';w)] is a
Gaussian in closed form for the cosine family; for the ReLU family it is
computed by a large fixed Monte Carlo quadrature, over draws w taken
together with their antithetic partners -w, and treated as ground truth
thereafter.  The draws form a QuadratureRule, which a study draws once
and hands to every kernel_exact call, so all its fits sum the same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnderParametrizedError
from .linalg import (
    DEFAULT_RCOND,
    ColumnBlocks,
    GramFactor,
    _check_cutoff,
    _check_symmetric,
    _feature_sum,
    min_norm_solve,
    smallest_eigenvalue,
)
from .sampling import _l1_sphere_rows, sample_l1_sphere
from .seeding import derive_seed, rng_from

RELU_L1SPHERE = "relu_l1sphere"
RANDOM_FOURIER = "random_fourier"

# Quadrature parameters drawn per block in quadrature_rule; each block has its
# own derived seed, so this value fixes the reference kernels.
_QUADRATURE_CHUNK = 65536
# Rows of the feature buffer kernel_exact fills per product; at n = 128 the
# (1024, n) float64 buffer is 1 MB and stays in a 2 MB L2.
_QUADRATURE_SUB_BLOCK = 1024
# Points of ReferenceLambda's witness subset.  On the two-layer and resnet
# audits at seeds 0-5 (144 fits; 2 cores, one BLAS thread) the quotient on
# 32 points came to at most 0.875 of 2 lambda_emp at the first floor test,
# where 16 points reached 0.979; at Q = 200,000 a 32-point pass took 2.1 ms
# and a 16-point one 1.4 ms.
WITNESS_SIZE = 32
_UNIT_ROUNDOFF = 2.0 ** -53
# ReferenceLambda.allowance's eigvalsh term, in units of u tr(K): measured on
# reference kernels of 4 to 400 points in d = 1 to 4, duplicated and
# near-duplicated points among them, eigvalsh erred by at most 1.6 u tr(K)
# (against extended-precision Rayleigh quotients); 6 is given against it.
_EIGH_ROUNDING = 6.0


@dataclass(frozen=True)
class FeatureFamily:
    """Bounded feature family phi(x; w) with |phi| <= 1 on the input box.

    relu_l1sphere: phi(x; w) = relu(w . (x, 1)) with w uniform on the unit
    l1 sphere of R^(d+1); the l1 constraint caps |phi| at 1.
    random_fourier: phi(x; (w, b)) = cos(w . x + b) with w ~ N(0, gamma^2 I)
    and b uniform on [0, 2pi); gamma sets the kernel bandwidth.
    """

    tag: str
    gamma: float = 1.0

    def __post_init__(self):
        if self.tag not in (RELU_L1SPHERE, RANDOM_FOURIER):
            raise ValueError(f"unknown feature family {self.tag!r}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")

    def sample_params(self, d: int, m: int, seed: int) -> np.ndarray:
        """Draw m parameter vectors of length d+1."""
        if d < 1 or m < 1:
            raise ValueError(f"d and m must be >= 1, got d={d}, m={m}")
        if self.tag == RELU_L1SPHERE:
            return sample_l1_sphere(d, m, seed)
        rng = rng_from(seed)
        w = rng.normal(0.0, self.gamma, size=(m, d))
        b = rng.uniform(0.0, 2.0 * np.pi, size=m)
        return np.concatenate([w, b[:, None]], axis=1)

    def features(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Feature matrix Phi with Phi[i, j] = phi(x_i; w_j), shape (n, m)."""
        W = np.asarray(W, dtype=float)
        X = np.asarray(X, dtype=float)
        if W.ndim != 2 or X.ndim != 2 or W.shape[1] != X.shape[0] + 1:
            raise ValueError(
                f"incompatible shapes: params {W.shape} vs inputs {X.shape}"
            )
        block = W[:, :-1] @ X
        block += W[:, -1][:, None]
        if self.tag == RELU_L1SPHERE:
            return np.maximum(block, 0.0, out=block).T
        return np.cos(block, out=block).T

    def feature_source(self, W: np.ndarray, X: np.ndarray):
        """Phi as a GramFactor source: recomputed ReLU column blocks, or the cosine array.

        A ReLU block costs about 1 ns per entry to recompute, less than the
        n multiply-adds per entry of the Gram update it feeds, so a ReLU fit
        never holds Phi whole.  A cosine block costs about 10 ns per entry;
        recomputing it more than doubled the widest cosine fits, so the
        whole array is built once, as the source of one block.
        """
        if self.tag == RANDOM_FOURIER:
            return self.features(W, X)
        return ColumnBlocks((X.shape[1], len(W)),
                            lambda start, stop: self.features(W[start:stop], X))


@dataclass(frozen=True, eq=False)
class RandomFeatureModel:
    """Fixed random features with trained output coefficients.

    Prediction is f_m(x; a) = (1/m) sum_j a_j phi(x; w_j), so by
    Cauchy-Schwarz |f_m| <= ||a||/sqrt(m) on the input box.
    """

    family: FeatureFamily
    params: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.params, dtype=float)
        a = np.asarray(self.coefficients, dtype=float)
        if W.ndim != 2 or a.shape != (W.shape[0],):
            raise ValueError(
                f"expected params (m, d+1) and coefficients (m,), got {W.shape} and {a.shape}"
            )
        if not len(a):
            raise ValueError("a random-feature model needs at least one feature, got 0")
        object.__setattr__(self, "params", W)
        object.__setattr__(self, "coefficients", a)

    @property
    def m(self) -> int:
        return self.params.shape[0]

    @property
    def d(self) -> int:
        return self.params.shape[1] - 1

    @property
    def norm_radius(self) -> float:
        """||a|| / sqrt(m), the radius of the coefficient ball containing the model."""
        return float(np.linalg.norm(self.coefficients) / math.sqrt(self.m))

    def predict(self, X: np.ndarray, single: bool = False):
        """Evaluate at every column of X in cache-sized tiles; no (m, n) array is formed.

        single (ReLU features only) sums the tiles in float32 and returns
        (predictions, B), B a certified per-point bound on their distance
        from the exact and from the float64 predictions (linalg._feature_sum).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.d:
            raise ValueError(f"expected inputs of shape ({self.d}, n), got {X.shape}")
        relu = self.family.tag == RELU_L1SPHERE
        if single:
            sums, bound = _feature_sum(self.coefficients, self.params, X, relu=relu, single=True)
            return sums / self.m, bound / self.m
        return _feature_sum(self.coefficients, self.params, X, relu=relu) / self.m


@dataclass(frozen=True)
class ConcentrationCheck:
    """Hoeffding deviation audit of the empirical kernel against the exact one."""

    bound: float
    observed: float
    holds: bool
    observed_frobenius: float
    lambda_min_empirical: float


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """The ReLU reference kernel's Q quadrature points in R^(d+1).

    pairs holds the Q / 2 draws w that enter with their antithetic
    partners -w, and R^T R = M = sum w w^T over them: up to d + 1 draws,
    where M can be rank-deficient, R is pairs itself, and past that it is
    diag(sqrt(max(lambda, 0))) V^T from the eigh of M, summed one seed
    block at a time.  The arrays are read-only, since every fit of a
    study shares them.
    """

    pairs: np.ndarray
    R: np.ndarray

    @property
    def Q(self) -> int:
        return 2 * len(self.pairs)

    @property
    def d(self) -> int:
        return self.pairs.shape[1] - 1


def quadrature_rule(d: int, Q: int, seed: int) -> QuadratureRule:
    """The rule of an even Q >= 2 points: Q / 2 draws of the l1-sphere law in R^(d+1).

    The draws come in _QUADRATURE_CHUNK blocks, block b from
    derive_seed(seed, b * chunk), each drawn in place into one
    (Q / 2, d+1) array, so a draw holds no second copy of its block.
    Every call draws afresh: a study draws its rule once and passes it
    to each kernel_exact call.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if Q < 2 or Q % 2:
        raise ValueError(f"Q must be an even count of antithetic points >= 2, got {Q}")
    draws = Q // 2
    W = np.empty((draws, d + 1))
    M = np.zeros((d + 1, d + 1))
    for done in range(0, draws, _QUADRATURE_CHUNK):
        block = W[done : done + _QUADRATURE_CHUNK]
        _l1_sphere_rows(rng_from(derive_seed(seed, done)), len(block), d + 1, out=block)
        M += block.T @ block
    W.setflags(write=False)
    if draws <= d + 1:
        return QuadratureRule(pairs=W, R=W)
    lam, V = np.linalg.eigh(M)
    R = np.sqrt(np.maximum(lam, 0.0))[:, None] * V.T
    R.setflags(write=False)
    return QuadratureRule(pairs=W, R=R)


def kernel_exact(
    family: FeatureFamily, X: np.ndarray, rule: QuadratureRule | None = None,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """The reference kernel K[i, j] = E_w[phi(x_i;w) phi(x_j;w)], symmetric exactly.

    With an (n, k) basis B it returns B^T K B instead; the ReLU sum then
    never forms K.

    Cosine features: the closed form (1/2) exp(-gamma^2 ||x_i - x_j||^2 / 2)
    (Rahimi & Recht 2007), summed one coordinate at a time; rule does not
    enter.  ReLU features: the plain average of phi phi^T over the Q points
    of rule, a quadrature_rule of X's dimension d: each draw w is used
    with its antithetic partner -w (the law is symmetric).  A pair with
    t = w . (x, 1) contributes
    relu(t) relu(t') + relu(-t) relu(-t') = (t t' + |t| |t'|) / 2, so
    K = ((R (X; 1))^T (R (X; 1)) + sum |F|^T |F|) / (2 Q) with R^T R = M
    = sum w w^T over the draws.  The sum over |F| is GramFactor's block
    Gram sum: each _QUADRATURE_SUB_BLOCK-row block F = W_blk @ (X; 1) is
    written into one reused buffer, made absolute in place and handed over
    as the column block |F|^T, or (|F| B)^T with a basis, so no block
    allocates a feature array of its own and a basis pass costs O(Q n k)
    with no n x n sum.  numpy computes each block's Gram term as one
    triangle and mirrors it.
    """
    X = np.asarray(X, dtype=float)
    d, n = X.shape
    if basis is not None:
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != n:
            raise ValueError(f"expected a basis of shape ({n}, k), got {basis.shape}")
    if family.tag == RANDOM_FOURIER:
        K, diff = np.zeros((n, n)), np.empty((n, n))
        for row in X:
            K += np.square(np.subtract.outer(row, row, out=diff), out=diff)
        K *= -0.5 * family.gamma ** 2
        K = 0.5 * np.exp(K, out=K)
        return K if basis is None else basis.T @ K @ basis
    if rule is None:
        raise ValueError("the ReLU reference kernel needs a quadrature rule")
    if rule.d != d:
        raise ValueError(f"quadrature rule of d={rule.d} for inputs of d={d}")
    Xt = np.vstack([X, np.ones((1, n))])
    pairs = len(rule.pairs)
    buf = np.empty((min(_QUADRATURE_SUB_BLOCK, pairs), n))

    def abs_features(start, stop):
        F = np.matmul(rule.pairs[start:stop], Xt, out=buf[: stop - start])
        F = np.abs(F, out=F)
        return (F if basis is None else F @ basis).T

    k = n if basis is None else basis.shape[1]
    K = GramFactor(ColumnBlocks((k, pairs), abs_features, _QUADRATURE_SUB_BLOCK)).G
    linear = rule.R @ (Xt if basis is None else Xt @ basis)
    K += linear.T @ linear
    K /= 2.0 * rule.Q
    return K


def reference_lambda_min(X: np.ndarray, rule: QuadratureRule) -> float:
    """lambda_min of the ReLU reference kernel on X, summed over rule."""
    return smallest_eigenvalue(kernel_exact(FeatureFamily(tag=RELU_L1SPHERE), X, rule))


class ReferenceLambda:
    """lambda_ref = reference_lambda_min(X, rule), summed over the whole rule only when needed.

    Its readers compare lambda_ref with numbers (the residual floor
    lambda_emp >= lambda_ref / 2, concentration_width's width and
    lambda_ref > 0), so each asks a cheap question first and reads value,
    the exact float, only when that one cannot settle the comparison; every
    decision is the one value gives.  The cheap questions:

    - upper >= value.  It is the Rayleigh quotient v^T K v / v^T v of the
      reference kernel at a vector v held on at most WITNESS_SIZE points,
      plus a rounding allowance: by the Rayleigh quotient theorem (Horn & Johnson,
      Matrix Analysis, Thm 4.2.2) every quotient of K is at least
      lambda_min(K), and the allowance covers the rounding of the pass and
      of value (see allowance).  The points S are where the bottom
      eigenvector of a residual draw's Gram matrix G is largest in absolute
      value, the points whose features are closest to dependent, or every
      point when there are at most WITNESS_SIZE; v is the bottom
      eigenvector of G[S, S].  The quotient is one kernel_exact pass over
      the rule with basis v, O(Q |S|) with no |S| x |S| sum.
    - positive: value > 0 when the rule's first 4 n draws alone sum to a
      kernel (a minorant, since every draw adds a PSD term) whose Cholesky
      factor exists after a shift that exceeds every rounding error.

    of(lam) makes the exact reference of a number: value is lam, and upper is value.
    """

    def __init__(self, X: np.ndarray, rule: QuadratureRule):
        self.X, self.rule, self._upper = X, rule, None

    @classmethod
    def of(cls, lam) -> ReferenceLambda:
        """lam itself when it is a ReferenceLambda, else the exact reference of the number lam."""
        if isinstance(lam, cls):
            return lam
        ref = cls(None, None)
        ref.value = ref._upper = lam
        return ref

    @cached_property
    def value(self) -> float:
        return reference_lambda_min(self.X, self.rule)

    @cached_property
    def positive(self) -> bool:
        """value > 0."""
        return self._minorant_positive() or self.value > 0

    def floor_met(self, lam_emp: float, draw: GramFactor) -> bool:
        """lam_emp >= value / 2; draw is the residual draw's factor, whose G gives v."""
        return lam_emp >= self._bound(draw) / 2.0 or lam_emp >= self.value / 2.0

    def width_met(self, width: int, n: int, delta: float) -> bool:
        """width >= concentration_width(n, delta, value); the width falls as lambda grows."""
        return (width >= concentration_width(n, delta, self._bound(None))
                and width >= concentration_width(n, delta, self.value))

    def allowance(self, S: np.ndarray, v: np.ndarray) -> float:
        """quotient_bound(S, v)'s rounding allowance, u (_EIGH_ROUNDING tr K + N spread).

        value's eigvalsh is at most lambda_min(fl(K)) + _EIGH_ROUNDING u
        tr K, and lambda_min(fl(K)) at most v^T fl(K) v / v^T v.  That form
        and the pass each differ from the exact v^T K v by the rounding of
        their sums.  Entry (i, j) sums two kinds of terms over the rule,
        |t_i| |t_j| with t = w . x~ and (R x~_i)_k (R x~_j)_k; since
        sum t_i^2 = ||R x~_i||^2 = Q K_ii, Cauchy-Schwarz caps each kind's
        absolute sum at sqrt(K_ii K_jj) / 2 once divided by 2 Q, so weighted
        by |v_i| |v_j| at spread / 2, spread = (sum_S |v_i| sqrt(K_ii))^2 /
        v^T v.  To first order a |F| term rounds at most
        _QUADRATURE_SUB_BLOCK + blocks + 2 (d + 1) + 1 times in value's sum
        (the block sums, and t_i, t_j and their product) and 2 |S| more in
        the pass's (the basis product, squared); a linear term 3 (d + 1) + 2
        times in value's and 2 |S| more in the pass's; and the quotient's
        v^T v and division add |S| + 1 roundings of a quotient below spread.
        So N = _QUADRATURE_SUB_BLOCK + blocks + 3 |S| + 5 (d + 1) + 4.  The
        count takes the products inside w . x~, R x~ and (X; 1) v as
        roundings of their results; where they cancel, the property test,
        duplicated points among its inputs, holds the bound against value.
        """
        blocks = -(-len(self.rule.pairs) // _QUADRATURE_SUB_BLOCK)
        rounds = _QUADRATURE_SUB_BLOCK + blocks + 3 * len(S) + 5 * (self.rule.d + 1) + 4
        spread = float(np.abs(v) @ np.sqrt(self._diagonal[S])) ** 2 / float(v @ v)
        return _UNIT_ROUNDOFF * (_EIGH_ROUNDING * float(self._diagonal.sum()) + rounds * spread)

    def quotient_bound(self, S: np.ndarray, v: np.ndarray) -> float:
        """v^T K v / v^T v for v held on the points S, plus allowance(S, v): at least value."""
        relu = FeatureFamily(tag=RELU_L1SPHERE)
        form = kernel_exact(relu, self.X[:, S], self.rule, v[:, None])[0, 0]
        return float(form) / float(v @ v) + self.allowance(S, v)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        # K_ii = (sum (w . x~_i)^2 + ||R x~_i||^2) / 2Q = ||R x~_i||^2 / Q, since R^T R = sum w w^T
        linear = self.rule.R @ np.vstack([self.X, np.ones((1, self.X.shape[1]))])
        return np.einsum("ij,ij->j", linear, linear) / self.rule.Q

    def _bound(self, draw: GramFactor | None) -> float:
        # upper, from the first draw's G and kept for every later draw; value itself with no draw
        if self._upper is None:
            if draw is None:
                self._upper = self.value
            else:
                S = np.sort(np.argsort(-np.abs(draw.bottom_vector), kind="stable")[:WITNESS_SIZE])
                v = np.linalg.eigh(draw.G[np.ix_(S, S)])[1][:, 0]
                self._upper = self.quotient_bound(S, v)
        return self._upper

    def _minorant_positive(self) -> bool:
        # The minorant's 4 n draws are at most half the rule's, so the rest
        # keep R^T R above their own sum by far more than R's rounding.
        if self.X is None or not self.X.shape[1] <= len(self.rule.pairs) // 8:
            return False
        n = self.X.shape[1]
        F = self.rule.pairs[: 4 * n] @ np.vstack([self.X, np.ones((1, n))])
        minorant = F.T @ F
        minorant += np.abs(F, out=F).T @ F
        minorant /= 2.0 * self.rule.Q
        # tau = u tr(K) (2 (n + 1)^2 + Q / 2) exceeds the worst-case rounding
        # of value's and the minorant's sums (at most Q / 2 terms an entry, and
        # |K_ij| <= sqrt(K_ii K_jj)), of the Cholesky factorization ((n + 1)^2
        # u tr(K): Higham, Accuracy and Stability of Numerical Algorithms,
        # Thm 10.5) and of value's eigvalsh (measured 1.6 u tr(K)) together
        tau = _UNIT_ROUNDOFF * self._diagonal.sum() * (2 * (n + 1) ** 2 + len(self.rule.pairs))
        minorant[np.diag_indices(n)] -= tau
        try:
            np.linalg.cholesky(minorant)
        except np.linalg.LinAlgError:
            return False
        return True


def kernel_empirical(Phi) -> np.ndarray:
    """K^m = Phi Phi^T / m from the G of Phi (n, m), its source or its GramFactor.

    Exactly symmetric: numpy computes each block's B @ B^T as one triangle and mirrors it.
    """
    gram = GramFactor.of(Phi)
    if 0 in gram.shape:
        raise ValueError(f"expected a nonempty (n, m) matrix, got shape {gram.shape}")
    return gram.G / gram.shape[1]


def ridgeless_coefficients(K: np.ndarray, y: np.ndarray) -> tuple:
    """(beta, lambda_min(K)) with beta = K^-1 y the kernel ridgeless interpolant.

    Both come from one symmetric eigensolve.  y @ beta = y^T K^-1 y is the
    squared kernel-space norm of the interpolant, a lower bound on that of
    any function interpolating the data, hence a usable surrogate for the
    unknown norm of the target.  Raises SingularSystemError when
    lambda_min(K) <= DEFAULT_RCOND * lambda_max(K).
    """
    K = _check_symmetric(K)
    y = np.asarray(y, dtype=float)
    if y.shape != (K.shape[0],):
        raise ValueError(f"expected y of shape ({K.shape[0]},), got {y.shape}")
    lam, V = np.linalg.eigh(K)
    _check_cutoff(lam[0], lam[-1], DEFAULT_RCOND, "eigenvalue")
    return V @ ((V.T @ y) / lam), float(lam[0])


def concentration_width(n: int, delta: float, lam: float, factor: float = 2.0) -> float:
    """Feature count factor * n^2 ln(2 n^2 / delta) / lam^2.

    With factor 2 this is the width at which the Hoeffding deviation bound
    drops below lam / 2, guaranteeing the empirical kernel keeps half the
    smallest eigenvalue; factor 8 tightens the deviation to lam / 4.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return factor * n * n * math.log(2.0 * n * n / delta) / (lam * lam)


def concentration_check(
    K: np.ndarray, Km: np.ndarray, m: int, delta: float
) -> ConcentrationCheck:
    """Compare ||K - K^m|| against the Hoeffding bound sqrt(n^2 ln(2n^2/delta) / 2m).

    Also records lambda_min(K^m); by Weyl's inequality it moves from
    lambda_min(K), which the caller computes once per K, by at most ||K - K^m||.
    """
    K = _check_symmetric(K)
    Km = _check_symmetric(Km)
    if K.shape != Km.shape:
        raise ValueError(f"shape mismatch: {K.shape} vs {Km.shape}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n = K.shape[0]
    bound = math.sqrt(n * n * math.log(2.0 * n * n / delta) / (2.0 * m))
    diff = K - Km
    observed = float(np.linalg.norm(diff, ord=2))
    return ConcentrationCheck(
        bound=bound,
        observed=observed,
        holds=observed <= bound,
        observed_frobenius=float(np.linalg.norm(diff)),
        lambda_min_empirical=smallest_eigenvalue(Km),
    )


@dataclass(frozen=True, eq=False)
class RandomFeatureFit:
    """A fitted minimum-norm random feature interpolant plus its audit numbers.

    gram is the GramFactor of the (n, m) feature matrix Phi solved on, which
    sigma_min and the Rademacher estimate reuse.  It keeps G and the family's
    feature source: W and X for ReLU, never Phi whole, and the Phi array
    for cosine.  fitted holds (1/m) Phi a, summed in the solve's pass.
    """

    model: RandomFeatureModel
    coeff_norm: float
    norm_radius: float
    interp_error: float
    gram: GramFactor
    fitted: np.ndarray


def fit_random_features(
    X: np.ndarray,
    y: np.ndarray,
    family: FeatureFamily,
    m: int,
    seed: int,
) -> RandomFeatureFit:
    """Sample m features and solve for the least-norm a with (1/m) Phi a = y.

    a = m Phi^T (Phi Phi^T)^-1 y comes from min_norm_solve, which sums Phi a in the same pass.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, values in (("inputs X", X), ("labels y", y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} contain non-finite entries")
    W = family.sample_params(X.shape[0], m, seed)
    gram = GramFactor(family.feature_source(W, X))
    if m < gram.shape[0]:
        raise UnderParametrizedError(m, gram.shape[0])
    a, image = min_norm_solve(gram, m * y)
    fitted = image / m
    model = RandomFeatureModel(family=family, params=W, coefficients=a)
    return RandomFeatureFit(
        model=model,
        coeff_norm=float(np.linalg.norm(a)),
        norm_radius=model.norm_radius,
        interp_error=float(np.abs(fitted - y).max()),
        gram=gram,
        fitted=fitted,
    )
