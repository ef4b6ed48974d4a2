"""Two-layer ReLU networks, the path norm, and the norm-certified constructions.

The two constructions here mirror the two halves of building a
near-minimum-path-norm interpolant: approximate the teacher by
subsampling its atoms, then fit the leftover residual with randomly
drawn inner weights and a minimum-norm outer solve whose coefficient
norm is certified by the empirical kernel's smallest eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConcentrationFailureError, UnderParametrizedError
from .linalg import (
    GramFactor,
    _feature_sum,
    min_norm_solve,
    smallest_eigenvalue,
    smallest_singular_value,
)
from .random_features import FeatureFamily, RELU_L1SPHERE, ReferenceLambda, kernel_empirical
from .sampling import (
    Dataset,
    TeacherFunction,
    barron_norm_upper,
    sample_l1_sphere,
    teacher_eval_batch,
)
from .seeding import derive_seed, rng_from

# Feature draws fit_residual_net tries for the floor lambda_emp >= lambda_target / 2
# before it raises ConcentrationFailureError.
_MAX_RESAMPLES = 16
# Atom subsamples approximate_teacher scores; it keeps the one of least risk.
_RETRY_DRAWS = 32


@dataclass(frozen=True, eq=False)
class TwoLayerNet:
    """Width-m ReLU network f(x) = (1/m) sum_j a_j relu(b_j . x + c_j); W's rows are (b_j, c_j)."""

    a: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        W = np.asarray(self.W, dtype=float)
        if a.ndim != 1 or W.ndim != 2 or W.shape[0] != a.shape[0] or W.shape[1] < 1:
            raise ValueError(f"expected a (m,) and W (m, d+1), got {a.shape}, {W.shape}")
        if not len(a):
            raise ValueError("a network needs at least one neuron, got 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "W", W)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1] - 1


def two_layer_eval_batch(theta: TwoLayerNet, X: np.ndarray) -> np.ndarray:
    """Evaluate at every column of X (shape (d, n)) in tiles, like RandomFeatureModel.predict."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != theta.d:
        raise ValueError(f"expected X of shape ({theta.d}, n), got {X.shape}")
    return _feature_sum(theta.a, theta.W, X) / theta.m


def path_norm(theta: TwoLayerNet) -> float:
    """(1/m) sum_j |a_j| (||b_j||_1 + |c_j|)."""
    # |c_j| joins after the sum over b_j: a sum over the row rounds otherwise once d + 1 >= 8
    W = np.abs(theta.W)
    return float(np.mean(np.abs(theta.a) * (W[:, :-1].sum(axis=1) + W[:, -1])))


def sum_networks(theta1: TwoLayerNet, theta2: TwoLayerNet) -> TwoLayerNet:
    """Width-(m1+m2) network computing f1 + f2 exactly.

    Because evaluation carries a 1/(m1+m2) prefactor, each part's
    coefficients are scaled by (m1+m2)/m_i so its contribution is
    preserved; the same bookkeeping makes the path norm exactly additive.
    """
    if theta1.d != theta2.d:
        raise ValueError(f"dimension mismatch: {theta1.d} vs {theta2.d}")
    total = theta1.m + theta2.m
    return TwoLayerNet(
        a=np.concatenate([theta1.a * (total / theta1.m), theta2.a * (total / theta2.m)]),
        W=np.concatenate([theta1.W, theta2.W]),
    )


@dataclass(frozen=True, eq=False)
class ResidualFit:
    """fit_residual_net output: the network plus its norm certificate.

    certificate = ||r|| / sigma_min(Psi / sqrt(m)) is the provable upper
    bound on the outer coefficient norm ||a_hat||; the path norm is in
    turn at most ||a_hat||, giving path_norm <= sqrt(2 / lambda_target) ||r||
    whenever the eigenvalue floor lambda_emp >= lambda_target / 2 holds.
    lambda_target reads the reference's value, summing its rule on first read.
    """

    net: TwoLayerNet
    reference: ReferenceLambda
    lambda_emp: float
    resamples_used: int
    coeff_norm: float
    sigma_min_scaled: float
    certificate: float
    path_norm: float
    interp_error: float
    residual_norm: float

    @property
    def lambda_target(self) -> float:
        return float(self.reference.value)


def fit_residual_net(
    X: np.ndarray,
    r: np.ndarray,
    m: int,
    lambda_target: float | ReferenceLambda,
    seed: int = 0,
) -> ResidualFit:
    """Fit r at the columns of X with random inner weights and min-norm outer weights.

    Inner weights (b_j, c_j) are drawn uniformly from the l1 sphere and
    re-drawn until the empirical kernel keeps half the target eigenvalue;
    after _MAX_RESAMPLES = 16 draws ConcentrationFailureError reports the
    best eigenvalue seen.  lambda_target is a positive number or the
    ReferenceLambda of X, whose floor test reads the first draw's bottom
    eigenvector and sums the whole rule only when its bound cannot settle
    the test.  Each draw's Psi is factored once, from column blocks
    recomputed from the weights, so Psi never exists whole: lambda_emp
    reads its G, and the accepted draw's solve, sigma_min and bottom
    eigenvector share its eigh.  The outer solve is argmin ||a|| subject to (1/sqrt(m)) Psi a = r,
    and the stored network carries coefficients sqrt(m) * a_hat so that the
    standard (1/m) evaluation reproduces r as Psi a_hat / sqrt(m), the solve's
    image, which interp_error reads.  The sqrt(m) scaling is what makes the
    chain path_norm <= (1/m) sum |sqrt(m) a_hat_j| <= ||a_hat|| valid.
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected X of shape (d, n), got {X.shape}")
    d, n = X.shape
    if r.shape != (n,):
        raise ValueError(f"expected r of shape ({n},), got {r.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs X contain non-finite entries")
    if not np.all(np.isfinite(r)):
        raise ValueError("residual vector contains non-finite entries")
    if m < n:
        raise UnderParametrizedError(m, n)
    reference = ReferenceLambda.of(lambda_target)
    if not reference.positive:
        raise ValueError(f"lambda_target must be positive, got {reference.value}")

    family = FeatureFamily(tag=RELU_L1SPHERE)
    best_lam = -math.inf
    for attempt in range(_MAX_RESAMPLES):
        W = sample_l1_sphere(d, m, derive_seed(seed, attempt))
        gram = GramFactor(family.feature_source(W, X))
        lam_emp = smallest_eigenvalue(kernel_empirical(gram))
        best_lam = max(best_lam, lam_emp)
        if reference.floor_met(lam_emp, gram):
            break
    else:
        raise ConcentrationFailureError(reference.value, best_lam, _MAX_RESAMPLES, m, n)

    sqm = math.sqrt(m)
    a_hat, image = min_norm_solve(gram, sqm * r)
    net = TwoLayerNet(a=sqm * a_hat, W=W)

    sigma_scaled = smallest_singular_value(gram) / sqm
    r_norm = float(np.linalg.norm(r))
    return ResidualFit(
        net=net,
        reference=reference,
        lambda_emp=float(lam_emp),
        resamples_used=attempt + 1,
        coeff_norm=float(np.linalg.norm(a_hat)),
        sigma_min_scaled=float(sigma_scaled),
        certificate=r_norm / sigma_scaled if sigma_scaled > 0 else math.inf,
        path_norm=path_norm(net),
        interp_error=float(np.abs(image / sqm - r).max()),
        residual_norm=r_norm,
    )


@dataclass(frozen=True, eq=False)
class TeacherFit:
    """approximate_teacher output: the subsampled network, its fit report and its values on X."""

    net: TwoLayerNet
    empirical_risk: float
    path_norm: float
    draw_index: int
    fitted: np.ndarray


def approximate_teacher(f: TeacherFunction, m1: int, X: np.ndarray, seed: int) -> TeacherFit:
    """Width-m1 network built by resampling the teacher's atoms.

    Samples m1 atoms with replacement (coefficients carried over), repeats
    for _RETRY_DRAWS = 32 seeds, and keeps the first draw with the smallest
    empirical risk on X; the risk decays like 1/m1.  Every draw is a
    multiset of the same atoms, so each is scored from its atom counts
    against the atoms' values a_k relu(w_k . (x, 1)), computed once; only
    the chosen net is built, and its values on X give its risk.
    """
    X = np.asarray(X, dtype=float)
    if m1 < 1:
        raise ValueError(f"m1 must be >= 1, got {m1}")
    if X.ndim != 2 or X.shape[0] != f.d:
        raise ValueError(f"expected X of shape ({f.d}, n), got {X.shape}")
    targets = teacher_eval_batch(f, X)
    atoms = f.coefficients[:, None] * FeatureFamily(tag=RELU_L1SPHERE).features(f.directions, X).T

    draws = [rng_from(derive_seed(seed, t)).integers(0, f.n_atoms, size=m1)
             for t in range(_RETRY_DRAWS)]
    counts = np.stack([np.bincount(idx, minlength=f.n_atoms) for idx in draws])
    scores = np.mean((counts @ atoms / m1 - targets) ** 2, axis=1)
    t = int(np.argmin(scores))
    idx = draws[t]
    net = TwoLayerNet(a=f.coefficients[idx], W=f.directions[idx])
    fitted = two_layer_eval_batch(net, X)
    risk = 0.5 * float(np.mean((fitted - targets) ** 2))
    return TeacherFit(net=net, empirical_risk=risk, path_norm=path_norm(net), draw_index=t,
                      fitted=fitted)


@dataclass(frozen=True, eq=False)
class CompositeFit:
    """interpolate_two_layer output: the interpolant, its norm audit and its two parts.

    fitted holds the interpolant's values at the training inputs; teacher
    and residual are the two fits it sums, which carry their own numbers
    (widths, approximation risk, eigenvalue floor, resamples).
    """

    net: TwoLayerNet
    path_norm: float
    teacher_norm_upper: float
    norm_ratio: float
    interp_error: float
    fitted: np.ndarray
    teacher: TeacherFit
    residual: ResidualFit


def interpolate_two_layer(
    data: Dataset,
    f: TeacherFunction,
    m1: int,
    m2: int,
    seed: int,
    lambda_target: float | ReferenceLambda,
) -> CompositeFit:
    """Interpolate the dataset with a width-(m1+m2) two-layer network.

    First block: teacher-atom subsample of width m1.  Second block: a
    residual fit of width m2 with certified coefficient norm.  The two are
    summed exactly via width-ratio rescaling, so the composite's path norm
    is the sum of the parts'.  lambda_target is the residual fit's
    eigenvalue target: the smallest eigenvalue of the reference kernel on
    the data, as reference_lambda_min's number or as the ReferenceLambda
    of data.X, which sums the whole rule only if a comparison needs it.
    """
    X, y = data.X, data.y
    fit1 = approximate_teacher(f, m1, X, derive_seed(seed, 1))
    r = y - fit1.fitted
    fit2 = fit_residual_net(X, r, m2, lambda_target, seed=derive_seed(seed, 2))
    net = sum_networks(fit1.net, fit2.net)
    teacher_upper = barron_norm_upper(f)
    total = path_norm(net)
    fitted = two_layer_eval_batch(net, X)
    return CompositeFit(
        net=net,
        path_norm=total,
        teacher_norm_upper=teacher_upper,
        norm_ratio=total / teacher_upper if teacher_upper > 0 else math.inf,
        interp_error=float(np.abs(fitted - y).max()),
        fitted=fitted,
        teacher=fit1,
        residual=fit2,
    )
