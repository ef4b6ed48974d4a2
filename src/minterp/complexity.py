"""Rademacher complexity estimators and the generalization-bound calculator.

The coefficient-ball estimator computes its per-draw supremum exactly in
closed form.  The path-norm ball has no exact supremum (piecewise-linear
nonconvex maximization), so it is sandwiched: a multi-start heuristic
gives a certified lower estimate and the closed-form theory value an
upper one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import GramFactor, augment
from .sampling import TeacherFunction, _l1_sphere_rows, _random_signs, teacher_eval_batch
from .seeding import derive_seed, rng_from

# Largest working block, in array elements, of the sign-draw loops below.
_BLOCK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class RadEstimate:
    """Monte Carlo Rademacher complexity estimate."""

    mean: float
    std_error: float
    n_sign_draws: int

    def __post_init__(self):
        if self.mean < 0 or self.std_error < 0:
            raise ValueError("mean and std_error must be nonnegative")


@dataclass(frozen=True)
class PathBallResult:
    """Lower heuristic estimate together with the closed-form upper value."""

    estimate: RadEstimate
    upper: float


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size > 1:
        se = float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        se = 0.0
    return mean, se


def rad_rf_ball(
    Phi, C: float, n_draws: int = 256, seed: int = 0
) -> RadEstimate:
    """Rademacher complexity of the coefficient ball ||a|| <= C sqrt(m).

    Per sign vector xi the supremum of (1/n) sum_i xi_i f(x_i) over the
    ball is exact: (C / (n sqrt(m))) ||Phi^T xi||.  Monte Carlo averages
    over n_draws sign vectors.  Phi is the (n, m) feature matrix or its
    GramFactor; the norm is sqrt(xi^T G xi), O(n^2) per draw, and the
    (n, c) sign blocks keep their width c from m.
    """
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    gram = GramFactor.of(Phi)
    n, m = gram.shape
    rng = rng_from(seed)
    vals = np.empty(n_draws)
    chunk = max(1, min(n_draws, _BLOCK_ELEMENTS // max(m, 1)))
    done = 0
    while done < n_draws:
        c = min(chunk, n_draws - done)
        Xi = _random_signs(rng, np.ones((n, c)))
        quad = (Xi * (gram.G @ Xi)).sum(axis=0)  # rounding can dip below an exact 0
        vals[done : done + c] = np.sqrt(np.maximum(quad, 0.0))
        done += c
    vals *= C / (n * math.sqrt(m))
    mean, se = _mean_se(vals)
    return RadEstimate(mean=mean, std_error=se, n_sign_draws=n_draws)


def rf_ball_upper(C: float, n: int) -> float:
    """Closed-form upper value C / sqrt(n) for the coefficient ball."""
    if not C >= 0:
        raise ValueError(f"C must be nonnegative, got {C}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return C / math.sqrt(n)


def _is_tie(val, scale, n: int):
    """Whether val = xi . relu(w A) is a rounded zero: |val| <= n eps sum_i |xi_i| relu_i.

    n eps sum_i |xi_i| relu_i bounds the rounding error of the n-term sum,
    so values inside it have no reliable sign.  The ascent counts them as
    0 and climbs with sense +1, whichever route computed them.
    """
    return np.abs(val) <= n * np.finfo(float).eps * scale


def _refine_sphere_max(A: np.ndarray, xi_over_n: np.ndarray, w0: np.ndarray,
                       n_steps: int = 60) -> np.ndarray:
    """Projected subgradient ascent of |xi . relu(w A) / n| over the l1 sphere.

    All starts of all sign draws climb together: w0 holds k starts per
    draw, shape (T, k, d+1), and xi_over_n one sign vector per draw,
    shape (T, n).  Returns the best |value| per draw, the max over its
    starts and steps.  ReLU is positively homogeneous, so renormalizing w
    to the sphere after each step just rescales the objective; tracking
    the best normalized value keeps the iteration a valid lower-bound
    search.  A start whose subgradient vanishes is frozen where it is, and
    a rounded zero value (_is_tie) counts as 0 and climbs with sense +1.
    """
    T, k, D = w0.shape
    # One column per (draw, start); xi repeats each draw's signs for its k starts.
    w = w0.reshape(T * k, D).T.copy()
    xi = np.repeat(xi_over_n.T, k, axis=1)
    abs_xi = np.abs(xi)

    def subgradient(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Euler's identity for the homogeneous objective gives the value
        # from the subgradient: xi . relu(w A) = w . (A (xi [w A > 0])).
        # The tie scale sum_i |xi_i| relu_i reuses the buffer of w A.
        pre = A.T @ w
        grad = A @ ((pre > 0.0) * xi)
        val = (w * grad).sum(axis=0)
        np.maximum(pre, 0.0, out=pre)
        pre *= abs_xi
        return grad, np.where(_is_tie(val, pre.sum(axis=0), A.shape[1]), 0.0, val)

    grad, val = subgradient(w)
    best = np.abs(val)
    live = np.ones(T * k, dtype=bool)
    for step in range(n_steps):
        grad *= np.where(val >= 0, 1.0, -1.0)
        gnorm = np.abs(grad).max(axis=0)
        live &= gnorm > 0.0
        if not live.any():
            break
        moved = w + (0.5 / (step + 2.0)) * grad / np.where(live, gnorm, 1.0)
        moved /= np.abs(moved).sum(axis=0)
        w = np.where(live, moved, w)
        grad, val = subgradient(w)
        np.maximum(best, np.abs(val), out=best)
    return best.reshape(T, k).max(axis=1)


def rad_path_ball(
    X: np.ndarray,
    C: float,
    n_draws: int = 256,
    n_starts: int = 8,
    seed: int = 0,
) -> PathBallResult:
    """Rademacher complexity of the unit-path-norm ball, scaled by C.

    Per sign draw the supremum of |(1/n) sum_i xi_i relu(w . (x_i, 1))|
    over the l1 sphere is approached from below by multi-start local
    search: all signed coordinate vertices plus n_starts random sphere
    points, each refined by projected subgradient ascent.  The ascent
    runs on blocks of whole draws of at most _BLOCK_ELEMENTS (start,
    sample) entries.  The returned estimate is a certified lower value;
    the closed-form upper value 2 C sqrt(2 ln(2d) / n) is attached for
    sandwiching.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected X of shape (d, n), got {X.shape}")
    if C < 0:
        raise ValueError(f"C must be nonnegative, got {C}")
    if n_draws < 1 or n_starts < 0:
        raise ValueError("n_draws must be >= 1 and n_starts >= 0")
    d, n = X.shape
    upper = 2.0 * C * math.sqrt(2.0 * math.log(2.0 * d) / n)
    if C == 0.0:
        est = RadEstimate(mean=0.0, std_error=0.0, n_sign_draws=n_draws)
        return PathBallResult(estimate=est, upper=upper)

    A = augment(X)
    D = d + 1
    k = 2 * D + n_starts
    rng = rng_from(derive_seed(seed, 0))
    sign_rng = rng_from(derive_seed(seed, 1))
    vals = np.empty(n_draws)
    chunk = max(1, min(n_draws, _BLOCK_ELEMENTS // (k * n)))
    for done in range(0, n_draws, chunk):
        c = min(chunk, n_draws - done)
        xi = np.ones((c, n))
        w0 = np.empty((c, k, D))
        w0[:, :D] = np.eye(D)
        w0[:, D : 2 * D] = -np.eye(D)
        # Draw by draw, so both streams match a one-draw-at-a-time search.
        for t in range(c):
            _random_signs(sign_rng, xi[t])
            if n_starts > 0:
                w0[t, 2 * D :] = _l1_sphere_rows(rng, n_starts, D)
        vals[done : done + c] = C * _refine_sphere_max(A, xi / n, w0)
    mean, se = _mean_se(vals)
    est = RadEstimate(mean=mean, std_error=se, n_sign_draws=n_draws)
    return PathBallResult(estimate=est, upper=upper)


def rad_weighted_path_upper(C: float, d: int, n: int) -> float:
    """Closed-form upper value 3 C sqrt(2 log(2d) / n) for the weighted-path ball."""
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be >= 1, got d={d}, n={n}")
    if C < 0:
        raise ValueError(f"C must be nonnegative, got {C}")
    return 3.0 * C * math.sqrt(2.0 * math.log(2.0 * d) / n)


def generalization_bound(emp_risk: float, C: float, rad: float, delta: float, n: int) -> float:
    """emp_risk + 2 Q rad + 4 C_loss sqrt(2 ln(2/delta) / n) for the squared loss.

    On a hypothesis ball of norm radius C the loss has Lipschitz constant
    Q = C + 1 and sup bound C_loss = (C + 1)^2 / 2.
    """
    if min(emp_risk, C, rad) < 0:
        raise ValueError("emp_risk, C, rad must be nonnegative")
    if not 0 < delta < 2:
        raise ValueError(f"delta must lie in (0, 2) for ln(2/delta) >= 0, got {delta}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    Q = C + 1.0
    C_loss = Q ** 2 / 2.0
    return emp_risk + 2.0 * Q * rad + 4.0 * C_loss * math.sqrt(2.0 * math.log(2.0 / delta) / n)


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo population risk under the squared loss.

    rounding_bound is the certified bound on how far float32 tile sums
    moved risk from the float64 route's, or None when float64 summed it.
    """

    risk: float
    std_error: float
    n_test: int
    rounding_bound: float | None = None


def population_risk(
    model_eval,
    f: TeacherFunction,
    N_test: int = 10_000,
    seed: int = 0,
    single_eval=None,
) -> RiskEstimate:
    """Monte Carlo average of (1/2)(model(x) - f*(x))^2 over fresh uniform inputs.

    model_eval must map a (d, N) matrix of inputs to a length-N vector of
    predictions (vectorized evaluation; every model class here provides
    one).  single_eval, when given, maps the same inputs to (predictions,
    B) with B a certified per-point bound on their distance from
    model_eval's, as RandomFeatureModel.predict(X, single=True) does.  Its
    residuals r then move each loss by at most |r| B + B^2 / 2, so the
    risk by at most mean(|r| B) + mean(B^2) / 2; the estimate is kept when
    that is at most half its standard error, and otherwise model_eval
    evaluates the same inputs again and its estimate is returned.
    """
    if N_test < 1:
        raise ValueError(f"N_test must be >= 1, got {N_test}")
    rng = rng_from(seed)
    X = rng.uniform(-1.0, 1.0, size=(f.d, N_test))
    target = teacher_eval_batch(f, X)
    if single_eval is not None:
        predictions, bound = single_eval(X)
        residuals = predictions - target
        mean, se = _mean_se(0.5 * residuals ** 2)
        rounding = float(np.mean(np.abs(residuals) * bound) + np.mean(bound * bound) / 2)
        if rounding <= se / 2:
            return RiskEstimate(risk=mean, std_error=se, n_test=N_test, rounding_bound=rounding)
    losses = 0.5 * (np.asarray(model_eval(X), dtype=float) - target) ** 2
    mean, se = _mean_se(losses)
    return RiskEstimate(risk=mean, std_error=se, n_test=N_test)
