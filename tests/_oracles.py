"""Loop-form reference implementations that the package's vectorized code must match.

Each oracle computes one quantity the slow, obvious way: one point, one
start or one sign draw at a time.  Only tests import this module.
"""

from __future__ import annotations

import numpy as np

from minterp.complexity import _is_tie, _mean_se
from minterp.experiments import _fit_slope
from minterp.linalg import _FEATURE_TILE
from minterp.random_features import _QUADRATURE_CHUNK, RELU_L1SPHERE
from minterp.sampling import teacher_eval_batch
from minterp.seeding import derive_seed, rng_from
from minterp.two_layer import TwoLayerNet, two_layer_eval_batch


def teacher_eval(f, x: np.ndarray) -> float:
    """Evaluate the teacher at a single point x of length d."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.d,):
        raise ValueError(f"expected x of shape ({f.d},), got {x.shape}")
    pre = f.directions[:, :-1] @ x + f.directions[:, -1]
    return float(f.coefficients @ np.maximum(pre, 0.0) / f.n_atoms)


def sample_l1_sphere_formula(rng, count: int, dim: int) -> np.ndarray:
    """sampling._l1_sphere_rows as normalized exponentials times a separate sign array."""
    g = rng.exponential(scale=1.0, size=(count, dim))
    simplex = g / g.sum(axis=1, keepdims=True)
    signs = rng.integers(0, 2, size=(count, dim)) * 2 - 1
    return simplex * signs


def rademacher_formula(rng, shape) -> np.ndarray:
    """±1.0 signs as twice a bound-2 integer draw minus one."""
    return rng.integers(0, 2, size=shape) * 2.0 - 1.0


def rad_rf_ball_mean_se(Phi: np.ndarray, C: float, n_draws: int, seed: int) -> tuple[float, float]:
    """rad_rf_ball with all sign vectors in one (n, n_draws) draw, for n_draws within one chunk.

    The signs come from integer draws; the norm ||Phi^T xi|| is taken as
    sqrt(xi^T G xi) with G = Phi Phi^T, as rad_rf_ball takes it, so the two
    agree exactly and a mismatch points at the sign stream.
    """
    n, m = Phi.shape
    Xi = rademacher_formula(rng_from(seed), (n, n_draws))
    quad = np.sum(Xi * ((Phi @ Phi.T) @ Xi), axis=0)
    return _mean_se(np.sqrt(np.maximum(quad, 0.0)) * (C / (n * np.sqrt(m))))


def approximate_teacher_draws(f, m1: int, X: np.ndarray, seed: int, n_retry_draws: int = 32):
    """approximate_teacher's choice, building and evaluating every draw's net.

    Returns (draw_index, net, risk) of the first draw with the smallest risk.
    Draws that take the same atoms, counting only atoms whose neuron is
    nonzero at some column of X, give the same outputs on X: their risks tie
    exactly, though the per-net sums may round them apart.  Such a tie goes
    to the first draw of the smallest risk's tie class.
    """
    targets = teacher_eval_batch(f, X)
    pre = f.directions[:, :-1] @ X + f.directions[:, -1][:, None]
    live = np.flatnonzero((f.coefficients[:, None] * np.maximum(pre, 0.0)).any(axis=1))
    draws = []
    for t in range(n_retry_draws):
        idx = rng_from(derive_seed(seed, t)).integers(0, f.n_atoms, size=m1)
        net = TwoLayerNet(a=f.coefficients[idx], W=f.directions[idx])
        risk = 0.5 * float(np.mean((two_layer_eval_batch(net, X) - targets) ** 2))
        live_counts = tuple(np.bincount(idx, minlength=f.n_atoms)[live])
        draws.append((t, net, risk, live_counts))
    best = min(draws, key=lambda draw: draw[2])
    first = next(draw for draw in draws if draw[3] == best[3])
    return first[:3]


def two_layer_eval(theta, x: np.ndarray) -> float:
    """Evaluate a two-layer net at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (theta.d,):
        raise ValueError(f"expected x of shape ({theta.d},), got {x.shape}")
    pre = theta.W[:, :-1] @ x + theta.W[:, -1]
    return float(theta.a @ np.maximum(pre, 0.0) / theta.m)


def resnet_eval_layers(theta, X: np.ndarray) -> np.ndarray:
    """Layer-by-layer forward pass at every column of X at once, unchunked."""
    Z = theta.V @ np.vstack([X, np.ones((1, X.shape[1]))])
    L = theta.L
    for U, W in zip(theta.U, theta.W):
        Z = Z + U @ np.maximum(W @ Z, 0.0) / L
    return theta.alpha @ Z


def resnet_eval(theta, x: np.ndarray) -> float:
    """Layer-by-layer forward pass of a residual net at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (theta.d,):
        raise ValueError(f"expected x of shape ({theta.d},), got {x.shape}")
    z = theta.V @ np.append(x, 1.0)
    L = theta.L
    for U, W in zip(theta.U, theta.W):
        z = z + U @ np.maximum(W @ z, 0.0) / L
    return float(theta.alpha @ z)


def weighted_path_norm_layers(theta) -> float:
    """|alpha|^T prod_l (I + (3/L)|U_l||W_l|) |V| 1 by the vector recursion, one layer per step."""
    u = np.abs(theta.alpha)
    for U, W in zip(np.abs(theta.U), np.abs(theta.W)):
        u = u + (3.0 / theta.L) * (W.T @ (U.T @ u))
    return float(u @ (np.abs(theta.V) @ np.ones(theta.d + 1)))


def feature_sum_gap_bound(a: np.ndarray, W: np.ndarray, X: np.ndarray,
                          relu: bool = True) -> np.ndarray:
    """Largest gap, per column x of X, between two roundings of sum_j a_j phi(W_j . (x, 1)).

    Each rounding perturbs the (d+1)-term pre-activations by at most
    (d+1) eps q, q = |W||x~|, which relu and cos (both 1-Lipschitz) pass on
    unamplified, and the m-term sum with a by at most m eps |a|^T g, where
    |phi| <= g: g = q for relu, g = 1 for cos.  cos itself adds up to 2 ulps
    per term and a division by m half an ulp of the result.  To first order
    in eps two roundings differ by at most eps (2(d+1) |a|^T q + (2m + 6) |a|^T g).
    The tiled relu sum takes relu(t) = (t + |t|) / 2.  Its sum of
    a_j |t_j| and its linear half (a^T W) . (x, 1), m and then d+1 terms,
    each err by at most eps (m + d + 1) |a|^T q; adding them errs by at
    most eps |a|^T q more, and the halving is exact, so that rounding errs
    by at most eps (m + d + 3/2) |a|^T q, inside one rounding's half of the
    bound, eps (m + d + 4) |a|^T q.
    """
    d, n = X.shape
    m = W.shape[0]
    q = np.abs(W) @ np.abs(np.vstack([X, np.ones((1, n))]))
    g = q if relu else np.ones_like(q)
    a = np.abs(a)
    return np.finfo(float).eps * (2 * (d + 1) * (a @ q) + (2 * m + 6) * (a @ g))


def feature_sum_tiles(a: np.ndarray, W: np.ndarray, X: np.ndarray, relu: bool = True) -> np.ndarray:
    """linalg._feature_sum with a fresh array for every tile.

    The same (_FEATURE_TILE, _FEATURE_TILE) tiling and the same products in
    the same order, where _feature_sum writes each tile into buffers it
    reuses, so the sums round identically; relu sums through
    relu(t) = (t + |t|) / 2, the tiles taking |t| and one product with
    a^T W the linear half.
    """
    d, n = X.shape
    out = np.empty(n)
    for start in range(0, n, _FEATURE_TILE):
        Xt = np.vstack([X[:, start : start + _FEATURE_TILE],
                        np.ones((1, min(_FEATURE_TILE, n - start)))])
        acc = np.zeros(Xt.shape[1])
        for row in range(0, W.shape[0], _FEATURE_TILE):
            pre = W[row : row + _FEATURE_TILE] @ Xt
            pre = np.abs(pre) if relu else np.cos(pre)
            acc += a[row : row + _FEATURE_TILE] @ pre
        out[start : start + _FEATURE_TILE] = acc
    if relu:
        u = a @ W
        out = (out + (u[:d] @ X + u[d])) * 0.5
    return out


def embed_two_layer_stacks(theta) -> tuple[np.ndarray, np.ndarray]:
    """embed_two_layer's U and W, built one single-neuron layer at a time."""
    d = theta.d
    D = d + 2
    Us, Ws = [], []
    for j in range(theta.m):
        U = np.zeros((D, 1))
        U[D - 1, 0] = theta.a[j]
        W = np.zeros((1, D))
        W[0, : d + 1] = theta.W[j]
        Us.append(U)
        Ws.append(W)
    return np.stack(Us), np.stack(Ws)


def resnet_add_stacks(theta1, theta2) -> tuple[np.ndarray, np.ndarray]:
    """resnet_add's U and W, built one block-diagonal layer at a time.

    Layer l of a net of depth L_i < L is its U_l scaled by L / L_i, or zero
    past its depth: the identity padding resnet_add applies first.
    """
    L = max(theta1.L, theta2.L)
    D1, m1, D2, m2 = theta1.D, theta1.m, theta2.D, theta2.m
    Us, Ws = [], []
    for l in range(L):
        U = np.zeros((D1 + D2, m1 + m2))
        W = np.zeros((m1 + m2, D1 + D2))
        if l < theta1.L:
            U[:D1, :m1] = theta1.U[l] * (L / theta1.L)
            W[:m1, :D1] = theta1.W[l]
        if l < theta2.L:
            U[D1:, m1:] = theta2.U[l] * (L / theta2.L)
            W[m1:, D1:] = theta2.W[l]
        Us.append(U)
        Ws.append(W)
    return np.stack(Us), np.stack(Ws)


def sphere_value(A: np.ndarray, xi_over_n: np.ndarray, w: np.ndarray) -> float:
    """xi . relu(w A), computed directly; a rounded zero (complexity._is_tie) is 0."""
    relu = np.maximum(w @ A, 0.0)
    val = float(xi_over_n @ relu)
    tie = _is_tie(val, float(np.abs(xi_over_n) @ relu), A.shape[1])
    return 0.0 if tie else val


def kernel_exact_plain(family, X: np.ndarray, quadrature_size: int, seed: int) -> np.ndarray:
    """Plain Monte Carlo quadrature of E_w[phi(x;w) phi(x';w)] for either family.

    The average of phi phi^T over quadrature_size draws in kernel_exact's
    seed blocks, with one (n, c) feature array F per block, accumulating
    F F^T: the ReLU estimator kernel_exact used before its antithetic pairs.
    """
    d, n = X.shape
    K = np.zeros((n, n))
    done = 0
    while done < quadrature_size:
        c = min(_QUADRATURE_CHUNK, quadrature_size - done)
        F = family.features(family.sample_params(d, c, derive_seed(seed, done)), X)
        K += F @ F.T
        done += c
    K /= quadrature_size
    return (K + K.T) / 2.0


def kernel_exact_blocks(family, X: np.ndarray, quadrature_size: int, seed: int) -> np.ndarray:
    """kernel_exact's quadrature written out: the plain average over its point set.

    ReLU: the points are the quadrature_size / 2 draws w_q of kernel_exact's
    seed blocks together with -w_q; each block's (n, c) feature arrays at w
    and at -w are accumulated as F F^T.  Cosine: kernel_exact_plain.
    """
    if family.tag != RELU_L1SPHERE:
        return kernel_exact_plain(family, X, quadrature_size, seed)
    d, n = X.shape
    draws = quadrature_size // 2
    K = np.zeros((n, n))
    for done in range(0, draws, _QUADRATURE_CHUNK):
        W = family.sample_params(d, min(_QUADRATURE_CHUNK, draws - done), derive_seed(seed, done))
        for points in (W, -W):
            F = family.features(points, X)
            K += F @ F.T
            del F  # one block's feature array at a time
    K /= quadrature_size
    return (K + K.T) / 2.0


def refine_sphere_max(A: np.ndarray, xi_over_n: np.ndarray, w0: np.ndarray,
                      n_steps: int = 60) -> float:
    """Projected subgradient ascent from one start, stopping at a zero subgradient."""
    w = w0.copy()
    g0 = sphere_value(A, xi_over_n, w)
    best = abs(g0)
    sense = 1.0 if g0 >= 0 else -1.0
    for k in range(n_steps):
        active = (w @ A) > 0.0
        grad = sense * (A @ (xi_over_n * active))
        gnorm = float(np.abs(grad).max())
        if gnorm == 0.0:
            break
        w = w + (0.5 / (k + 2.0)) * grad / gnorm
        w = w / np.abs(w).sum()
        val = sphere_value(A, xi_over_n, w)
        if abs(val) > best:
            best = abs(val)
        sense = 1.0 if val >= 0 else -1.0
    return best


def rad_path_ball_values(X: np.ndarray, C: float, n_draws: int, n_starts: int,
                         seed: int) -> np.ndarray:
    """Per-draw path-ball suprema of rad_path_ball, one draw and one start at a time."""
    d, n = X.shape
    A = np.vstack([X, np.ones((1, n))])
    vertices = np.vstack([np.eye(d + 1), -np.eye(d + 1)])
    rng = rng_from(derive_seed(seed, 0))
    sign_rng = rng_from(derive_seed(seed, 1))
    vals = np.empty(n_draws)
    for t in range(n_draws):
        xi = rademacher_formula(sign_rng, n)
        starts = [vertices]
        if n_starts > 0:
            g = rng.exponential(size=(n_starts, d + 1))
            s = g / g.sum(axis=1, keepdims=True)
            starts.append(s * (rng.integers(0, 2, size=(n_starts, d + 1)) * 2 - 1))
        best = 0.0
        for w0 in np.vstack(starts):
            best = max(best, refine_sphere_max(A, xi / n, w0))
        vals[t] = C * best
    return vals


def rad_path_ball_mean_se(X, C, n_draws, n_starts, seed) -> tuple[float, float]:
    return _mean_se(rad_path_ball_values(X, C, n_draws, n_starts, seed))


def bootstrap_slope_ci_loop(risks_per_n: list, ns: list, seed: int, n_boot: int = 200):
    """experiments._bootstrap_slope_ci, one resample and one slope fit at a time."""
    rng = rng_from(seed)
    slopes = []
    for _ in range(n_boot):
        medians = []
        for risks in risks_per_n:
            idx = rng.integers(0, len(risks), size=len(risks))
            medians.append(float(np.median(np.asarray(risks)[idx])))
        if all(v > 0 for v in medians):
            slopes.append(_fit_slope(ns, medians))
    if len(slopes) < n_boot // 2:
        return None
    return (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5)))
