"""Residual networks, the weighted path norm, and exact composition laws.

Networks follow z_0 = V (x, 1), z_{l+1} = z_l + (1/L) U_l relu(W_l z_l),
output alpha . z_L.  The central facts verified here are exact, not
approximate: padding with identity layers changes nothing, adding two
networks block-diagonally adds their weighted path norms, and embedding a
two-layer network costs exactly a factor 3 in norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _feature_sum, augment
from .random_features import ReferenceLambda
from .sampling import Dataset
from .seeding import derive_seed, rng_from
from .two_layer import ResidualFit, TwoLayerNet, fit_residual_net

# Inputs per block of resnet_eval_batch's layer loop, which holds a (D, block) state.
_LAYER_LOOP_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class ResNet:
    """Residual network: injection V (D, d+1), readout alpha (D,), and the
    layer weights stacked as U (L, D, m) and W (L, m, D)."""

    V: np.ndarray
    U: np.ndarray
    W: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        U = np.asarray(self.U, dtype=float)
        W = np.asarray(self.W, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if V.ndim != 2 or not 2 <= V.shape[1] <= V.shape[0]:
            raise ValueError(f"expected V of shape (D, d+1) with D >= d+1 >= 2, got {V.shape}")
        D = V.shape[0]
        if alpha.shape != (D,):
            raise ValueError(f"expected alpha of shape ({D},), got {alpha.shape}")
        if U.ndim != 3 or U.shape[0] < 1 or U.shape[1] != D:
            raise ValueError(f"expected U of shape (L, {D}, m) with L >= 1, got {U.shape}")
        L, _, m = U.shape
        if W.shape != (L, m, D):
            raise ValueError(f"expected W of shape ({L}, {m}, {D}), got {W.shape}")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "alpha", alpha)

    @property
    def d(self) -> int:
        return self.V.shape[1] - 1

    @property
    def L(self) -> int:
        return self.U.shape[0]

    @property
    def D(self) -> int:
        return self.V.shape[0]

    @property
    def m(self) -> int:
        return self.U.shape[2]


def canonical_injection(d: int, D: int) -> np.ndarray:
    """The fixed top-block identity injection: (x, 1) into the first d+1 coordinates."""
    if D < d + 1:
        raise ValueError(f"need D >= d+1, got D={D}, d={d}")
    V = np.zeros((D, d + 1))
    V[: d + 1, : d + 1] = np.eye(d + 1)
    return V


def _disjoint_stacks(theta: ResNet):
    """The layer stacks as U (D, L*m) and W (L*m, D), or None if the layers interact.

    They do not interact when no coordinate that some U_l writes (a
    nonzero row of U) is read by any W_l (a nonzero column of W).  Then
    W_l z_l = W_l z_0 at every layer, and both the forward pass and the
    weighted path norm reduce to one product over the stacks.  Every net
    interpolate_resnet builds has this structure.
    """
    U = theta.U.transpose(1, 0, 2).reshape(theta.D, -1)
    W = theta.W.reshape(-1, theta.D)
    if np.any(U.any(axis=1) & W.any(axis=0)):
        return None
    return U, W


def _two_layer_form(theta: ResNet):
    """(lin, a, inner) with f(x) = lin . x~ + a . relu(inner x~), x~ = (x, 1), or None.

    For nets with _disjoint_stacks, z_0 = V x~ and
    f(x) = alpha V x~ + sum_l (alpha^T U_l / L) relu(W_l V x~), one
    two-layer evaluation with augmented inner weights inner = W V.
    Neurons whose outer weight is exactly 0 (identity-padding layers) are
    dropped.
    """
    stacks = _disjoint_stacks(theta)
    if stacks is None:
        return None
    U, W = stacks
    outer = theta.alpha @ U / theta.L
    keep = outer != 0.0
    return theta.alpha @ theta.V, outer[keep], W[keep] @ theta.V


def resnet_eval_batch(theta: ResNet, X: np.ndarray) -> np.ndarray:
    """Forward pass at every column of X (shape (d, n)).

    Nets with disjoint U writes and W reads (see _disjoint_stacks) are
    evaluated in one tiled two-layer pass; any other net runs the layer
    loop, _LAYER_LOOP_CHUNK columns at a time.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != theta.d:
        raise ValueError(f"expected X of shape ({theta.d}, n), got {X.shape}")
    form = _two_layer_form(theta)
    if form is not None:
        lin, a, inner = form
        return lin[:-1] @ X + lin[-1] + _feature_sum(a, inner, X)

    n = X.shape[1]
    out = np.empty(n)
    for start in range(0, n, _LAYER_LOOP_CHUNK):
        Xc = X[:, start : start + _LAYER_LOOP_CHUNK]
        Z = theta.V @ augment(Xc)
        for U, W in zip(theta.U, theta.W):
            Z = Z + U @ np.maximum(W @ Z, 0.0) / theta.L
        out[start : start + _LAYER_LOOP_CHUNK] = theta.alpha @ Z
    return out


def weighted_path_norm(theta: ResNet) -> float:
    """|alpha|^T prod_l (I + (3/L)|U_l||W_l|) |V| 1.

    For nets with _disjoint_stacks every cross term |U_k||W_k||U_l||W_l|
    vanishes, so the product telescopes to I + (3/L)|U||W| on the stacks
    and the row vector is |alpha| + (3/L)|W|^T(|U|^T|alpha|), one stacked
    product.  Any other net runs the vector recursion, which absorbs one
    factor per layer and never materializes the D x D product; cost O(L D m).
    """
    a = np.abs(theta.alpha)
    L = theta.L
    stacks = _disjoint_stacks(theta)
    if stacks is not None:
        U, W = stacks
        u = a + (3.0 / L) * (np.abs(W).T @ (np.abs(U).T @ a))
    else:
        u = a
        for U, W in zip(np.abs(theta.U), np.abs(theta.W)):
            u = u + (3.0 / L) * (W.T @ (U.T @ u))
    return float(u @ (np.abs(theta.V) @ np.ones(theta.d + 1)))


def pad_identity_layers(theta: ResNet, L_new: int) -> ResNet:
    """Extend to depth L_new without changing the function or the norm.

    Appended layers have U = 0, so they pass z through unchanged.  The
    surviving layers' U are rescaled by L_new / L to compensate the 1/L
    prefactor of the deeper network; the 3/L weighting inside the norm is
    compensated by the same factor, making both exactly invariant.
    """
    if L_new < theta.L:
        raise ValueError(f"L_new must be >= {theta.L}, got {L_new}")
    if L_new == theta.L:
        return theta
    pad = L_new - theta.L
    U = np.concatenate([theta.U * (L_new / theta.L), np.zeros((pad, theta.D, theta.m))])
    W = np.concatenate([theta.W, np.zeros((pad, theta.m, theta.D))])
    return ResNet(V=theta.V, U=U, W=W, alpha=theta.alpha)


def resnet_add(theta1: ResNet, theta2: ResNet) -> ResNet:
    """Block-diagonal sum: evaluates to f1 + f2 with exactly additive norm.

    The shallower net is identity-padded to the deeper depth, then the U
    and W matrices are stacked block-diagonally, the injections stacked
    vertically, and the readouts concatenated.  The two blocks never
    interact, so values and weighted path norms add exactly.
    """
    if theta1.d != theta2.d:
        raise ValueError(f"input dimension mismatch: {theta1.d} vs {theta2.d}")
    L = max(theta1.L, theta2.L)
    t1 = pad_identity_layers(theta1, L)
    t2 = pad_identity_layers(theta2, L)
    D1, m1 = t1.D, t1.m
    D2, m2 = t2.D, t2.m
    U = np.zeros((L, D1 + D2, m1 + m2))
    U[:, :D1, :m1] = t1.U
    U[:, D1:, m1:] = t2.U
    W = np.zeros((L, m1 + m2, D1 + D2))
    W[:, :m1, :D1] = t1.W
    W[:, m1:, D1:] = t2.W
    return ResNet(
        V=np.vstack([t1.V, t2.V]),
        U=U,
        W=W,
        alpha=np.concatenate([t1.alpha, t2.alpha]),
    )


def embed_two_layer(theta: TwoLayerNet) -> ResNet:
    """Represent a width-m two-layer network as an (m, d+2, 1) residual network.

    One neuron per layer: layer j reads (b_j, c_j, 0) off the preserved
    input block and writes a_j times its ReLU into the accumulator
    coordinate d+2, which the readout picks out.  Each layer's
    |U_l||W_l| has its only nonzero row at d+2 and a zero column there,
    so the products in the norm vanish pairwise and the product
    telescopes to I plus the sum of per-layer terms; the norm comes out
    exactly 3 * path_norm(theta).
    """
    d, m = theta.d, theta.m
    D = d + 2
    U = np.zeros((m, D, 1))
    U[:, D - 1, 0] = theta.a
    W = np.zeros((m, 1, D))
    W[:, 0, : d + 1] = theta.W
    alpha = np.zeros(D)
    alpha[D - 1] = 1.0
    return ResNet(V=canonical_injection(d, D), U=U, W=W, alpha=alpha)


def random_resnet(
    d: int, L: int, D: int, m: int, scale: float = 0.5, seed: int = 0
) -> ResNet:
    """Gaussian-weight network with the canonical injection, for harnesses."""
    if D < d + 1:
        raise ValueError(f"need D >= d+1, got D={D}, d={d}")
    rng = rng_from(seed)
    U, W = np.empty((L, D, m)), np.empty((L, m, D))
    for l in range(L):  # U_l then W_l, layer by layer: this order fixes the seed stream
        U[l] = rng.normal(0.0, scale, size=(D, m))
        W[l] = rng.normal(0.0, scale, size=(m, D))
    alpha = rng.normal(0.0, 1.0, size=D)
    return ResNet(V=canonical_injection(d, D), U=U, W=W, alpha=alpha)


@dataclass(frozen=True, eq=False)
class ResNetFit:
    """interpolate_resnet output: the interpolant and its norm decomposition.

    surrogate_norm is the teacher net's weighted path norm; fitted holds
    the interpolant's values at the training inputs; residual is the
    two-layer fit that was embedded, and certificate = 3 * its certificate
    bounds the embedded part's norm.
    """

    net: ResNet
    weighted_norm: float
    surrogate_norm: float
    embedded_norm: float
    interp_error: float
    fitted: np.ndarray
    certificate: float
    residual: ResidualFit


def interpolate_resnet(
    data: Dataset,
    teacher_net: ResNet,
    m2: int,
    seed: int,
    lambda_target: float | ReferenceLambda,
) -> ResNetFit:
    """Interpolate the dataset by a teacher network plus an embedded residual fit.

    The approximation half is teacher_net as given; the constructive half
    fits the residual with a certified two-layer network, embeds it at
    exactly 3x its path norm, and adds the two networks with exactly
    additive norm.  The report carries the decomposition
    weighted_norm = surrogate_norm + embedded_norm and the certificate
    3 * ||r|| / sigma_min for the embedded part.  lambda_target is the
    residual fit's eigenvalue target: the smallest eigenvalue of the
    reference kernel on the data, as reference_lambda_min's number or as
    the ReferenceLambda of data.X (see interpolate_two_layer).
    """
    X, y = data.X, data.y
    if teacher_net.d != data.d:
        raise ValueError(
            f"teacher input dimension {teacher_net.d} does not match data {data.d}"
        )
    r = y - resnet_eval_batch(teacher_net, X)
    fit2 = fit_residual_net(X, r, m2, lambda_target, seed=derive_seed(seed, 2))
    embedded = embed_two_layer(fit2.net)
    net = resnet_add(teacher_net, embedded)
    fitted = resnet_eval_batch(net, X)
    return ResNetFit(
        net=net,
        weighted_norm=weighted_path_norm(net),
        surrogate_norm=weighted_path_norm(teacher_net),
        embedded_norm=weighted_path_norm(embedded),
        interp_error=float(np.abs(fitted - y).max()),
        fitted=fitted,
        certificate=3.0 * fit2.certificate,
        residual=fit2,
    )
