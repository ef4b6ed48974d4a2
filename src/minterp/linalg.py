"""Shared dense linear algebra: minimum-norm solves and spectral quantities.

A wide matrix A (n, p), n << p, is factored once per fit by a GramFactor:
G = A A^T is summed over A's column blocks in one pass and its symmetric
eigensolve runs on first use, O(n^2 p) plus O(n^3) against a much larger
constant for the SVD of A.  A is given as a ColumnBlocks source, so a
source that recomputes its blocks never holds A whole; an array is the
source of one block.  Squaring A squares its condition number, so
eigenpairs of G carry a relative error of about eps * cond(G); past
1 / GRAM_RCOND the economy SVD of A, stacked from its blocks, runs
instead.  The solve, sigma_min(A), K^m = G / m and the random-feature
Rademacher estimate all read the one factor.

_feature_sum is the one tiled kernel for sums sum_j a_j phi(w_j . (x, 1))
over the rows w_j of an augmented weight matrix: random-feature
predictions, two-layer and one-pass residual-net evaluations and the
teacher all go through it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from .errors import SingularSystemError

DEFAULT_RCOND = 1e-10
# Largest max |K - K^T| / max(1, max |K|) a symmetric input may show.
_SYM_TOL = 1e-10
# Smallest lambda_min(G) / lambda_max(G) the Gram route accepts; below it
# the SVD of A runs.
GRAM_RCOND = 1e-10
# Bytes per block of a recomputed source, and the column range a block
# keeps to.  On 2 cores with OpenBLAS on one thread, blocks of 256 columns
# made the n = 512 Gram sum 32% slower than one whole-matrix product, and at
# n <= 256 every width from 512 columns up was within noise.  So a block
# holds about 1 MB, 2**20 // (8 n) columns, but never fewer than 512; nor
# more than 2048, since at n <= 64 a 2048-column block is already 1 MB or
# less and a wider one would only move the bits of those fits' G.
BLOCK_BYTES = 1 << 20
MIN_BLOCK_COLUMNS = 512
MAX_BLOCK_COLUMNS = 2048
# Rows and columns of each tile _feature_sum multiplies out: one (256, 256)
# float64 pre-activation tile is 512 KB and stays in L2.  On 2 cores, 128-,
# 512- and 1024-column tiles were all slower.  Its float32 tiles are
# (256, 512), also 512 KB; at m = 16,384 and 4,096 points they took 26 ms
# against 30 ms for (256, 256), one BLAS thread (float64: 45 ms).  Their
# rounding bound grows with the rows, so those stay 256.
_FEATURE_TILE = 256


def block_columns(n: int) -> int:
    """Columns per block of an n-row recomputed source."""
    return max(MIN_BLOCK_COLUMNS, min(MAX_BLOCK_COLUMNS, BLOCK_BYTES // (8 * max(n, 1))))


def _well_conditioned(lam: np.ndarray) -> bool:
    """Ascending Gram eigenvalues lam pass the GRAM_RCOND limit."""
    return lam[0] > GRAM_RCOND * lam[-1]


def _check_cutoff(s_min: float, s_max: float, rcond: float, quantity: str = "singular value") -> None:
    cutoff = rcond * s_max
    if s_min <= cutoff:
        raise SingularSystemError(
            f"smallest {quantity} {s_min:.3e} is at or below cutoff {cutoff:.3e}",
            smallest=float(s_min),
            cutoff=float(cutoff),
        )


class ColumnBlocks:
    """An (n, p) matrix A as a source of column blocks: columns(start, stop) is A[:, start:stop].

    Iterating yields (slice, block) pairs of at most `width` columns
    (default block_columns(n)), each built when it is reached, so a consumer
    that drops each block before asking for the next holds one at a time.
    """

    def __init__(self, shape: tuple, columns: Callable, width: int | None = None):
        self.shape, self._columns = tuple(shape), columns
        self._width = block_columns(self.shape[0]) if width is None else width

    @classmethod
    def of(cls, A) -> ColumnBlocks:
        """A itself when it is a source, else the one-block source of the array A."""
        if isinstance(A, cls):
            return A
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
        return cls(A.shape, lambda start, stop: A[:, start:stop], width=max(A.shape[1], 1))

    def __iter__(self):
        p = self.shape[1]
        for start in range(0, max(p, 1), self._width):  # an empty A is one empty block
            stop = min(start + self._width, p)
            yield slice(start, stop), self._columns(start, stop)


# Unit roundoffs of float32 and float64, and float32's smallest normal, the
# most an underflowing float32 operation moves its result, flushed to zero or not.
_U32, _U64, _TINY32 = 2.0 ** -24, 2.0 ** -53, 2.0 ** -126


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k = k u / (1 - k u), the error factor of k roundings of unit roundoff u."""
    return k * u / (1.0 - k * u)


def _abs_sum(a: np.ndarray, W: np.ndarray, X: np.ndarray) -> tuple:
    """(P, ||a||_1): P(x) = |a|^T |W| |x~| at every column x of X, the scale of every rounding bound.

    |a|^T |W| and ||a||_1 are summed a weight tile at a time, so nothing of length m is allocated.
    """
    abs_aw, a_l1 = np.zeros(W.shape[1]), 0.0
    for row in range(0, len(W), _FEATURE_TILE):
        abs_a = np.abs(a[row : row + _FEATURE_TILE])
        abs_aw += abs_a @ np.abs(W[row : row + _FEATURE_TILE])
        a_l1 += float(abs_a.sum())
    return abs_aw[:-1] @ np.abs(X) + abs_aw[-1], a_l1


def augment(X: np.ndarray, dtype=float) -> np.ndarray:
    """(X; 1) in dtype, so that every pre-activation is one product W @ (X; 1) with augmented rows."""
    return np.vstack([X, np.ones((1, X.shape[1]))], dtype=dtype)


def _feature_sum(a: np.ndarray, W: np.ndarray, X: np.ndarray, relu: bool = True,
                 single: bool = False):
    """sum_j a_j phi(W_j . (x, 1)) at every column x of X, without any 1/m prefactor.

    W is the augmented (m, d+1) weight matrix; phi is relu, or cos when
    relu is False.  The tiles are column slices of one augmented copy
    (X; 1), and each is multiplied by _FEATURE_TILE-row weight tiles, one
    product per tile: the working set is one (_FEATURE_TILE, _FEATURE_TILE)
    pre-activation tile, whatever m and n.  The pre-activation tile and
    the tile's weighted sum are contiguous views of two buffers allocated
    once per call.  relu sums through relu(t) = (t + |t|) / 2: the tiles
    sum a_j |t_j|, and the linear half is one (d+1)-vector product,
    (a^T W) . (x, 1), per call.

    single (relu only) multiplies the tiles out in float32 and returns
    (sums, B): B(x) bounds the distance of sums(x) from the exact sum and
    from the float64 sums.  W, (X; 1) and the coefficients over their
    absolute values are cast to float32 once per call, so one product
    gives a tile's sum and its share of C = sum_j |a_j| |t_j| as rounded;
    the tile sums, C and the linear half are float64.  By the
    dot-product analysis of Higham (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1), with u = 2^-24 and T = _FEATURE_TILE,
    a tile's T-term float32 sum and the cast of a err by at most
    gamma_(T+1) / (1 - gamma_T) C, and the casts of W and x~ and the
    (d+1)-term pre-activation by at most gamma_(d+3) P, P = |a|^T |W| |x~|;
    relu's (t + |t|) / 2 halves both.  2 gamma_N P, N = 2 m + T + 2 d + 8
    float64 roundings, covers the float64 steps of both routes (and
    predict's division by m), and 2^-126 an operation covers float32
    underflow, flushed to zero or not.  An overflow makes B inf or NaN.
    """
    d, n = X.shape
    m = W.shape[0]
    phi = np.abs if relu else np.cos
    if single and not relu:
        raise ValueError("float32 tile sums are for relu features only")
    # a float32 tile takes twice the columns in the same 512 KB
    dtype, width = (np.float32, 2 * _FEATURE_TILE) if single else (float, _FEATURE_TILE)
    Xt, Wc, coef = augment(X, dtype), W, a
    if single:
        Wc, coef = W.astype(dtype), np.array([a, np.abs(a)], dtype)
    out = np.zeros(coef.shape[:-1] + (n,))
    pre_buf = np.empty(min(_FEATURE_TILE, m) * min(width, n), dtype)
    sum_buf = np.empty(2 * min(width, n), dtype)  # room for (a; |a|)'s two sum rows
    for start in range(0, n, width):
        Xc, acc = Xt[:, start : start + width], out[..., start : start + width]
        cols = Xc.shape[1]
        for row in range(0, m, _FEATURE_TILE):
            Wt = Wc[row : row + _FEATURE_TILE]
            pre = np.matmul(Wt, Xc, out=pre_buf[: len(Wt) * cols].reshape(len(Wt), cols))
            phi(pre, out=pre)
            acc += np.matmul(coef[..., row : row + _FEATURE_TILE], pre,
                             out=sum_buf[: acc.size].reshape(acc.shape))
    sums = out[0] if single else out
    if relu:
        u = a @ W
        sums += u[:d] @ X + u[d]
        sums *= 0.5
    if not single:
        return sums
    P, a_l1 = _abs_sum(a, W, X)
    x_max = max(1.0, float(X.max(initial=0.0)), -float(X.min(initial=0.0)))
    w_max = max(float(W.max(initial=0.0)), -float(W.min(initial=0.0)))
    bound = _gamma(_FEATURE_TILE + 1, _U32) / (1 - _gamma(_FEATURE_TILE, _U32)) * out[1]
    bound += _gamma(d + 3, _U32) * P
    bound *= 0.5
    bound += 2 * _gamma(2 * m + _FEATURE_TILE + 2 * d + 8, _U64) * P
    bound += 4 * _TINY32 * ((d + 1) * (x_max + w_max + 2) * a_l1 + 2 * m * ((d + 1) * w_max * x_max + 1))
    bound *= 1.0 + 2.0 ** -20  # the float64 rounding of C, P and B themselves
    return sums, bound


def _blockwise(source: ColumnBlocks, x: np.ndarray, v) -> tuple:
    """(x, A x) from one pass over A's blocks; with v, x_b = A_b^T v is written into x first."""
    Ax = np.zeros(source.shape[0])
    for cols, block in source:
        if v is not None:
            np.matmul(block.T, v, out=x[cols])
        Ax += block @ x[cols]
        del block  # so the source builds the next block with this one freed
    return x, Ax


class GramFactor:
    """The Gram matrix G = A A^T of an (n, p) matrix A and, on first use, its spectrum.

    A is an array or a ColumnBlocks source.  G is summed over the source's
    blocks once, when the factor is built; the factor keeps G and the
    source, never A, so a recomputed source costs O(n^2 + n * block) memory
    instead of O(n p).  A solve is one more pass over the blocks.  eigh(G)
    runs when sigma_min, bottom_vector, route or a solve is first asked for,
    so a factor used only for G runs none; route is "svd" when the economy
    SVD of A, the one place A is built whole, replaced it past the
    GRAM_RCOND limit, else "gram".
    """

    def __init__(self, A):
        self.source, self.G, prod = ColumnBlocks.of(A), None, None
        for _, block in self.source:
            if self.G is None:
                self.G = block @ block.T
            else:  # every later block's product goes into one reused buffer
                prod = np.matmul(block, block.T, out=prod)
                self.G += prod
            del block  # so the source builds the next block with this one freed

    @staticmethod
    def of(A) -> GramFactor:
        """A itself when it is a GramFactor, else the factor of the array or source A."""
        return A if isinstance(A, GramFactor) else GramFactor(A)

    @property
    def shape(self) -> tuple:
        return self.source.shape

    @cached_property
    def _spectrum(self) -> tuple:
        # (route, singular values of A ascending, b -> (x, A x), the unit left
        # singular vector of the smallest); the solve closes over the source,
        # not self, so no cycle keeps a dropped factor alive
        source, (lam, V) = self.source, np.linalg.eigh(self.G)
        if _well_conditioned(lam):
            def solve(b):
                return _blockwise(source, np.empty(source.shape[1]), V @ ((V.T @ b) / lam))

            return "gram", np.sqrt(lam), solve, V[:, 0]
        U, s, Vt = np.linalg.svd(np.hstack([block for _, block in source]), full_matrices=False)

        def solve(b):
            return _blockwise(source, Vt.T @ ((U.T @ b) / s), None)

        return "svd", s[::-1], solve, U[:, -1]

    @property
    def route(self) -> str:
        return self._spectrum[0]

    @property
    def sigma_min(self) -> float:
        return float(self._spectrum[1][0])

    @property
    def bottom_vector(self) -> np.ndarray:
        """Unit eigenvector of G's smallest eigenvalue: the row combination A is closest to losing."""
        return self._spectrum[3]


def min_norm_solve(A, b: np.ndarray) -> tuple:
    """(x, A x) for the minimum Euclidean norm solution x of the underdetermined A x = b.

    A is a matrix (n, p) with n <= p, a ColumnBlocks source of one, or its
    GramFactor.  The solution is A^T (A A^T)^-1 b, computed from the
    factor's eigenpairs of G or, past the GRAM_RCOND limit, from the economy
    SVD of A; both cost O(n^2 p), so widths p in the hundreds of thousands
    stay tractable.  A x is summed in the pass over A's blocks that writes
    x, so fitted values take no pass of their own.  Raises
    SingularSystemError when the smallest singular value of A falls at or
    below DEFAULT_RCOND * max(n, p) times the largest, since the
    pseudoinverse solution then stops being a reliable interpolant.
    """
    factor = GramFactor.of(A)
    b = np.asarray(b, dtype=float)
    n, p = factor.shape
    if b.shape != (n,):
        raise ValueError(f"expected b of shape ({n},), got {b.shape}")
    if n > p:
        raise ValueError(f"system must be underdetermined or square, got shape {factor.shape}")
    if n == 0:
        raise SingularSystemError("empty system has no singular values", smallest=0.0, cutoff=0.0)
    _, s, solve, _ = factor._spectrum
    _check_cutoff(s[0], s[-1], DEFAULT_RCOND * max(n, p))
    return solve(b)


def _check_symmetric(K: np.ndarray) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    scale = max(1.0, float(np.abs(K).max())) if K.size else 1.0
    asym = float(np.abs(K - K.T).max()) if K.size else 0.0
    if asym > _SYM_TOL * scale:
        raise ValueError(f"matrix is asymmetric: max |K - K^T| = {asym:.3e}")
    return K


def smallest_eigenvalue(K: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (full symmetric eigensolve).

    Raises ValueError for a matrix that is not square or not symmetric to
    within _SYM_TOL of its largest entry.
    """
    return float(np.linalg.eigvalsh(_check_symmetric(K))[0])


def smallest_singular_value(M) -> float:
    """Smallest singular value of a matrix or a GramFactor, from the factor's spectrum.

    A tall matrix is factored as its transpose, so G is the smaller Gram matrix.
    """
    if not isinstance(M, GramFactor):
        M = np.asarray(M, dtype=float)
        M = GramFactor(M if M.shape[0] <= M.shape[1] else M.T)
    return M.sigma_min
