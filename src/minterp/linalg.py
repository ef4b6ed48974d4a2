"""Shared dense linear algebra: minimum-norm solves and spectral quantities.

Wide matrices A (n, p) with n << p are factored through the small Gram
matrix G = A A^T, whose symmetric eigensolve costs O(n^2 p) for the
product plus O(n^3), against a much larger constant for the SVD of A.
Squaring A squares its condition number, so eigenpairs of G carry a
relative error of about eps * cond(G); when cond(G) exceeds
1 / GRAM_RCOND the SVD of A is used instead.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError

DEFAULT_RCOND = 1e-10
# Smallest lambda_min(G) / lambda_max(G) the Gram route accepts; below it
# the SVD of A runs.
GRAM_RCOND = 1e-10


def _well_conditioned(lam: np.ndarray) -> bool:
    """Ascending Gram eigenvalues lam pass the GRAM_RCOND limit."""
    return lam[0] > GRAM_RCOND * lam[-1]


def _check_cutoff(s_min: float, s_max: float, rcond: float) -> None:
    cutoff = rcond * s_max
    if s_min <= cutoff:
        raise SingularSystemError(
            f"smallest singular value {s_min:.3e} is at or below cutoff {cutoff:.3e}",
            smallest=float(s_min),
            cutoff=float(cutoff),
        )


def min_norm_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum Euclidean norm solution of the underdetermined system A x = b.

    For A (n, p) with n <= p the solution is A^T (A A^T)^-1 b, computed
    from the eigenpairs of the n x n Gram matrix when it passes the
    GRAM_RCOND limit and from the economy SVD of A otherwise; both cost
    O(n^2 p), so widths p in the hundreds of thousands stay tractable.
    Raises SingularSystemError when the smallest singular value of A falls
    at or below DEFAULT_RCOND * max(n, p) times the largest, since the
    pseudoinverse solution then stops being a reliable interpolant.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n, p = A.shape
    if b.shape != (n,):
        raise ValueError(f"expected b of shape ({n},), got {b.shape}")
    if n > p:
        raise ValueError(f"system must be underdetermined or square, got shape {A.shape}")
    if n == 0:
        raise SingularSystemError("empty system has no singular values", smallest=0.0, cutoff=0.0)
    rcond = DEFAULT_RCOND * max(n, p)
    lam, V = np.linalg.eigh(A @ A.T)
    if _well_conditioned(lam):
        _check_cutoff(np.sqrt(lam[0]), np.sqrt(lam[-1]), rcond)
        return A.T @ (V @ ((V.T @ b) / lam))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    _check_cutoff(s[-1], s[0], rcond)
    return Vt.T @ ((U.T @ b) / s)


def smallest_eigenvalue(K: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (full symmetric eigensolve)."""
    K = np.asarray(K, dtype=float)
    return float(np.linalg.eigvalsh(K)[0])


def smallest_singular_value(M: np.ndarray) -> float:
    """Smallest singular value of a rectangular matrix.

    Taken as the square root of the smallest eigenvalue of the smaller
    Gram matrix (M M^T or M^T M) when it passes the GRAM_RCOND limit, and
    from the singular values of M otherwise.
    """
    M = np.asarray(M, dtype=float)
    G = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
    lam = np.linalg.eigvalsh(G)
    if _well_conditioned(lam):
        return float(np.sqrt(lam[0]))
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[-1])
