"""Shared dense linear algebra: minimum-norm solves and spectral quantities.

A wide matrix A (n, p), n << p, is factored once per fit by a GramFactor:
G = A A^T is formed once and its symmetric eigensolve runs on first use,
O(n^2 p) plus O(n^3) against a much larger constant for the SVD of A.
Squaring A squares its condition number, so eigenpairs of G carry a
relative error of about eps * cond(G); past 1 / GRAM_RCOND the economy
SVD of A runs instead.  The solve, sigma_min(A), K^m = G / m and the
random-feature Rademacher estimate all read the one factor.
"""

from __future__ import annotations

from functools import cached_property

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


class GramFactor:
    """A matrix A (n, p), its Gram matrix G = A A^T and, on first use, its spectrum.

    eigh(G) runs when sigma_min, route or a solve is first asked for, so a
    factor used only for G runs none; route is "svd" when the economy SVD
    of A replaced it past the GRAM_RCOND limit, else "gram".
    """

    def __init__(self, A: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.A.shape}")
        self.G = self.A @ self.A.T

    @staticmethod
    def of(A) -> GramFactor:
        """A itself when it is a GramFactor, else the factor of the array A."""
        return A if isinstance(A, GramFactor) else GramFactor(A)

    @property
    def shape(self) -> tuple:
        return self.A.shape

    @cached_property
    def _spectrum(self) -> tuple:
        # (route, singular values of A ascending, b -> A^T (A A^T)^-1 b); the
        # solve closes over A, not self, so no cycle keeps a dropped factor alive
        A, (lam, V) = self.A, np.linalg.eigh(self.G)
        if _well_conditioned(lam):
            return "gram", np.sqrt(lam), lambda b: A.T @ (V @ ((V.T @ b) / lam))
        U, s, Vt = np.linalg.svd(self.A, full_matrices=False)
        return "svd", s[::-1], lambda b: Vt.T @ ((U.T @ b) / s)

    @property
    def route(self) -> str:
        return self._spectrum[0]

    @property
    def sigma_min(self) -> float:
        return float(self._spectrum[1][0])


def min_norm_solve(A, b: np.ndarray) -> np.ndarray:
    """Minimum Euclidean norm solution of the underdetermined system A x = b.

    A is a matrix (n, p) with n <= p or its GramFactor.  The solution is
    A^T (A A^T)^-1 b, computed from the factor's eigenpairs of G or, past
    the GRAM_RCOND limit, from the economy SVD of A; both cost O(n^2 p),
    so widths p in the hundreds of thousands stay tractable.  Raises
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
    _, s, solve = factor._spectrum
    _check_cutoff(s[0], s[-1], DEFAULT_RCOND * max(n, p))
    return solve(b)


def smallest_eigenvalue(K: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (full symmetric eigensolve)."""
    K = np.asarray(K, dtype=float)
    return float(np.linalg.eigvalsh(K)[0])


def smallest_singular_value(M) -> float:
    """Smallest singular value of a matrix or a GramFactor, from the factor's spectrum.

    A tall matrix is factored as its transpose, so G is the smaller Gram matrix.
    """
    if not isinstance(M, GramFactor):
        M = np.asarray(M, dtype=float)
        M = GramFactor(M if M.shape[0] <= M.shape[1] else M.T)
    return M.sigma_min
