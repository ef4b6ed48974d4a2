"""Teacher functions, input sampling, and label generation.

The ground-truth targets are finite mixtures of ReLU ridge functions
f(x) = (1/K) sum_k a_k relu(w_k . (x, 1)) with every direction w_k on the
unit l1 sphere.  That normalization makes |f(x)| <= (1/K) sum_k |a_k|
whenever ||x||_inf <= 1, so the norm of the target and a bound on its
labels are both exactly computable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .linalg import _feature_sum
from .seeding import derive_seed, rng_from

_L1_TOL = 1e-12
# Index of the uint32 holding a float64's sign bit in a uint32 view.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0


@dataclass(frozen=True, eq=False)
class TeacherFunction:
    """Finite-atom target: coefficients (K,) and unit-l1 directions (K, d+1), K >= 1, d >= 1."""

    coefficients: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        w = np.asarray(self.directions, dtype=float)
        if a.ndim != 1 or w.ndim != 2 or w.shape[0] != a.shape[0] or w.shape[1] < 2:
            raise ValueError(f"expected coefficients (K,) and directions (K, d+1) with "
                             f"d+1 >= 2, got {a.shape} and {w.shape}")
        if not len(a):
            raise ValueError("a teacher needs at least one atom, got 0")
        norms = np.abs(w).sum(axis=1)
        if not np.all(np.abs(norms - 1.0) <= _L1_TOL):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(
                f"direction {worst} has l1 norm {norms[worst]!r}, expected 1 within {_L1_TOL}"
            )
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "directions", w)

    @property
    def d(self) -> int:
        return self.directions.shape[1] - 1

    @property
    def n_atoms(self) -> int:
        return self.coefficients.shape[0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired samples with inputs in [-1, 1]^d (columns of X) and labels in [-1, 1]."""

    X: np.ndarray
    y: np.ndarray
    seed: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[1] != y.shape[0]:
            raise ValueError(f"expected X (d, n) and y (n,), got {X.shape} and {y.shape}")
        if not np.all(np.abs(X) <= 1.0):
            raise ValueError("inputs must satisfy ||x||_inf <= 1")
        in_range = np.abs(y) <= 1.0
        if not np.all(in_range):
            first = int(np.argmin(in_range))
            raise ValueError(f"labels must satisfy |y| <= 1, label {first} is {float(y[first])!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


def sample_l1_sphere(d: int, count: int, seed: int) -> np.ndarray:
    """Sample ``count`` points uniformly on the unit l1 sphere of R^(d+1).

    Magnitudes come from a uniform draw on the standard simplex (normalized
    exponentials), signs are attached independently per coordinate; together
    these give the exact uniform law on the sphere with no rejection.
    Returns an array of shape (count, d+1) whose rows have unit l1 norm.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _l1_sphere_rows(rng_from(seed), count, d + 1)


def _l1_sphere_rows(rng: np.random.Generator, count: int, dim: int, out=None) -> np.ndarray:
    """``count`` uniform points on the unit l1 sphere of R^dim drawn from ``rng``.

    Normalizes the exponentials and signs them in place, in ``out`` when
    given (a C-contiguous (count, dim) float64 array); the row sums and the
    uint32 sign words are the only other arrays.  Below 8 columns the row
    sums run column by column, which is the order numpy's own sum takes
    there, so the bits equal ``g.sum(axis=1)``'s.
    """
    g = rng.standard_exponential(size=(count, dim), out=out)
    if dim < 8:
        total = g[:, 0].copy()
        for j in range(1, dim):
            total += g[:, j]
    else:
        total = g.sum(axis=1)
    g /= total[:, None]
    return _random_signs(rng, g)


def _random_signs(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Negate each entry of the nonnegative C-contiguous float64 ``x`` in place with probability 1/2.

    Same bits and generator state as ``x * (rng.integers(0, 2, size=x.shape) * 2 - 1)``:
    numpy draws a bound-2 integer as the top bit of one ``next_uint32`` word,
    and the sign bit is set where that bit is 0.  ``_random_signs(rng,
    np.ones(shape))`` is a Rademacher draw.
    """
    words = rng.integers(0, 1 << 32, size=x.size, dtype=np.uint32)
    np.invert(words, out=words)
    words &= 0x80000000
    x.reshape(-1).view(np.uint32)[_HIGH_WORD::2] |= words
    return x


def make_teacher(d: int, n_atoms: int, seed: int) -> TeacherFunction:
    """Build a random finite-atom teacher.

    Directions are uniform on the l1 sphere and coefficients uniform in
    [-1, 1], so barron_norm_upper <= 1 and every label on the input box
    lies in [-1, 1].
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    directions = sample_l1_sphere(d, n_atoms, derive_seed(seed, 0))
    rng = rng_from(derive_seed(seed, 1))
    coefficients = rng.uniform(-1.0, 1.0, size=n_atoms)
    return TeacherFunction(coefficients=coefficients, directions=directions)


def barron_norm_upper(f: TeacherFunction) -> float:
    """Computable upper bound on the representation norm: (1/K) sum |a_k|."""
    return float(np.abs(f.coefficients).mean())


def sup_norm_upper(f: TeacherFunction) -> float:
    """Upper bound on sup |f(x)| over ||x||_inf <= 1.

    Per atom the ReLU preactivation maxes out at ||b_k||_1 + c_k <= ||w_k||_1 = 1,
    so the triangle inequality gives (1/K) sum |a_k| min(1, max(0, ||b_k||_1 + c_k)).
    """
    b = f.directions[:, :-1]
    c = f.directions[:, -1]
    atom_sup = np.clip(np.abs(b).sum(axis=1) + c, 0.0, 1.0)  # 1 caps a rounded-up sum
    return float(np.mean(np.abs(f.coefficients) * atom_sup))


def teacher_eval_batch(f: TeacherFunction, X: np.ndarray) -> np.ndarray:
    """Evaluate the teacher at every column of X (shape (d, n)) with the tiled kernel _feature_sum."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != f.d:
        raise ValueError(f"expected X of shape ({f.d}, n), got {X.shape}")
    return _feature_sum(f.coefficients, f.directions, X) / f.n_atoms


def sample_dataset(f: TeacherFunction, n: int, seed: int) -> Dataset:
    """Draw n inputs uniformly from [-1, 1]^d and label them with the teacher.

    Labels must land in [-1, 1], as every make_teacher draw's do; for a
    teacher whose labels leave it (a loaded file, say) Dataset raises
    with the first offending sample index.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = rng_from(seed)
    X = rng.uniform(-1.0, 1.0, size=(f.d, n))
    return Dataset(X=X, y=teacher_eval_batch(f, X), seed=seed)
