"""Experiment harness: lemma verification suites, scale studies, bound audits.

Every run is a pure function of (config, master seed).  Each trial draws
its randomness from a seed derived from its index, trials run on the
caller plus helpers, forked processes or threads that share one protocol,
and rows are merged in trial order, so output bytes are identical across
runs, across worker counts and across helper kinds.
OpenBLAS is held at one thread while a study runs, so they do not depend
on the caller's BLAS thread count either.  A failed trial records
its error in the row instead of aborting the run; summaries use only the
successful rows and report the failure count.  A study that reads
`quadrature` draws one ReLU quadrature rule, from a seed of its own, and
every trial sums that rule.

Each model family has one fit path, `fit_model`, shared by the scale
study, the bound audit and `minterp fit`.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import numbers
import os
import pickle
import threading
from dataclasses import dataclass, fields
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from ._version import VERSION
from .complexity import (
    generalization_bound,
    population_risk,
    rad_path_ball,
    rad_rf_ball,
    rad_weighted_path_upper,
    rf_ball_upper,
)
from .linalg import smallest_eigenvalue, smallest_singular_value
from .random_features import (
    RANDOM_FOURIER,
    RELU_L1SPHERE,
    FeatureFamily,
    QuadratureRule,
    concentration_check,
    concentration_width,
    fit_random_features,
    kernel_empirical,
    kernel_exact,
    quadrature_rule,
    reference_lambda_min,
    ridgeless_coefficients,
)
from .resnet import (
    embed_two_layer,
    interpolate_resnet,
    random_resnet,
    resnet_add,
    resnet_eval_batch,
    weighted_path_norm,
)
from .sampling import Dataset, TeacherFunction, make_teacher, sample_dataset
from .seeding import derive_seed, rng_from
from .serialize import write_csv, write_json_report
from .two_layer import (
    TwoLayerNet,
    approximate_teacher,
    fit_residual_net,
    interpolate_two_layer,
    path_norm,
    two_layer_eval_batch,
)

KINDS = ("verify-lemma", "scale-study", "bound-audit")

# The key each feature family leaves inert: a study that reads family
# rejects a non-default value of it and leaves it out of the echo.
_INERT_UNDER = {RELU_L1SPHERE: "gamma", RANDOM_FOURIER: "quadrature"}

# The widths kernel-approx sweeps.
DEFAULT_M_GRID = tuple(2 ** k for k in range(6, 15))

_GRID_KEYS = ("n_grid", "L_grid", "d_grid")
_COUNT_KEYS = ("trials", "n_atoms", "quadrature", "m1", "m2", "m_per_n", "n_test",
               "m_cap", "L_cap", "rad_draws")

# Inputs at which resnet-add and embedding compare two evaluations of one function.
_PROBE_POINTS = 1000
# Hoeffding width factor: 8 keeps ||K - K^m|| <= lambda_min(K) / 4, so K^m >= (3/4) K
# and the min-norm radius stays within 2 sqrt(y^T K^-1 y).
_WIDTH_FACTOR = 8.0

# Disjoint seed-index bases for the scale-study engine.  A trial adds
# grid_index * trials + trial to a base, so the streams stay disjoint while
# len(n_grid) * trials < _SEED_STRIDE, which ExperimentConfig enforces.
# _BOOT_BASE and _QUADRATURE_BASE are used once per study, with no offset:
# every trial and fit of a study sums one ReLU quadrature rule.
_SEED_STRIDE = 1 << 20
_TEACHER_BASE = 1 * _SEED_STRIDE
_DATA_BASE = 2 * _SEED_STRIDE
_FIT_BASE = 3 * _SEED_STRIDE
_TEST_BASE = 4 * _SEED_STRIDE
_RAD_BASE = 5 * _SEED_STRIDE
_BOOT_BASE = 6 * _SEED_STRIDE
_QUADRATURE_BASE = 7 * _SEED_STRIDE


def check_resnet_widths(m1: int, L_cap: int) -> None:
    """Reject a resnet fit whose cap leaves no layers after the m1-layer teacher.

    The embedded teacher is m1 layers deep and the residual fit
    m2 = min(width, L_cap - m1), which must be positive: L_cap caps
    m1 + m2, while the fitted net (resnet_add) is max(m1, m2) deep.
    """
    if L_cap <= m1:
        raise ValueError(
            f"resnet needs L_cap > m1 (teacher layers), got L_cap={L_cap}, m1={m1}"
        )


def _is_int(value) -> bool:
    """True for a Python or numpy integer; bools and integral floats are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines an experiment; the master seed is part of it.

    A config runs the study that STUDY_KEYS names by (kind, lemma or model)
    and echoes only the keys that study reads (keys_read: under the ReLU
    family no gamma, under the cosine family no quadrature); every other
    key must keep its default.  Kind verify-lemma without a lemma names no
    study (the gen-teacher, gen-data, fit and norms commands) and echoes
    every key.
    Widths follow one rule per family: m = m_per_n * n for rf and
    two-layer, one L_grid depth per n for resnet, DEFAULT_M_GRID for
    kernel-approx.  A lemma suite reads one n (resnet-add one depth), and a
    resnet study whose residual depth min(L, L_cap - m1) is below some n is
    rejected, since every such row would fail.  `out` is a destination,
    never echoed.
    """

    kind: str = "verify-lemma"
    lemma: str | None = None
    model: str = "rf"
    n_grid: tuple = (32,)
    L_grid: tuple = (8,)
    d_grid: tuple = (4,)
    trials: int = 20
    delta: float = 0.1
    seed: int = 0
    out: str | None = None
    family: str = RELU_L1SPHERE
    gamma: float = 1.0
    n_atoms: int = 64
    quadrature: int = 200_000
    m1: int = 512
    m2: int = 16384
    m_per_n: int = 64
    n_test: int = 8192
    m_cap: int = 131072
    L_cap: int = 32768
    rad_draws: int = 32

    def __post_init__(self):
        for key in _GRID_KEYS:
            raw = getattr(self, key)
            try:
                grid = (raw,) if isinstance(raw, (int, np.integer)) else tuple(raw)
            except TypeError:
                raise ValueError(f"{key} must be an integer or a list of integers, "
                                 f"got {raw!r}") from None
            if not all(_is_int(v) for v in grid):
                raise ValueError(f"{key} entries must be integers, got {grid}")
            grid = tuple(int(v) for v in grid)
            object.__setattr__(self, key, grid)
            if any(v < 1 for v in grid):
                raise ValueError(f"{key} entries must be >= 1, got {grid}")
            if not grid:
                raise ValueError(f"{key} must be nonempty")
        if len(self.d_grid) != 1:
            raise ValueError(f"d_grid must have one entry, got {self.d_grid}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        for key in ("seed",) + _COUNT_KEYS:
            if not _is_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        for key in ("delta", "gamma"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} must be a real number, got {value!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a directory path, got {self.out!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for key in _COUNT_KEYS:
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.quadrature % 2:
            raise ValueError(f"quadrature must be even (antithetic pairs), got {self.quadrature}")
        FeatureFamily(tag=self.family, gamma=self.gamma)  # an unknown tag, a gamma not in (0, inf)
        if self.lemma is not None and self.lemma not in VERIFY_SELECTORS:
            raise ValueError(f"unknown lemma selector {self.lemma!r}; expected one of "
                             f"{VERIFY_SELECTORS}")
        keys = self.keys_read()
        if keys is None:
            return
        for f in fields(self):
            if f.name not in keys and f.name != "out" and getattr(self, f.name) != f.default:
                inert = f.name in STUDY_KEYS[self._study()]
                under = f" under family {self.family}" if inert else ""
                raise ValueError(
                    f"{' '.join(self._study())} does not read {f.name}{under}; leave it at "
                    f"its default {f.default!r}, got {getattr(self, f.name)!r}"
                )
        if self.kind == "verify-lemma":
            if len(self.n_grid) != 1:
                raise ValueError(f"a lemma suite reads one n, got n_grid {self.n_grid}")
            if len(self.L_grid) != 1:
                raise ValueError(f"resnet-add reads one depth, got L_grid {self.L_grid}")
            return
        if len(self.n_grid) * self.trials >= _SEED_STRIDE:
            raise ValueError(
                f"len(n_grid) * trials must stay below {_SEED_STRIDE} to keep trial "
                f"seed streams disjoint, got {len(self.n_grid)} * {self.trials}"
            )
        if self.model == "resnet":
            check_resnet_widths(self.m1, self.L_cap)
            if len(self.L_grid) != len(self.n_grid):
                raise ValueError(
                    f"a resnet study needs one L_grid entry per n, got L_grid "
                    f"{self.L_grid} for n_grid {self.n_grid}"
                )
            under = [(n, L) for n, L in zip(self.n_grid, self.L_grid)
                     if min(L, self.L_cap - self.m1) < n]
            if under:
                raise ValueError(f"under-parametrized grid points (n, depth): {under}; a "
                                 f"resnet study needs one L_grid depth L per n with "
                                 f"min(L, L_cap - m1) >= n")

    def _study(self) -> tuple:
        """(kind, lemma or model): this config's STUDY_KEYS entry, if it names a study."""
        return self.kind, self.lemma if self.kind == "verify-lemma" else self.model

    def keys_read(self) -> tuple | None:
        """The keys this config's study reads: its STUDY_KEYS entry less the key its family ignores.

        gamma shapes only cosine features and quadrature only the ReLU
        reference kernel.  None when the config names no study.
        """
        keys = STUDY_KEYS.get(self._study())
        if keys is None or "family" not in keys:
            return keys
        return tuple(key for key in keys if key != _INERT_UNDER[self.family])

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"a config must be a JSON object, got {type(obj).__name__}")
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - names)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**obj)

    def echo(self) -> dict:
        """The keys the study reads (all but `out` without a study), JSON-ready."""
        names = self.keys_read() or [f.name for f in fields(self) if f.name != "out"]
        echoed = {}
        for name in names:
            value = getattr(self, name)
            echoed[name] = list(value) if isinstance(value, tuple) else value
        return echoed


@dataclass(frozen=True)
class StudyResult:
    """Per-trial rows plus summary statistics for one experiment run."""

    columns: tuple
    rows: tuple
    summary: dict
    config: ExperimentConfig

    @property
    def failures(self) -> int:
        return self.summary["failures"]

    @property
    def pass_fraction(self) -> float | None:
        return self.summary.get("pass_fraction")


def _family(config: ExperimentConfig) -> FeatureFamily:
    if config.family == RANDOM_FOURIER:
        return FeatureFamily(tag=RANDOM_FOURIER, gamma=config.gamma)
    return FeatureFamily(tag=config.family)


def _run_trials(worker, count: int, threads: int) -> list:
    """[worker(i) for i in range(count)], run by the caller plus threads - 1 helpers.

    Helpers are forked processes when the caller is its process's only
    Python thread, and threads otherwise: a fork beside a live thread can
    copy a lock that thread holds into the child, held for good.  run_study
    calls this inside one_blas_thread, so no BLAS thread is live either.
    Only the start and the wait differ between the kinds.  Once every
    helper has started, the caller fills one pipe with the indices taken
    alternately from the two ends (last, first, second to last, ...), runs
    the first itself, and every worker takes the rest from the pipe; rows
    go small n first, so a large trial runs beside a small one.  Helpers
    send their rows and exception back pickled.  After the first exception
    no worker takes a new index; every helper is waited for and that
    exception is raised: the caller's own, else the first helper's in start
    order.  A failed start feeds no index and is raised once the helpers
    already started have ended.
    """
    workers = min(threads, count)
    if workers <= 1:
        return [worker(i) for i in range(count)]
    order = [i for pair in zip(reversed(range(count)), range(count)) for i in pair][:count]
    start = _fork if hasattr(os, "fork") and threading.active_count() == 1 else _thread
    records = b"".join(i.to_bytes(_RECORD, "little") for i in order[1:])
    take, feed = os.pipe()
    helpers, rows, errors, fed = [], {}, [], False
    try:
        for _ in range(workers - 1):
            back, send = os.pipe()
            try:
                wait = start(worker, take, send, [feed, back, *(fd for fd, _ in helpers)])
            except BaseException:
                os.close(back)
                os.close(send)
                raise
            helpers.append((back, wait))
        if len(records) <= _PIPE_HOLDS:
            fed = True
            _feed(feed, records)
        else:
            threading.Thread(target=_feed, args=(feed, records), daemon=True).start()
            fed = True
        errors.append(_work(worker, itertools.chain(order[:1], _taken(take)), rows))
    finally:
        if not fed:
            os.close(feed)
        try:
            for back, wait in helpers:
                helper_rows, error = _reap(back, wait)
                rows.update(helper_rows)
                errors.append(error)
        finally:
            os.close(take)
    for error in errors:
        if error is not None:
            raise error
    return [rows[i] for i in range(count)]


def _work(worker, indices, rows: dict):
    """rows[i] = worker(i) for each index taken; returns the first exception, or None.

    After an exception the rest of the indices are taken and dropped, so
    that no other worker takes one either.
    """
    for i in indices:
        try:
            rows[i] = worker(i)
        except BaseException as exc:
            for _ in indices:
                pass
            return exc
    return None


# Indices travel as 4-byte records in writes of at most 512 bytes, which
# POSIX makes atomic on a pipe, so every read of 4 bytes takes one whole
# record.  An empty pipe holds 4 KB without blocking the writer.
_RECORD, _ATOMIC_WRITE, _PIPE_HOLDS = 4, 512, 4096


def _feed(fd: int, records: bytes) -> None:
    """Write records to the pipe fd in atomic pieces, then close it."""
    try:
        for start in range(0, len(records), _ATOMIC_WRITE):
            os.write(fd, records[start:start + _ATOMIC_WRITE])
    except OSError:
        pass  # every reader has gone: the study was interrupted
    finally:
        os.close(fd)


def _taken(fd: int):
    """The indices read from the pipe fd until it is closed and empty."""
    while record := os.read(fd, _RECORD):
        yield int.from_bytes(record, "little")


def _thread(worker, take: int, send: int, inherited: list):
    """Start a helper thread running _serve; returns its join.  It keeps the shared inherited."""
    helper = threading.Thread(target=_serve, args=(worker, take, send))
    helper.start()
    return helper.join


def _fork(worker, take: int, send: int, inherited: list):
    """Fork a helper that runs _serve and exits 1 if it raised; returns the wait for its status."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in inherited:
                os.close(fd)
            _serve(worker, take, send)
            code = 0
        finally:
            os._exit(code)
    os.close(send)
    return lambda: os.waitpid(pid, 0)[1]


def _serve(worker, take: int, send: int) -> None:
    """A helper's work: run the indices it takes, send (rows, error) pickled, close send.

    An error that does not survive a pickle round trip, or rows that do
    not pickle, go back as a RuntimeError naming the type and message.
    """
    with open(send, "wb") as out:
        rows = {}
        error = _work(worker, _taken(take), rows)
        try:
            if error is not None:
                pickle.loads(pickle.dumps(error))
            payload = pickle.dumps((rows, error))
        except Exception as exc:
            bad = exc if error is None else error
            payload = pickle.dumps(({}, RuntimeError(f"{type(bad).__name__}: {bad}")))
        out.write(payload)


def _reap(back: int, wait):
    """The (rows, error) a helper sent over the pipe back, once wait() has seen it end."""
    try:
        with open(back, "rb") as inp:
            payload = inp.read()
    finally:
        status = wait()
    if status or not payload:  # a fork that did not finish _serve, or a thread whose _serve raised
        return {}, RuntimeError(f"a trial helper ended without its rows (wait status {status})")
    return pickle.loads(payload)


@cache
def _openblas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or None for another BLAS."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"):
        try:
            blas = ctypes.CDLL(str(lib))
            return blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any holder is inside; the last one out restores it.

    Trial workers supply the parallelism: BLAS threads on top of them
    oversubscribe the cores, and rf rows round differently under another
    BLAS thread count.  Holders are counted under a lock, so of two studies
    running at once the first to finish leaves the count at one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._restore = None  # (set, the caller's count) while held

    def __enter__(self):
        with self._lock:
            if self._holders == 0 and (blas := _openblas_threads()) is not None:
                get, set_threads = blas
                self._restore = (set_threads, get())
                set_threads(1)
            self._holders += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._restore is not None:
                set_threads, count = self._restore
                set_threads(count)
                self._restore = None


one_blas_thread = _OneBlasThread()


def _run_rows(heads: list, body, threads: int) -> list:
    """One row per head: its columns plus body(index)'s, or the error body raised.

    The error cell reads "<ExceptionType>: <message>" with newlines and
    commas replaced, so it stays one CSV cell.
    """
    def worker(i):
        row = dict(heads[i], error="")
        try:
            row.update(body(i))
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}".replace("\n", " ").replace(",", ";")
        return row

    return _run_trials(worker, len(heads), threads)


def _base_summary(rows: list, with_pass: bool = True) -> dict:
    failures = sum(1 for r in rows if r.get("error"))
    summary = {"rows": len(rows), "failures": failures}
    if with_pass:
        summary["pass_fraction"] = (
            sum(1 for r in rows if r.get("holds") is True) / len(rows) if rows else 0.0
        )
    return summary


def _teacher_data(config: ExperimentConfig, n: int, teacher_index: int, data_index: int):
    """A teacher drawn at seed index teacher_index and n samples labelled by it."""
    teacher = make_teacher(config.d_grid[0], config.n_atoms,
                           derive_seed(config.seed, teacher_index))
    return teacher, sample_dataset(teacher, n, derive_seed(config.seed, data_index))


def _verify_kernel_approx(config: ExperimentConfig, threads: int, rule: QuadratureRule | None):
    d, n = config.d_grid[0], config.n_grid[0]
    family = _family(config)
    X = rng_from(derive_seed(config.seed, 0)).uniform(-1.0, 1.0, size=(d, n))
    K = kernel_exact(family, X, rule)
    lam_exact = smallest_eigenvalue(K)
    heads = [{"trial": t, "n": n, "m": m, "delta": config.delta}
             for m in DEFAULT_M_GRID for t in range(config.trials)]

    def body(j):
        m = heads[j]["m"]
        W = family.sample_params(d, m, derive_seed(config.seed, 2 + j))
        check = concentration_check(K, kernel_empirical(family.features(W, X)), m, config.delta)
        return dict(
            bound=check.bound,
            observed_spectral=check.observed,
            observed_frobenius=check.observed_frobenius,
            lambda_min_K=lam_exact,
            lambda_min_Km=check.lambda_min_empirical,
            holds=check.holds,
        )

    rows = _run_rows(heads, body, threads)
    columns = ("trial", "n", "m", "delta", "bound", "observed_spectral",
               "observed_frobenius", "lambda_min_K", "lambda_min_Km", "holds", "error")
    summary = _base_summary(rows)
    eigen_width = concentration_width(n, config.delta, lam_exact, factor=2.0) if lam_exact > 0 else math.inf
    per_m, per_m_eigen = {}, {}
    for m in DEFAULT_M_GRID:
        group = [r for r in rows if r["m"] == m]
        per_m[str(m)] = sum(1 for r in group if r.get("holds") is True) / len(group)
        if m >= eigen_width:
            hits = sum(
                1 for r in group
                if not r["error"] and r["lambda_min_Km"] >= r["lambda_min_K"] / 2.0
            )
            per_m_eigen[str(m)] = hits / len(group)
    summary.update(
        lambda_min_K=lam_exact,
        eigen_threshold_width=eigen_width,
        per_m_pass=per_m,
        min_per_m_pass=min(per_m.values()),
        per_m_eigen_pass=per_m_eigen,
    )
    return columns, rows, summary


def _verify_krr_bound(config: ExperimentConfig, threads: int, rule: QuadratureRule | None):
    d, n = config.d_grid[0], config.n_grid[0]
    family = _family(config)

    def body(t):
        _, data = _teacher_data(config, n, 3 * t, 3 * t + 1)
        K = kernel_exact(family, data.X, rule)
        beta, lam = ridgeless_coefficients(K, data.y)
        surrogate = float(data.y @ beta)
        denom = max(float(np.abs(data.y).max()), 1e-300)
        reproduce = float(np.abs(K @ beta - data.y).max()) / denom
        return dict(
            surrogate_norm=surrogate,
            lambda_min_K=lam,
            reproduce_error=reproduce,
            holds=surrogate >= 0.0 and reproduce <= 1e-8,
        )

    heads = [{"trial": t, "n": n, "d": d, "quadrature": None if rule is None else rule.Q}
             for t in range(config.trials)]
    rows = _run_rows(heads, body, threads)
    columns = ("trial", "n", "d", "quadrature", "surrogate_norm", "lambda_min_K",
               "reproduce_error", "holds", "error")
    return columns, rows, _base_summary(rows)


def _verify_min_norm_rf(config: ExperimentConfig, threads: int, rule: QuadratureRule | None):
    n = config.n_grid[0]
    family = _family(config)

    def body(t):
        _, data = _teacher_data(config, n, 4 * t, 4 * t + 1)
        K = kernel_exact(family, data.X, rule)
        beta, lam = ridgeless_coefficients(K, data.y)
        surrogate = float(data.y @ beta)
        s = math.sqrt(max(surrogate, 0.0))
        threshold = math.ceil(
            concentration_width(n, config.delta, lam, factor=_WIDTH_FACTOR)
        )
        m = min(threshold, config.m_cap)
        radius = fit_random_features(
            data.X, data.y, family, m, derive_seed(config.seed, 4 * t + 3)
        ).norm_radius
        return dict(
            m=m,
            lambda_min_K=lam,
            threshold_m=threshold,
            threshold_met=threshold <= config.m_cap,
            norm_radius=radius,
            surrogate_norm=surrogate,
            holds=radius <= 2.0 * s,
        )

    heads = [{"trial": t, "n": n, "delta": config.delta} for t in range(config.trials)]
    rows = _run_rows(heads, body, threads)
    columns = ("trial", "n", "m", "delta", "lambda_min_K", "threshold_m",
               "threshold_met", "norm_radius", "surrogate_norm", "holds", "error")
    summary = _base_summary(rows)
    summary["threshold_met_fraction"] = (
        sum(1 for r in rows if r.get("threshold_met") is True) / len(rows) if rows else 0.0
    )
    return columns, rows, summary


_RESIDUAL_COLUMNS = ("trial", "n", "m1", "m2", "lambda_ref", "lambda_emp", "resamples_used",
                     "path_norm", "teacher_norm", "interp_error", "holds", "error")


def _verify_fit_rand_label(config: ExperimentConfig, threads: int, rule: QuadratureRule):
    d, n = config.d_grid[0], config.n_grid[0]

    def body(t):
        X = rng_from(derive_seed(config.seed, 5 * t)).uniform(-1.0, 1.0, size=(d, n))
        r = rng_from(derive_seed(config.seed, 5 * t + 1)).standard_normal(n)
        r /= np.linalg.norm(r)
        lam_ref = reference_lambda_min(X, rule)
        fit = fit_residual_net(X, r, config.m2, lam_ref, seed=derive_seed(config.seed, 5 * t + 3))
        # ResidualFit's certificate: lambda_emp >= lam_ref / 2 gives
        # path_norm <= ||a_hat|| <= sqrt(2 / lam_ref) ||r||
        norm_bound = math.sqrt(2.0 / lam_ref) * fit.residual_norm
        return dict(
            lambda_ref=lam_ref,
            lambda_emp=fit.lambda_emp,
            resamples_used=fit.resamples_used,
            path_norm=fit.path_norm,
            teacher_norm=fit.residual_norm,
            interp_error=fit.interp_error,
            holds=fit.interp_error <= 1e-8 and fit.path_norm <= norm_bound,
        )

    heads = [{"trial": t, "n": n, "m1": 0, "m2": config.m2} for t in range(config.trials)]
    rows = _run_rows(heads, body, threads)
    return _RESIDUAL_COLUMNS, rows, _base_summary(rows)


def _verify_two_layer_composite(config: ExperimentConfig, threads: int, rule: QuadratureRule):
    n = config.n_grid[0]

    def body(t):
        teacher, data = _teacher_data(config, n, 3 * t, 3 * t + 1)
        fit = interpolate_two_layer(data, teacher, config.m1, config.m2,
                                    derive_seed(config.seed, 3 * t + 2),
                                    reference_lambda_min(data.X, rule))
        return dict(
            lambda_ref=fit.residual.lambda_target,
            lambda_emp=fit.residual.lambda_emp,
            resamples_used=fit.residual.resamples_used,
            path_norm=fit.path_norm,
            teacher_norm=fit.teacher_norm_upper,
            interp_error=fit.interp_error,
            holds=fit.path_norm <= 3.0 * fit.teacher_norm_upper,
        )

    heads = [{"trial": t, "n": n, "m1": config.m1, "m2": config.m2}
             for t in range(config.trials)]
    rows = _run_rows(heads, body, threads)
    return _RESIDUAL_COLUMNS, rows, _base_summary(rows)


def _verify_resnet_add(config: ExperimentConfig, threads: int, rule: None):
    d = config.d_grid[0]
    L_max = config.L_grid[0]

    def body(t):
        rng = rng_from(derive_seed(config.seed, 3 * t + 2))
        L1, L2 = (int(v) for v in rng.integers(1, L_max + 1, size=2))
        D1, D2 = (int(v) for v in rng.integers(d + 1, d + 5, size=2))
        m1, m2 = (int(v) for v in rng.integers(1, 7, size=2))
        net1 = random_resnet(d, L1, D1, m1, seed=derive_seed(config.seed, 3 * t))
        net2 = random_resnet(d, L2, D2, m2, seed=derive_seed(config.seed, 3 * t + 1))
        total = resnet_add(net1, net2)
        X = rng.uniform(-1.0, 1.0, size=(d, _PROBE_POINTS))
        want = resnet_eval_batch(net1, X) + resnet_eval_batch(net2, X)
        got = resnet_eval_batch(total, X)
        value_dev = float(np.abs(want - got).max()) / max(1.0, float(np.abs(want).max()))
        norm_sum = weighted_path_norm(net1) + weighted_path_norm(net2)
        norm_total = weighted_path_norm(total)
        norm_dev = abs(norm_total - norm_sum) / max(1.0, norm_sum)
        return dict(
            L=total.L, D=total.D, m=total.m,
            weighted_path_norm=norm_total,
            value_dev=value_dev,
            norm_dev=norm_dev,
            holds=value_dev <= 1e-12 and norm_dev <= 1e-12,
        )

    rows = _run_rows([{"trial": t} for t in range(config.trials)], body, threads)
    columns = ("trial", "L", "D", "m", "weighted_path_norm", "value_dev",
               "norm_dev", "holds", "error")
    return columns, rows, _base_summary(rows)


def _verify_embedding(config: ExperimentConfig, threads: int, rule: None):
    d = config.d_grid[0]

    def body(t):
        rng = rng_from(derive_seed(config.seed, 2 * t))
        m = int(rng.integers(1, 17))
        theta = TwoLayerNet(
            a=rng.standard_normal(m),
            B=rng.standard_normal((m, d)),
            c=rng.standard_normal(m),
        )
        embedded = embed_two_layer(theta)
        X = rng_from(derive_seed(config.seed, 2 * t + 1)).uniform(
            -1.0, 1.0, size=(d, _PROBE_POINTS)
        )
        want = two_layer_eval_batch(theta, X)
        got = resnet_eval_batch(embedded, X)
        value_dev = float(np.abs(want - got).max()) / max(1.0, float(np.abs(want).max()))
        pn = path_norm(theta)
        wpn = weighted_path_norm(embedded)
        ratio_dev = abs(wpn - 3.0 * pn) / max(1e-300, 3.0 * pn)
        return dict(
            m=m,
            path_norm=pn,
            weighted_path_norm=wpn,
            norm_ratio=wpn / pn if pn > 0 else math.inf,
            value_dev=value_dev,
            holds=value_dev <= 1e-12 and ratio_dev <= 1e-12,
        )

    rows = _run_rows([{"trial": t, "d": d} for t in range(config.trials)], body, threads)
    columns = ("trial", "d", "m", "path_norm", "weighted_path_norm",
               "norm_ratio", "value_dev", "holds", "error")
    return columns, rows, _base_summary(rows)


@dataclass(frozen=True, eq=False)
class ModelFit:
    """One family's interpolant and everything the studies and `minterp fit` read.

    fit is the family's own report, whose fitted holds the training
    predictions, and model the fitted model or net;
    m_or_L is the effective width; resnet's is m1 + m2, the two parts'
    depths, while the fitted net is max(m1, m2) deep (resnet_add).
    rad_bounds(seed) returns the audit's (rad_lower, rad_upper), so only a
    bound audit pays for the Rademacher estimate.
    """

    fit: object
    model: object
    predict: Callable
    norm_radius: float
    m_or_L: int
    threshold_met: bool
    rad_bounds: Callable


def _fit_rf(config, data, teacher, width, fit_seed, approx_seed, rule) -> ModelFit:
    fit = fit_random_features(data.X, data.y, _family(config), width, fit_seed)
    gram, radius = fit.gram, fit.norm_radius
    lam_ref = smallest_singular_value(gram) ** 2 / width
    threshold = concentration_width(data.n, config.delta, lam_ref, _WIDTH_FACTOR)
    return ModelFit(
        fit=fit, model=fit.model, predict=fit.model.predict, norm_radius=radius, m_or_L=width,
        threshold_met=width >= threshold,
        rad_bounds=lambda seed: (
            rad_rf_ball(gram, radius, n_draws=config.rad_draws, seed=seed).mean,
            rf_ball_upper(radius, data.n),
        ),
    )


def _fit_two_layer(config, data, teacher, width, fit_seed, approx_seed, rule) -> ModelFit:
    fit = interpolate_two_layer(data, teacher, config.m1, width, fit_seed,
                                reference_lambda_min(data.X, rule))
    predict = partial(two_layer_eval_batch, fit.net)

    def rad_bounds(seed):
        ball = rad_path_ball(data.X, fit.path_norm, n_draws=config.rad_draws, seed=seed)
        return ball.estimate.mean, ball.upper

    threshold = concentration_width(data.n, config.delta, fit.residual.lambda_target)
    return ModelFit(
        fit=fit, model=fit.net, predict=predict, norm_radius=fit.path_norm, m_or_L=width,
        threshold_met=width >= threshold, rad_bounds=rad_bounds,
    )


def _fit_resnet(config, data, teacher, width, fit_seed, approx_seed, rule) -> ModelFit:
    check_resnet_widths(config.m1, config.L_cap)
    part1 = approximate_teacher(teacher, config.m1, data.X, approx_seed)
    teacher_net = embed_two_layer(part1.net)
    m2 = min(width, config.L_cap - teacher_net.L)
    fit = interpolate_resnet(data, teacher_net, m2, fit_seed, reference_lambda_min(data.X, rule))
    predict = partial(resnet_eval_batch, fit.net)
    threshold = concentration_width(data.n, config.delta, fit.residual.lambda_target)
    return ModelFit(
        fit=fit, model=fit.net, predict=predict, norm_radius=fit.weighted_norm,
        m_or_L=teacher_net.L + m2, threshold_met=m2 >= width and m2 >= threshold,
        rad_bounds=lambda seed: (0.0, rad_weighted_path_upper(fit.weighted_norm, data.d, data.n)),
    )


# Each lemma's suite and each model's fitter, with the config keys the
# study reads besides kind, seed, trials, d_grid and its lemma or model.
# A scale study reads its model's keys but rad_draws, which only the bound
# audit's Rademacher estimate reads.
_STUDIES = {
    "kernel-approx": (_verify_kernel_approx, "n_grid delta family gamma quadrature"),
    "krr-bound": (_verify_krr_bound, "n_grid family gamma n_atoms quadrature"),
    "min-norm-rf": (_verify_min_norm_rf, "n_grid delta family gamma n_atoms quadrature m_cap"),
    "fit-rand-label": (_verify_fit_rand_label, "n_grid quadrature m2"),
    "two-layer-composite": (_verify_two_layer_composite, "n_grid n_atoms quadrature m1 m2"),
    "resnet-add": (_verify_resnet_add, "L_grid"),
    "embedding": (_verify_embedding, ""),
    "rf": (_fit_rf, "n_grid delta family gamma n_atoms m_per_n n_test rad_draws"),
    "two-layer": (_fit_two_layer, "n_grid delta n_atoms quadrature m1 m_per_n n_test rad_draws"),
    "resnet": (_fit_resnet, "n_grid L_grid delta n_atoms quadrature m1 n_test L_cap"),
}
MODELS = ("rf", "two-layer", "resnet")
VERIFY_SELECTORS = tuple(name for name in _STUDIES if name not in MODELS)


def _keys_read(kind: str, name: str) -> tuple:
    reads = {"kind", "lemma" if kind == "verify-lemma" else "model", "seed", "trials", "d_grid",
             *_STUDIES[name][1].split()}
    if kind == "scale-study":
        reads.discard("rad_draws")
    return tuple(f.name for f in fields(ExperimentConfig) if f.name in reads)


# (kind, lemma or model) -> the config keys that study reads, in field order.
STUDY_KEYS = {
    (kind, name): _keys_read(kind, name)
    for kind in KINDS
    for name in (VERIFY_SELECTORS if kind == "verify-lemma" else MODELS)
}


def fit_model(
    config: ExperimentConfig, data: Dataset, teacher: TeacherFunction | None,
    width: int, fit_seed: int, approx_seed: int, rule: QuadratureRule | None = None,
) -> ModelFit:
    """Minimum-norm interpolant of config.model on data; rf needs no teacher.

    width is m for rf, the residual width m2 for two-layer and the added
    depth for resnet (capped at L_cap - m1); approx_seed draws the resnet's
    teacher discretization.  rule is the ReLU quadrature rule (study_rule)
    that two-layer and resnet sum for lambda_ref; rf reads none.
    """
    return _STUDIES[config.model][0](config, data, teacher, width, fit_seed, approx_seed, rule)


def study_rule(config: ExperimentConfig, d: int) -> QuadratureRule:
    """The one ReLU quadrature rule of config's study at input dimension d."""
    return quadrature_rule(d, config.quadrature, derive_seed(config.seed, _QUADRATURE_BASE))


def _fit_slope(ns, medians) -> float:
    coeffs = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(np.asarray(medians)), 1)
    return float(coeffs[0])


# np.median and np.percentile import numpy.ma on first use (14-18 ms and
# 1.8 MB, paid inside every study's wall time); these two sort instead and
# keep numpy's bits for values without -0.0, which numpy may order either
# side of +0.0.  Test risks are at least +0.0.


def _median(values) -> np.ndarray:
    """np.median(values, axis=-1), bit for bit.

    An odd count takes the middle value itself, where (v + v) / 2 would
    overflow past half the largest float; NaN sorts last and makes the
    median NaN, as in np.median.
    """
    s = np.sort(values, axis=-1)
    h = s.shape[-1]
    middle = s[..., h // 2] if h % 2 else (s[..., h // 2 - 1] + s[..., h // 2]) / 2
    return np.where(np.isnan(s[..., -1]), s[..., -1], middle)


def _percentile(values, q: float) -> float:
    """np.percentile(values, q) of 1-D values for 0 < q < 100, bit for bit.

    numpy's default linear method: the point (h - 1) q / 100 along the
    sorted values, interpolated from the nearer neighbour as numpy's _lerp
    does.  A single value takes weight 1, as numpy's rule for the top index
    gives it.
    """
    s = np.sort(values)
    if np.isnan(s[-1]):
        return float(s[-1])
    v = (len(s) - 1) * (q / 100)
    lo = math.floor(v)
    hi = min(lo + 1, len(s) - 1)
    g = v - lo if hi > lo else 1.0
    diff = s[hi] - s[lo]
    return float(s[hi] - diff * (1 - g) if g >= 0.5 else s[lo] + diff * g)


def _bootstrap_slope_ci(risks_per_n: list, ns: list, seed: int, n_boot: int = 200):
    # One integers() call with a per-entry bound draws the stream that one
    # resample per grid point per replicate would: each bound is that grid
    # point's trial count.
    counts = [len(risks) for risks in risks_per_n]
    high = np.tile(np.repeat(counts, counts), n_boot)
    idx = rng_from(seed).integers(0, high).reshape(n_boot, -1)
    ends = np.cumsum(counts)
    medians = np.column_stack([
        _median(np.asarray(risks)[idx[:, end - len(risks) : end]])
        for risks, end in zip(risks_per_n, ends)
    ])
    medians = medians[(medians > 0).all(axis=1)]
    if len(medians) < n_boot // 2:
        return None
    # One fit per replicate: a 2-D polyfit rounds differently from 8 grid points on.
    slopes = [_fit_slope(ns, row) for row in medians]
    return (_percentile(slopes, 2.5), _percentile(slopes, 97.5))


def _scale_engine(config: ExperimentConfig, threads: int, audit: bool,
                  rule: QuadratureRule | None) -> StudyResult:
    # rf and two-layer take m = m_per_n * n; a resnet takes its depth per n from L_grid
    widths = (config.L_grid if config.model == "resnet"
              else [config.m_per_n * n for n in config.n_grid])
    heads = [
        {"trial": t, "model_kind": config.model, "n": n, "m_or_L": widths[gi]}
        for gi, n in enumerate(config.n_grid)
        for t in range(config.trials)
    ]

    def body(j):
        # j = grid_index * trials + trial, the trial's offset from each seed base
        n, t = heads[j]["n"], heads[j]["trial"]
        teacher, data = _teacher_data(config, n, _TEACHER_BASE + t, _DATA_BASE + j)
        fit = fit_model(
            config, data, teacher, heads[j]["m_or_L"],
            derive_seed(config.seed, _FIT_BASE + j),
            derive_seed(config.seed, _TEACHER_BASE + j), rule,
        )
        emp_risk = 0.5 * float(np.mean((fit.fit.fitted - data.y) ** 2))
        test = population_risk(
            fit.predict, teacher, N_test=config.n_test,
            seed=derive_seed(config.seed, _TEST_BASE + j),
        )
        row = dict(
            m_or_L=fit.m_or_L,
            norm_radius=fit.norm_radius,
            empirical_risk=emp_risk,
            test_risk=test.risk,
            threshold_met=fit.threshold_met,
        )
        if audit:
            lower, upper = fit.rad_bounds(derive_seed(config.seed, _RAD_BASE + j))
            bound = generalization_bound(emp_risk, fit.norm_radius, upper, config.delta, n)
            row.update(
                rad_lower=lower,
                rad_upper=upper,
                bound=bound,
                bound_holds=test.risk <= bound,
            )
        return row

    rows = _run_rows(heads, body, threads)
    columns = ("trial", "model_kind", "n", "m_or_L", "norm_radius", "rad_lower",
               "rad_upper", "empirical_risk", "bound", "test_risk", "bound_holds",
               "threshold_met", "error")
    summary = _base_summary(rows, with_pass=False)
    summary["sub_threshold_rows"] = sum(1 for r in rows if r.get("threshold_met") is False)

    per_n, risks_per_n, ns_ok = {}, [], []
    for n in config.n_grid:
        risks = [r["test_risk"] for r in rows if r["n"] == n and not r["error"]]
        if not risks:
            continue
        arr = np.asarray(risks)
        per_n[str(n)] = {
            "median": float(_median(arr)),
            "q25": _percentile(arr, 25),
            "q75": _percentile(arr, 75),
            "trials": len(risks),
        }
        ns_ok.append(n)
        risks_per_n.append(risks)
    summary["per_n"] = per_n

    medians = [per_n[str(n)]["median"] for n in ns_ok]
    if len(ns_ok) < 4:
        summary["slope_flag"] = "needs at least 4 grid points with successful trials"
    elif any(v <= 0 for v in medians):
        summary["slope_flag"] = "undefined: nonpositive median risk"
    else:
        summary["slope"] = _fit_slope(ns_ok, medians)
        ci = _bootstrap_slope_ci(
            risks_per_n, ns_ok, derive_seed(config.seed, _BOOT_BASE)
        )
        if ci is not None:
            summary["slope_ci"] = [ci[0], ci[1]]

    if audit:
        scored = [r for r in rows if not r["error"]]
        summary["bound_pass_fraction"] = (
            sum(1 for r in scored if r["bound_holds"]) / len(scored) if scored else 0.0
        )
    return StudyResult(columns=columns, rows=tuple(rows), summary=summary, config=config)


def run_study(config: ExperimentConfig, threads: int = 1) -> StudyResult:
    """Run config's study: a lemma suite, or a model's scale study or bound audit.

    An audit adds complexity estimates and the deviation bound to the scale
    study's rows; trial seeds match, so the shared columns agree row for row.
    A study that reads quadrature draws its one rule here, and every trial
    sums it.  Trials run on `threads` workers with OpenBLAS held at one.
    """
    if not _is_int(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if config.kind == "verify-lemma" and config.lemma is None:
        raise ValueError(f"a verify-lemma config needs a lemma, one of {VERIFY_SELECTORS}")
    with one_blas_thread:
        rule = (study_rule(config, config.d_grid[0])
                if "quadrature" in config.keys_read() else None)
        if config.kind != "verify-lemma":
            return _scale_engine(config, threads, config.kind == "bound-audit", rule)
        columns, rows, summary = _STUDIES[config.lemma][0](config, threads, rule)
    summary["lemma"] = config.lemma
    return StudyResult(columns=tuple(columns), rows=tuple(rows), summary=summary, config=config)


def result_basename(result: StudyResult) -> str:
    if result.config.kind == "verify-lemma":
        return "verify_" + result.config.lemma.replace("-", "_")
    return result.config.kind.replace("-", "_")


def write_study(result: StudyResult, out_dir: str | Path) -> list:
    """Write <name>.csv and <name>_summary.json into out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = result_basename(result)
    echo = result.config.echo()
    csv_path = out / f"{name}.csv"
    write_csv(csv_path, list(result.columns), list(result.rows), echo, VERSION)
    json_path = out / f"{name}_summary.json"
    write_json_report(json_path, {"version": VERSION, "config": echo, "summary": result.summary})
    return [csv_path, json_path]
