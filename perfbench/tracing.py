"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each minterp layer from outside
the package.  Callers import with ``from .linalg import min_norm_solve``,
so a function lives under several module namespaces; every alias of a
target in every loaded ``minterp`` module is replaced by one wrapper, and
all call sites aggregate under one span name ``<module>.<function>``.

Spans are kept in memory, each with its parent, thread, start and end,
plus the counters recorded at that boundary, and are written out once
when the traced process ends.  ``layer_metrics`` turns a span dump into
the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time

TRIAL = "experiments.trial"
POOL = "experiments.run_trials"


def _factor_flops(matrix) -> dict:
    # Dense SVD / symmetric eigensolve of an (a, b) matrix costs O(min^2 max).
    a, b = matrix.shape
    return {"factor_flops": min(a, b) ** 2 * max(a, b)}


def _draws(args, result, exc) -> dict:
    if exc is None:
        return {"draws": result.resamples_used, "accepted": 1}
    return {"draws": getattr(exc, "attempts", 0), "accepted": 0}


def _ascent_steps(n_steps: int):
    def count(args, result, exc) -> dict:
        d = args["X"].shape[0]
        starts = 2 * (d + 1) + args["n_starts"]
        steps = args["n_draws"] * starts * n_steps if args["C"] != 0 else 0
        return {"ascent_steps": steps}
    return count


# (module, attribute, counter).  A counter maps the bound call arguments,
# the result and the raised exception (or None) to counts for the span.
def _targets(minterp_modules: dict) -> list:
    refine = minterp_modules["complexity"]._refine_sphere_max
    n_steps = inspect.signature(refine).parameters["n_steps"].default
    return [
        ("linalg", "min_norm_solve", lambda a, r, e: _factor_flops(a["A"])),
        ("linalg", "smallest_singular_value", lambda a, r, e: _factor_flops(a["M"])),
        ("linalg", "smallest_eigenvalue", lambda a, r, e: _factor_flops(a["K"])),
        ("random_features", "FeatureFamily.features",
         lambda a, r, e: {"bytes": r.nbytes if e is None else 0}),
        ("random_features", "RandomFeatureModel.predict", None),
        ("random_features", "kernel_exact", None),
        ("random_features", "kernel_empirical", None),
        ("two_layer", "interpolate_two_layer", None),
        ("two_layer", "approximate_teacher", None),
        ("two_layer", "fit_residual_net", _draws),
        ("two_layer", "two_layer_eval_batch",
         lambda a, r, e: {"peak_bytes": 2 * a["theta"].m * a["X"].shape[1] * 8}),
        ("resnet", "interpolate_resnet", None),
        ("resnet", "embed_two_layer", None),
        ("resnet", "resnet_add", None),
        ("resnet", "resnet_eval_batch", lambda a, r, e: {"layer_steps": a["theta"].L}),
        ("resnet", "weighted_path_norm", None),
        ("complexity", "rad_path_ball", _ascent_steps(n_steps)),
        ("complexity", "rad_rf_ball", None),
        ("complexity", "population_risk", None),
        ("sampling", "make_teacher", None),
        ("sampling", "sample_dataset", None),
        ("sampling", "teacher_eval_batch", None),
        ("serialize", "write_csv",
         lambda a, r, e: {"bytes": os.path.getsize(a["path"]) if e is None else 0}),
        ("serialize", "write_json_report", None),
        ("cli", "main", None),
    ]


# Per-layer metrics reported by the traced run, with units.  "computed"
# counts come from array shapes, not from hardware counters.
PER_LAYER = (
    ("linalg.min_norm_solve.calls", "count"),
    ("linalg.min_norm_solve.total_s", "s"),
    ("linalg.smallest_singular_value.calls", "count"),
    ("linalg.smallest_singular_value.total_s", "s"),
    ("linalg.smallest_eigenvalue.calls", "count"),
    ("linalg.smallest_eigenvalue.total_s", "s"),
    ("linalg.factor_flops", "flop"),
    ("random_features.features.calls", "count"),
    ("random_features.features.total_s", "s"),
    ("random_features.features.bytes", "B"),
    ("random_features.predict.calls", "count"),
    ("random_features.predict.total_s", "s"),
    ("random_features.kernel_exact.calls", "count"),
    ("random_features.kernel_exact.total_s", "s"),
    ("random_features.kernel_empirical.calls", "count"),
    ("random_features.kernel_empirical.total_s", "s"),
    ("two_layer.interpolate_two_layer.total_s", "s"),
    ("two_layer.interpolate_two_layer.self_s", "s"),
    ("two_layer.approximate_teacher.total_s", "s"),
    ("two_layer.fit_residual_net.total_s", "s"),
    ("two_layer.fit_residual_net.draws", "count"),
    ("two_layer.fit_residual_net.accept_ratio", "fraction"),
    ("two_layer.two_layer_eval_batch.calls", "count"),
    ("two_layer.two_layer_eval_batch.total_s", "s"),
    ("two_layer.two_layer_eval_batch.peak_bytes", "B"),
    ("resnet.interpolate_resnet.total_s", "s"),
    ("resnet.interpolate_resnet.self_s", "s"),
    ("resnet.embed_two_layer.total_s", "s"),
    ("resnet.resnet_add.total_s", "s"),
    ("resnet.resnet_eval_batch.calls", "count"),
    ("resnet.resnet_eval_batch.total_s", "s"),
    ("resnet.resnet_eval_batch.layer_steps", "count"),
    ("resnet.weighted_path_norm.total_s", "s"),
    ("complexity.rad_path_ball.total_s", "s"),
    ("complexity.rad_path_ball.ascent_steps", "count"),
    ("complexity.rad_rf_ball.total_s", "s"),
    ("complexity.population_risk.self_s", "s"),
    ("sampling.make_teacher.total_s", "s"),
    ("sampling.sample_dataset.total_s", "s"),
    ("sampling.teacher_eval_batch.total_s", "s"),
    ("serialize.write_csv.total_s", "s"),
    ("serialize.write_csv.bytes", "B"),
    ("serialize.write_json_report.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("experiments.trial_s.p50", "s"),
    ("experiments.trial_s.max", "s"),
    ("experiments.pool_busy_frac", "fraction"),
    ("experiments.cpu_util", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.top_level_coverage", "fraction"),
    ("trace.purpose_share", "fraction"),
)


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def open(self, name: str, parent: int | None = None) -> dict:
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]["id"]
        span = {"id": next(self._ids), "parent": parent, "name": name,
                "thread": threading.get_ident(), "start": time.perf_counter()}
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                self.close(span)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counter(bound.arguments, result, exc)

        return traced

    def _wrap_pool(self, run_trials):
        @functools.wraps(run_trials)
        def traced(worker, count, threads):
            pool = self.open(POOL)
            pool["counts"] = {"threads": threads}

            def traced_worker(index):
                span = self.open(TRIAL, parent=pool["id"])
                try:
                    return worker(index)
                finally:
                    self.close(span)

            try:
                return run_trials(traced_worker, count, threads)
            finally:
                self.close(pool)

        return traced

    def install(self) -> None:
        """Wrap every target at every alias in the loaded minterp modules.

        Raises AttributeError when a target no longer exists, so a rename
        breaks the traced run instead of reporting zeros.
        """
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "minterp" or name.startswith("minterp.")}
        short = {name.rsplit(".", 1)[-1]: mod for name, mod in modules.items()}
        for module, attr, counter in _targets(short):
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{module}.{fn_name}"
            if owner_name:
                owner = getattr(short[module], owner_name)
                setattr(owner, fn_name, self._wrap(name, getattr(owner, fn_name), counter))
                continue
            original = getattr(short[module], fn_name)
            wrapper = self._wrap(name, original, counter)
            for mod in modules.values():
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapper)
        experiments = short["experiments"]
        experiments._run_trials = self._wrap_pool(experiments._run_trials)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _aggregate(spans: list) -> dict:
    """Per span name: calls, total_s, self_s and summed (or peak_) counters."""
    durations = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + durations[s["id"]]
    stats = {}
    for s in spans:
        entry = stats.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += durations[s["id"]]
        entry["self_s"] += durations[s["id"]] - child_time.get(s["id"], 0.0)
        for key, value in s.get("counts", {}).items():
            if key.startswith("peak_"):
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return stats


def layer_metrics(spans: list, purpose: tuple) -> dict:
    """Per-layer metrics of one traced bound-audit call.

    ``purpose`` names the spans whose share of worker time the workload
    is meant to stress; ``trace.purpose_share`` reports that share.
    ``experiments.cpu_util`` and ``trace.overhead_frac`` need process-level
    measurements and are added by the caller.
    """
    stats = _aggregate(spans)
    trials = [s for s in spans if s["name"] == TRIAL]
    trial_ids = {s["id"] for s in trials}
    trial_s = [s["end"] - s["start"] for s in trials]
    worker_s = sum(trial_s)
    top_level = sum(s["end"] - s["start"] for s in spans if s["parent"] in trial_ids)
    pools = [s for s in spans if s["name"] == POOL]
    pool_capacity = sum((s["end"] - s["start"]) * s["counts"]["threads"] for s in pools)

    def stat(span_name: str, key: str) -> float:
        return stats.get(span_name, {}).get(key, 0)

    metrics = {name: stat(*name.rsplit(".", 1)) for name, _unit in PER_LAYER}
    draws = stat("two_layer.fit_residual_net", "draws")
    metrics.update({
        "linalg.factor_flops": sum(stat(f"linalg.{fn}", "factor_flops") for fn in
                                   ("min_norm_solve", "smallest_singular_value",
                                    "smallest_eigenvalue")),
        "two_layer.fit_residual_net.accept_ratio":
            stat("two_layer.fit_residual_net", "accepted") / draws if draws else 0.0,
        "experiments.trial_s.p50": statistics.median(trial_s) if trial_s else 0.0,
        "experiments.trial_s.max": max(trial_s, default=0.0),
        "experiments.pool_busy_frac": worker_s / pool_capacity if pool_capacity else 0.0,
        "trace.top_level_coverage": top_level / worker_s if worker_s else 0.0,
        "trace.purpose_share":
            sum(stat(n, "total_s") for n in purpose) / worker_s if worker_s else 0.0,
    })
    return metrics


def span_calls(spans: list) -> collections.Counter:
    """Number of recorded spans per span name."""
    return collections.Counter(s["name"] for s in spans)
