"""Every function the benchmark's traced run wraps still exists by its traced name.

perfbench/tracing.py wraps (module, attribute) targets in the loaded
minterp modules and stops the traced benchmark run when one is gone.
This test reads that target list and fails in the unit suite instead,
so renaming or removing a traced function shows up here first.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import minterp.cli  # noqa: F401  (loads every module a CLI run reaches)
from minterp import GramFactor

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _minterp_modules() -> dict:
    return {
        name.rsplit(".", 1)[-1]: mod
        for name, mod in sys.modules.items()
        if name == "minterp" or name.startswith("minterp.")
    }


def test_every_traced_target_resolves():
    modules = _minterp_modules()
    targets = _tracing_module()._targets(modules)
    missing = []
    for module, attr, _counter in targets:
        owner = modules.get(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert targets and not missing, f"traced targets not found: {missing}"


def test_trial_pool_keeps_its_traced_signature():
    run_trials = _minterp_modules()["experiments"]._run_trials
    assert list(inspect.signature(run_trials).parameters) == ["worker", "count", "threads"]


@pytest.mark.parametrize("fn_name, extra", [
    ("min_norm_solve", (np.ones(3),)),
    ("smallest_singular_value", ()),
])
def test_linalg_counters_read_a_gram_factor(fn_name, extra):
    # the fits pass factors, not arrays, to these two; the counters read .shape
    tracing = _tracing_module()
    modules = _minterp_modules()
    counters = {attr: counter for module, attr, counter in tracing._targets(modules)
                if module == "linalg"}
    tracer = tracing.Tracer()
    traced = tracer._wrap(f"linalg.{fn_name}", getattr(modules["linalg"], fn_name),
                          counters[fn_name])
    traced(GramFactor(np.random.default_rng(0).standard_normal((3, 12))), *extra)
    (span,) = tracer.spans
    assert span["counts"] == {"factor_flops": 3 ** 2 * 12}
