"""The benchmark's workload configs, from perfbench/workloads.py (not a package), and the
smoke-size config of every study."""

import importlib.util
from pathlib import Path

from minterp import ExperimentConfig

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# Smoke sizes per lemma or model; each sets only keys its studies read.
_SMOKE_SIZES = {
    "kernel-approx": dict(n_grid=(6,), quadrature=2000),
    "krr-bound": dict(n_grid=(6,), quadrature=2000, n_atoms=8),
    "min-norm-rf": dict(n_grid=(6,), quadrature=2000, n_atoms=8, m_cap=256),
    "fit-rand-label": dict(n_grid=(6,), quadrature=20_000, m2=512),
    "two-layer-composite": dict(n_grid=(6,), quadrature=20_000, n_atoms=8, m1=16, m2=256),
    "resnet-add": dict(L_grid=(4,)),
    "embedding": dict(),
    "rf": dict(n_grid=(8, 16), n_atoms=8, m_per_n=4, n_test=100),
    "two-layer": dict(n_grid=(8, 16), n_atoms=8, quadrature=20_000, m1=16, m_per_n=16, n_test=100),
    "resnet": dict(n_grid=(8, 16), L_grid=(64, 128), n_atoms=8, quadrature=20_000, m1=8,
                   n_test=100),
}


def load_workloads():
    """The perfbench workloads module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def smoke_config(study):
    """The smoke-size config of a (kind, lemma or model) study."""
    kind, name = study
    own = {"lemma" if kind == "verify-lemma" else "model": name}
    audit = {"rad_draws": 4} if kind == "bound-audit" and name in ("rf", "two-layer") else {}
    return ExperimentConfig(kind=kind, d_grid=(2,), seed=5, trials=1, **own,
                            **_SMOKE_SIZES[name], **audit)
