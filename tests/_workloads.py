"""The benchmark's workload configs, from perfbench/workloads.py (not a package)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """The perfbench workloads module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
