"""Regenerate reference.json: slope and per-n median test risk at the default seed.

Usage (from the repository root):  python3 perfbench/make_reference.py

Run this only when a change is meant to alter bound-audit results; the
benchmark compares every default-seed run against these values.
"""

import json
import shutil
import time

import run
from workloads import WORKLOADS, workload_config


def main() -> None:
    reference = {}
    for name in WORKLOADS:
        config = workload_config(name, run.DEFAULT_SEED)
        out = run.OUT / f"reference-{name}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(config))
        job = {"config": str(out / "config.json"), "trace": False, "threads": 2}
        run.run_child(job, out / "call", time.monotonic() + run.BUDGET_S)
        summary = json.loads((out / "call" / "bound_audit_summary.json").read_text())["summary"]
        reference[name] = {
            "config": config,
            "slope": summary["slope"],
            "per_n_median": {n: entry["median"] for n, entry in summary["per_n"].items()},
        }
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
