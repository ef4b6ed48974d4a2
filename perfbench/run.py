"""minterp benchmark: bound-audit workloads with end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload rf-audit --seed 0 --seconds 30 --trace 0

Every bound-audit call runs ``minterp.cli.main`` in a fresh child process
(child.py) with BLAS pinned to one thread and ``--threads`` pool workers.
``run.py`` first starts a few set-up-only children, then repeats the
workload's call until ``--seconds`` have passed (at least twice), checks
every call's outputs, prints each metric by name with its unit, and ends
with one JSON line: correct, attempted and failed trials, and metrics.

``--trace 0`` reports the end-to-end metrics (medians over the calls).
``--trace 1`` interleaves untraced and traced calls and reports the
per-layer metrics of the traced ones; the traced/untraced wall ratio is
the tracing overhead.  Outputs, spans and the recorded environment of
the last run go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER, layer_metrics, span_calls
from workloads import WORKLOADS, workload_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
MIN_CALLS = 2
# Hard cap on one run, so that a run ends within three minutes.
BUDGET_S = 165.0

EMPIRICAL_RISK_MAX = 1e-12
BOUND_PASS_MIN = 0.9
DEFAULT_SEED = 0
REFERENCE_RTOL = 1e-6


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(job: dict, job_dir: Path, deadline: float) -> dict:
    job_dir.mkdir(parents=True)
    job = dict(job, src=str(SRC), out=str(job_dir), result=str(job_dir / "result.json"))
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps(job))
    log_path = job_dir / "log.txt"
    with open(log_path, "w") as log:
        env = dict(os.environ, PERFBENCH_LAUNCHED=repr(time.monotonic()))
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{job_dir.name} exceeded the run's time budget") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{job_dir.name} exited with {proc.returncode}:\n{tail}")
    return dict(json.loads((job_dir / "result.json").read_text()), dir=str(job_dir))


def read_rows(call_dir: Path) -> list:
    with open(call_dir / "bound_audit.csv", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def load_reference(workload: str, config: dict) -> dict:
    reference = json.loads((HERE / "reference.json").read_text())[workload]
    if reference["config"] != config:
        raise BenchError(f"reference.json entry for {workload} was made with another config")
    return reference


def _close(got, want) -> bool:
    return got is not None and math.isclose(got, want, rel_tol=REFERENCE_RTOL)


def check_calls(calls: list, config: dict, reference: dict | None) -> tuple:
    """Apply the output checks; return (attempted, failed, problems).

    A trial fails when its row has an error, does not interpolate, or is
    covered by a failed call-level check (bound pass fraction, slope,
    byte identity with the first call, reference values).
    """
    attempted, failed, problems = 0, 0, []
    first_dir = Path(calls[0]["dir"])
    first_csv = (first_dir / "bound_audit.csv").read_bytes().splitlines()
    first_summary = (first_dir / "bound_audit_summary.json").read_bytes()
    for index, call in enumerate(calls):
        call_dir = Path(call["dir"])
        rows = read_rows(call_dir)
        summary = json.loads((call_dir / "bound_audit_summary.json").read_text())["summary"]
        bad = set()

        def fail(indices, message):
            bad.update(indices)
            problems.append(f"call {index}: {message}")

        every = range(len(rows))
        for i, row in enumerate(rows):
            if row["error"]:
                fail([i], f"row {i} error {row['error']}")
            elif float(row["empirical_risk"]) > EMPIRICAL_RISK_MAX:
                fail([i], f"row {i} empirical_risk {row['empirical_risk']} > {EMPIRICAL_RISK_MAX}")
        if summary.get("bound_pass_fraction", 0.0) < BOUND_PASS_MIN:
            fail(every, f"bound_pass_fraction {summary.get('bound_pass_fraction')} < {BOUND_PASS_MIN}")
        if len(config["n_grid"]) >= 4 and summary.get("slope") is None:
            fail(every, "slope missing")
        csv_lines = (call_dir / "bound_audit.csv").read_bytes().splitlines()
        if csv_lines != first_csv:
            # Two leading lines: the config comment and the header.
            same_frame = len(csv_lines) == len(first_csv) and csv_lines[:2] == first_csv[:2]
            differ = ([i for i in every if csv_lines[i + 2] != first_csv[i + 2]]
                      if same_frame else every)
            fail(differ, "CSV differs from the first call")
        if (call_dir / "bound_audit_summary.json").read_bytes() != first_summary:
            fail(every, "summary differs from the first call")
        if reference is not None:
            if not _close(summary.get("slope"), reference["slope"]):
                fail(every, f"slope {summary.get('slope')} != reference {reference['slope']}")
            for n, want in reference["per_n_median"].items():
                got = summary["per_n"].get(n, {}).get("median")
                if not _close(got, want):
                    fail([i for i in every if rows[i]["n"] == n],
                         f"n={n} median test risk {got} != reference {want}")
        attempted += len(rows)
        failed += len(bad)
    return attempted, failed, problems


def trace_metrics(workload: str, calls: list) -> dict:
    """Per-layer metrics: medians over the traced calls of one run."""
    spec = WORKLOADS[workload]
    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    per_call = []
    for call in traced:
        spans = json.loads((Path(call["dir"]) / "spans.json").read_text())["spans"]
        calls_by_span = span_calls(spans)
        missing = [name for name in spec.exercised if not calls_by_span.get(name)]
        if missing:
            raise BenchError(f"{workload}: traced spans recorded no calls: {', '.join(missing)}")
        metrics = layer_metrics(spans, spec.purpose)
        metrics["experiments.cpu_util"] = call["cpu_s"] / (call["wall_s"] * call["env"]["nproc"])
        per_call.append(metrics)
    merged = {name: statistics.median(m[name] for m in per_call) for name, _ in PER_LAYER}
    merged["trace.overhead_frac"] = (
        statistics.median(c["wall_s"] for c in traced)
        / statistics.median(c["wall_s"] for c in plain) - 1.0
    )
    return merged


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="keep repeating the call until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=2, help="bound-audit pool threads")
    parser.add_argument("--smoke", action="store_true",
                        help="one trial at the two smallest n (for the smoke test)")
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "minterp" / "cli.py").is_file():
        raise BenchError(f"no minterp source tree at {SRC}")
    config = workload_config(args.workload, args.seed, smoke=args.smoke)
    reference = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        reference = load_reference(args.workload, config)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))

    deadline = time.monotonic() + BUDGET_S
    base = {"config": None, "trace": False, "threads": args.threads}
    setups = [run_child(base, out / f"setup-{i}", deadline) for i in range(SETUP_PROBES)]
    calls = []
    started = time.monotonic()
    longest = 0.0
    while len(calls) < MIN_CALLS or time.monotonic() - started < args.seconds:
        if len(calls) >= MIN_CALLS and time.monotonic() + longest > deadline:
            break
        # Traced calls go in the middle of each group of four (plain,
        # traced, traced, plain), so drift within a run cancels out of
        # the overhead estimate.
        traced = bool(args.trace) and len(calls) % 4 in (1, 2)
        t0 = time.monotonic()
        call = run_child(dict(base, config=str(config_path), trace=traced),
                         out / f"call-{len(calls)}", deadline)
        longest = max(longest, time.monotonic() - t0)
        calls.append(dict(call, traced=traced))

    attempted, failed, problems = check_calls(calls, config, reference)
    if args.trace:
        metrics = trace_metrics(args.workload, calls)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in setups + calls),
            "wall_s": statistics.median(c["wall_s"] for c in calls),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "threads": args.threads,
              "config": config, "env": calls[0]["env"], "calls": calls,
              "setups": setups, "problems": problems, "result": result}
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print(f"env = {json.dumps(calls[0]['env'], sort_keys=True)}")
    print(f"workload = {args.workload} seed={args.seed} threads={args.threads} "
          f"calls={len(calls)} traced={sum(c['traced'] for c in calls)}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, unit in units:
        print(f"{name} = {metrics[name]!r} {unit}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
