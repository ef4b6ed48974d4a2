"""Drive the command-line harness end to end and read back its reports.

Every run is a pure function of (config, seed): the CSV embeds the
resolved config in its first line, floats are written with shortest
round-trip repr, and thread count changes nothing, so reruns are
byte-identical.  gen-data draws one dataset, so its config lists one n
and a scale-study grid is rejected.  The same workflow works from a shell:

    minterp gen-teacher --config data.json --out work
    minterp gen-data work/teacher.json --config data.json --out work
    minterp fit two-layer work/dataset.json work/teacher.json ...
    minterp scale-study --config cfg.json --out work --threads 4
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

config = {
    "model": "rf",
    "d_grid": [3],
    "n_atoms": 16,
    "n_grid": [16, 32, 64, 128],
    "m_per_n": 32,
    "trials": 5,
    "n_test": 2000,
    "seed": 7,
}


def cli(*args):
    cmd = [sys.executable, "-m", "minterp", *args]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    for line in out.stdout.strip().splitlines():
        print(f"  {line}")


with tempfile.TemporaryDirectory(prefix="minterp_demo_") as tmp:
    work = Path(tmp)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_path = work / "data.json"
    data_path.write_text(json.dumps(dict(config, n_grid=[64])))

    print("one dataset from a one-entry config:")
    cli("gen-teacher", "--config", str(data_path), "--out", str(work))
    cli("gen-data", str(work / "teacher.json"), "--config", str(data_path), "--out", str(work))
    n = len(json.loads((work / "dataset.json").read_text())["y"])
    print(f"dataset size: {n}")
    rejected = subprocess.run(
        [sys.executable, "-m", "minterp", "gen-data", str(work / "teacher.json"),
         "--config", str(cfg_path)],
        capture_output=True, text=True,
    )
    print(f"gen-data on the four-entry scale-study grid exits {rejected.returncode}: "
          f"{rejected.stderr.strip()}\n")

    print("scale study, twice with different thread counts:")
    cli("scale-study", "--config", str(cfg_path), "--out", str(work / "a"), "--threads", "1")
    cli("scale-study", "--config", str(cfg_path), "--out", str(work / "b"), "--threads", "4")

    a = (work / "a" / "scale_study.csv").read_bytes()
    b = (work / "b" / "scale_study.csv").read_bytes()
    print(f"\nbyte-identical outputs: {a == b}")

    summary = json.loads((work / "a" / "scale_study_summary.json").read_text())["summary"]
    print(f"fitted log-log slope of median test risk: {summary['slope']:.3f}")
    print(f"{'n':>5} {'median risk':>12} {'q25':>10} {'q75':>10}")
    for n, stats in sorted(summary["per_n"].items(), key=lambda kv: int(kv[0])):
        print(f"{n:>5} {stats['median']:>12.3e} {stats['q25']:>10.3e} {stats['q75']:>10.3e}")
