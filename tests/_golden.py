"""The golden-output corpus in tests/golden: what it holds, how it is made and how it is compared.

``generate(out)`` writes every output of the corpus into ``out``: the smoke bound audits of
the benchmark's three workloads at seed 0, the seven lemma suites at their smoke sizes, the
CLI quickstart chain into one directory (``gen-teacher``, ``gen-data``, ``fit`` for each
model, ``norms`` on the teacher and on each model file) and ``environment.json``, which names
the numpy and BLAS builds.  ``tests/test_golden.py`` generates into a temporary directory
and compares.  A change that means to move outputs regenerates the corpus and names the
drift of each file:

    PYTHONPATH=src python tests/_golden.py
"""

from __future__ import annotations

import ctypes
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from minterp import ExperimentConfig, run_study, write_study
from minterp.cli import main
from minterp.experiments import MODELS, VERIFY_SELECTORS

from _workloads import load_workloads, smoke_config

GOLDEN = Path(__file__).resolve().parent / "golden"
ENVIRONMENT = "environment.json"
RTOL, ATOL = 1e-9, 1e-12

# The README's CLI quickstart config at widths small enough to keep the corpus near 40 KB.
_CLI_CONFIG = {"d_grid": [2], "n_grid": [8], "n_atoms": 8, "m1": 8, "m2": 32,
               "quadrature": 20000}


def environment() -> dict:
    """The builds whose rounding the corpus bytes depend on: numpy, its SIMD and its BLAS."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its build
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    core = None  # the kernel set OpenBLAS picked for this CPU
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"):
        get_core = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if get_core is not None:
            get_core.restype = ctypes.c_char_p
            core = get_core().decode()
    return {"numpy": np.__version__, "simd": config.get("SIMD Extensions", {}).get("found"),
            "blas": blas.get("name"), "blas_version": blas.get("version"), "blas_core": core}


def _cli(*argv) -> None:
    if main([str(a) for a in argv]) != 0:
        raise RuntimeError(f"minterp {' '.join(map(str, argv))} failed")


def generate(out: Path) -> None:
    """Write every corpus output into out."""
    out = Path(out)
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        config = ExperimentConfig.from_dict(workloads.workload_config(name, 0, smoke=True))
        write_study(run_study(config), out / name)
    for lemma in VERIFY_SELECTORS:
        write_study(run_study(smoke_config(("verify-lemma", lemma))), out / "verify")

    cli = out / "cli"
    cli.mkdir(parents=True)
    cfg = cli / "cfg.json"
    cfg.write_text(json.dumps(_CLI_CONFIG) + "\n")
    _cli("gen-teacher", "--config", cfg, "--out", cli)
    _cli("gen-data", cli / "teacher.json", "--config", cfg, "--out", cli)
    _cli("norms", cli / "teacher.json", "--out", cli)
    for model in MODELS:
        teacher = [] if model == "rf" else [cli / "teacher.json"]
        _cli("fit", model, cli / "dataset.json", *teacher, "--config", cfg, "--out", cli)
        _cli("norms", cli / f"model_{model.replace('-', '_')}.json", "--out", cli)
    (out / ENVIRONMENT).write_text(json.dumps(environment(), indent=1, sort_keys=True) + "\n")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


class _Drift:
    """The worst cell of one file: mismatches that are not floats, and the largest float drift."""

    def __init__(self):
        self.exact = None  # (where, want, got) of the first cell that must match exactly
        self.worst = (0.0, None)  # (drift, where) of the largest |got - want|
        self.outside = 0  # float cells outside rtol, atol

    def cell(self, where: str, want, got) -> None:
        if isinstance(want, float) and isinstance(got, float):
            if want == got or (math.isnan(want) and math.isnan(got)):
                return
            drift = abs(got - want)
            if not drift <= self.worst[0]:
                self.worst = (drift, where)
            if not drift <= ATOL + RTOL * abs(want):
                self.outside += 1
        elif (type(want), want) != (type(got), got) and self.exact is None:
            self.exact = (where, want, got)

    def problems(self, name: str) -> list:
        found = []
        if self.exact is not None:
            where, want, got = self.exact
            found.append(f"{name}: {where}: expected {want!r}, got {got!r}")
        if self.outside:
            drift, where = self.worst
            found.append(f"{name}: {self.outside} float cells beyond rtol {RTOL:g}, "
                         f"atol {ATOL:g}; largest drift {drift:.3g} at {where}")
        return found


def _walk(drift: _Drift, where: str, want, got) -> None:
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        for key in want:
            _walk(drift, f"{where}.{key}" if where else key, want[key], got[key])
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _walk(drift, f"{where}[{i}]", w, g)
    else:
        drift.cell(where or "(top)", want, got)


def _csv_cells(drift: _Drift, want: str, got: str) -> None:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    header = want_lines[1].split(",") if len(want_lines) > 1 else []
    if len(want_lines) != len(got_lines):
        drift.cell("line count", len(want_lines), len(got_lines))
        return
    for number, (w_line, g_line) in enumerate(zip(want_lines, got_lines)):
        if number < 2 or w_line.count(",") != g_line.count(","):
            drift.cell(f"line {number + 1}", w_line, g_line)
            continue
        for index, (w, g) in enumerate(zip(w_line.split(","), g_line.split(","))):
            column = header[index] if index < len(header) else f"#{index}"
            where = f"row {number - 1}, column {column}"
            if _is_float(w) and _is_float(g):
                drift.cell(where, float(w), float(g))
            else:
                drift.cell(where, w, g)


def compare_file(name: str, want: str, got: str) -> list:
    """The problems of got against want: floats at RTOL and ATOL, every other cell exactly.

    Each problem names the file and the first cell that must match exactly, or the count of
    float cells beyond tolerance with the row and column of the largest drift."""
    drift = _Drift()
    if name.endswith(".csv"):
        _csv_cells(drift, want, got)
    else:
        _walk(drift, "", json.loads(want), json.loads(got))
    return drift.problems(name)


def _files(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): path.read_text()
            for path in sorted(root.rglob("*")) if path.is_file()}


def compare_corpus(want_root: Path, got_root: Path) -> list:
    """The problems of the outputs in got_root against the corpus in want_root.

    Byte for byte when both were written in the same environment, else by compare_file.
    A file the byte check rejects is described by compare_file too, so the message still
    names the cell and the drift."""
    want, got = _files(Path(want_root)), _files(Path(got_root))
    problems = [f"{name}: missing from the new outputs" for name in sorted(want.keys() - got)]
    problems += [f"{name}: not in the corpus" for name in sorted(got.keys() - want)]
    exact = want.get(ENVIRONMENT) == got.get(ENVIRONMENT)
    for name in sorted((want.keys() & got.keys()) - {ENVIRONMENT}):
        if exact and want[name] != got[name]:
            problems.append(f"{name}: bytes differ in the recorded environment")
        if want[name] != got[name]:
            problems += compare_file(name, want[name], got[name])
    return problems


def regenerate() -> None:
    """Rewrite the corpus: generate into a directory beside it, then swap it in.

    A run that fails or is killed partway leaves the committed corpus as it was."""
    new = Path(tempfile.mkdtemp(prefix=".golden-new-", dir=GOLDEN.parent))
    old = new.with_name(new.name.replace("-new-", "-old-"))
    try:
        generate(new)
        if GOLDEN.exists():
            GOLDEN.rename(old)
        new.rename(GOLDEN)
    except BaseException:
        shutil.rmtree(new, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]}  (regenerates {GOLDEN}; "
                 "takes no arguments)")
    regenerate()
    print(f"wrote {sum(1 for p in GOLDEN.rglob('*') if p.is_file())} files to {GOLDEN}")
