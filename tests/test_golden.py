"""The golden-output corpus: every output of tests/_golden.generate against tests/golden.

The corpus is compared byte for byte in the environment it was recorded in, and otherwise
with floats at rtol 1e-9 and atol 1e-12; the comparator tests below exercise that path with
a recorded environment that differs from the running one, and one test regenerates the
corpus under another OpenBLAS kernel set.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import minterp
from _golden import ENVIRONMENT, GOLDEN, _is_float, compare_corpus, generate


def test_outputs_match_the_corpus(tmp_path):
    generate(tmp_path)
    problems = compare_corpus(GOLDEN, tmp_path)
    assert not problems, "\n".join(problems)


def _cpu_flags() -> set:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines
                 if line.startswith("flags")), set())


# OpenBLAS kernel sets, each with the CPU flags it needs (pni is SSE3) and the name the
# library then reports: x86-64 builds load the Prescott kernels as Katmai.  Each set sums a
# pre-activation's d + 1 terms in its own order.
KERNEL_SETS = [("Haswell", {"avx2", "fma"}, "Haswell"), ("Sandybridge", {"avx"}, "Sandybridge"),
               ("Prescott", {"pni"}, "Katmai")]


@pytest.mark.parametrize("kernels, flags, name", KERNEL_SETS, ids=[k[0] for k in KERNEL_SETS])
def test_outputs_match_the_corpus_under_other_kernel_sets(kernels, flags, name, tmp_path):
    # OpenBLAS picks its kernel set when it loads, so the corpus is regenerated in a child
    # whose own environment names the set; any cell that depends on the set beyond the
    # comparator's tolerance fails here, on any CPU that can run those kernels
    if not flags <= _cpu_flags():
        pytest.skip(f"OpenBLAS's {kernels} kernels need a CPU with {sorted(flags)}")
    paths = [Path(minterp.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernels,
               PYTHONPATH=os.pathsep.join(map(str, paths + [os.environ.get("PYTHONPATH", "")])))
    script = "import sys; from _golden import generate; generate(sys.argv[1])"
    subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    core = json.loads((tmp_path / ENVIRONMENT).read_text())["blas_core"]
    assert core in (name, None), core  # None: a BLAS other than numpy's bundled OpenBLAS
    problems = compare_corpus(GOLDEN, tmp_path)
    assert not problems, "\n".join(problems)


def _drifted(value, eps):
    if isinstance(value, dict):
        return {key: _drifted(v, eps) for key, v in value.items()}
    if isinstance(value, list):
        return [_drifted(v, eps) for v in value]
    if isinstance(value, float):
        return value + eps * max(abs(value), 1.0)
    return value


def _drifted_text(name, text, eps):
    """text with every float cell moved by eps, relative above 1 and absolute below."""
    if not name.endswith(".csv"):
        value = json.loads(text)
        moved = _drifted(value, eps)
        return text if moved == value else json.dumps(moved, sort_keys=True, indent=1) + "\n"
    lines = text.splitlines()
    for i in range(2, len(lines)):
        lines[i] = ",".join(repr(_drifted(float(cell), eps)) if _is_float(cell) else cell
                            for cell in lines[i].split(","))
    return "\n".join(lines) + "\n"


def _drifted_copy(root, eps):
    """A copy of the corpus with every float moved by eps and another recorded environment."""
    shutil.copytree(GOLDEN, root)
    moved = []
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != ENVIRONMENT:
            text = path.read_text()
            path.write_text(_drifted_text(path.name, text, eps))
            if path.read_text() != text:
                moved.append(path.relative_to(root).as_posix())
    (root / ENVIRONMENT).write_text(json.dumps({"numpy": "another build"}) + "\n")
    return moved


def test_comparator_accepts_rounding_drift(tmp_path):
    moved = _drifted_copy(tmp_path / "corpus", 1e-13)
    assert len(moved) > 20
    problems = compare_corpus(GOLDEN, tmp_path / "corpus")
    assert not problems, "\n".join(problems)


def test_comparator_names_file_cell_and_drift_beyond_tolerance(tmp_path):
    moved = _drifted_copy(tmp_path / "corpus", 1e-6)
    problems = compare_corpus(GOLDEN, tmp_path / "corpus")
    assert [problem.split(":")[0] for problem in problems] == moved
    assert all("largest drift" in problem for problem in problems)
    audit = next(p for p in problems if p.startswith("rf-audit/bound_audit.csv"))
    assert "row " in audit and ", column " in audit


@pytest.mark.parametrize("edit, named", [
    (lambda text: text.replace("true", "false", 1), "expected 'true', got 'false'"),
    (lambda text: text + "extra,row\n", "line count"),
])
def test_comparator_holds_other_cells_exactly(tmp_path, edit, named):
    _drifted_copy(tmp_path / "corpus", 0.0)
    path = tmp_path / "corpus" / "rf-audit" / "bound_audit.csv"
    path.write_text(edit(path.read_text()))
    problems = compare_corpus(GOLDEN, tmp_path / "corpus")
    assert len(problems) == 1 and problems[0].startswith("rf-audit/bound_audit.csv")
    assert named in problems[0]
