"""Every demo script, and the README's library quickstart, runs to completion
against the current public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _readme_quickstart() -> str:
    """The python block under the README's "Quickstart (library)" heading."""
    section = README.read_text().split("## Quickstart (library)\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize(
    "demo", DEMOS + [README], ids=[path.stem for path in DEMOS] + ["readme_quickstart"]
)
def test_demo_runs(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "readme_quickstart.py"
        demo.write_text(_readme_quickstart())
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # TMPDIR keeps the scratch directories a demo makes inside tmp_path
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("minterp_demo_*")), "demo left its scratch directory behind"
