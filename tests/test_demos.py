"""Each demo script runs to completion in a fresh interpreter, and the
README's Library snippet runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_snippet_refines():
    """The first python block of README.md runs and its refinement lowers
    the objective."""
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    trace = namespace["trace"]
    assert trace[-1]["objective"] < trace[0]["objective"]
