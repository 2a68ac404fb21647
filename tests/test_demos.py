"""Each demo in demos/ runs to completion with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """(process, stdout, stderr) of every demo by file name; the demos run at the same time."""
    tmp = tmp_path_factory.mktemp("demos")
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    procs = {
        demo.name: subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for demo in DEMOS
    }
    return {name: (p, *p.communicate(timeout=300)) for name, p in procs.items()}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("name", [demo.name for demo in DEMOS])
def test_demo_runs_cleanly(demo_runs, name):
    proc, stdout, stderr = demo_runs[name]
    assert proc.returncode == 0, stderr
    assert stderr == ""
    assert stdout
