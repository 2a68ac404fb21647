"""Each demo in demos/ runs to completion with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_tmpdir(tmp_path_factory):
    """The working and TMPDIR directory of the demo runs."""
    return tmp_path_factory.mktemp("demos")


@pytest.fixture(scope="module")
def demo_runs(demo_tmpdir):
    """(process, stdout, stderr) of every demo by file name; the demos run at the same time."""
    env = dict(os.environ, TMPDIR=str(demo_tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    procs = {
        demo.name: subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
            cwd=demo_tmpdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
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


def test_demos_leave_no_temporary_directory(demo_runs, demo_tmpdir):
    assert sorted(p.name for p in demo_tmpdir.glob("voxkit-*")) == []
