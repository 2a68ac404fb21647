import os
import subprocess
import sys
from pathlib import Path

import voxkit


def test_every_exported_name_resolves_and_star_import_is_clean():
    assert len(set(voxkit.__all__)) == len(voxkit.__all__)
    assert [name for name in voxkit.__all__ if not hasattr(voxkit, name)] == []
    namespace = {}
    exec("from voxkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(voxkit.__all__)


def _fresh(code: str) -> str:
    """The stdout of code run in a new interpreter that imports voxkit from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    return result.stdout.strip()


def test_import_voxkit_loads_no_submodule():
    code = "import sys, voxkit; print(sorted(m for m in sys.modules if m.startswith('voxkit.')))"
    assert _fresh(code) == "[]"


def test_import_voxkit_corpus_loads_neither_numpy_nor_scipy():
    code = (
        "import sys, voxkit.corpus; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    assert _fresh(code) == "[]"


def test_import_voxkit_cli_loads_no_scipy_io():
    code = (
        "import sys, voxkit.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.io')))"
    )
    assert _fresh(code) == "[]"


def test_each_export_is_the_attribute_of_its_submodule():
    code = """
import importlib, inspect, voxkit
for name in voxkit.__all__:
    obj = getattr(voxkit, name)
    if inspect.ismodule(obj):
        assert obj is importlib.import_module(f"voxkit.{name}"), name
    else:
        assert obj.__module__.startswith("voxkit."), name
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
print(len(voxkit.__all__))
"""
    assert _fresh(code) == str(len(voxkit.__all__))


def test_errors_resolves_after_a_bare_import():
    assert _fresh("import voxkit; print(voxkit.errors.VoxkitError.__module__)") == "voxkit.errors"
