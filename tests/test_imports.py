"""The package depends on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import aqualoc

PROBE = """
import sys
before = set(sys.modules)
import aqualoc
print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_only_stdlib_and_numpy():
    # a fresh interpreter, so that modules this test run loaded hide no import;
    # what the interpreter loads before the import (site hooks) is not the package's
    root = str(Path(aqualoc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([root, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         check=True)
    loaded = set(out.stdout.split())
    assert {"aqualoc", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "aqualoc"} == set()
