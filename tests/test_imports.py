"""The package depends on numpy alone, and its modules import only what they use."""

import ast
import builtins
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


# Imported but not called: globals the benchmark's tracer patches by module and name.
TRACER_GLOBALS = {("forward", "correlation_envelope"), ("forward", "smooth_rows"),
                  ("localize", "smooth_rows")}


def test_every_import_is_used():
    # __init__ imports only to re-export, so its names are used by definition
    unused = set()
    for path in Path(aqualoc.__file__).resolve().parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.add((path.stem, name))
    assert unused == TRACER_GLOBALS


SCENE_CLASSES = {"Environment", "SourceLocation", "AnalyticPulse", "TimeGrid", "Region"}


def test_one_reader_builds_scenes_from_mappings():
    # a call with **mapping whose callee is a scene class, or a name the module
    # neither defines nor imports (a variable holding a class), builds a scene
    # from a mapping; only environment.scene_from_dict may do that
    builders = set()
    for path in Path(aqualoc.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        named = set(dir(builtins))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update((a.asname or a.name).split(".")[0] for a in node.names)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and any(k.arg is None for k in call.keywords)):
                    continue
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee in SCENE_CLASSES or (isinstance(call.func, ast.Name) and callee not in named):
                    builders.add((path.stem, func.name))
    assert builders == {("environment", "scene_from_dict")}
