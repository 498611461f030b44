"""The package runs on the standard library alone (`dependencies = []`),
and exports only what the decoder, the acceptance suite and the benchmark
harness run."""

from __future__ import annotations

import ast
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Imports every dagdec module in a fresh, isolated interpreter and prints
# the modules that this loaded, split into dagdec's own and the rest.
_PROBE = f"""
import importlib, json, pkgutil, sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import dagdec
for info in pkgutil.iter_modules(dagdec.__path__, "dagdec."):
    importlib.import_module(info.name)
loaded = sorted(set(sys.modules) - before)
print(json.dumps({{
    "own": [m for m in loaded if m.partition(".")[0] == "dagdec"],
    "foreign": [m for m in loaded if m.partition(".")[0] not in {{"dagdec", *sys.stdlib_module_names}}],
}}))
"""


# Prints which of `statistics` and the modules it loads `import dagdec.cli`
# left loaded: only fitting a length predictor needs them, not start-up.
_COLD_START_PROBE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import dagdec.cli
print(json.dumps(sorted({{"statistics", "fractions", "decimal", "numbers"}} & set(sys.modules))))
"""


def test_cli_import_leaves_statistics_out():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _COLD_START_PROBE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_module_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    modules = {f"dagdec.{p.stem}" for p in (SRC / "dagdec").glob("*.py") if p.stem != "__init__"}
    assert modules <= set(loaded["own"])
    assert loaded["foreign"] == []


def _tree(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(path: pathlib.Path, relative: bool = False) -> set[str]:
    """The names a file's `from dagdec... import` statements bind, or its
    `from . import` ones when `relative`."""
    return {
        alias.name
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 if relative else (node.module or "").partition(".")[0] == "dagdec")
        for alias in node.names
    }


def _referenced(path: pathlib.Path) -> set[str]:
    """The names a file reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_run_by_the_decoder_the_acceptance_suite_or_the_harness():
    package = SRC / "dagdec"
    exported = _imported(package / "__init__.py", relative=True)
    used = _imported(ROOT / "tests" / "test_acceptance.py")
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced(path)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _imported(path)
    assert exported, "no export found"
    assert sorted(exported - used) == []
