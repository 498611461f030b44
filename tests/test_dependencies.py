"""The package runs on the standard library alone (`dependencies = []`)."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

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
