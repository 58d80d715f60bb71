"""Importing the library loads numpy and the standard library only: no
scipy, and no process-pool machinery until a fit asks for workers."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
def heavy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.")
                  or m in ("multiprocessing", "concurrent.futures.process"))
import aggforest
after_package = heavy()
import aggforest.cli
print(json.dumps([after_package, heavy()]))
"""


@pytest.fixture(scope="module")
def loaded_after_import():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_aggforest_loads_no_scipy_or_pool(loaded_after_import):
    assert loaded_after_import[0] == []


def test_import_aggforest_cli_loads_no_scipy_or_pool(loaded_after_import):
    assert loaded_after_import[1] == []
