"""Importing the library loads numpy and the standard library only: no
scipy, no process-pool machinery until a fit asks for workers, and no
json, hashlib or csv until a model or CSV file is read or written.  The
package exports the documented names, and those the benchmark calls or
imports."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import aggforest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

EXPORTS = [
    "BinMapper", "DatasetSchema", "FeatureKind", "Forest", "ModelFormatError",
    "TrainConfig", "add_noise", "donoho_signal", "fit", "fit_bins",
    "load_csv", "load_model", "log_loss", "make_toy_classification", "mse",
    "multiclass_auc", "roc_auc", "save_model", "signal_grid", "transform",
    "__version__"]

PROBE = """
import sys
def heavy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.")
                  or m in ("multiprocessing", "concurrent.futures.process"))
import aggforest
after_package = heavy()
model_file = sorted(m for m in ("csv", "hashlib", "json") if m in sys.modules)
import aggforest.cli
import json
print(json.dumps([after_package, heavy(), model_file]))
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


def test_import_aggforest_leaves_model_file_modules_unloaded(
        loaded_after_import):
    # model_io imports these where a model or CSV file is read or written.
    assert loaded_after_import[2] == []


def test_package_exports_the_documented_names():
    assert aggforest.__all__ == EXPORTS
    assert all(hasattr(aggforest, name) for name in EXPORTS)
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library")[1].split("\n## ")[0]
    assert [n for n in EXPORTS if f"`{n}`" not in library] == []
    run_py = (ROOT / "perfbench" / "run.py").read_text()
    called = set(re.findall(r"\baggforest\.(\w+)\(", run_py))
    assert called == {"TrainConfig", "fit", "load_model", "save_model",
                      "transform"}
    assert called <= set(EXPORTS)


def test_benchmark_imports_from_the_modules_resolve():
    """Every ``from aggforest.<module> import <name>`` in perfbench/*.py
    names something its module holds, so moving one fails here and not only
    in a benchmark run."""
    found, missing = [], []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("aggforest.")):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    found.append((path.name, node.module, alias.name))
                    if not hasattr(module, alias.name):
                        missing.append(found[-1])
    assert ("run.py", "aggforest.aggregation", "predict_aggregated") in found
    assert missing == []
