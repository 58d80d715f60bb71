"""The benchmark's tracer (perfbench/tracer.py) still finds, wraps and
restores every library function it names, so deleting or renaming one
fails here and not only in traced benchmark runs."""

import importlib.util
import pathlib
import sys

import aggforest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("aggforest_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_of(path):
    owner = aggforest
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def namespaces():
    """Every aggforest module's names, as (module, name) -> object."""
    return {(key, name): value for key, mod in list(sys.modules.items())
            if key == "aggforest" or key.startswith("aggforest.")
            for name, value in vars(mod).items()}


def test_tracer_installs_and_uninstalls_cleanly():
    tracer_module = load_tracer()
    assert tracer_module.self_test() == []
    traced = [(owner_of(path), attr) for _, path, attr in tracer_module.TRACED]
    originals = [owner.__dict__[attr] for owner, attr in traced]
    before = namespaces()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(traced, originals):
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(traced, originals):
        assert owner.__dict__[attr] is original, attr
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
