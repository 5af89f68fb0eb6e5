"""The benchmark's tracer (perfbench/tracing.py) wraps sigmagraph functions
by name.  A library function it lists must not disappear silently, or
``perfbench/run.py --trace 1`` stops working."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for mod_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"sigmagraph.{mod_name}")
        for name in names:
            owner_name, _, method = name.partition(".")
            owner = getattr(module, owner_name, None)
            if owner is None or (method and method not in vars(owner)):
                missing.append(f"{mod_name}.{name}")
    assert not missing


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    graphs = importlib.import_module("sigmagraph.graphs")
    original = graphs.build_vm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert graphs.build_vm is not original
    finally:
        tracer.uninstall()
    assert graphs.build_vm is original
