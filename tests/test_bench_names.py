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


def test_tracer_sees_every_dispatched_call(capsys):
    """The sweep's verifier tables and the CLI's predicate table hold the
    functions in module-level dicts, which the tracer rebinds.  A table the
    tracer cannot reach (a tuple, or a closure over the original function)
    would leave these spans at 0 calls."""
    tracing = load_tracing()
    cli = importlib.import_module("sigmagraph.cli")
    verify = importlib.import_module("sigmagraph.verify")
    zoo = importlib.import_module("sigmagraph.zoo")
    spans = {"soluble": "is_sigma_soluble", "nilpotent": "is_sigma_nilpotent",
             "dispersive": "is_sigma_dispersive", "schmidt": "is_schmidt",
             "critical": "is_critical", "pi-closed": "is_pi_closed"}
    assert [*cli._PREDICATES, "pi-closed"] == list(spans)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        begin = tracer.mark()
        for _ in verify.run_corpus_sweep([("S4", zoo.symmetric(4))],
                                         zoo.standard_partitions()):
            pass
        sweep = tracer.aggregate(begin, tracer.mark())
        unseen = [f"verify.{name}" for name in tracing.TRACED["verify"]
                  if not sweep[f"verify.{name}.calls"]]
        # each predicate's own call, so that no other predicate's call to it counts
        for predicate, name in spans.items():
            argv = ["check", "--group", "zoo:S4", "--predicate", predicate]
            begin = tracer.mark()
            assert cli.main(argv + ["--pi", "2"] * (predicate == "pi-closed")) == 0
            if not tracer.aggregate(begin, tracer.mark())[f"predicates.{name}.calls"]:
                unseen.append(f"predicates.{name}")
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert unseen == []


def test_kernel_routes_call_the_public_functions(capsys):
    """The subgroup search reads normalisers through ``normalizer``, the
    Hall search Sylow subgroups through ``sylow``, and the layer count and
    prop 1.11's pair scan O_p and O_pi through ``core_series_subgroup``, so
    the benchmark's spans of those three names measure the library's own
    calls."""
    tracing = load_tracing()
    cli = importlib.import_module("sigmagraph.cli")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        begin = tracer.mark()
        assert cli.main(["verify", "--group", "zoo:S4"]) == 0
        assert cli.main(["--max-subgroup-order", "20", "verify", "--group", "zoo:S4",
                         "--statement", "1.11"]) == 0
        calls = tracer.aggregate(begin, tracer.mark())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = ("group.normalizer", "group.sylow", "group.core_series_subgroup")
    assert [span for span in spans if not calls[f"{span}.calls"]] == []
