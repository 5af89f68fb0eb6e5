import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sigmagraph.cli
import sigmagraph.group
from oracles import report_json_by_dumps
from sigmagraph.cli import main
from sigmagraph.errors import GroupInputError
from sigmagraph.group import DEFAULT_LIMITS, EngineLimits
from sigmagraph.sigma import ATOMIC
from sigmagraph.verify import run_corpus_sweep
from sigmagraph.zoo import build_by_tag, standard_partitions, zoo

EXPORT = Path(__file__).resolve().parents[1] / "scripts" / "export_zoo_graphs.py"
BENCH_PAIRS = EXPORT.parent / "bench_pairs.py"
LOC = EXPORT.parent / "loc.py"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_graph_s3_hawkes_exact_json(capsys):
    rc, out, err = run(capsys, "graph", "--group", "zoo:S3", "--sigma", "atomic",
                       "--kind", "hawkes", "--format", "json")
    assert rc == 0 and err == ""
    assert out == ('{"edges": [["atomic:3", "atomic:2"]], "group": "S3", '
                   '"kind": "hawkes", "vertices": [{"primes_in_G": [2], '
                   '"tag": "atomic:2"}, {"primes_in_G": [3], "tag": "atomic:3"}]}\n')


def test_cli_calls_leave_the_module_level_partition_memos_alone(capsys):
    """Every call parses its partitions afresh, so the classify and
    sigma_of_int memos it fills go with them; the module-level ATOMIC's
    memos are not touched.  A zoo:TAG call computes on a group of its own,
    so a group build_by_tag hands out gains no graph keyed on the call's
    partition."""
    before = dict(ATOMIC._classes), dict(ATOMIC._of_int)
    cached = build_by_tag("S4")._cache
    graph_keys = {key for key in cached if key[0] == "graph"}
    spec = '{"degree": 13, "generators": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]]}'
    for argv in (("graph", "--group", spec, "--sigma", "atomic", "--kind", "hawkes"),
                 ("graph", "--group", spec, "--kind", "vm"),
                 ("check", "--group", spec, "--predicate", "pi-closed", "--pi", "13"),
                 ("verify", "--group", "zoo:f20", "--statement", "all"),
                 ("graph", "--group", "zoo:S4", "--sigma", '{"classes": [[2]]}',
                  "--kind", "hawkes")):
        assert run(capsys, *argv)[0] == 0
    assert (dict(ATOMIC._classes), dict(ATOMIC._of_int)) == before
    assert {key for key in cached if key[0] == "graph"} == graph_keys


def test_graph_c6_vm_edgeless(capsys):
    rc, out, _ = run(capsys, "graph", "--group", "zoo:C6", "--kind", "vm")
    assert rc == 0
    assert json.loads(out)["edges"] == []


def test_graph_wreath_hall_single_edge(capsys):
    rc, out, _ = run(capsys, "graph", "--group", "zoo:wreath_c2_s3",
                     "--sigma", '{"classes":[[2]]}', "--kind", "hall")
    assert rc == 0
    assert json.loads(out)["edges"] == [["residual", "explicit:0"]]


def test_graph_dot_format(capsys):
    rc, out, _ = run(capsys, "graph", "--group", "zoo:S3", "--kind", "hawkes",
                     "--format", "dot")
    assert rc == 0
    assert out.startswith('digraph "hawkes_S3" {\n')
    assert '"atomic:3" -> "atomic:2";\n' in out


def test_graph_inline_group(capsys):
    spec = '{"degree": 4, "generators": [[1, 2], [1, 2, 3, 4]], "expected_order": 24}'
    rc, out, _ = run(capsys, "graph", "--group", spec, "--kind", "hall")
    assert rc == 0
    assert json.loads(out)["edges"] == [["atomic:3", "atomic:2"]]


def test_graph_group_file(tmp_path, capsys):
    path = tmp_path / "v4.json"
    path.write_text('{"degree": 4, "generators": [[[1, 2], [3, 4]], '
                    '[[1, 3], [2, 4]]], "expected_order": 4, "name": "V4"}')
    rc, out, _ = run(capsys, "graph", "--group", str(path), "--kind", "hawkes")
    assert rc == 0
    data = json.loads(out)
    assert data["group"] == "V4" and data["edges"] == []


def test_check_predicates(capsys):
    rc, out, _ = run(capsys, "check", "--group", "zoo:S4",
                     "--predicate", "dispersive")
    assert rc == 0
    assert json.loads(out) == {"group": "S4", "order": 24,
                               "predicate": "dispersive",
                               "sigma": {"atomic": True, "classes": []},
                               "value": False}
    rc, out, _ = run(capsys, "check", "--group", "zoo:sl23",
                     "--predicate", "pi-closed", "--pi", "2")
    assert rc == 0 and json.loads(out)["value"] is True
    rc, out, _ = run(capsys, "check", "--group", "zoo:S3",
                     "--predicate", "critical", "--sigma",
                     '{"classes": [[2, 3]]}')
    assert rc == 0 and json.loads(out)["value"] is False


def test_check_pi_reports_each_prime_once(capsys):
    rc, out, _ = run(capsys, "check", "--group", "zoo:S4", "--predicate", "pi-closed",
                     "--pi", "3, 2,3")
    assert rc == 0 and json.loads(out)["pi"] == [2, 3]


@pytest.mark.parametrize("tag", ("S6", "A6", "wreath_c2_s3"))
@pytest.mark.parametrize("predicate", ("schmidt", "critical"))
def test_check_schmidt_and_critical_above_lattice_caps(capsys, tag, predicate):
    """The Schmidt test reads the two-generated pool, never the full
    lattice, so groups beyond the lattice caps get an answer."""
    rc, out, _ = run(capsys, "check", "--group", f"zoo:{tag}",
                     "--predicate", predicate)
    assert rc == 0 and json.loads(out)["value"] is False


def test_check_pi_required(capsys):
    rc, _, err = run(capsys, "check", "--group", "zoo:S4",
                     "--predicate", "pi-closed")
    assert rc == 2 and err.startswith("error:")


def test_verify_single_group(capsys):
    rc, out, _ = run(capsys, "verify", "--group", "zoo:S4", "--sigma", "atomic",
                     "--statement", "1.12")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["verdict"] == "pass"
    assert lines[1] == "summary: pass=1 vacuous=0 FAIL=0"


# S3 named with a quote, a backslash, é, 😀, U+0001 and a lone surrogate, in
# JSON escapes; CI pins the stream of the same call
ODD_NAME_SPEC = (r'{"degree": 3, "generators": [[1, 2, 3], [1, 2]], '
                 r'"name": "q\"b\\s \u00e9\ud83d\ude00\u0001\ud800"}')


def test_verify_escapes_the_group_name_as_json_dumps_does(capsys):
    rc, out, err = run(capsys, "verify", "--group", ODD_NAME_SPEC)
    assert rc == 0 and err == ""
    name, G = sigmagraph.cli._load_group(ODD_NAME_SPEC, DEFAULT_LIMITS)
    assert name == 'q"b\\s é😀\x01\ud800'
    want = [report_json_by_dumps(r) for r in run_corpus_sweep([(name, G)], standard_partitions())]
    assert out.isascii()
    assert out == "".join(w + "\n" for w in want) + "summary: pass=28 vacuous=10 FAIL=0\n"


def test_verify_standard_sigma_default(capsys):
    rc, out, _ = run(capsys, "verify", "--group", "zoo:C6", "--statement", "1.2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # three partitions + summary
    assert lines[-1] == "summary: pass=3 vacuous=0 FAIL=0"


def test_verify_prop_1_11_above_the_count_cap(capsys):
    """wreath_c2_s3 has 4676 subgroups, past max_subgroup_count: its layer
    count over E = C2^6 (4531) passes the cap, so the lattice is refused
    without a search, and prop 1.11 reads its witnesses off the scan of
    pairs of pi-elements."""
    rc, out, _ = run(capsys, "verify", "--group", "zoo:wreath_c2_s3", "--statement", "1.11")
    assert rc == 0
    witnesses = []
    for line in out.strip().splitlines()[:-1]:
        report = json.loads(line)
        for h in report["hypotheses"]:
            if h["name"] == "maximals-pi-closed" and h["evaluated"]:
                witnesses.append((report["sigma"]["classes"], h["witness"]))
    six, twelve = ("subgroup of order 6 is not pi-closed",
                   "subgroup of order 12 is not pi-closed")
    assert witnesses == [([], six), ([], twelve), ([[2, 5], [3]], six), ([[2, 5], [3]], twelve)]


C3_WR_S3 = json.dumps({"degree": 18, "expected_order": 4374, "generators": [
    [[1, 2, 3]],
    [[1, 10, 13], [2, 11, 14], [3, 12, 15], [4, 7, 16], [5, 8, 17], [6, 9, 18]],
    [[1, 7], [2, 8], [3, 9], [4, 10], [5, 11], [6, 12], [13, 16], [14, 17], [15, 18]]]})


def test_verify_prop_1_11_above_the_table_limit(capsys):
    """C3 wr S3 (order 4374) is past max_subgroup_order, so every report
    that reaches the maximal subgroups is decided by the pair scan."""
    rc, out, _ = run(capsys, "verify", "--group", C3_WR_S3, "--statement", "1.11")
    lines = out.strip().splitlines()
    assert rc == 0 and lines[-1].endswith(" FAIL=0")
    witnesses = [h["witness"] for line in lines[:-1]
                 for h in json.loads(line)["hypotheses"]
                 if h["name"] == "maximals-pi-closed" and h["evaluated"]]
    assert witnesses == ["subgroup of order 6 is not pi-closed"] * 2


def test_verify_statement_1_7_uses_fixtures(capsys):
    rc, out, _ = run(capsys, "verify", "--group", "zoo:S3", "--sigma", "atomic",
                     "--statement", "1.7")
    assert rc == 0
    lines = out.strip().splitlines()
    groups = [json.loads(l)["group"] for l in lines[:-1]]
    assert groups == ["S4=S3.D4.A4", "S3xC5=S3.C15.C10", "S3=S3.S3.S3"]


def test_verify_statement_1_7_builds_its_fixtures_under_the_caps(capsys):
    """The 1.7 fixtures are built under the call's caps: under --max-order 20
    the first one, S4, is refused before any report is printed."""
    rc, out, err = run(capsys, "--max-order", "20", "verify", "--group", "zoo:S3",
                       "--statement", "1.7")
    assert rc == 2 and out == ""
    assert err == ("error: group of order above 20 is too large to enumerate "
                   "[cap max_element_order=20]\n")


def test_verify_builds_its_fixtures_after_the_group_reports(capsys):
    """The 1.7 fixtures are built when the stream reaches them, after the
    given group's reports: under --max-order 20 every S3 report but the 1.7
    ones is printed before S4, the first fixture, is refused."""
    rc, out, err = run(capsys, "--max-order", "20", "verify", "--group", "zoo:S3")
    assert rc == 2
    assert err == ("error: group of order above 20 is too large to enumerate "
                   "[cap max_element_order=20]\n")
    rc, whole, _ = run(capsys, "verify", "--group", "zoo:S3")
    assert rc == 0
    reports = whole.splitlines()[:-1]
    assert out.splitlines() == [line for line in reports
                                if json.loads(line)["statement"] != "thm-1.7"]
    assert len(reports) - len(out.splitlines()) == 9


def test_verify_corpus_builds_each_group_under_the_caps(capsys):
    """The CLI's caps bound the corpus: each corpus group is built under them
    as the stream reaches it, so under --max-order 100 the stream stops at S5
    (order 120), the first group above the cap, after the reports of every
    group before it and before the summary line."""
    rc, out, err = run(capsys, "--max-order", "100", "verify", "--corpus")
    assert rc == 2
    assert err == ("error: group of order above 100 is too large to enumerate "
                   "[cap max_element_order=100]\n")
    groups = list(dict.fromkeys(json.loads(line)["group"] for line in out.splitlines()))
    tags = [e.tag for e in zoo()]
    assert groups == tags[:tags.index("S5")]
    assert len(out.splitlines()) == 404


def test_verify_corpus_agrees_across_the_prop_1_11_routes(capsys):
    """Prop 1.11 asks whether the maximal subgroups are pi-closed: from the
    subgroup lattice, or past its caps by the pair scan over pi-elements.
    A lower --max-subgroup-order sends more corpus groups to the scan, and
    the corpus (S5's subgroups included) is set up under the default caps
    either way.  Under 50 the stream keeps the default bytes.  Under 20 it
    keeps every line in order, every verdict and every check's outcome:
    only 27 prop-1.11 witnesses change, each naming a subgroup of the same
    order as the maximal subgroup the lattice names."""
    rc, default, _ = run(capsys, "verify", "--corpus")
    assert rc == 0
    assert run(capsys, "--max-subgroup-order", "50", "verify", "--corpus")[:2] == (0, default)
    rc, capped, _ = run(capsys, "--max-subgroup-order", "20", "verify", "--corpus")
    assert rc == 0
    lines, capped_lines = default.splitlines(), capped.splitlines()
    assert len(lines) == len(capped_lines) == 4588
    assert capped_lines[-1] == lines[-1] == "summary: pass=2990 vacuous=1597 FAIL=0"
    changed = 0
    for line, capped_line in zip(lines[:-1], capped_lines[:-1]):
        if line == capped_line:
            continue
        changed += 1
        report = json.loads(line)
        assert report["statement"] == "prop-1.11"
        check = next(c for c in report["hypotheses"] if c["name"] == "maximals-pi-closed")
        assert check["witness"].startswith("maximal subgroup of order ")
        check["witness"] = check["witness"].removeprefix("maximal ")
        assert json.loads(capped_line) == report
    assert changed == 27


def test_verify_determinism(capsys):
    args = ("verify", "--group", "zoo:S4", "--statement", "all")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_zoo_listing(capsys):
    rc, out, _ = run(capsys, "zoo")
    assert rc == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0]) == {"order": 2, "tag": "C2"}
    assert len(lines) == 27


DEEP = "[" * 100_000 + "]" * 100_000
HUGE = "1" * 5000  # past Python's 4300-digit limit on converting a digit string


def test_error_paths(capsys, tmp_path):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"degree": 3, "name": "\xe9", "generators": []}')
    cases = [
        ("graph", "--group", "zoo:nope", "--kind", "vm"),
        ("graph", "--group", '{"degree": 1, "generators": []}', "--kind", "vm"),
        ("graph", "--group", '{"degree": 4, "generators": [[1, 2]], '
                             '"expected_order": 24}', "--kind", "hawkes"),
        ("graph", "--group", "{broken", "--kind", "vm"),
        ("graph", "--group", "/no/such/file.json", "--kind", "vm"),
        ("verify", "--corpus", "--statement", "9.9"),
        ("check", "--group", "zoo:S4", "--predicate", "pi-closed", "--pi", "x"),
        ("check", "--group", "zoo:S4", "--predicate", "soluble", "--pi", "2"),
        ("check", "--group", "zoo:S4", "--predicate", "schmidt", "--pi", "3"),
        ("graph", "--group", str(not_utf8), "--kind", "vm"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    # each --pi token must be ASCII digits, as a partition spec's JSON reads them
    for pi in ("2_0", "\u0663", "-3", "3,,5", "+5", "3.0"):
        rc, out, err = run(capsys, "check", "--group", "zoo:S4", "--predicate", "pi-closed",
                           "--pi", pi)
        assert rc == 2 and out == "", pi
        assert err.startswith("error: bad --pi value") and err.count("\n") == 1, pi


@pytest.mark.parametrize("generators", ["[[[1.5, 2]]]", "[[[true, 2]]]", "[[1, false]]",
                                        '[[["1", 2]]]', "[[[1.0, 2]]]"])
def test_non_integer_cycle_points_exit_2(capsys, generators):
    """A cycle point that is not a JSON integer is refused, not coerced."""
    rc, out, err = run(capsys, "graph", "--group",
                       f'{{"degree": 3, "generators": {generators}}}', "--kind", "hawkes")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "not an integer" in err


@pytest.mark.parametrize("spec", ['{"classes": [[2.9]]}', '{"classes": [["3"]]}',
                                  '{"classes": [[true]]}', '{"classes": [3]}',
                                  '{"classes": {"2": 3}}', '{"atomic": "false"}',
                                  '{"atomic": 1}', '{"clases": [[2, 3]]}',
                                  '{"classes": [[2, 3]], "atomic": false, "note": 1}',
                                  pytest.param('{"classes": ' + DEEP + "}", id="deep"),
                                  pytest.param('{"classes": [[' + HUGE + "]]}", id="huge")])
def test_coerced_partition_specs_exit_2(capsys, spec):
    """Nothing is coerced, and a key other than classes and atomic (a
    misspelling) is refused rather than ignored.  So is nesting too deep for
    the JSON decoder and an integer too long to convert."""
    rc, out, err = run(capsys, "graph", "--group", "zoo:S3", "--kind", "hawkes",
                       "--sigma", spec)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ['{"degree": true, "generators": []}',
                                  '{"degree": 3, "generators": [[1, 2], [1, 2, 3]], '
                                  '"expected_order": 6.0}',
                                  '{"degree": 1, "generators": [], "expected_order": true}',
                                  '{"degree": 3, "generators": [[1, 2], [1, 2, 3]], '
                                  '"name": ["x"]}',
                                  '{"degree": 5, "generators": [[1, 2, 3, 4, 5]], '
                                  '"expected_ordr": 5}',
                                  '{"degree": 3, "gens": [[1, 2]], "generators": [[1, 2]]}',
                                  pytest.param('{"degree": 3, "generators": ' + DEEP + "}",
                                               id="deep"),
                                  pytest.param('{"degree": 3, "generators": [], '
                                               '"expected_order": ' + HUGE + "}", id="huge")])
def test_coerced_group_specs_exit_2(capsys, spec):
    """degree and expected_order must be JSON integers and name a string;
    none of them is coerced, and any other key (a misspelling) is refused
    rather than ignored.  So is nesting too deep for the JSON decoder and an
    integer too long to convert."""
    rc, out, err = run(capsys, "check", "--group", spec, "--predicate", "soluble")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_dot_graph_id_escapes_the_group_name(capsys):
    """The group name is the user's; in the DOT graph id its quotes and
    backslashes are escaped, so it cannot close the id early."""
    spec = '{"degree": 3, "generators": [[1, 2], [1, 2, 3]], "name": "a\\" -> \\"b\\\\"}'
    rc, out, _ = run(capsys, "graph", "--group", spec, "--kind", "hawkes", "--format", "dot")
    assert rc == 0
    assert out.startswith('digraph "hawkes_a\\" -> \\"b\\\\" {\n')


def test_argparse_errors_exit_2(capsys):
    rc, _, err = run(capsys, "graph", "--group", "zoo:S3", "--kind", "bogus")
    assert rc == 2 and err.startswith("error:")
    rc, _, _ = run(capsys)
    assert rc == 2


def test_trivial_group_rejected(capsys):
    rc, _, err = run(capsys, "graph", "--group",
                     '{"degree": 3, "generators": []}', "--kind", "hawkes")
    assert rc == 2
    assert err.startswith("error:") and "order > 1" in err


def test_resource_cap_exits_2(capsys):
    # inline spec: a fresh instance, so no warm cache can satisfy the build
    s5 = '{"degree": 5, "generators": [[1, 2], [1, 2, 3, 4, 5]]}'
    rc, _, err = run(capsys, "--max-order", "100", "graph", "--group", s5,
                     "--kind", "hawkes")
    assert rc == 2
    assert err.startswith("error:") and "max" in err


def test_zoo_group_is_capped_by_its_call_only(capsys, cayley_walks):
    """A zoo:TAG group is rebuilt under the call's caps: --max-order 100
    refuses S6 from the zoo's order, before any walk, and the next,
    uncapped call in the same process prints the benchmark's golden bytes
    for it."""
    argv = ("graph", "--group", "zoo:S6", "--kind", "hawkes")
    rc, out, err = run(capsys, "--max-order", "100", *argv)
    assert rc == 2 and out == "" and "[cap max_element_order=100]" in err
    assert cayley_walks == []
    rc, out, err = run(capsys, *argv)
    golden = json.loads((EXPORT.parents[1] / "perfbench" / "golden.json").read_text())
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == golden["graphs"]["S6"]["atomic"]["hawkes"]


@pytest.mark.parametrize("tag, walks", (("S4", 1), ("wreath_c2_s3", 2)))
def test_zoo_group_is_built_once_per_call(capsys, cayley_walks, tag, walks):
    """Under the default caps a zoo:TAG call decides the zoo's order-checked
    group itself, so each group its builder makes is walked once (the
    wreath's builder walks S3 first).  Under other caps the group is
    rebuilt on its generators, one walk more, and prints the same bytes."""
    argv = ("graph", "--group", f"zoo:{tag}", "--kind", "hawkes")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and len(cayley_walks) == walks
    cayley_walks.clear()
    rc, capped, _ = run(capsys, "--max-order", "1000", *argv)
    assert rc == 0 and len(cayley_walks) == walks + 1 and capped == out


def test_oversized_group_spec_exits_2_before_building(capsys, monkeypatch):
    """A degree or generator count past its cap is refused with the cap's
    name before any permutation or group of that size is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized group spec reached construction")

    monkeypatch.setattr(sigmagraph.cli.Permutation, "from_cycles", staticmethod(refuse))
    monkeypatch.setattr(sigmagraph.cli, "PermGroup", refuse)
    cases = [(json.dumps({"degree": 10**12, "generators": [[1, 2]]}), "max_degree=256"),
             (json.dumps({"degree": 3, "generators": [[1, 2]] * 65}), "max_generators=64")]
    for spec, cap in cases:
        for command in (("graph", "--group", spec, "--kind", "hall"),
                        ("check", "--group", spec, "--predicate", "soluble"),
                        ("verify", "--group", spec, "--statement", "1.2")):
            rc, out, err = run(capsys, *command)
            assert rc == 2 and out == ""
            assert err.startswith("error:") and f"[cap {cap}]" in err and err.count("\n") == 1


def test_spec_degree_cap_is_the_librarys(capsys):
    """The spec check reads the library's degree cap: degree 256 passes it
    (the trivial group is then refused as an input error), and 257 is
    refused as max_degree."""
    assert sigmagraph.cli.MAX_DEGREE is sigmagraph.group.MAX_DEGREE == 256
    for degree, message in ((256, "order > 1"), (257, "[cap max_degree=256]")):
        spec = json.dumps({"degree": degree, "generators": []})
        rc, out, err = run(capsys, "graph", "--group", spec, "--kind", "hawkes")
        assert rc == 2 and out == "" and message in err


def test_group_order_past_the_element_cap_exits_2_while_building(capsys):
    """Generators of S60 (degree under max_degree) would keep Schreier-Sims
    busy for minutes; the construction stops once the orbits found so far
    show an order above max_element_order."""
    spec = json.dumps({"degree": 60, "generators": [list(range(1, 61)), [1, 2]]})
    for command in (("graph", "--group", spec, "--kind", "hall"),
                    ("check", "--group", spec, "--predicate", "soluble"),
                    ("verify", "--group", spec)):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, *command)
        assert time.perf_counter() - t0 < 5
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "[cap max_element_order=5000]" in err
    s5 = '{"degree": 5, "generators": [[1, 2], [1, 2, 3, 4, 5]]}'
    rc, out, err = run(capsys, "--max-order", "119", "check", "--group", s5,
                       "--predicate", "critical")
    assert rc == 2 and out == "" and "[cap max_element_order=119]" in err


def test_s12_past_the_element_cap_exits_2_quickly(capsys):
    """Refusing S12 (order 479001600) under the default cap costs about as
    much as enumerating a group at the cap: the walk stops after 5000
    elements."""
    spec = json.dumps({"degree": 12, "generators": [list(range(1, 13)), [1, 2]]})
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "graph", "--group", spec, "--kind", "hall")
    assert time.perf_counter() - t0 < 5
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "[cap max_element_order=5000]" in err


@pytest.mark.parametrize("option, value", [("--max-order", "0"), ("--max-order", "-1"),
                                           ("--max-subgroup-order", "0"),
                                           ("--max-subgroup-order", "-3")])
def test_caps_below_1_exit_2(capsys, option, value):
    """A cap below 1 is refused before any group is read: --max-order 0
    would refuse every group, and a negative --max-subgroup-order would
    silently move prop 1.11 off the lattice."""
    for command in (("graph", "--group", "zoo:S4", "--kind", "hall"),
                    ("verify", "--group", "zoo:S4", "--statement", "1.11", "--sigma", "atomic")):
        rc, out, err = run(capsys, option, value, *command)
        assert rc == 2 and out == ""
        name = option[2:].replace("-", "_").replace("max_order", "max_element_order")
        assert err == f"error: {name} must be at least 1, got {value}\n"


def test_engine_limits_refuse_caps_below_1():
    """A cap below 1 or not an int (a bool, a float, a string) is refused."""
    for name in ("max_element_order", "max_subgroup_order", "max_subgroup_count",
                 "max_join_work"):
        for value in (0, -1):
            with pytest.raises(GroupInputError, match=f"{name} must be at least 1"):
                EngineLimits(**{name: value})
        for value in (5.5, 9.0, True, "9", None):
            with pytest.raises(GroupInputError, match=f"{name} must be an int"):
                EngineLimits(**{name: value})
        assert getattr(EngineLimits(**{name: 1}), name) == 1


def test_help_exits_0(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and "graph" in out and "verify" in out


def test_export_zoo_graphs_matches_graph_command(tmp_path, capsys):
    """The export script writes one vm file per zoo group, and the S6 file
    is the graph command's output; a DOT file is too, byte for byte."""
    spec = importlib.util.spec_from_file_location("export_zoo_graphs", EXPORT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--outdir", str(tmp_path), "--kind", "vm", "--sigma", "atomic",
                        "--format", "json"]) == 0
    assert len(list(tmp_path.iterdir())) == 27
    rc, out, _ = run(capsys, "graph", "--group", "zoo:S6", "--kind", "vm")
    assert rc == 0
    assert (tmp_path / "S6__vm__atomic.json").read_text() == out
    dot = tmp_path / "dot"
    assert script.main(["--outdir", str(dot), "--kind", "hawkes", "--sigma", "atomic",
                        "--format", "dot"]) == 0
    rc, out, _ = run(capsys, "graph", "--group", "zoo:S4", "--kind", "hawkes",
                     "--format", "dot")
    assert rc == 0
    assert (dot / "S4__hawkes__atomic.dot").read_bytes() == out.encode()


def test_loc_counts_physical_and_code_lines(tmp_path, capsys):
    """loc.py counts every line as physical, and as code every line that is
    not blank, not only a comment and not in a module, class or function
    docstring; a string that is no docstring is code.  Files below the
    directory's top level and files other than *.py are left out."""
    spec = importlib.util.spec_from_file_location("loc", LOC)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "a.py").write_text("\n".join((
        '"""Module',
        "",
        'docstring."""',
        "",
        "# a comment",
        "import os  # code with a comment",  # code 1
        "",
        "class A:",  # code 2
        "    '''Class docstring.'''",
        "    x = '''not a",  # code 3
        "    docstring'''",  # code 4
        "",
        "    def f(self):",  # code 5
        '        """Function',
        '        docstring."""',
        "        #",
        "        return 1",  # code 6
    )) + "\n")
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("x = 1\n")
    assert script.counts((tmp_path / "a.py").read_text()) == (17, 6)
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "    17      6  a.py", "     2      1  b.py", "    19      7  total", ""]
    assert script.main([str(tmp_path / "notes.txt")]) == 2


def test_bench_pairs_refuses_checkouts_with_different_benchmarks(tmp_path):
    """bench_pairs.py digests BENCHMARK.json and perfbench/ (without the
    run outputs in perfbench/out/) and stops before any run when the two
    sides' digests differ."""
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    roots = {}
    for side in ("parent", "change"):
        root = roots[side] = tmp_path / side
        (root / "perfbench" / "out").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text("{}")
        (root / "perfbench" / "run.py").write_text("print('same')")
    (roots["change"] / "perfbench" / "out" / "spans.txt").write_text("a run's output")
    assert script.bench_digest(roots["parent"]) == script.bench_digest(roots["change"])
    for changed in ("BENCHMARK.json", "perfbench/run.py"):
        (roots["change"] / changed).write_text("changed")
        assert script.bench_digest(roots["parent"]) != script.bench_digest(roots["change"])
        with pytest.raises(SystemExit, match="different benchmarks"):
            script.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                         "--workload", "sweep_light", "--seeds", "1",
                         "--out", str(tmp_path / "out.json")])
        assert not (tmp_path / "out.json").exists()
        (roots["change"] / changed).write_text((roots["parent"] / changed).read_text())


def test_bench_pairs_records_the_speed_probe(tmp_path, monkeypatch):
    """Beside the scaled metrics, bench_pairs.py records each run's median
    speed_scale and raw_wall_s, read from the stamp line that run.py prints
    before its result line, per workload and per side."""
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    roots = {}
    for side in ("parent", "change"):
        root = roots[side] = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}],
             "per_layer": []}))
    scales = {"parent": [1.0, 3.0, 2.0], "change": [0.5, 0.25, 4.0]}

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            raise OSError("no git here")
        side = Path(kwargs["cwd"]).name
        stamp = {"stamp": {"speed_scale": scales[side], "raw_wall_s": [0.3, 0.1, 0.2]}}
        result = {"correct": True, "metrics": {"wall_s": {"value": 0.2, "unit": "s"}}}
        return script.subprocess.CompletedProcess(
            cmd, 0, stdout=f"{json.dumps(stamp)}\n{json.dumps(result)}\n", stderr="")

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    out = tmp_path / "out.json"
    assert script.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                        "--workload", "sweep_light", "--seeds", "1-2",
                        "--out", str(out)]) == 0
    record = json.loads(out.read_text())["workloads"]["sweep_light"]
    assert record["metrics"]["wall_s"]["parent"] == [0.2, 0.2]
    assert record["speed_probe"] == {
        "parent": {"speed_scale": [2.0, 2.0], "raw_wall_s": [0.2, 0.2]},
        "change": {"speed_scale": [0.5, 0.5], "raw_wall_s": [0.2, 0.2]}}


@pytest.mark.parametrize("argv", [
    ("verify", "--group", "zoo:S4"),
    ("graph", "--kind", "hall", "--sigma", '{"classes": [[2, 3]]}', "--group", "zoo:S6"),
], ids=("verify-S4", "graph-hall-S6"))
def test_output_does_not_depend_on_the_hash_seed(argv):
    """Sets of classes iterate in hash order, which moves with the hash seed;
    the output must not.  One run under PYTHONHASHSEED 0 and one under 1
    print the same bytes."""
    src = str(Path(sigmagraph.cli.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "sigmagraph.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_readme_library_example_runs(capsys):
    """The README's python block imports what it names and prints S4's
    hawkes edges under one class holding all its primes: none."""
    readme = (EXPORT.parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "frozenset()\n"


def test_readme_command_lines_run(capsys):
    """Every line of the README's command-line block exits 0 through main."""
    readme = (EXPORT.parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.strip().splitlines()
    assert len(lines) >= 6
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "sigmagraph", line
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and out and err == "", line


@pytest.mark.parametrize("command", [
    ("check", "--group", "zoo:S3", "--predicate", "pi-closed",
     "--pi", "1000000000000000003"),
    ("graph", "--group", "zoo:S3", "--kind", "hawkes",
     "--sigma", '{"classes": [[1000000000000000003]]}'),
], ids=("check-pi", "graph-sigma"))
def test_huge_prime_exits_2_before_factoring(capsys, command):
    """Trial division of a prime near 10**18 would run for minutes; the
    integer is refused with cap max_prime before it is factored."""
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *command)
    assert time.perf_counter() - t0 < 1
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "max_prime=" in err and err.count("\n") == 1


@pytest.fixture
def fresh_parser(monkeypatch):
    """Count parser builds from a cleared parser cache, and clear the cache
    again afterwards so no counted parser outlives the test."""
    builds = []
    build = sigmagraph.cli._build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(sigmagraph.cli, "_build_parser", counting_build)
    sigmagraph.cli._parser.cache_clear()
    yield builds
    sigmagraph.cli._parser.cache_clear()


S3_HAWKES = ("graph", "--group", "zoo:S3", "--kind", "hawkes")


def test_main_builds_the_parser_once(capsys, fresh_parser):
    outs = [run(capsys, *S3_HAWKES) for _ in range(5)]
    outs.append(run(capsys, "zoo"))
    assert len(fresh_parser) == 1
    assert all(o == outs[0] for o in outs[:5]) and outs[0][0] == 0


def test_failed_parse_leaves_no_state(capsys, fresh_parser):
    """A call that fails argument parsing, then a good call: the good call
    prints what it prints on its own."""
    expected = run(capsys, *S3_HAWKES)
    for bad in (("graph", "--group", "zoo:S3", "--kind", "bogus"),
                ("graph", "--kind", "hall"),
                ("--max-order", "x", "graph", "--group", "zoo:S4", "--kind", "hall"),
                ("check", "--group", "zoo:S4", "--predicate", "schmidt", "--extra")):
        rc, out, err = run(capsys, *bad)
        assert rc == 2 and out == "" and err.startswith("error:")
        assert run(capsys, *S3_HAWKES) == expected
    assert len(fresh_parser) == 1


def test_options_do_not_carry_over(capsys, fresh_parser):
    """--max-order given in one call does not bound the next one, and the
    sigma of one call is not the default of the next."""
    s5 = '{"degree": 5, "generators": [[1, 2], [1, 2, 3, 4, 5]]}'
    rc, _, err = run(capsys, "--max-order", "100", "graph", "--group", s5,
                     "--kind", "hawkes")
    assert rc == 2 and "[cap max_element_order=100]" in err
    rc, out, err = run(capsys, "graph", "--group", s5, "--kind", "hawkes")
    assert rc == 0 and err == ""
    assert [v["tag"] for v in json.loads(out)["vertices"]] == ["atomic:2", "atomic:3", "atomic:5"]
    rc, out, _ = run(capsys, "graph", "--group", s5, "--kind", "hawkes",
                     "--sigma", '{"classes": [[2, 3]]}')
    assert rc == 0 and json.loads(out)["vertices"][0]["tag"] == "explicit:0"
    rc, out, _ = run(capsys, "graph", "--group", s5, "--kind", "hawkes")
    assert json.loads(out)["vertices"][0]["tag"] == "atomic:2"
    assert len(fresh_parser) == 1
