"""Report bytes of the heaviest groups against the benchmark's golden digests.

``perfbench/golden.json`` holds SHA-256 digests of the ``sigmagraph verify
--corpus --sigma standard`` report blocks and of the ``sigmagraph graph``
outputs.  These tests recompute the whole report stream, and the graph
outputs of the groups where the subgroup searches and the element table do
the most work, so that a change of output bytes fails here before the
benchmark sees it.  The golden file is only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from sigmagraph import cli
from sigmagraph.group import PermGroup
from sigmagraph.verify import run_corpus_sweep
from sigmagraph.zoo import build_by_tag, standard_partitions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def golden():
    return json.loads((PERFBENCH / "golden.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("tag", ("A6", "S6", "wreath_c2_s3"))
def test_cold_graph_calls_match_golden(tag, golden):
    """Each call parses the group afresh from inline JSON, as a new process
    would, and prints what the golden digest records."""
    g = build_by_tag(tag)
    spec = workloads.inline_spec(tag, g.degree, [p.images for p in g.generators])
    for sigma in standard_partitions():
        for kind in workloads.GRAPH_KINDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["graph", "--group", spec,
                                 "--sigma", workloads.sigma_spec(sigma), "--kind", kind])
            assert code == 0
            assert sha256(out.getvalue()) == golden["graphs"][tag][workloads.sigma_key(sigma)][kind]


@pytest.mark.parametrize("tag", workloads.HEAVY_TAGS)
def test_sweep_report_blocks_match_golden(tag, golden):
    """Every (partition, statement) block of the group's verdict stream,
    on a freshly built group."""
    g = build_by_tag(tag)
    fresh = PermGroup(g.degree, g.generators)
    blocks: dict = {}
    for report in run_corpus_sweep([(tag, fresh)], standard_partitions(),
                                   workloads.PER_GROUP_STATEMENTS):
        assert report.verdict != "FAIL"
        key = (workloads.sigma_key(report.sigma), report.statement_id)
        blocks[key] = blocks.get(key, "") + report.to_json() + "\n"
    expected = {(sk, sid): entry for sk, by_sid in golden["reports"][tag].items()
                for sid, entry in by_sid.items()}
    assert {key: [text.count("\n"), sha256(text)] for key, text in blocks.items()} == expected


def test_whole_sweep_stream_matches_golden(golden):
    """Every (group, partition, statement) block of the corpus sweep, and
    the 1.7 fixtures, on freshly built groups through the benchmark's own
    sweep pass, which compares each block's line count and digest."""
    res = workloads.sweep_pass(workloads.corpus_specs(), golden)
    assert res.errors == [] and res.failed == 0
    assert res.reports == golden["check"]["verify_corpus"]["reports"]
