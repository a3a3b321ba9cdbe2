"""Tests of the benchmark's own inputs and tracing.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sheafgauge as sg
import workloads
from tracing import Tracer
from worker import render, verdict

BENCH = Path(__file__).resolve().parent


def _cover(text):
    return sg.build_cover(sg.parse_scenario(text))


def _triples(cover):
    ids = cover.region_ids()
    return [(a, b, c) for i, a in enumerate(ids) for j, b in enumerate(ids[i + 1:], i + 1)
            for c in ids[j + 1:]
            if cover.regions[a] & cover.regions[b] & cover.regions[c]]


@pytest.mark.parametrize("demo", workloads.DEMO_ORDER)
def test_rescale_keeps_overlap_graph(demo):
    small = _cover(sg.scenario.DEMOS[demo])
    dense = _cover(workloads.rescale(sg.scenario.DEMOS[demo], 480))
    assert len(dense.points) == 480
    assert dense.overlap_pairs() == small.overlap_pairs()
    assert _triples(dense) == _triples(small)
    for a, b in small.overlap_pairs():
        assert len(dense.overlap_points(a, b)) == 20 * len(small.overlap_points(a, b))


def test_rescaled_mobius_has_no_triple_overlap():
    cover = _cover(workloads.rescale(sg.scenario.DEMOS["mobius"], 480))
    assert len(cover.region_ids()) == 3
    assert _triples(cover) == []


def test_dense_demos_pass_every_key():
    items = workloads.make_inputs("dense-n480", seed=7)
    assert [item["name"] for item in items] == ["mobius-s7", "so2-s7", "shear-frame-s7"]
    for item in items:
        report, table = render(sg, item)
        assert len(report) == 17
        assert all(r.status == "pass" for r in report.results())
        assert verdict(report, table, item["expected"]) is None


def test_seed_renames_demos_only():
    a, b = (workloads.make_inputs("demos-n24", seed) for seed in (1, 2))
    for x, y in zip(a, b):
        assert sg.parse_scenario(x["text"]).name != sg.parse_scenario(y["text"]).name
        strip = [line for line in x["text"].splitlines() if not line.startswith("name")]
        assert strip == [line for line in y["text"].splitlines()
                         if not line.startswith("name")]


def test_long_exprs_expected_tables_hold():
    items = workloads.make_inputs("long-exprs", seed=3)
    assert items == workloads.make_inputs("long-exprs", seed=3)
    planted = [item for item in items if "fail" in item["expected"].values()]
    assert len(planted) == 1
    assert planted[0]["expected"]["cocycle.triple"] == "fail"
    assert planted[0]["expected"]["push.triple"] == "fail"
    for item in items:
        scn = sg.parse_scenario(item["text"])
        cover = sg.build_cover(scn)
        assert len(cover.points) == 96 and _triples(cover)
        report, table = render(sg, item)
        assert verdict(report, table, item["expected"]) is None


@pytest.mark.parametrize("seed", range(20))
def test_trig_poly_is_bounded(seed):
    rng = random.Random(seed)
    for bound in (0.8, 1.0):
        expr = sg.parse_expr(workloads.trig_poly(rng, workloads.LONG_TERMS, bound))
        for k in range(96):
            assert abs(sg.eval_expr(expr, 2 * math.pi * k / 96).value) < bound


def test_tracer_rebinds_every_holder_and_restores():
    holders = (sg, sg.principal, sg.checks, sg.vconn)
    check_connection = sg.principal.check_connection
    eval_expr = sg.expr.eval_expr
    assert all(m.check_connection is check_connection for m in holders)
    tracer = Tracer()
    tracer.install(0)
    try:
        assert all(m.check_connection is not check_connection for m in holders)
        assert sg.scenario.eval_expr is not eval_expr
        assert sg.catalog.eval_expr is not eval_expr
        assert sg.expr.eval_expr is eval_expr          # its own recursion stays untraced
    finally:
        tracer.uninstall()
    assert all(m.check_connection is check_connection for m in holders)
    assert sg.scenario.eval_expr is eval_expr


# Constructions repeat exactly.  Jets scale with the points; four of the
# JetMatrix constructions per report do not, hence 20 * 1252 + 4 at 480.
@pytest.mark.parametrize("n_points,jets,jet_matrices",
                         [(24, 2196, 1256), (480, 43920, 25044)])
def test_traced_mobius_counts(n_points, jets, jet_matrices):
    (item,) = [i for i in workloads.make_inputs("demos-n24", seed=0)
               if i["name"].startswith("mobius")]
    if n_points != 24:
        item = {**item, "text": workloads.rescale(item["text"], n_points)}
    tracer = Tracer()
    tracer.install(0)
    try:
        report, table = render(sg, item)
    finally:
        tracer.uninstall()
    assert verdict(report, table, item["expected"]) is None
    layers = tracer.layer_metrics(1)
    assert layers["jets.Jet.constructed"] == jets
    assert layers["jets.JetMatrix.constructed"] == jet_matrices
    assert layers["principal.check_connection.calls"] == 5
    assert layers["associated.check_lie_type.calls"] == 2
    assert layers["catalog.catalog_elements.calls"] == 2
    assert layers["expr.eval_expr.calls"] > 0
    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["scenario.parse_scenario", "checks.run_checks",
                                     "report.Report.table"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demos-n24", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_run_prints_every_declared_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "demos-n24", "--seed", "5",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
