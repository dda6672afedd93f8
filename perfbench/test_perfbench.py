"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from viskeep.systems import GainMatrix  # noqa: E402

TINY_SYNTH = {"mix": (("basic", True, 1), ("basic", False, 1))}
TINY_VALIDATE = {"mix": (("basic", 1), ("chain", 1)), "horizon": 0.5,
                 "oracle_runs": 10, "oracle_horizon": 0.5}


@pytest.fixture
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def package_path(monkeypatch):
    # the set-up's import probe runs in a fresh interpreter
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


def test_every_metric_prints_with_its_unit(tmp_path, spec):
    plain = worker.run_workload("validate_sweep", 1, 0.1, False,
                                tmp_path / "plain", TINY_VALIDATE)
    traced = worker.run_workload("validate_sweep", 1, 0.1, True,
                                 tmp_path / "traced", TINY_VALIDATE)
    for result, trace, wanted in ((plain, False, spec["end_to_end"]),
                                  (traced, True, spec["per_layer"])):
        lines = run.report(result, spec, trace)
        final = json.loads(lines[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] and final["failed"] == 0
        assert list(final["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            assert final["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(line.split()[:1] == [m["name"]]
                       and line.split()[2] == m["unit"] for line in lines)
        assert any(line.startswith("failed_frac") for line in lines)


def test_metric_names_cover_every_module():
    layers = {n.split(".", 1)[0] for n in spans.layer_metrics([], 1.0, 1)}
    assert set(spans.MODULES) <= layers


def test_spans_nest_under_the_right_parent(tmp_path):
    result = worker.run_workload("synth_sweep", 2, 0.1, True, tmp_path,
                                 TINY_SYNTH)
    records = result["spans"]
    names = [s["name"] for s in records]

    def parent_name(s):
        return None if s["parent"] is None else names[s["parent"]]

    allowed = {
        "cli.main": {None},
        "synthesis.min_norm": {"cli.main"},
        "inequalities.reduce": {"cli.main", "synthesis.min_norm"},
        "inequalities.eliminate": {"inequalities.reduce", "scenarios.fme_check"},
        "scenarios.polytope": {"cli.main", "scenarios.fme_check"},
        "boxes.shifted_cone": {"scenarios.polytope", "systems.cone_cert"},
        "systems.cone_cert": {"cli.main"},
    }
    for s in records:
        if s["name"] in allowed:
            assert parent_name(s) in allowed[s["name"]], s
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            p = records[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert p["item"] == s["item"]
    assert {"cli.main", "inequalities.reduce", "inequalities.eliminate",
            "synthesis.min_norm", "scenarios.fme_check"} <= set(names)

    layers = result["layers"]
    accounted = sum(layers[f"{m}.self_s"] for m in spans.MODULES) \
        + layers["trace.unspanned_s"]
    assert accounted == pytest.approx(layers["trace.run_s"], rel=1e-9)
    # cmd_synth and min_norm_gain each reduce once per feasible synth
    assert layers["inequalities.reduce_calls"] >= 2


def test_tracer_uninstall_restores_the_package():
    from viskeep import cli, inequalities
    before = (cli.main, cli.min_norm_gain,
              inequalities.LinearInequalitySystem.reduce)
    tracer = spans.Tracer()
    spans.install(tracer)
    assert cli.main is not before[0]
    spans.uninstall(tracer)
    assert (cli.main, cli.min_norm_gain,
            inequalities.LinearInequalitySystem.reduce) == before


def test_injected_failure_is_counted_not_fatal(tmp_path, monkeypatch):
    certified = workloads.certified_gain

    def scaled(*args):
        K = certified(*args)
        return GainMatrix(-5 * K.k11, -5 * K.k22, -5 * K.k23)

    monkeypatch.setattr(workloads, "certified_gain", scaled)
    size = {**TINY_VALIDATE, "horizon": 3.0}
    result = worker.run_workload("validate_sweep", 3, 0.1, False, tmp_path, size)
    assert result["attempted"] == 2
    assert result["failed"] >= 1
    assert len(result["latency_s"]) == 2
    lines = run.report(result, json.loads((ROOT / "BENCHMARK.json").read_text()),
                       False)
    final = json.loads(lines[-1])
    assert final["correct"] is False
    assert final["failed"] == result["failed"]


def test_expected_results_mismatch_counts_as_failure(tmp_path):
    expected = {"00-basic-F": {"check": 0, "synth": 0, "gain": [1.0, 1.0, 1.0]}}
    result = worker.run_workload(
        "synth_sweep", 4, 0.1, False, tmp_path,
        {"mix": (("basic", True, 1),)}, expected=expected)
    assert result["failed"] == 1
    assert "expected" in result["problems"][0]


def test_tail_is_never_below_the_median():
    assert run.tail([5.0]) == (5.0, 100.0)
    values = [float(i) for i in range(1, 16)]
    assert run.tail(values) == (15.0, 100.0)
    values = [float(i) for i in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)


def test_generated_scenarios_have_the_requested_verdict():
    import random
    from gen import FAMILIES, random_scenario
    rnd = random.Random(5)
    for kind, (_, check) in FAMILIES.items():
        for feasible in (True, False):
            sc = random_scenario(rnd, kind, feasible)
            assert check(sc).feasible == feasible
            if kind == "circle":
                assert sc.b < 2 * sc.gamma
