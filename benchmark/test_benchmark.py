"""Smoke self-test of the benchmark, at tiny sizes: ``python3 -m pytest benchmark``."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

cs = run.import_library()

import spans  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny_run(workload: str, trace: bool) -> dict:
    return run.run_workload(workload, seed=7, seconds=0, trace=trace, tiny=True, probes=1)


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["record"]["missing_layers"] == {}
        assert result["metrics"]["trace.accounted_share"]["value"] == pytest.approx(1.0, abs=0.02)
    else:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_perturbed_sweep_result_counts_as_failure(monkeypatch):
    real = cs.sweep_rho

    def perturbed(*args, **kwargs):
        return [dataclasses.replace(r, a_limit=r.a_limit * (1 + 1e-6)) for r in real(*args, **kwargs)]

    monkeypatch.setattr(cs, "sweep_rho", perturbed)
    result = tiny_run("optimize", trace=False)
    sweeps = sum(t.kind == "sweep" for t in wl.make_tasks("optimize", 7, tiny=True))
    assert sweeps > 0
    assert result["failed"] == sweeps
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_perturbed_cli_output_counts_as_failure():
    task = next(t for t in wl.cli_tasks(7) if t.kind == "iterate")
    out = wl.run_cli_task(task, {"root": run.ROOT, "env": run.child_env()})
    payload = json.loads(out["stdout"])
    payload["b"] *= 1 + 1e-9
    bad = dict(out, stdout=json.dumps(payload))
    assert run.check_cli_outputs(wl, [task], [[out]]) == []
    assert len(run.check_cli_outputs(wl, [task], [[out, bad]])) == 1


def test_known_sweep_label_defect_is_counted():
    task = wl.Task("sweep", {"scheme": "nu4", "lo": 1.1, "hi": 1.6, "step": 0.1})
    rhos = [r.rho for r in cs.sweep_rho(cs.BUILTINS["nu4"], 1.1, 1.6, 0.1)]
    assert wl.label_mismatches(task, rhos) >= 1


def test_tail_rank_leaves_ten_tasks_beyond():
    assert run.tail_rank(41) == 31
    assert run.tail_rank(10) == 10


def test_seed_fixes_inputs_and_strata():
    for workload in wl.WORKLOADS:
        a, b, c = (wl.make_tasks(workload, s) for s in (1, 1, 2))
        assert [t.record() for t in a] == [t.record() for t in b]
        assert [t.kind for t in a] == [t.kind for t in c]
        assert [t.record() for t in a] != [t.record() for t in c]
