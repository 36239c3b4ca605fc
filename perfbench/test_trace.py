"""Self-test of the benchmark on small versions of its workloads.

    python3 -m pytest -q perfbench

Checks that every op passes the output gate, that the traced counts obey the
solver's exact identities (every state solve belongs to a solve's initial
point or to one line-search trial; every adjoint solve to an initial point or
an accepted iteration), that every count repeats exactly across two traced
runs, and that the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SMALL = {
    "solve-2d-schloegl": {"n_per_axis": 8, "n_t": 12},
    "solve-1d-long": {"n_per_axis": 100, "n_t": 100},
    "sweep-2d-lowkappa": {"n_per_axis": 6, "n_t": 6, "kappa": 0.003},
}
COUNT_UNITS = ("count", "bytes")


def small_run(name: str, trace: bool) -> dict:
    config = make_config(name, 0)
    config["problem"].update(SMALL[name])
    return run.run_workload(name, WORKLOADS[name]["command"], config,
                            seconds=0.5, trace=trace)


def values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_pair(request):
    return small_run(request.param, True), small_run(request.param, True)


def test_every_op_passes_the_gate(traced_pair):
    for result in traced_pair:
        assert result["correct"]
        assert result["failed"] == 0
        assert result["attempted"] >= 5


def test_call_counts_obey_solver_identities(traced_pair):
    m = values(traced_pair[0])
    assert m["optimizer.solve.calls"] >= 1
    assert (m["pde.solve_state.calls"]
            == m["optimizer.solve.calls"] + m["optimizer.trials"])
    assert (m["pde.solve_adjoint.calls"]
            == m["optimizer.solve.calls"] + m["optimizer.iterations"])


def test_counts_repeat_exactly(traced_pair):
    first, second = (values(r) for r in traced_pair)
    for name, unit, _ in PER_LAYER:
        if unit in COUNT_UNITS:
            assert first[name] == second[name], name


def test_untraced_run_reports_end_to_end_metrics():
    result = small_run("solve-2d-schloegl", False)
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(PER_LAYER)
