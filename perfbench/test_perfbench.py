"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs here at a tiny size, so the suite takes seconds, not
the minutes of a real run.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = run.measure(workload, seed=3, seconds=0, workdir=tmp_path, tiny=True)
    assert result["runner"].failures == []
    assert result["runner"].attempted == run.SETUP_REPEATS + result["notes"]["ops_timed"]
    for name in run._declared("end_to_end"):
        assert result["metrics"][name] > 0, name


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run.trace("large_dim", seed=3, workdir=tmp_path, spans_path=tmp_path / "spans.json", tiny=True)
    assert result["runner"].failures == []
    metrics = result["metrics"]
    assert set(run._declared("per_layer")) <= set(metrics)
    # one cycle: five `avcp evolve` ops and one experiment of 8 trials
    assert metrics["cli.main.calls"] == 6
    assert metrics["experiments.run_trials.trials"] == 8
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert len(spans) == result["notes"]["spans"]


def _avcp_namespaces() -> dict:
    """Every name bound in every avcp module and class, by identity."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "avcp" or modname.startswith("avcp."):
            for attr, value in vars(module).items():
                out[(modname, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        out[(modname, attr, cattr)] = id(cvalue)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_reports_are_byte_identical_and_tracer_restores_names(workload, tmp_path):
    importlib.import_module("avcp.cli")
    cases = workloads.build(workload, 7, str(tmp_path), tiny=True)
    untraced = [workloads.run(case) for case in cases]
    before = _avcp_namespaces()
    for memory in (False, True):
        t = tracer.Tracer(memory=memory)
        t.install()
        try:
            assert _avcp_namespaces() != before
            traced = [workloads.run(case) for case in cases]
        finally:
            t.uninstall()
        assert traced == untraced
        assert _avcp_namespaces() == before


def test_tracer_counts_outermost_calls_of_recursive_functions():
    from avcp import expressions

    t = tracer.Tracer()
    t.install()
    try:
        expressions.evaluate(expressions.parse("cos(A + 2*A^2) * A"), {"A": 0.5})
    finally:
        t.uninstall()
    assert t.calls["expressions.evaluate"] == 1


def test_inputs_depend_on_the_seed_alone(tmp_path):
    def files(seed, sub):
        cases = workloads.build("exact", seed, str(tmp_path / sub), tiny=True)
        return [Path(c.args[0]).read_bytes() for c in cases]

    assert files(1, "a") == files(1, "b")
    assert files(1, "a") != files(2, "c")


def test_oracle_rejects_wrong_outputs(tmp_path):
    cases = workloads.build("exact", 4, str(tmp_path), tiny=True)
    assert {c.expect["verdict"] for c in cases} == {"holds", "violated"}
    case = cases[0]
    report = json.loads(workloads.run(case))
    workloads.check(case, json.dumps(report))
    report["rhs"] += 1e-6 * (1 + abs(report["rhs"]))
    with pytest.raises(workloads.OpFailed):
        workloads.check(case, json.dumps(report))
    report["rhs"] = case.expect["rhs"]
    report["holds"] = not report["holds"]
    with pytest.raises(workloads.OpFailed):
        workloads.check(case, json.dumps(report))


def test_tail_is_the_highest_percentile_with_ten_operations_beyond_it():
    assert run._tail([float(i) for i in range(1, 20)]) == (19.0, 100.0)
    assert run._tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
