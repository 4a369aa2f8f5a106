import argparse
import ctypes
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avcp import demos as demo_mod
from avcp import evolution, experiments, kinematics
from avcp import expressions as ex
from avcp import verify as verify_mod
from avcp.cli import _build_parser, entry, main
from avcp.evolution import HamiltonianSchedule, evolve, propagate
from avcp.experiments import ExperimentSpec
from avcp.expressions import BindingSet
from avcp.operators import (
    HermitianOperator,
    make_rng,
    matrix_to_dict,
    random_hermitian,
    random_state,
    state_to_dict,
)

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


@pytest.fixture
def pauli_bindings_file(tmp_path):
    path = tmp_path / "bindings.json"
    path.write_text(json.dumps({"A": matrix_to_dict(SX), "B": matrix_to_dict(SY)}))
    return str(path)


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(__file__), "..", "src")] + sys.path)
    proc = subprocess.run(
        [sys.executable, "-m", "avcp.cli", *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


# --- quantize ------------------------------------------------------------------


def test_quantize_sum_exits_zero(pauli_bindings_file, capsys):
    rc = main(["quantize", "A + B", "--bindings", pauli_bindings_file])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    got = np.array(out["re"]).reshape(2, 2) + 1j * np.array(out["im"]).reshape(2, 2)
    assert np.allclose(got, SX + SY)


def test_quantize_nonsimple_exits_two(pauli_bindings_file, capsys):
    rc = main(["quantize", "A*B", "--bindings", pauli_bindings_file])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert out["error"] == "NonSimpleExpression"
    assert out["offending_pairs"] == [["A", "B"]]


def test_quantize_malformed_expression_exits_one(pauli_bindings_file, capsys):
    rc = main(["quantize", "A +* B", "--bindings", pauli_bindings_file])
    assert rc == 1


@pytest.mark.parametrize("command", ["evolve_state_5000_deep", "quantize_400_parentheses", "quantize_300_cos"])
def test_input_nested_too_deep_is_one_error_line(command, pauli_bindings_file, tmp_path, capsys):
    if command.startswith("evolve"):
        (tmp_path / "state.json").write_text("[" * 5000 + "1" + "]" * 5000)
        sched = HamiltonianSchedule.constant(HermitianOperator(SX), 0.0, 1.0)
        (tmp_path / "sched.json").write_text(json.dumps(sched.to_dict()))
        argv = ["evolve", "--state", str(tmp_path / "state.json"), "--schedule", str(tmp_path / "sched.json")]
    else:
        depth, opening = (400, "(") if command.endswith("parentheses") else (300, "cos(")
        argv = ["quantize", opening * depth + "A" + ")" * depth, "--bindings", pauli_bindings_file]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: RecursionError: maximum recursion depth exceeded[^\n]*\n", err)


@pytest.mark.parametrize("expression", ["A^1e999", "1e999*A"])
def test_quantize_non_finite_literal_exits_one(pauli_bindings_file, capsys, expression):
    rc = main(["quantize", expression, "--bindings", pauli_bindings_file])
    assert rc == 1
    assert "ExpressionSyntaxError" in capsys.readouterr().err


def test_quantize_missing_file_exits_one(capsys):
    rc = main(["quantize", "A", "--bindings", "/nonexistent/b.json"])
    assert rc == 1


def test_quantize_corrupt_binding_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": {"dim": 2, "re": [0, 1, 0, 0], "im": [0, 0, 0, 0]}}))
    rc = main(["quantize", "A", "--bindings", str(bad)])
    assert rc == 1


def test_quantize_text_format(pauli_bindings_file, capsys):
    rc = main(["quantize", "A", "--bindings", pauli_bindings_file, "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "+1.000000" in out


def test_quantize_text_renders_signed_zeros_and_imaginary_parts(pauli_bindings_file, capsys, monkeypatch):
    m = np.array([[complex(-0.0, 0.0), 0.5 - 0.75j], [0.5 + 0.75j, complex(-1e-17, -0.0)]])
    monkeypatch.setattr(ex, "quantize", lambda expr, bindings: HermitianOperator(m))
    rc = main(["quantize", "A", "--bindings", pauli_bindings_file, "--format", "text"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "-0.000000+0.000000j  +0.500000-0.750000j\n+0.500000+0.750000j  -0.000000-0.000000j\n"
    )


# --- experiment -------------------------------------------------------------------


def test_experiment_from_spec_file(tmp_path, capsys):
    state = np.array([1.0, 0.0])
    spec = {
        "state": {"dim": 2, "re": state.tolist(), "im": [0.0, 0.0]},
        "bindings": {"A": matrix_to_dict(SX), "B": matrix_to_dict(SY)},
        "implementation": ["A", "B"],
        "f": "A + B",
        "n_trials": 2000,
        "seed": 11,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc = main(["experiment", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["n_trials"] == 2000
    assert out["seed"] == 11
    assert out["verdict"] == "holds"
    assert abs(out["exact_lhs"] - out["exact_rhs"]) <= out["tolerance"]


def test_experiment_state_dim_mismatch_exits_one_with_dim_mismatch(tmp_path, capsys):
    spec = {
        "state": {"dim": 3, "re": [1.0, 0.0, 0.0]},
        "bindings": {"A": matrix_to_dict(SX), "B": matrix_to_dict(SY)},
        "implementation": ["A"],
        "f": "A",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc = main(["experiment", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: DimMismatch: state dim 3 does not match bindings dim 2\n"


# --- verify ------------------------------------------------------------------------


def test_verify_angular_passes(capsys):
    rc = main(["verify", "angular", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["passed"] is True


def test_verify_angular_passes_for_seeds_0_to_63(capsys):
    for seed in range(64):
        assert main(["verify", "angular", "--seed", str(seed)]) == 0, seed
    capsys.readouterr()


def test_verify_all_seed_17_exits_zero(capsys):
    assert main(["verify", "all", "--seed", "17"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_unknown_suite(capsys):
    rc = main(["verify", "nonsense"])
    assert rc == 1


def test_verify_all_reports_are_byte_identical():
    rc1, out1, _ = _run_cli("verify", "all", "--seed", "7")
    rc2, out2, _ = _run_cli("verify", "all", "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_python_dash_m_avcp_runs_the_avcp_entry_point(monkeypatch, capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(__file__), "..", "src")] + sys.path)
    proc = subprocess.run(
        [sys.executable, "-m", "avcp", "verify", "operators", "--seed", "3"], capture_output=True, text=True, env=env
    )
    monkeypatch.setattr(sys, "argv", ["avcp", "verify", "operators", "--seed", "3"])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert proc.returncode == exit_info.value.code == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


def test_verify_corrupted_binding_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": {"dim": 2, "re": [0, 1, 0, 0], "im": [0, 0, 0, 0]}}))
    rc = main(["verify", "operators", "--bindings", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 3
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and failing[0]["error"] == "NotHermitian"


def test_verify_reads_the_bindings_before_any_suite(tmp_path, monkeypatch, capsys):
    called = []
    for name in verify_mod._SUITES:
        monkeypatch.setitem(verify_mod._SUITES, name, lambda *args, name=name: called.append(name) or [])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bindings": [1]}))
    assert main(["verify", "avcp", "--bindings", str(bad)]) == 1
    assert called == []
    assert capsys.readouterr().err.startswith("error: TypeError: ")


def test_verify_valid_bindings_adds_one_passing_check(pauli_bindings_file, capsys):
    assert main(["verify", "operators", "--bindings", pauli_bindings_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][-1] == {
        "name": "bindings_validation",
        "value": 0.0,
        "threshold": 0.0,
        "op": "<=",
        "passed": True,
        "suite": "bindings",
    }
    assert main(["verify", "operators", "--bindings", pauli_bindings_file, "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"ok    bindings_validation +0\.000e\+00 <= 0\.000e\+00", lines[-3])
    assert lines[-1] == "PASSED"


# --- demos ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["a-squared", "a-plus-b", "hermitization", "poisson-counterexample"])
def test_demos_run(name, capsys):
    rc = main(["demo", name, "--trials", "500", "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip()


def test_demo_json_mode(capsys):
    rc = main(["demo", "a-plus-b", "--trials", "500"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["sum_operator_eigenvalues"] == pytest.approx(
        [-1 / math.sqrt(2), 1 / math.sqrt(2)]
    )
    assert set(out["per_trial_sum_values"]) <= {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_demo_script_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(DEMO_DIR.parent / "src")] + sys.path)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_unknown_demo_exits_one(capsys):
    rc = main(["demo", "does-not-exist"])
    assert rc == 1


def test_alpha_env_override():
    env_alpha = "2.0"
    rc, out, _ = _run_cli_with_env({"AVCP_ALPHA": env_alpha}, "demo", "a-plus-b", "--trials", "200")
    payload = json.loads(out)
    assert rc == 0
    want = 2.0 / math.sqrt(2)
    assert payload["sum_operator_eigenvalues"] == pytest.approx([-want, want])


def _run_cli_with_env(extra_env, *args):
    env = dict(os.environ)
    env.update(extra_env)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(__file__), "..", "src")] + sys.path)
    proc = subprocess.run(
        [sys.executable, "-m", "avcp.cli", *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def _experiment_stdout_by_blas_threads(spec: ExperimentSpec, path) -> list[str]:
    path.write_text(json.dumps({**spec.to_dict(), "n_trials": 20000, "seed": 5}))
    outs = []
    for threads in ("1", "2", "4"):
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        rc, out, err = _run_cli_with_env(env, "experiment", str(path))
        assert rc == 0, err
        outs.append(out)
    return outs


def test_experiment_bytes_do_not_depend_on_blas_threads(tmp_path):
    # d = 64 is large enough for multithreaded BLAS kernels to engage
    rng = make_rng(64)
    a = random_hermitian(64, rng)
    bind = BindingSet({"A": a, "A2": HermitianOperator(a.matrix), "B": random_hermitian(64, rng)})
    spec = ExperimentSpec(random_state(64, rng), bind, ["A", "A2", "B"], "A*A2 + B")
    assert spec.plan.groups == (("A", "A2"), ("B",))
    outs = _experiment_stdout_by_blas_threads(spec, tmp_path / "spec.json")
    assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.xfail(
    not hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), "scipy_openblas_set_num_threads64_"),
    reason="from d = 97 up, numpy.linalg.eigh returns eigenvectors that differ in the last bits "
    "with the BLAS thread count, and exact_rhs inherits that difference, unless numpy's bundled "
    "OpenBLAS lets eigh_stack pin it to one thread",
    strict=False,
)
def test_experiment_bytes_at_the_enumeration_budget_do_not_depend_on_blas_threads(tmp_path):
    # three copies at d = 100 enumerate exactly ENUMERATION_BUDGET tuples, so
    # the exact E[f] contracts a 100 x 100 x 100 outcome table
    rng = make_rng(100)
    bind = BindingSet({name: random_hermitian(100, rng) for name in ("A", "B", "C", "T")})
    spec = ExperimentSpec(random_state(100, rng), bind, ["A", "B", "C"], "A*B*C + cos(A - C)", target="T")
    assert spec.plan.groups == (("A",), ("B",), ("C",))
    outs = _experiment_stdout_by_blas_threads(spec, tmp_path / "spec.json")
    assert outs[1] == outs[0] and outs[2] == outs[0]


# --- evolve -----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, schedule",
    [
        (["--alpha", "0"], None),
        (["--alpha", "nan"], None),
        (["--alpha", "inf"], None),
        (["--alpha", "-2"], None),
        ([], {"alpha": 0.0}),
        ([], {"pieces": [{"t0": 0.0, "t1": math.inf}]}),
        ([], {"pieces": [{"t0": math.nan, "t1": 1.0}]}),
    ],
)
def test_evolve_rejects_a_bad_alpha_or_endpoint_with_exit_one(tmp_path, flags, schedule):
    piece = {"t0": 0.0, "t1": 1.0, "operator": matrix_to_dict(SX)}
    schedule = schedule or {}
    pieces = [{**piece, **p} for p in schedule.get("pieces", [{}])]
    (tmp_path / "state.json").write_text(json.dumps({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    (tmp_path / "sched.json").write_text(json.dumps({**schedule, "pieces": pieces}))
    rc, out, err = _run_cli_with_env(
        {}, "evolve", "--state", str(tmp_path / "state.json"), "--schedule", str(tmp_path / "sched.json"), *flags
    )
    assert rc == 1
    assert out == ""
    if flags or "alpha" in schedule:  # the same ValueError line as every other command's bad alpha
        alpha = float(flags[1]) if flags else schedule["alpha"]
        assert err == f"error: ValueError: alpha must be finite and positive, got {alpha}\n"
    else:
        assert err.startswith("error: ScheduleGap: ") and "Traceback" not in err, err



def test_evolve_round_trip(tmp_path, capsys):
    h = np.diag([1.0, 2.0]).astype(complex)
    state_path = tmp_path / "state.json"
    sched_path = tmp_path / "sched.json"
    state_path.write_text(json.dumps({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    sched_path.write_text(
        json.dumps({"alpha": 1.0, "pieces": [{"t0": 0.0, "t1": 1.0, "operator": matrix_to_dict(h)}]})
    )
    rc = main(["evolve", "--state", str(state_path), "--schedule", str(sched_path), "--steps", "16"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    got = complex(out["re"][0], out["im"][0])
    assert got == pytest.approx(np.exp(-1j * 1.0), abs=1e-12)


def _evolve_stdout(tmp_path, capsys, schedule, *flags) -> str:
    state_path = tmp_path / "state.json"
    sched_path = tmp_path / "sched.json"
    state_path.write_text(json.dumps({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    sched_path.write_text(json.dumps(schedule))
    assert main(["evolve", "--state", str(state_path), "--schedule", str(sched_path), "--steps", "4", *flags]) == 0
    return capsys.readouterr().out


def test_evolve_takes_alpha_from_the_command_line_when_the_schedule_has_none(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AVCP_ALPHA", raising=False)
    pieces = [{"t0": 0.0, "t1": 1.0, "operator": matrix_to_dict(SX)}]
    flag2 = _evolve_stdout(tmp_path, capsys, {"pieces": pieces}, "--alpha", "2")
    assert flag2 == _evolve_stdout(tmp_path, capsys, {"alpha": 2.0, "pieces": pieces})
    assert flag2 == _evolve_stdout(tmp_path, capsys, pieces, "--alpha", "2")
    assert flag2 != _evolve_stdout(tmp_path, capsys, {"pieces": pieces}, "--alpha", "1")
    monkeypatch.setenv("AVCP_ALPHA", "3")
    env3 = _evolve_stdout(tmp_path, capsys, {"pieces": pieces})
    assert env3 == _evolve_stdout(tmp_path, capsys, {"alpha": 3.0, "pieces": pieces})
    assert env3 != flag2
    # the schedule's own alpha wins over both the flag and the environment
    assert _evolve_stdout(tmp_path, capsys, {"alpha": 2.0, "pieces": pieces}, "--alpha", "5") == flag2


def test_experiment_takes_alpha_from_the_command_line_when_the_schedule_has_none(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AVCP_ALPHA", raising=False)
    sz = np.diag([1.0, -1.0]).astype(complex)

    def stdout(schedule, *flags):
        spec = {
            "state": {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]},
            "bindings": {"A": matrix_to_dict(SX), "B": matrix_to_dict(sz)},
            "implementation": ["A", "B"],
            "f": "A + B",
            "evolution": {"schedule": schedule, "t1": 1.0, "t2": 2.0, "steps": 16},
            "n_trials": 500,
            "seed": 3,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["experiment", str(path), *flags]) == 0
        return capsys.readouterr().out

    pieces = [{"t0": 0.0, "t1": 2.0, "operator": matrix_to_dict(SY)}]
    flag2 = stdout({"pieces": pieces}, "--alpha", "2")
    assert flag2 == stdout({"alpha": 2.0, "pieces": pieces})
    assert flag2 != stdout({"pieces": pieces}, "--alpha", "1")
    assert stdout({"alpha": 2.0, "pieces": pieces}, "--alpha", "1") == flag2


def test_experiment_with_zero_steps_exits_one_with_the_steps_error(tmp_path, capsys):
    spec = {
        "state": {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]},
        "bindings": {"A": matrix_to_dict(SX)},
        "implementation": ["A"],
        "f": "A",
        "evolution": {"schedule": [{"t0": 0.0, "t1": 2.0, "operator": matrix_to_dict(SY)}],
                      "t1": 1.0, "t2": 2.0, "steps": 0},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc = main(["experiment", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: ValueError: steps must be at least 1, got 0\n"


def _experiment_run(tmp_path, capsys, *flags, **fields):
    spec = {
        "state": {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]},
        "bindings": {"A": matrix_to_dict(SX)},
        "implementation": ["A"],
        "f": "A",
        **fields,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc = main(["experiment", str(path), *flags])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_trials": 2.7}, "n_trials must be a whole number, got 2.7"),
        ({"seed": True}, "seed must be a whole number, got True"),
        ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
        ({"n_trials": 10**400}, "n_trials is too large for a float, got an integer of 1329 bits"),
    ],
    ids=["fractional_trials", "bool_seed", "fractional_seed", "oversized_trials"],
)
def test_experiment_trials_and_seed_must_be_whole_numbers(tmp_path, capsys, fields, message):
    assert _experiment_run(tmp_path, capsys, **fields) == (1, "", f"error: ValueError: {message}\n")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"evolution": {"schedule": [{"t0": 0.0, "t1": 2.0, "operator": matrix_to_dict(SY)}], "t1": 1.0, "t2": 2.0,
                        "steps": "128"}}, "steps must be a whole number, got '128'"),
        ({"n_trials": "100"}, "n_trials must be a whole number, got '100'"),
        ({"seed": "7"}, "seed must be a whole number, got '7'"),
    ],
    ids=["steps", "n_trials", "seed"],
)
def test_experiment_counts_written_as_strings_exit_one(tmp_path, capsys, fields, message):
    assert _experiment_run(tmp_path, capsys, **fields) == (1, "", f"error: ValueError: {message}\n")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"implementation": "A"}, "implementation must be a list of strings, got 'A'"),
        ({"implementation": ["A", 1]}, "implementation must be a list of strings, got ['A', 1]"),
        ({"groups": ["A"]}, "groups must be a list of lists of strings, got ['A']"),
        ({"groups": "A"}, "groups must be a list of lists of strings, got 'A'"),
        ({"f": 3}, "f must be a string, got 3"),
        ({"target": ["A"]}, "target must be a string, got ['A']"),
    ],
    ids=["string_implementation", "number_in_implementation", "flat_groups", "string_groups", "number_f",
         "list_target"],
)
def test_experiment_spec_fields_of_another_json_type_exit_one(tmp_path, capsys, fields, message):
    assert _experiment_run(tmp_path, capsys, **fields) == (1, "", f"error: TypeError: {message}\n")


def test_experiment_reads_a_null_target_and_groups_as_absent(tmp_path, capsys):
    got = _experiment_run(tmp_path, capsys, "--trials", "10", target=None, groups=None)
    assert got[0] == 0 and got == _experiment_run(tmp_path, capsys, "--trials", "10")


def _local_fields(state_dims=(2, 2), binding_dims=(2, 2), subsystem=1, dim=2):
    """A d = 4 spec whose one binding acts on the second of two qubits; each count as given."""
    state = {"dim": 4, "re": [0.6, 0.0, 0.0, 0.8], "im": [0.0] * 4, "factor_dims": state_dims}
    op = {**matrix_to_dict(SX), "dim": dim}
    bindings = {"bindings": {"A": {"operator": op, "subsystem": subsystem}}, "factor_dims": binding_dims}
    return {"state": state, "bindings": bindings}


@pytest.mark.parametrize(
    "fields, error",
    [
        (_local_fields(state_dims="22"), "ValueError: factor_dims must be a whole number, got '2'"),
        (_local_fields(state_dims=[2.9, 2]), "ValueError: factor_dims must be a whole number, got 2.9"),
        (_local_fields(state_dims=["2", "2"]), "ValueError: factor_dims must be a whole number, got '2'"),
        (_local_fields(binding_dims="22"), "ValueError: factor_dims must be a whole number, got '2'"),
        (_local_fields(binding_dims=[2.9, 2]), "ValueError: factor_dims must be a whole number, got 2.9"),
        (_local_fields(binding_dims=["2", "2"]), "ValueError: factor_dims must be a whole number, got '2'"),
        (_local_fields(state_dims=2), "TypeError: factor_dims must be a list of whole numbers, got 2"),
        (_local_fields(binding_dims=2), "TypeError: factor_dims must be a list of whole numbers, got 2"),
        (_local_fields(subsystem=1.7), "ValueError: subsystem must be a whole number, got 1.7"),
        (_local_fields(subsystem="1"), "ValueError: subsystem must be a whole number, got '1'"),
        (_local_fields(subsystem=True), "ValueError: subsystem must be a whole number, got True"),
        (_local_fields(dim="2"), "ValueError: dim must be a whole number, got '2'"),
    ],
    ids=["string_state_dims", "fractional_state_dims", "string_state_dim_entries", "string_binding_dims",
         "fractional_binding_dims", "string_binding_dim_entries", "number_state_dims", "number_binding_dims",
         "fractional_subsystem", "string_subsystem", "bool_subsystem", "string_dim"],
)
def test_experiment_counts_of_states_and_bindings_go_through_the_whole_number_rule(tmp_path, capsys, fields, error):
    assert _experiment_run(tmp_path, capsys, **fields) == (1, "", f"error: {error}\n")


def test_experiment_with_a_null_state_im_is_a_type_error_line_naming_it(tmp_path, capsys):
    state = {"dim": 2, "re": [1.0, 0.0], "im": None}
    got = _experiment_run(tmp_path, capsys, state=state)
    assert got == (1, "", "error: TypeError: im must be a flat list of real numbers, got None\n")


def test_experiment_reads_whole_float_dims_and_subsystems_as_integers(tmp_path, capsys):
    fields = _local_fields(state_dims=[2.0, 2], binding_dims=[2, 2.0], subsystem=1.0, dim=2.0)
    got = _experiment_run(tmp_path, capsys, "--trials", "10", **fields)
    assert got[0] == 0 and got == _experiment_run(tmp_path, capsys, "--trials", "10", **_local_fields())


@pytest.mark.parametrize(
    "schedule_alpha, times, message",
    [
        ("0.5", {}, "alpha must be a real number, got '0.5'"),
        (None, {"t1": True}, "t1 must be a real number, got True"),
        (None, {"t2": " 1 "}, "t2 must be a real number, got ' 1 '"),
    ],
    ids=["string_alpha", "bool_t1", "string_t2"],
)
def test_window_times_and_alpha_that_are_not_json_numbers_exit_one(tmp_path, capsys, schedule_alpha, times, message):
    pieces = [{"t0": 0.0, "t1": 2.0, "operator": matrix_to_dict(SY)}]
    schedule = pieces if schedule_alpha is None else {"alpha": schedule_alpha, "pieces": pieces}
    window = {"schedule": schedule, "t1": 1.0, "t2": 2.0, **times}
    assert _experiment_run(tmp_path, capsys, evolution=window) == (1, "", f"error: ValueError: {message}\n")


def test_evolve_with_an_oversized_step_count_exits_one_naming_steps(tmp_path, capsys):
    (tmp_path / "state.json").write_text(json.dumps({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    (tmp_path / "sched.json").write_text(json.dumps([{"t0": 0.0, "t1": 1.0, "operator": matrix_to_dict(SX)}]))
    rc = main(["evolve", "--state", str(tmp_path / "state.json"), "--schedule", str(tmp_path / "sched.json"),
               "--steps", "1" + "0" * 400])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "error: ValueError: --steps is too large for a float, got an integer of 1329 bits\n"


def test_experiment_reads_whole_float_trials_and_seed_as_integers(tmp_path, capsys):
    rc, out, err = _experiment_run(tmp_path, capsys, n_trials=100.0, seed=4.0)
    assert rc == 0 and err == ""
    assert '"n_trials": 100,' in out and '"seed": 4,' in out
    assert out == _experiment_run(tmp_path, capsys, n_trials=100, seed=4)[1]


@pytest.mark.parametrize(
    "flags, fields, trials_and_seed",
    [
        (("--trials", "50", "--seed", "3"), {"n_trials": 100, "seed": 4}, (50, 3)),
        (("--trials", "50"), {"n_trials": 100, "seed": 4}, (50, 4)),
        (("--seed", "3"), {"n_trials": 100, "seed": 4}, (100, 3)),
        ((), {"n_trials": 100, "seed": 4}, (100, 4)),
        (("--trials", "50"), {}, (50, 0)),
        ((), {}, (10000, 0)),
    ],
    ids=["both_options", "trials_option", "seed_option", "spec", "option_over_default", "defaults"],
)
def test_experiment_trials_and_seed_options_win_over_the_spec(tmp_path, capsys, flags, fields, trials_and_seed):
    rc, out, err = _experiment_run(tmp_path, capsys, *flags, **fields)
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert (report["n_trials"], report["seed"]) == trials_and_seed


@pytest.mark.parametrize(
    "flags, fields, message",
    [
        (("--trials", "50", "--seed", "3"), {"n_trials": 2.7, "seed": True},
         "n_trials must be a whole number, got 2.7"),
        (("--trials", "50", "--seed", "3"), {"n_trials": "x", "seed": {}}, "n_trials must be a whole number, got 'x'"),
        (("--seed", "3"), {"seed": True}, "seed must be a whole number, got True"),
    ],
    ids=["fractional_trials_bool_seed", "string_trials_object_seed", "bool_seed"],
)
def test_experiment_options_do_not_hide_bad_spec_values(tmp_path, capsys, flags, fields, message):
    assert _experiment_run(tmp_path, capsys, *flags, **fields) == (1, "", f"error: ValueError: {message}\n")


@pytest.mark.parametrize("flags", [(), ("--trials", "5", "--seed", "3")], ids=["spec", "options"])
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_trials": 0}, "n_trials must be at least 1, got 0"),
        ({"n_trials": -1}, "n_trials must be at least 1, got -1"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"n_trials": 0, "seed": -1}, "n_trials must be at least 1, got 0"),
    ],
    ids=["zero_trials", "negative_trials", "negative_seed", "both"],
)
def test_out_of_range_spec_counts_exit_one_before_any_trial(tmp_path, capsys, monkeypatch, flags, fields, message):
    monkeypatch.setattr(experiments, "run_trials", lambda *a: pytest.fail("run_trials reached"))
    assert _experiment_run(tmp_path, capsys, *flags, **fields) == (1, "", f"error: ValueError: {message}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--trials", "0"), "--trials must be at least 1, got 0"),
        (("--trials", "-3"), "--trials must be at least 1, got -3"),
        (("--seed", "-1"), "--seed must be at least 0, got -1"),
        (("--trials", "0", "--seed", "-1"), "--trials must be at least 1, got 0"),
    ],
    ids=["zero_trials", "negative_trials", "negative_seed", "both"],
)
def test_out_of_range_trials_and_seed_options_exit_one_naming_the_flag(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(experiments, "run_trials", lambda *a: pytest.fail("run_trials reached"))
    assert _experiment_run(tmp_path, capsys, *flags) == (1, "", f"error: ValueError: {message}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (("demo", "a-plus-b", "--trials", "0"), "--trials must be at least 1, got 0"),
        (("demo", "a-plus-b", "--seed", "-1"), "--seed must be at least 0, got -1"),
        (("demo", "hermitization", "--trials", "0"), "--trials must be at least 1, got 0"),
        (("verify", "operators", "--seed", "-1"), "--seed must be at least 0, got -1"),
        (("kinematics", "verify", "--seed", "-1"), "--seed must be at least 0, got -1"),
        (("angular", "verify", "--seed", "-1"), "--seed must be at least 0, got -1"),
        (("evolve", "--state", "state.json", "--schedule", "schedule.json", "--steps", "0"),
         "--steps must be at least 1, got 0"),
        (("experiment", "spec.json", "--trials", "0"), "--trials must be at least 1, got 0"),
        # build_fock needs 2 levels; below that the kinematics suite once ran on 2 and echoed the value given
        (("verify", "kinematics", "--levels", "-3"), "--levels must be at least 2, got -3"),
        (("verify", "all", "--levels", "1"), "--levels must be at least 2, got 1"),
        (("kinematics", "verify", "--levels", "0"), "--levels must be at least 2, got 0"),
        (("poisson", "check", "--levels", "1"), "--levels must be at least 2, got 1"),
        (("poisson", "counterexample", "--levels", "-3"), "--levels must be at least 2, got -3"),
    ],
    ids=["demo_trials", "demo_seed", "unread_demo_trials", "verify_seed", "kinematics_seed", "angular_seed",
         "evolve_steps", "experiment_trials", "verify_levels", "verify_all_levels", "kinematics_levels",
         "poisson_levels", "counterexample_levels"],
)
def test_an_out_of_range_count_flag_exits_one_naming_it_before_any_work(args, message, tmp_path, monkeypatch, capsys):
    for module, name in ((verify_mod, "run_suite"), (demo_mod, "run_demo"), (evolution, "evolve"),
                         (experiments, "run_trials"), (kinematics, "build_fock")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} reached"))
    (tmp_path / "state.json").write_text(json.dumps({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    (tmp_path / "schedule.json").write_text(json.dumps([{"t0": 0.0, "t1": 1.0, "operator": matrix_to_dict(SY)}]))
    (tmp_path / "spec.json").write_text(json.dumps({"state": {"dim": 2, "re": [1.0, 0.0]},
                                                    "bindings": {"A": matrix_to_dict(SX)}, "implementation": ["A"],
                                                    "f": "A"}))
    monkeypatch.chdir(tmp_path)
    rc = main(list(args))
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", f"error: ValueError: {message}\n")


@pytest.mark.parametrize("groups", [None, [["A"], ["A"]]], ids=["planned", "groups"])
def test_experiment_naming_one_measurement_twice_exits_one_naming_it(tmp_path, capsys, groups):
    got = _experiment_run(tmp_path, capsys, implementation=["A", "A"], f="A*A", groups=groups)
    message = "implementation names 'A' more than once; bind its operator to a second name"
    assert got == (1, "", f"error: ValueError: {message}\n")

def test_experiment_options_equal_to_the_spec_values_print_the_same_bytes(tmp_path, capsys):
    by_spec = _experiment_run(tmp_path, capsys, n_trials=300, seed=9)
    assert by_spec == _experiment_run(tmp_path, capsys, "--trials", "300", "--seed", "9", n_trials=7, seed=1)
    assert by_spec == _experiment_run(tmp_path, capsys, "--trials", "300", "--seed", "9")


@pytest.mark.parametrize("command", ["evolve", "experiment"])
def test_a_bool_schedule_alpha_exits_one_with_the_alpha_line(tmp_path, capsys, command):
    schedule = {"alpha": True, "pieces": [{"t0": 0.0, "t1": 2.0, "operator": matrix_to_dict(SY)}]}
    if command == "evolve":
        (tmp_path / "state.json").write_text(json.dumps({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
        (tmp_path / "sched.json").write_text(json.dumps(schedule))
        rc = main(["evolve", "--state", str(tmp_path / "state.json"), "--schedule", str(tmp_path / "sched.json")])
        captured = capsys.readouterr()
        got = rc, captured.out, captured.err
    else:
        got = _experiment_run(tmp_path, capsys, evolution={"schedule": schedule, "t1": 1.0, "t2": 2.0})
    assert got == (1, "", "error: ValueError: alpha must be finite and positive, got True\n")


@pytest.mark.parametrize("d, alpha, krylov", [(64, 1.0, False), (256, 1.0, True), (256, 0.3, False)],
                         ids=["d64", "d256_krylov", "d256_fallback"])
def test_evolve_bytes_do_not_depend_on_blas_threads(tmp_path, monkeypatch, d, alpha, krylov):
    rng = make_rng(65)
    state_path = tmp_path / "state.json"
    sched_path = tmp_path / "sched.json"
    v, sched = random_state(d, rng), HamiltonianSchedule.constant(random_hermitian(d, rng), 0.0, 2.0, alpha)
    state_path.write_text(json.dumps(state_to_dict(v)))
    sched_path.write_text(json.dumps(sched.to_dict()))
    propagations = []
    monkeypatch.setattr(evolution, "propagate", lambda *a: propagations.append(a) or propagate(*a))
    evolve(v, sched, 128)
    assert len(propagations) == (not krylov)  # the path this input takes
    outs = []
    for threads in ("1", "2", "4"):
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        rc, out, err = _run_cli_with_env(
            env, "evolve", "--state", str(state_path), "--schedule", str(sched_path), "--steps", "128"
        )
        assert rc == 0, err
        outs.append(out)
    assert outs[1] == outs[0] and outs[2] == outs[0]


# --- module shortcut commands -----------------------------------------------------------


def test_kinematics_verify_command(capsys):
    rc = main(["kinematics", "verify", "--levels", "32"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    names = {c["name"] for c in report["checks"]}
    assert "defect_strictly_offdiagonal" in names
    assert "displacement_shifts_x" in names


def test_angular_verify_command(capsys):
    rc = main(["angular", "verify", "--dims", "2..12"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["dims"] == [2, 12]


@pytest.mark.parametrize("suite,flags", [("kinematics", ["--levels", "32"]), ("angular", ["--dims", "2..12"])])
def test_module_verify_is_an_alias_of_verify_suite(suite, flags, capsys):
    assert main([suite, "verify", *flags]) == 0
    alias = capsys.readouterr().out
    assert main(["verify", suite, *flags]) == 0
    assert alias == capsys.readouterr().out
    assert main([suite, "frobnicate"]) == 1


@pytest.mark.parametrize("args", [("kinematics", "frobnicate"), ("angular", "frobnicate"), ("poisson", "bogus")])
def test_an_unknown_action_prints_usage_and_exits_one(args):
    rc, out, err = _run_cli(*args)
    assert rc == 1
    assert out == ""
    assert "invalid choice" in err and "usage: avcp" in err
    assert "Traceback" not in err


def test_the_parser_is_built_once_and_each_call_parses_afresh(capsys):
    assert _build_parser() is _build_parser()
    calls = [["poisson", "bogus"], ["--help"], ["poisson", "check", "--f", "p", "--levels", "32"],
             ["poisson", "check", "--levels", "32"]]
    runs = [(main(args), capsys.readouterr()) for args in calls * 2]
    assert runs[:4] == runs[4:]  # the same exit codes, usage text, errors and reports every time
    assert [rc for rc, _ in runs[:4]] == [1, 0, 0, 0]
    assert "usage: avcp" in runs[0][1].err
    assert runs[2][1].out != runs[3][1].out  # one call's --f does not carry over to the next


def test_poisson_check_command(capsys):
    rc = main(["poisson", "check", "--f", "x", "--h", "p^2 + x^2", "--levels", "32"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["passed"] is True
    assert out["bracket"] == "2 * p"


def test_poisson_counterexample_command(capsys):
    rc = main(["poisson", "counterexample", "--gamma", "1.0", "--levels", "32"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["scalar_im"] == pytest.approx(3.0, abs=1e-8)
    assert out["scalar_magnitude"] == pytest.approx(3.0, abs=1e-8)


def test_bad_usage_exits_one(capsys):
    assert main(["no-such-command"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


# --- which options each subcommand takes -----------------------------------------------

SHARED_OPTIONS = ("seed", "trials", "alpha", "levels", "dims")
READS = {
    "quantize": (),
    "experiment": ("seed", "trials", "alpha"),
    "verify": ("seed", "alpha", "levels", "dims"),
    "kinematics": ("seed", "alpha", "levels", "dims"),
    "angular": ("seed", "alpha", "levels", "dims"),
    "demo": ("seed", "trials", "alpha"),
    "evolve": ("alpha",),
    "poisson": ("alpha", "levels"),
}
OWN_OPTIONS = {"quantize": {"--bindings"}, "verify": {"--bindings"},
               "evolve": {"--state", "--schedule", "--steps"}, "poisson": {"--f", "--h", "--gamma"}}
# each subcommand with what it requires, so that the option under test is the only usage error
MINIMAL_ARGS = {
    "quantize": ["quantize", "A", "--bindings", "bindings.json"],
    "experiment": ["experiment", "spec.json"],
    "verify": ["verify", "all"],
    "kinematics": ["kinematics", "verify"],
    "angular": ["angular", "verify"],
    "demo": ["demo", "a-plus-b"],
    "evolve": ["evolve", "--state", "state.json", "--schedule", "sched.json"],
    "poisson": ["poisson", "check"],
}
OPTION_VALUES = {"seed": "3", "trials": "10", "alpha": "2", "levels": "32", "dims": "2..4"}
DROPPED = [(cmd, opt) for cmd, reads in READS.items() for opt in SHARED_OPTIONS if opt not in reads]


def test_each_subcommand_takes_only_the_options_it_reads():
    assert len(DROPPED) == 19
    assert sum(len(reads) + 2 for reads in READS.values()) == 37  # with --format and --out
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in p._actions for s in a.option_strings} for name, p in commands.choices.items()}
    want = {
        cmd: {"-h", "--help", "--format", "--out", *(f"--{opt}" for opt in reads), *OWN_OPTIONS.get(cmd, ())}
        for cmd, reads in READS.items()
    }
    assert got == want


@pytest.mark.parametrize("command, option", DROPPED)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(command, option, capsys):
    rc = main([*MINIMAL_ARGS[command], f"--{option}", OPTION_VALUES[option]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert f"unrecognized arguments: --{option}" in captured.err and "Traceback" not in captured.err


# --- exit paths ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_poisson_check_of_a_non_simple_input_exits_two(fmt, capsys):
    rc = main(["poisson", "check", "--f", "x^2", "--h", "p^2", "--levels", "32", "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ""
    if fmt == "json":
        assert json.loads(captured.out) == {"error": "NonSimpleInput", "failures": {"{f,h}": [["p", "x"]]}}
    else:
        assert captured.out == "non-simple input; failures: {'{f,h}': [['p', 'x']]}\n"


def test_poisson_check_reports_non_simple_inputs_as_the_counterexample_demo_does(capsys):
    assert main(["poisson", "check", "--f", "x^3", "--h", "p^3"]) == 2
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert main(["demo", "poisson-counterexample"]) == 0
    assert failures == json.loads(capsys.readouterr().out)["non_simple"]


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "operators"],
        ["angular", "verify"],
        ["demo", "a-plus-b", "--trials", "200"],
        ["poisson", "counterexample", "--levels", "32"],
        ["evolve", "--steps", "4"],
    ],
)
def test_a_bad_alpha_variable_is_an_error_line_for_commands_that_read_it(args, tmp_path, monkeypatch, capsys):
    if args[0] == "evolve":
        (tmp_path / "state.json").write_text(json.dumps({"dim": 2, "re": [1.0, 0.0]}))
        (tmp_path / "sched.json").write_text(json.dumps([{"t0": 0.0, "t1": 1.0, "operator": matrix_to_dict(SX)}]))
        args = [*args, "--state", str(tmp_path / "state.json"), "--schedule", str(tmp_path / "sched.json")]
    monkeypatch.setenv("AVCP_ALPHA", "bogus")
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: ValueError: could not convert string to float: 'bogus'\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_quantize_does_not_read_the_alpha_variable(fmt, pauli_bindings_file, monkeypatch, capsys):
    args = ["quantize", "A + B", "--bindings", pauli_bindings_file, "--format", fmt]
    monkeypatch.delenv("AVCP_ALPHA", raising=False)
    assert main(args) == 0
    unset = capsys.readouterr()
    monkeypatch.setenv("AVCP_ALPHA", "bogus")
    assert main(args) == 0
    assert capsys.readouterr() == unset


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("suite", [["verify", "all"], ["verify", "kinematics"], ["kinematics", "verify"]])
def test_verify_rejects_a_non_positive_or_non_finite_alpha_with_exit_one(suite, alpha, monkeypatch, capsys):
    def no_suite_runs(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify_mod, "_SUITES", dict.fromkeys(verify_mod._SUITES, no_suite_runs))
    rc = main([*suite, "--alpha", alpha])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: ValueError: alpha must be finite and positive, got {float(alpha)}\n"


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["poisson", "check"], ["poisson", "counterexample"], ["demo", "a-plus-b"],
                                     ["demo", "poisson-counterexample"], ["demo", "hermitization"]])
def test_poisson_and_demo_reject_a_non_positive_or_non_finite_alpha_with_exit_one(command, alpha, monkeypatch, capsys):
    def no_demo_runs(**kwargs):
        raise AssertionError("a demo ran")

    monkeypatch.setattr(demo_mod, "DEMOS", dict.fromkeys(demo_mod.DEMOS, no_demo_runs))
    rc = main([*command, "--alpha", alpha])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: ValueError: alpha must be finite and positive, got {float(alpha)}\n"


@pytest.mark.parametrize("command", [["poisson", "check", "--levels", "16"], ["demo", "a-plus-b", "--trials", "10"]])
def test_a_zero_alpha_variable_is_rejected_by_poisson_and_demo(command, monkeypatch, capsys):
    monkeypatch.setenv("AVCP_ALPHA", "0")
    assert main(command) == 1
    assert capsys.readouterr().err == "error: ValueError: alpha must be finite and positive, got 0.0\n"


@pytest.mark.parametrize(
    "document, message",
    [
        ([1], "a bindings document must be a JSON object, got list"),
        ("abc", "a bindings document must be a JSON object, got str"),
        ({"bindings": [1]}, 'a wrapped "bindings" value must be a JSON object, got list'),
    ],
)
@pytest.mark.parametrize("command", ["quantize", "experiment", "verify"])
def test_a_bindings_value_that_is_not_an_object_is_a_type_error_line(tmp_path, capsys, command, document, message):
    path = tmp_path / "input.json"
    if command == "experiment":
        spec = {"state": {"dim": 2, "re": [1, 0]}, "bindings": document, "implementation": ["A"], "f": "A"}
        path.write_text(json.dumps(spec))
        argv = ["experiment", str(path)]
    else:
        path.write_text(json.dumps(document))
        argv = ["quantize", "A", "--bindings", str(path)] if command == "quantize" else [
            "verify", "operators", "--bindings", str(path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: TypeError: {message}\n")


def test_out_writes_the_bytes_stdout_would_get_and_prints_nothing(tmp_path, capsys):
    assert main(["verify", "angular", "--seed", "3", "--format", "text"]) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "report.txt"
    assert main(["verify", "angular", "--seed", "3", "--format", "text", "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_text() == stdout


@pytest.mark.parametrize(
    "args",
    [
        ["quantize", "A + B", "--bindings", "bindings.json"],
        ["quantize", "A*B", "--bindings", "bindings.json"],
        ["experiment", "spec.json", "--trials", "10"],
        ["verify", "angular", "--dims", "2..3"],
        ["demo", "hermitization"],
        ["evolve", "--state", "state.json", "--schedule", "sched.json", "--steps", "4"],
        ["poisson", "check", "--levels", "32"],
        ["poisson", "check", "--f", "x^3", "--h", "p^3", "--levels", "32"],
        ["poisson", "counterexample", "--levels", "32"],
    ],
    ids=["quantize", "quantize_non_simple", "experiment", "verify", "demo", "evolve", "poisson_check",
         "poisson_check_non_simple", "poisson_counterexample"],
)
def test_an_unwritable_out_is_one_error_line_on_every_subcommand(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    state = {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}
    Path("bindings.json").write_text(json.dumps({"A": matrix_to_dict(SX), "B": matrix_to_dict(SY)}))
    Path("spec.json").write_text(json.dumps({"state": state, "bindings": {"A": matrix_to_dict(SX)},
                                             "implementation": ["A"], "f": "A"}))
    Path("state.json").write_text(json.dumps(state))
    Path("sched.json").write_text(json.dumps([{"t0": 0.0, "t1": 1.0, "operator": matrix_to_dict(SX)}]))
    out = str(tmp_path / "missing" / "report.json")
    assert main([*args, "--out", out]) == 1
    assert capsys.readouterr() == ("", f"error: FileNotFoundError: [Errno 2] No such file or directory: {out!r}\n")

def test_a_descending_dimension_range_is_an_error_line(capsys):
    assert main(["verify", "angular", "--dims", "5..3"]) == 1
    assert capsys.readouterr() == ("", "error: ValueError: bad dimension range '5..3'\n")


def test_too_few_levels_is_an_error_row_in_the_text_report(capsys):
    assert main(["verify", "poisson", "--levels", "8", "--format", "text"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    row = "FAIL  poisson_suite   error DimTooSmall: need at least 16 levels for a meaningful sub-block"
    assert row in out.splitlines()
    assert out.endswith("\nFAILED\n")
