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

from avcp import expressions as ex
from avcp.cli import _build_parser, entry, main
from avcp.evolution import HamiltonianSchedule
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


def test_evolve_bytes_do_not_depend_on_blas_threads(tmp_path):
    rng = make_rng(65)
    state_path = tmp_path / "state.json"
    sched_path = tmp_path / "sched.json"
    state_path.write_text(json.dumps(state_to_dict(random_state(64, rng))))
    sched_path.write_text(json.dumps(HamiltonianSchedule.constant(random_hermitian(64, rng), 0.0, 2.0).to_dict()))
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
