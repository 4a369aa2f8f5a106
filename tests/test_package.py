"""The lazy package: `import avcp` and `import avcp.cli` load no module a command does not run.

Each check runs in a fresh interpreter, so the modules other tests imported are not in its `sys.modules`.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: every public name of the package as it was when `avcp/__init__` imported each submodule eagerly
PUBLIC = (
    "AvcpError", "AvcpVerdict", "BindingSet", "CanonicalPolynomial", "CommutingInput", "ConvergenceFailure",
    "DimMismatch", "DimTooSmall", "DomainError", "EvolutionWindow", "ExperimentReport", "ExperimentSpec",
    "ExpressionSyntaxError", "FockTruncation", "HamiltonianSchedule", "HermitianOperator", "ImaginaryResidue",
    "MeasurementBinding", "MeasurementOutcome", "NonFinite", "NonSimpleExpression", "NonSimpleInput", "NotHermitian",
    "QuantumState", "ScheduleGap", "SetupPlan", "SimplicityVerdict", "Spectrum", "SpinTriple", "StateNotNormalized",
    "StateSpaceTooLarge", "UnboundVariable", "UnknownDemo", "UnknownFunction", "UnsafeState", "UnsupportedExpression",
    "angular", "apply_spectral_function", "boundary_weight", "build_fock", "canonical_defect", "check_avcp",
    "check_dirac_rule", "check_ehrenfest", "check_energy_conservation", "check_frame_rotation_covariance",
    "check_rotation_identity", "classify_simple", "coherent_state", "commutant_scalar_residual", "commutator",
    "counterexample_report", "demonstrate_inconsistency", "displacement_unitary", "eigensystem", "eigensystems",
    "embed_operator", "enumerate_expectation", "errors", "evaluate", "evolution", "evolve", "expand_polynomial",
    "expectation", "expectation_vector", "experiments", "expressions", "hermitian_from_matrix", "kinematics",
    "make_rng", "measure_projective", "operators", "parse", "parse_canonical", "photon_drift_check", "plan_setups",
    "poisson", "poisson_bracket", "propagator", "quantize", "quantize_hermitized", "rotation_generator", "run_trials",
    "spin_operators", "tensor", "to_string",
)


def _python(code: str, cwd=None):
    """The JSON value that `code`, run in a fresh interpreter with the repo's sources first on the path, prints last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, *sys.path])}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env,
                          cwd=cwd, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('avcp', 'numpy', 'fractions', 'orjson')))))"


def test_import_avcp_loads_no_submodule_and_no_numpy():
    assert _python(f"import json, sys\nimport avcp\n{_LOADED}") == ["avcp"]


def test_import_avcp_cli_loads_only_the_package_cli_and_errors():
    assert _python(f"import json, sys\nimport avcp.cli\n{_LOADED}") == ["avcp", "avcp.cli", "avcp.errors"]


def test_help_and_verify_all_load_no_orjson():
    code = """
        import contextlib, io, json, sys
        from avcp.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--help"]) == 0
            help_loaded = sorted(sys.modules)
            assert main(["verify", "all"]) == 0
        print(json.dumps([help_loaded, sorted(sys.modules)]))
    """
    for loaded in _python(code):
        assert "orjson" not in loaded


def _after_main(args, tmp_path) -> set[str]:
    (tmp_path / "state.json").write_text(json.dumps({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
    (tmp_path / "schedule.json").write_text(json.dumps(
        [{"t0": 0.0, "t1": 1.0, "operator": {"dim": 2, "re": [0, 0, 0, 0], "im": [0, -1, 1, 0]}}]))
    (tmp_path / "spec.json").write_text(json.dumps(
        {"state": {"dim": 2, "re": [1.0, 0.0]}, "bindings": {"A": {"dim": 2, "re": [0, 1, 1, 0]}},
         "implementation": ["A"], "f": "A", "n_trials": 100}))
    code = f"""
        import contextlib, io, json, sys
        from avcp.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({list(args)!r}) == 0
        print(json.dumps(sorted(sys.modules)))
    """
    return set(_python(code, cwd=tmp_path))


def test_evolve_loads_no_expression_poisson_verify_or_demo_module(tmp_path):
    loaded = _after_main(["evolve", "--state", "state.json", "--schedule", "schedule.json"], tmp_path)
    assert {"avcp.operators", "avcp.evolution", "orjson"} <= loaded  # orjson reads the state's and schedule's arrays
    assert not loaded & {"avcp.poisson", "avcp.expressions", "avcp.verify", "avcp.demos", "fractions"}


def test_experiment_loads_no_poisson_kinematics_angular_demo_or_verify_module(tmp_path):
    loaded = _after_main(["experiment", "spec.json"], tmp_path)
    assert {"avcp.experiments", "avcp.expressions", "avcp.evolution", "avcp.operators"} <= loaded
    assert not loaded & {"avcp.poisson", "avcp.kinematics", "avcp.angular", "avcp.demos", "avcp.verify"}


def test_dir_and_star_import_list_the_public_names():
    code = """
        import json
        import avcp
        star = {}
        exec("from avcp import *", star)
        print(json.dumps([dir(avcp), sorted(set(star) - {"__builtins__"})]))
    """
    assert _python(code) == [list(PUBLIC), list(PUBLIC)]


def test_each_public_name_is_its_defining_modules_object():
    import avcp

    for name in PUBLIC:
        value = getattr(avcp, name)
        if isinstance(value, type(avcp)):  # a submodule
            assert value is sys.modules[f"avcp.{name}"], name
        else:
            assert value.__module__.startswith("avcp.") and getattr(sys.modules[value.__module__], name) is value, name
        assert vars(avcp)[name] is value, name  # cached: the next lookup does not reach __getattr__


def test_an_unknown_name_is_an_attribute_error():
    import avcp

    with pytest.raises(AttributeError, match="^module 'avcp' has no attribute 'nosuch'$"):
        avcp.nosuch
    with pytest.raises(ImportError):
        from avcp import nosuch  # noqa: F401
