"""Finite-dimensional quantum operator workbench.

Quantizes classical observable expressions under the function/sum/product
rules, simulates multi-copy measurement experiments whose averages realize
classical relations, and verifies the derived operator identities (temporal
evolution, canonical and angular momentum commutators, displacement and
rotation relations, and the restricted bracket-commutator rule).

Each public name, and each submodule listed below, loads its module on first
use (PEP 562), so `import avcp` imports neither numpy nor any submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the public names of each submodule; the submodule's own name is public too
_PUBLIC = {
    "angular": ("SpinTriple", "check_frame_rotation_covariance", "check_rotation_identity",
                "commutant_scalar_residual", "expectation_vector", "rotation_generator", "spin_operators"),
    "errors": ("AvcpError", "CommutingInput", "ConvergenceFailure", "DimMismatch", "DimTooSmall", "DomainError",
               "ExpressionSyntaxError", "ImaginaryResidue", "NonFinite", "NonSimpleExpression", "NonSimpleInput",
               "NotHermitian", "ScheduleGap", "StateNotNormalized", "StateSpaceTooLarge", "UnboundVariable",
               "UnknownDemo", "UnknownFunction", "UnsafeState", "UnsupportedExpression"),
    "evolution": ("HamiltonianSchedule", "check_ehrenfest", "check_energy_conservation", "evolve", "propagator"),
    "experiments": ("AvcpVerdict", "EvolutionWindow", "ExperimentReport", "ExperimentSpec", "SetupPlan",
                    "check_avcp", "enumerate_expectation", "plan_setups", "run_trials"),
    "expressions": ("BindingSet", "MeasurementBinding", "SimplicityVerdict", "classify_simple",
                    "demonstrate_inconsistency", "evaluate", "expand_polynomial", "parse", "quantize",
                    "quantize_hermitized", "to_string"),
    "kinematics": ("FockTruncation", "boundary_weight", "build_fock", "canonical_defect", "coherent_state",
                   "displacement_unitary", "photon_drift_check"),
    "operators": ("HermitianOperator", "MeasurementOutcome", "QuantumState", "Spectrum", "apply_spectral_function",
                  "commutator", "eigensystem", "eigensystems", "embed_operator", "expectation",
                  "hermitian_from_matrix", "make_rng", "measure_projective", "tensor"),
    "poisson": ("CanonicalPolynomial", "check_dirac_rule", "counterexample_report", "parse_canonical",
                "poisson_bracket"),
}
#: each public name -> the submodule that defines it
_OWNER = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_OWNER[name]}")  # binds the submodule's own name here
    globals()[name] = value = module if name in _PUBLIC else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return __all__
