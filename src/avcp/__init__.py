"""Finite-dimensional quantum operator workbench.

Quantizes classical observable expressions under the function/sum/product
rules, simulates multi-copy measurement experiments whose averages realize
classical relations, and verifies the derived operator identities (temporal
evolution, canonical and angular momentum commutators, displacement and
rotation relations, and the restricted bracket-commutator rule).
"""

from .angular import (
    SpinTriple,
    check_frame_rotation_covariance,
    check_rotation_identity,
    commutant_scalar_residual,
    expectation_vector,
    rotation_generator,
    spin_operators,
)
from .errors import (
    AvcpError,
    CommutingInput,
    ConvergenceFailure,
    DimMismatch,
    DimTooSmall,
    DomainError,
    ExpressionSyntaxError,
    ImaginaryResidue,
    NonFinite,
    NonSimpleExpression,
    NonSimpleInput,
    NotHermitian,
    ScheduleGap,
    StateNotNormalized,
    StateSpaceTooLarge,
    UnboundVariable,
    UnknownDemo,
    UnknownFunction,
    UnsafeState,
    UnsupportedExpression,
)
from .evolution import (
    HamiltonianSchedule,
    check_ehrenfest,
    check_energy_conservation,
    evolve,
    propagator,
)
from .experiments import (
    AvcpVerdict,
    EvolutionWindow,
    ExperimentReport,
    ExperimentSpec,
    SetupPlan,
    check_avcp,
    enumerate_expectation,
    plan_setups,
    run_trials,
)
from .expressions import (
    BindingSet,
    MeasurementBinding,
    SimplicityVerdict,
    classify_simple,
    demonstrate_inconsistency,
    evaluate,
    expand_polynomial,
    parse,
    quantize,
    quantize_hermitized,
    to_string,
)
from .kinematics import (
    FockTruncation,
    boundary_weight,
    build_fock,
    canonical_defect,
    coherent_state,
    displacement_unitary,
    photon_drift_check,
)
from .operators import (
    HermitianOperator,
    MeasurementOutcome,
    QuantumState,
    Spectrum,
    apply_spectral_function,
    commutator,
    eigensystem,
    eigensystems,
    embed_operator,
    expectation,
    hermitian_from_matrix,
    make_rng,
    measure_projective,
    tensor,
)
from .poisson import (
    CanonicalPolynomial,
    check_dirac_rule,
    counterexample_report,
    parse_canonical,
    poisson_bracket,
)

__version__ = "0.1.0"
