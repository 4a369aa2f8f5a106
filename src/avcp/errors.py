"""Exception types shared across the package."""


class AvcpError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(AvcpError):
    """A matrix or vector contains NaN or infinite entries."""


class NotHermitian(AvcpError):
    """A matrix failed the Hermiticity gate."""

    def __init__(self, asymmetry: float, allowed: float):
        self.asymmetry = asymmetry
        self.allowed = allowed
        super().__init__(
            f"max asymmetry {asymmetry:.3e} exceeds allowed {allowed:.3e}"
        )


class DimMismatch(AvcpError):
    """Operands live on Hilbert spaces of different dimension."""


class ConvergenceFailure(AvcpError):
    """The eigensolver did not converge or produced an invalid decomposition, or evolution drifted from unit norm."""


class DomainError(AvcpError):
    """A spectral function is undefined or non-finite at an eigenvalue."""


class ImaginaryResidue(AvcpError):
    """An expectation value came out with a non-negligible imaginary part."""


class StateNotNormalized(AvcpError):
    """A state vector deviates from unit norm beyond tolerance."""


class ExpressionSyntaxError(AvcpError):
    """Malformed observable expression; `offset` is the byte position."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class UnknownFunction(AvcpError):
    """An expression calls a function outside the supported set."""

    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function {name!r} (at offset {offset})")


class UnboundVariable(AvcpError):
    """An expression variable has no measurement bound to it."""


class NonSimpleExpression(AvcpError):
    """The expression multiplies outcomes of non-commuting measurements.

    `offending_pairs` lists the variable pairs whose operators fail to
    commute.
    """

    def __init__(self, offending_pairs):
        self.offending_pairs = tuple(offending_pairs)
        pairs = ", ".join(f"({a}, {b})" for a, b in self.offending_pairs)
        super().__init__(f"expression is not simple; offending pairs: {pairs}")


class UnsupportedExpression(AvcpError):
    """Structurally valid expression outside what quantization supports."""


class CommutingInput(AvcpError):
    """Operators commute, so the requested demonstration is vacuous."""


class StateSpaceTooLarge(AvcpError):
    """Exact enumeration would exceed the outcome-tuple budget."""


class ScheduleGap(AvcpError):
    """A Hamiltonian schedule has gaps, overlaps, or misses the query time."""


class DimTooSmall(AvcpError):
    """The requested representation dimension is too small to be meaningful."""


class UnsafeState(AvcpError):
    """Too much amplitude sits at the truncation boundary for the check."""


class NonSimpleInput(AvcpError):
    """One of the polynomials in a bracket-rule check is not simple."""

    def __init__(self, failures):
        # failures: mapping label -> offending pairs
        self.failures = dict(failures)
        parts = "; ".join(f"{k}: {v}" for k, v in self.failures.items())
        super().__init__(f"non-simple input(s): {parts}")


class UnknownDemo(AvcpError):
    """No demonstration registered under the requested name."""
