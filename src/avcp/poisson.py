"""Exact Poisson brackets for polynomial observables on canonical pairs.

Polynomials over (x_1..x_N; p_1..p_N) carry exact rational coefficients, so
the bracket axioms (antisymmetry, Leibniz, Jacobi) hold identically, not just
numerically.  The bracket-commutator rule

    i*alpha * Op({F, H}) = [Op(F), Op(H)]

is checked in a truncated ladder representation on the sub-block that
truncation leaves intact, provided F, H and {F, H} are all simple there; the
x^3 / p^3 pair shows what goes wrong when the bracket is not simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Mapping

import numpy as np

from . import expressions as ex
from .errors import DimTooSmall, NonSimpleInput, UnboundVariable, UnsupportedExpression
from .expressions import BindingSet
from .kinematics import FockTruncation
from .operators import commutator, max_norm

_Exponents = tuple  # (x1..xN, p1..pN) exponent tuple


def _collect(pairs, den: int, n_pairs: int) -> "CanonicalPolynomial":
    """Merge (exponent tuple, integer numerator over `den`) pairs in `expressions.collect_terms`,
    sort them and bring the result to lowest terms with one gcd."""
    merged = ex.collect_terms(pairs)
    g = math.gcd(den, *merged.values())
    if g > 1:
        den, merged = den // g, {e: c // g for e, c in merged.items()}
    return CanonicalPolynomial(n_pairs, tuple(sorted(merged.items())), den)


@dataclass(frozen=True, repr=False)
class CanonicalPolynomial:
    """Polynomial over canonical coordinates with exact coefficients: integer `numerators` over one
    positive `denominator` in lowest terms, a unique form; `terms` builds their Fractions when read.

    The raw constructor is trusted with that form, sorted, merged and non-zero; outside data enters
    through `from_terms`, `parse_canonical`, `coordinate` and `constant`, which validate it.
    """

    n_pairs: int
    numerators: tuple[tuple[_Exponents, int], ...]
    denominator: int = 1

    @cached_property
    def terms(self) -> tuple[tuple[_Exponents, Fraction], ...]:
        return tuple((e, Fraction(c, self.denominator)) for e, c in self.numerators)

    def __hash__(self):  # of (n_pairs, terms), so it agrees with Fraction and int hashing of the coefficients
        return hash((self.n_pairs, self.terms))

    def __repr__(self):
        return f"CanonicalPolynomial(n_pairs={self.n_pairs!r}, terms={self.terms!r})"

    @classmethod
    def from_terms(cls, terms: Mapping[_Exponents, object], n_pairs: int) -> "CanonicalPolynomial":
        pairs = []
        for exps, c in terms.items():
            exps = tuple(int(k) for k in exps)
            if len(exps) != 2 * n_pairs or any(k < 0 for k in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n_pairs} pair(s)")
            pairs.append((exps, Fraction(c)))  # Fraction(float) is exact for the binary value
        den = math.lcm(*(c.denominator for _, c in pairs))
        return _collect(((e, c.numerator * (den // c.denominator)) for e, c in pairs), den, n_pairs)

    @classmethod
    def zero(cls, n_pairs: int = 1) -> "CanonicalPolynomial":
        return cls(n_pairs, ())

    @classmethod
    def coordinate(cls, kind: str, index: int = 0, n_pairs: int = 1) -> "CanonicalPolynomial":
        """The monomial x_index or p_index."""
        if kind not in ("x", "p") or not 0 <= index < n_pairs:
            raise ValueError(f"no coordinate {kind}{index} with {n_pairs} pair(s)")
        exps = [0] * (2 * n_pairs)
        exps[index + (n_pairs if kind == "p" else 0)] = 1
        return cls.from_terms({tuple(exps): 1}, n_pairs)

    @classmethod
    def constant(cls, c, n_pairs: int = 1) -> "CanonicalPolynomial":
        return cls.from_terms({(0,) * (2 * n_pairs): c}, n_pairs)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "CanonicalPolynomial":
        other = self._match(other)
        den = math.lcm(self.denominator, other.denominator)
        a, b = den // self.denominator, sign * den // other.denominator
        return _collect([(e, a * c) for e, c in self.numerators] + [(e, b * c) for e, c in other.numerators],
                        den, self.n_pairs)

    def __mul__(self, other):
        other = self._match(other)
        return _collect(
            ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.numerators for e2, c2 in other.numerators),
            self.denominator * other.denominator,
            self.n_pairs,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = CanonicalPolynomial.constant(1, self.n_pairs)
        for _ in range(k):
            out = out * self
        return out

    def _match(self, other) -> "CanonicalPolynomial":
        if isinstance(other, (int, float, Fraction)):
            return CanonicalPolynomial.constant(other, self.n_pairs)
        if other.n_pairs != self.n_pairs:
            raise ValueError("polynomials use different numbers of canonical pairs")
        return other

    def differentiate(self, kind: str, index: int = 0) -> "CanonicalPolynomial":
        pos = index + (self.n_pairs if kind == "p" else 0)
        return _collect(
            ((e[:pos] + (e[pos] - 1,) + e[pos + 1:], c * e[pos]) for e, c in self.numerators if e[pos]),
            self.denominator,
            self.n_pairs,
        )

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.numerators), default=0)

    def is_zero(self) -> bool:
        return not self.numerators

    def evaluate(self, xs, ps) -> float:
        values = [*xs[: self.n_pairs], *ps[: self.n_pairs]]
        return ex.evaluate(self.to_expr(), {self.variable_name(pos): v for pos, v in enumerate(values)})

    def variable_name(self, pos: int) -> str:
        if self.n_pairs == 1:
            return "x" if pos == 0 else "p"
        return (f"x{pos + 1}" if pos < self.n_pairs else f"p{pos - self.n_pairs + 1}")

    def to_expr(self) -> ex.ObservableExpr:
        """Equivalent observable expression over x/p (or x1..xN, p1..pN)."""
        return ex.PolynomialForm(tuple(
            (ex.Monomial(tuple((self.variable_name(pos), k) for pos, k in enumerate(e) if k), ()), float(c))
            for e, c in self.terms
        )).to_expr()


def parse_canonical(text: str, n_pairs: int = 1) -> CanonicalPolynomial:
    """Parse a polynomial over the reserved names x1..xN, p1..pN (x, p when N=1)."""
    form = ex.expand_polynomial(ex.parse(text))
    namer = CanonicalPolynomial.zero(n_pairs)
    allowed = {namer.variable_name(pos): pos for pos in range(2 * n_pairs)}
    if n_pairs == 1:
        allowed.update(x1=0, p1=1)
    pairs = []
    for m, c in form.terms:
        if m.func_powers:
            raise UnsupportedExpression("canonical polynomials admit no function factors")
        exps = [0] * (2 * n_pairs)
        for name, k in m.var_powers:
            if name not in allowed:
                raise UnboundVariable(
                    f"{name!r} is not a canonical coordinate for {n_pairs} pair(s)"
                )
            exps[allowed[name]] += k
        pairs.append((tuple(exps), Fraction(c)))
    return CanonicalPolynomial.from_terms(ex.collect_terms(pairs), n_pairs)


def poisson_bracket(f: CanonicalPolynomial, h: CanonicalPolynomial) -> CanonicalPolynomial:
    """{f, h} = sum_i (df/dx_i dh/dp_i - dh/dx_i df/dp_i), exactly, in one pass: terms c1 x^a p^b of f and
    c2 x^c p^d of h add c1 c2 (a_i d_i - c_i b_i) at exponent e1 + e2 - 1_{x_i} - 1_{p_i} for each pair i."""
    if f.n_pairs != h.n_pairs:
        raise ValueError("polynomials use different numbers of canonical pairs")
    n, out = f.n_pairs, []
    for e1, c1 in f.numerators:
        for e2, c2 in h.numerators:
            e = list(map(add, e1, e2))
            for i in range(n):
                w = e1[i] * e2[i + n] - e2[i] * e1[i + n]
                if w:
                    k = e.copy()
                    k[i] -= 1
                    k[i + n] -= 1
                    out.append((tuple(k), c1 * c2 * w))
    return _collect(out, f.denominator * h.denominator, n)


@dataclass(frozen=True)
class DiracRuleReport:
    """Residual of i*alpha*Op({f,h}) = [Op(f), Op(h)] on the safe sub-block."""

    residual: float
    scale: float
    tolerance: float
    passed: bool
    safe_dim: int
    total_degree: int
    bracket: CanonicalPolynomial


def check_dirac_rule(
    f: CanonicalPolynomial, h: CanonicalPolynomial, rep: FockTruncation
) -> DiracRuleReport:
    """Verify the bracket-commutator rule for simple f, h on one canonical pair.

    Truncation corrupts only the top rows/columns, one per unit of total
    degree of f*h, so the comparison is restricted to the leading sub-block.
    Raises NonSimpleInput naming whichever of f, h, {f,h} mixes x and p.
    """
    if f.n_pairs != 1 or h.n_pairs != 1:
        raise ValueError("operator checks run on a single canonical pair")
    bracket = poisson_bracket(f, h)
    bindings = BindingSet({"x": rep.x_op, "p": rep.p_op})
    forms = [ex.expand_polynomial(poly.to_expr()) for poly in (f, h, bracket)]
    failures = {}
    for label, form in zip(("f", "h", "{f,h}"), forms):
        verdict = ex.classify_simple(form, bindings)
        if not verdict.simple:
            failures[label] = verdict.offending_pairs
    if failures:
        raise NonSimpleInput(failures)

    f_op, h_op, pb_op = (ex.quantize(form, bindings) for form in forms)
    degree = f.total_degree() + h.total_degree()
    safe = rep.n_levels - degree
    if safe < 1:
        raise DimTooSmall(f"degree {degree} leaves no safe sub-block at n={rep.n_levels}")
    lhs = 1j * rep.alpha * pb_op.matrix
    rhs = commutator(f_op, h_op)
    diff = (lhs - rhs)[:safe, :safe]
    scale = 1.0 + max_norm(rhs[:safe, :safe])
    residual = max_norm(diff)
    tol = 1e-9 * scale
    return DiracRuleReport(residual, scale, tol, residual <= tol, safe, degree, bracket)


@dataclass(frozen=True)
class CounterexampleReport:
    """Gap between [x^3, gamma p^3] and the symmetrized bracket operator.

    `scalar` is the fitted constant lambda with difference ~ lambda * I on
    the safe sub-block; `off_scalar_residual` measures how far the
    difference is from an exact scalar matrix there.
    """

    gamma: float
    alpha: float
    safe_dim: int
    scalar: complex
    scalar_magnitude: float
    off_scalar_residual: float
    bracket: CanonicalPolynomial

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "alpha": self.alpha,
            "safe_dim": self.safe_dim,
            "scalar_re": self.scalar.real,
            "scalar_im": self.scalar.imag,
            "scalar_magnitude": self.scalar_magnitude,
            "off_scalar_residual": self.off_scalar_residual,
        }


def counterexample_report(gamma: float, rep: FockTruncation) -> CounterexampleReport:
    """Quantify the failure of the bracket rule for f = x^3, h = gamma p^3.

    The bracket {f, h} = 9 gamma x^2 p^2 is not simple, so no operator
    represents it; symmetrizing anyway gives (9 i gamma alpha / 2)
    (X^2 P^2 + P^2 X^2), which misses the true commutator by the scalar
    matrix 3i gamma alpha^3 I on the safe sub-block.
    """
    if rep.n_levels < 16:
        raise DimTooSmall("need at least 16 levels for a meaningful sub-block")
    x = rep.x_op.matrix
    p = rep.p_op.matrix
    x2, p2 = x @ x, p @ p
    lhs = commutator(x2 @ x, gamma * (p2 @ p))
    rhs = (9j * gamma * rep.alpha / 2) * (x2 @ p2 + p2 @ x2)
    safe = rep.n_levels - 6
    diff = (lhs - rhs)[:safe, :safe]
    scalar = complex(np.trace(diff) / safe)
    off = max_norm(diff - scalar * np.eye(safe))
    f = parse_canonical("x^3")
    h = parse_canonical("p^3") * gamma
    return CounterexampleReport(
        gamma=float(gamma),
        alpha=rep.alpha,
        safe_dim=safe,
        scalar=scalar,
        scalar_magnitude=abs(scalar),
        off_scalar_residual=off,
        bracket=poisson_bracket(f, h),
    )
