"""Classical observable expressions and their quantization.

Grammar (whitespace-insensitive, `^` binds tightest, `*` over `+`/`-`):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" INT)?
    atom   := IDENT | NUMBER | "(" expr ")" | IDENT "(" expr ")"

Function names are restricted to cos, sin, exp, sqrt, neg.  Expressions
expand to a canonical polynomial form (sum of monomials over commuting
classical outcomes, function nodes kept atomic), get classified as simple or
not against a set of measurement bindings, and, when simple, quantize to a
Hermitian operator via the function, sum, and product rules.  The rejected
symmetrized-product rule is also available, solely so its internal
inconsistency can be demonstrated.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    CommutingInput,
    DimMismatch,
    DomainError,
    ExpressionSyntaxError,
    NonSimpleExpression,
    UnboundVariable,
    UnknownFunction,
    UnsupportedExpression,
)
from .operators import (
    HermitianOperator,
    apply_spectral_function,
    commutator,
    embed_operator,
    hermitian_from_matrix,
    max_norm,
    operator_from_dict,
    operator_to_dict,
    read_factor_dims,
    whole_number,
)


def _outcome_sqrt(x):
    if np.any(np.asarray(x) < 0):
        raise DomainError("sqrt of a negative outcome value")
    return np.sqrt(x)


# name -> (spectral-calculus scalar function, `evaluate`'s outcome-array function);
# math.* and np.* stay apart because they can differ in the last bit
_FUNCTIONS = {
    "cos": (math.cos, np.cos),
    "sin": (math.sin, np.sin),
    "exp": (math.exp, np.exp),
    "sqrt": (math.sqrt, _outcome_sqrt),
    "neg": (operator.neg, operator.neg),
}

FUNCTION_NAMES = tuple(_FUNCTIONS)

#: operators count as commuting when |[A,B]| <= COMMUTATION_RTOL * |A| * |B|
COMMUTATION_RTOL = 1e-10


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Add:
    terms: tuple


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be non-negative")


@dataclass(frozen=True)
class Func:
    name: str
    arg: object


ObservableExpr = Union[Var, Const, Add, Mul, Pow, Func]


def variables(e) -> frozenset[str]:
    """All variable names appearing anywhere in the expression."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Add):
        return frozenset().union(*(variables(t) for t in e.terms))
    if isinstance(e, Mul):
        return frozenset().union(*(variables(f) for f in e.factors))
    if isinstance(e, Pow):
        return variables(e.base)
    if isinstance(e, Func):
        return variables(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<op>[-+*^()])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number" and not math.isfinite(float(m.group())):
            raise ExpressionSyntaxError(f"number {m.group()!r} is not finite", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", tok.offset)
        return self.take()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.offset)
        return e

    def expr(self):
        terms = [self.term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            t = self.term()
            terms.append(t if op == "+" else Mul((Const(-1.0), t)))
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self):
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "number":
                raise ExpressionSyntaxError("expected an integer exponent", tok.offset)
            value = float(tok.text)
            if value != int(value):
                raise ExpressionSyntaxError("exponent must be an integer", tok.offset)
            self.take()
            return Pow(base, int(value))
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.take()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTION_NAMES:
                    raise UnknownFunction(tok.text, tok.offset)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Func(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.take()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExpressionSyntaxError(f"expected a value, got {tok.text or 'end'!r}", tok.offset)


def parse(text: str) -> ObservableExpr:
    """Parse an observable expression; errors carry the byte offset."""
    return _Parser(text).parse()


def to_string(e) -> str:
    """Render an expression back into the grammar."""
    return _fmt(e, 0)


def _fmt(e, parent_prec: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        v = e.value
        if v < 0:
            body = _num(-v)
            return f"(0 - {body})" if parent_prec > 0 else f"0 - {body}"
        return _num(v)
    if isinstance(e, Add):
        # children render one level tighter so nested sums/products keep
        # their grouping through a reparse
        body = " + ".join(_fmt(t, 2) for t in e.terms)
        return f"({body})" if parent_prec > 1 else body
    if isinstance(e, Mul):
        body = " * ".join(_fmt(f, 3) for f in e.factors)
        return f"({body})" if parent_prec > 2 else body
    if isinstance(e, Pow):
        body = f"{_fmt(e.base, 4)}^{e.exponent}"
        return f"({body})" if parent_prec > 3 else body
    if isinstance(e, Func):
        return f"{e.name}({_fmt(e.arg, 0)})"
    raise TypeError(f"not an expression node: {e!r}")


def _num(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(v)


# ---------------------------------------------------------------------------
# canonical polynomial form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuncAtom:
    """An unexpanded function factor; its argument is kept in canonical form."""

    name: str
    arg: "PolynomialForm"

    def sort_key(self):
        return (self.name, self.arg.sort_key())


@dataclass(frozen=True)
class Monomial:
    """Product of variable powers and atomic function factors."""

    var_powers: tuple[tuple[str, int], ...]
    func_powers: tuple[tuple[FuncAtom, int], ...]

    def sort_key(self):
        return (
            tuple(self.var_powers),
            tuple((f.sort_key(), k) for f, k in self.func_powers),
        )

    def names(self) -> frozenset[str]:
        """Variables multiplied together in this monomial, including those
        inside function arguments (whose expansions multiply in as well)."""
        out = {n for n, _ in self.var_powers}
        for f, _ in self.func_powers:
            out |= f.arg.variable_names()
        return frozenset(out)


_UNIT = Monomial((), ())


@dataclass(frozen=True)
class PolynomialForm:
    """Canonical sum of monomials with float coefficients, sorted by monomial."""

    terms: tuple[tuple[Monomial, float], ...]

    def sort_key(self):
        return tuple((m.sort_key(), c) for m, c in self.terms)

    def variable_names(self) -> frozenset[str]:
        out: set[str] = set()
        for m, _ in self.terms:
            out |= m.names()
        return frozenset(out)

    def evaluate(self, assignment: Mapping[str, object]):
        return evaluate(self.to_expr(), assignment)

    def to_expr(self) -> ObservableExpr:
        """Reconstruct an explicit expression (used for display and reuse)."""
        if not self.terms:
            return Const(0.0)
        parts = []
        for m, c in self.terms:
            factors: list = []
            if c != 1.0 or (not m.var_powers and not m.func_powers):
                factors.append(Const(c))
            for name, k in m.var_powers:
                factors.append(Var(name) if k == 1 else Pow(Var(name), k))
            for f, k in m.func_powers:
                node = Func(f.name, f.arg.to_expr())
                factors.append(node if k == 1 else Pow(node, k))
            parts.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
        return parts[0] if len(parts) == 1 else Add(tuple(parts))


def collect_terms(pairs) -> dict:
    """The one like-term accumulator: add each key's coefficients in the order given
    (which fixes float sums) and drop a key once its running sum is exactly zero."""
    out: dict = {}
    for key, coeff in pairs:
        c = out[key] + coeff if key in out else coeff
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    vp: dict[str, int] = dict(a.var_powers)
    for name, k in b.var_powers:
        vp[name] = vp.get(name, 0) + k
    fp: dict[FuncAtom, int] = dict(a.func_powers)
    for f, k in b.func_powers:
        fp[f] = fp.get(f, 0) + k
    return Monomial(
        tuple(sorted(vp.items())),
        tuple(sorted(fp.items(), key=lambda kv: kv[0].sort_key())),
    )


def _mul_forms(a: dict, b: dict) -> dict:
    return collect_terms(
        (_mul_monomials(ma, mb), ca * cb) for ma, ca in a.items() for mb, cb in b.items()
    )


def _expand(e) -> dict:
    if isinstance(e, Var):
        return {Monomial(((e.name, 1),), ()): 1.0}
    if isinstance(e, Const):
        return {_UNIT: float(e.value)} if e.value != 0.0 else {}
    if isinstance(e, Add):
        return collect_terms(mc for t in e.terms for mc in _expand(t).items())
    if isinstance(e, Mul):
        return functools.reduce(_mul_forms, map(_expand, e.factors), {_UNIT: 1.0})
    if isinstance(e, Pow):
        out = {_UNIT: 1.0}
        base = _expand(e.base)
        k = e.exponent
        while k:  # square-and-multiply
            if k & 1:
                out = _mul_forms(out, base)
            k >>= 1
            if k:
                base = _mul_forms(base, base)
        return out
    if isinstance(e, Func):
        atom = FuncAtom(e.name, expand_polynomial(e.arg))
        return {Monomial((), ((atom, 1),)): 1.0}
    raise TypeError(f"not an expression node: {e!r}")


def expand_polynomial(e) -> PolynomialForm:
    """Expand to the canonical commutative form; function nodes stay atomic.

    Monomials are ordered lexicographically by variable name, so two
    algebraically equal expressions expand to identical forms.  A form is
    already canonical and comes back unchanged.
    """
    if isinstance(e, PolynomialForm):
        return e
    d = _expand(e)
    terms = tuple(sorted(d.items(), key=lambda kv: kv[0].sort_key()))
    return PolynomialForm(terms)


def evaluate(e, assignment: Mapping[str, object]):
    """Evaluate on numbers or numpy arrays of outcome values."""
    if isinstance(e, Var):
        try:
            return assignment[e.name]
        except KeyError:
            raise UnboundVariable(f"no value for variable {e.name!r}") from None
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Add):
        total = evaluate(e.terms[0], assignment)
        for t in e.terms[1:]:
            total = total + evaluate(t, assignment)
        return total
    if isinstance(e, Mul):
        prod = evaluate(e.factors[0], assignment)
        for f in e.factors[1:]:
            prod = prod * evaluate(f, assignment)
        return prod
    if isinstance(e, Pow):
        return evaluate(e.base, assignment) ** e.exponent
    if isinstance(e, Func):
        return _FUNCTIONS[e.name][1](evaluate(e.arg, assignment))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# measurement bindings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementBinding:
    """A named measurement: an operator, optionally confined to one factor."""

    name: str
    operator: HermitianOperator
    subsystem: int | None = None


class BindingSet:
    """Named measurements sharing one composite Hilbert space.

    `bindings` maps each name to a `HermitianOperator` or to an
    `(operator, subsystem)` pair.  Bindings without a subsystem act on the
    full space; bindings with a subsystem index are embedded by tensoring
    with identities, which requires `factor_dims`.  Embedded operators and
    pairwise commutation tests are cached.
    """

    def __init__(self, bindings: Mapping, factor_dims: Iterable[int] | None = None):
        self._bindings: dict[str, MeasurementBinding] = {}
        for name, value in bindings.items():
            if isinstance(value, HermitianOperator):
                value = (value, None)
            elif not (isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], HermitianOperator)):
                raise TypeError(
                    f"binding {name!r} must be a HermitianOperator or an (operator, subsystem) pair, "
                    f"got {type(value).__name__}"
                )
            self._bindings[name] = MeasurementBinding(name, *value)
        self.factor_dims = None if factor_dims is None else read_factor_dims(factor_dims)

        dims = set() if self.factor_dims is None else {int(np.prod(self.factor_dims))}
        for b in self._bindings.values():
            if b.subsystem is None:
                dims.add(b.operator.dim)
            elif self.factor_dims is None:
                raise DimMismatch(f"binding {b.name!r} names a subsystem but no factor dims were given")
        if len(dims) > 1:
            raise DimMismatch(f"bindings disagree on the total dimension: {sorted(dims)}")
        self.dim = dims.pop() if dims else 0
        self._embedded: dict[str, HermitianOperator] = {}
        self._commute: dict[tuple[str, str], bool] = {}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._bindings)

    def binding(self, name: str) -> MeasurementBinding:
        try:
            return self._bindings[name]
        except KeyError:
            raise UnboundVariable(f"variable {name!r} is not bound") from None

    def embedded(self, name: str) -> HermitianOperator:
        if name not in self._embedded:
            b = self.binding(name)
            if b.subsystem is None:
                self._embedded[name] = b.operator
            else:
                self._embedded[name] = embed_operator(b.operator, self.factor_dims, b.subsystem)
        return self._embedded[name]

    def commute(self, a: str, b: str) -> bool:
        key = (a, b) if a < b else (b, a)
        if key not in self._commute:
            ma, mb = self.embedded(a).matrix, self.embedded(b).matrix
            bound = COMMUTATION_RTOL * max_norm(ma) * max_norm(mb)
            self._commute[key] = max_norm(commutator(ma, mb)) <= bound
        return self._commute[key]

    def noncommuting_pairs(self, names: Sequence[str]) -> Iterator[tuple[str, str]]:
        """The pairs (a, b) of `names` that do not commute, a before b in `names`, found lazily.

        Every name is bound first, so an unbound one raises before any commutator is formed,
        and a caller that stops at the first pair forms no commutator past it.
        """
        names = tuple(names)
        for name in names:
            self.binding(name)
        return ((a, b) for i, a in enumerate(names) for b in names[i + 1:] if not self.commute(a, b))

    # JSON form: {name: operator-dict | {"operator": ..., "subsystem": k}},
    # optionally wrapped as {"bindings": ..., "factor_dims": [...]}.
    @classmethod
    def from_dict(cls, d: dict) -> "BindingSet":
        if not isinstance(d, dict):
            raise TypeError(f"a bindings document must be a JSON object, got {type(d).__name__}")
        factor_dims = None
        entries = d
        if "bindings" in d and not ("re" in d or "operator" in d):
            entries = d["bindings"]
            factor_dims = d.get("factor_dims")
            if not isinstance(entries, dict):
                raise TypeError(f"a wrapped \"bindings\" value must be a JSON object, got {type(entries).__name__}")
        items = {}
        for name, value in entries.items():
            op = operator_from_dict(value if "re" in value else value["operator"])
            sub = None if "re" in value else value.get("subsystem")
            items[name] = (op, None if sub is None else whole_number(sub, "subsystem"))
        return cls(items, factor_dims)

    def to_dict(self) -> dict:
        entries = {}
        for name, b in self._bindings.items():
            op = operator_to_dict(b.operator)
            entries[name] = op if b.subsystem is None else {"operator": op, "subsystem": b.subsystem}
        if self.factor_dims is None:
            return entries
        return {"bindings": entries, "factor_dims": list(self.factor_dims)}


# ---------------------------------------------------------------------------
# simplicity and quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    offending_pairs: tuple[tuple[str, str], ...]


def classify_simple(e, bindings: BindingSet) -> SimplicityVerdict:
    """Check that no monomial multiplies outcomes of non-commuting operators.

    Variables inside function arguments count as multiplied into their
    monomial, since the function's power series multiplies them out.  `e`
    may be an expression or its expanded `PolynomialForm`.
    """
    form = expand_polynomial(e)
    offending: set[tuple[str, str]] = set()
    for m, _ in form.terms:
        offending.update(bindings.noncommuting_pairs(sorted(m.names())))
    pairs = tuple(sorted(offending))
    return SimplicityVerdict(not pairs, pairs)


def quantize(e, bindings: BindingSet) -> HermitianOperator:
    """Operator representing a simple expression.

    Monomials become products of commuting embedded operators (order is
    immaterial and fixed to the canonical one), function factors go through
    the spectral calculus of their single-variable argument, and sums add.
    `e` is expanded once (a `PolynomialForm` is used as it is).
    """
    form = expand_polynomial(e)
    verdict = classify_simple(form, bindings)
    if not verdict.simple:
        raise NonSimpleExpression(verdict.offending_pairs)
    if bindings.dim == 0:
        raise UnboundVariable("cannot fix a dimension from an empty binding set")
    n = bindings.dim
    total = np.zeros((n, n), dtype=complex)
    for m, c in form.terms:
        factors = [np.linalg.matrix_power(bindings.embedded(name).matrix, k) for name, k in m.var_powers]
        for f, k in m.func_powers:
            op = _spectral(f.name, f.arg.variable_names(), lambda: quantize(f.arg, bindings))
            factors.append(np.linalg.matrix_power(op.matrix, k))
        first, *rest = factors or [np.eye(n, dtype=complex)]  # c times the first factor: no product with I
        total += functools.reduce(np.matmul, rest, c * first)
    return hermitian_from_matrix((total + total.conj().T) / 2)


def _spectral(name: str, arg_names: frozenset[str], inner: Callable[[], HermitianOperator]) -> HermitianOperator:
    """Op(name(arg)) = name(Op(arg)); `inner()` builds Op(arg) once arg is known to name one variable at most."""
    if len(arg_names) > 1:
        raise UnsupportedExpression(
            f"{name}() argument mixes variables {sorted(arg_names)}; "
            "the spectral calculus applies to one operator at a time"
        )
    return apply_spectral_function(inner(), _FUNCTIONS[name][0])


def quantize_hermitized(e, bindings: BindingSet) -> HermitianOperator:
    """Symmetrized-product quantization; UNSOUND, kept for the demonstration.

    Every explicit product falls back to X, Y -> (XY + YX)/2, folded from the
    right (A*B*C is A o (B o C)), so the operator depends on how the
    expression groups its factors.  That grouping dependence is exactly the
    inconsistency exhibited by `demonstrate_inconsistency`.
    """
    m = _hermitized_matrix(e, bindings)
    return hermitian_from_matrix((m + m.conj().T) / 2)


def _hermitized_matrix(e, bindings: BindingSet) -> np.ndarray:
    n = bindings.dim
    if isinstance(e, Var):
        return bindings.embedded(e.name).matrix
    if isinstance(e, Const):
        return np.eye(n, dtype=complex) * e.value
    if isinstance(e, Add):
        return sum(_hermitized_matrix(t, bindings) for t in e.terms)
    if isinstance(e, Mul):
        *rest, last = (_hermitized_matrix(factor, bindings) for factor in e.factors)
        return functools.reduce(lambda y, x: (x @ y + y @ x) / 2, reversed(rest), last)
    if isinstance(e, Pow):
        return np.linalg.matrix_power(_hermitized_matrix(e.base, bindings), e.exponent)
    if isinstance(e, Func):
        return _spectral(
            e.name, variables(e.arg), lambda: hermitian_from_matrix(_hermitized_matrix(e.arg, bindings))
        ).matrix
    raise TypeError(f"not an expression node: {e!r}")


@dataclass(frozen=True)
class InconsistencyReport:
    """Two symmetrized-product operators for A^2 B and their disagreement."""

    nested: HermitianOperator  # grouped as A * (A * B)
    flat: HermitianOperator  # grouped as (A^2) * B
    difference: np.ndarray
    difference_norm: float


def demonstrate_inconsistency(a: HermitianOperator, b: HermitianOperator) -> InconsistencyReport:
    """Quantize A^2 B by both groupings of the symmetrized-product rule.

    For non-commuting inputs the two operators differ, which is why that rule
    is rejected.  Raises CommutingInput when the demonstration would be
    vacuous.
    """
    bindings = BindingSet({"A": a, "B": b})
    if bindings.commute("A", "B"):
        raise CommutingInput("[A, B] = 0; both groupings coincide")
    nested = quantize_hermitized(parse("A*(A*B)"), bindings)
    flat = quantize_hermitized(parse("A^2*B"), bindings)
    diff = nested.matrix - flat.matrix
    return InconsistencyReport(nested, flat, diff, max_norm(diff))
