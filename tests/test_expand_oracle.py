"""Slow reference for the canonical polynomial expansion.

`_reference_merge`, `_reference_mul_forms`, `_reference_expand` and
`_reference_expand_polynomial` keep the earlier expansion verbatim: each call
site merged like terms through its own `_merge` helper.  The library now routes
sums and products through one accumulator (`expressions.collect_terms`, shared
with `avcp.poisson`), so these tests require the same terms in the same float
bits (`repr` equality), on hypothesis ASTs with float constants and on a corpus
whose like terms cancel exactly and then come back.  They also pin how often
`quantize` and `check_dirac_rule` expand: once per expression.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcp import expressions as ex
from avcp.expressions import (
    Add,
    BindingSet,
    Const,
    Func,
    FuncAtom,
    Monomial,
    Mul,
    PolynomialForm,
    Pow,
    Var,
    _mul_monomials,
    collect_terms,
    parse,
    quantize,
)
from avcp.kinematics import build_fock
from avcp.operators import hermitian_from_matrix, make_rng, random_hermitian
from avcp.poisson import CanonicalPolynomial, check_dirac_rule, parse_canonical

_UNIT = Monomial((), ())


def _reference_merge(into: dict, m: Monomial, coeff: float):
    c = into.get(m, 0.0) + coeff
    if c == 0.0:
        into.pop(m, None)
    else:
        into[m] = c


def _reference_mul_forms(a: dict, b: dict) -> dict:
    out: dict[Monomial, float] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _reference_merge(out, _mul_monomials(ma, mb), ca * cb)
    return out


def _reference_expand(e) -> dict:
    if isinstance(e, Var):
        return {Monomial(((e.name, 1),), ()): 1.0}
    if isinstance(e, Const):
        return {_UNIT: float(e.value)} if e.value != 0.0 else {}
    if isinstance(e, Add):
        out: dict[Monomial, float] = {}
        for t in e.terms:
            for m, c in _reference_expand(t).items():
                _reference_merge(out, m, c)
        return out
    if isinstance(e, Mul):
        out = {_UNIT: 1.0}
        for f in e.factors:
            out = _reference_mul_forms(out, _reference_expand(f))
        return out
    if isinstance(e, Pow):
        out = {_UNIT: 1.0}
        base = _reference_expand(e.base)
        k = e.exponent
        while k:  # square-and-multiply
            if k & 1:
                out = _reference_mul_forms(out, base)
            k >>= 1
            if k:
                base = _reference_mul_forms(base, base)
        return out
    if isinstance(e, Func):
        atom = FuncAtom(e.name, _reference_expand_polynomial(e.arg))
        return {Monomial((), ((atom, 1),)): 1.0}
    raise TypeError(f"not an expression node: {e!r}")


def _reference_expand_polynomial(e) -> PolynomialForm:
    d = _reference_expand(e)
    terms = tuple(sorted(d.items(), key=lambda kv: kv[0].sort_key()))
    return PolynomialForm(terms)


def _same_as_reference(e) -> bool:
    new, ref = ex.expand_polynomial(e), _reference_expand_polynomial(e)
    return new == ref and repr(new.terms) == repr(ref.terms)


# --- hypothesis ASTs with float constants ------------------------------------------------

_names = st.sampled_from(["A", "B", "C"])
_floats = st.one_of(
    st.sampled_from([0.1, 0.2, -0.3, 0.3, 2.5, -1.0, 1.0, 0.0, 1 / 3]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def _exprs(depth: int):
    leaf = st.one_of(_names.map(Var), _floats.map(Const))
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.lists(sub, min_size=2, max_size=4).map(lambda ts: Add(tuple(ts))),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(ex.FUNCTION_NAMES), sub).map(lambda t: Func(*t)),
    )


@given(_exprs(3))
def test_expansion_matches_reference_bit_for_bit(e):
    assert _same_as_reference(e)


@given(_exprs(3))
def test_sum_of_an_expression_and_its_negation_matches_reference(e):
    # every like term cancels exactly, then `e` comes back
    assert _same_as_reference(Add((e, Mul((Const(-1.0), e)), e)))


@given(_exprs(3))
def test_canonical_form_is_a_fixed_point_of_to_expr_and_expand(e):
    # why a function atom's argument needs no re-expansion before it is quantized
    form = ex.expand_polynomial(e)
    again = ex.expand_polynomial(form.to_expr())
    assert again == form and repr(again.terms) == repr(form.terms)
    assert ex.expand_polynomial(form) is form


@pytest.mark.parametrize(
    "text",
    [
        "A*B - A*B + A*B",
        "(A - B)*(A + B) + B^2",
        "(A+B)^3 - (A+B)^3 + A",
        "0.1*A + 0.2*A - 0.3*A",
        "0.1*A + 0.2*A - 0.3*A + 0.1*A",
        "cos(A - A + B) + cos(B) - 2*cos(B)",
        "(0.1*A + 0.7)^3 - 0.001*A^3",
        # like terms arrive in an order that changes the float sum if keys move
        "(0.3*B + 0.6)*(0.9*A + 0.7*B + 0.3)*(0.2*A + 0.4*B + 0.2)",
    ],
)
def test_cancellation_corpus_matches_reference(text):
    assert _same_as_reference(parse(text))


def test_seeded_products_of_float_sums_match_reference():
    rng = make_rng(29)
    for _ in range(300):
        factors = []
        for _ in range(int(rng.integers(2, 5))):
            terms = [f"{int(rng.integers(1, 10)) / 10}*{v}" for v in ("A", "B") if rng.random() < 0.8]
            factors.append("(" + " + ".join(terms + [str(int(rng.integers(1, 10)) / 10)]) + ")")
        text = "*".join(factors)
        assert _same_as_reference(parse(text)), text


def test_cancellation_then_reentry_keeps_the_term():
    (m, c), = ex.expand_polynomial(parse("A*B - A*B + A*B")).terms
    assert m.var_powers == (("A", 1), ("B", 1)) and c == 1.0
    assert ex.expand_polynomial(parse("(A+B)^3 - (A+B)^3 + A")).terms == (
        (Monomial((("A", 1),), ()), 1.0),
    )


# --- the accumulator itself ---------------------------------------------------------------


def test_collect_terms_drops_a_zero_running_sum_and_restarts_the_key():
    got = collect_terms([("a", 1.0), ("b", 2.0), ("a", -1.0), ("c", 0.25), ("a", 0.5)])
    assert got == {"b": 2.0, "c": 0.25, "a": 0.5}
    assert list(got) == ["b", "c", "a"]  # "a" re-entered after it was dropped
    # a key that is added to keeps its place, so later products iterate in the same order
    assert list(collect_terms([("a", 1.0), ("b", 2.0), ("a", 1.0)])) == ["a", "b"]


def test_collect_terms_adds_in_the_order_given():
    # float addition is not associative; the accumulator must not reorder it
    assert collect_terms([("k", 0.1), ("k", 0.2), ("k", 0.3)]) == {"k": (0.1 + 0.2) + 0.3}
    assert collect_terms([("k", 0.3), ("k", 0.2), ("k", 0.1)]) == {"k": (0.3 + 0.2) + 0.1}
    assert collect_terms([("k", 0.1), ("k", 0.2), ("k", -0.3)]) == {"k": 0.1 + 0.2 - 0.3}


def test_collect_terms_keeps_exact_fractions():
    got = collect_terms([("k", Fraction(1, 3)), ("j", Fraction(1, 2)), ("k", Fraction(-1, 3))])
    assert got == {"j": Fraction(1, 2)}
    assert type(got["j"]) is Fraction
    assert collect_terms([]) == {}


# --- each expression is expanded once -----------------------------------------------------


def _count_expansions(monkeypatch) -> list:
    calls = []
    original = ex.expand_polynomial

    def counting(e):
        calls.append(isinstance(e, PolynomialForm))
        return original(e)

    monkeypatch.setattr(ex, "expand_polynomial", counting)
    return calls


def test_quantize_expands_each_expression_once(monkeypatch):
    rng = make_rng(3)
    bindings = BindingSet({"A": random_hermitian(3, rng)})
    e = parse("cos(A) + sin(A)^2 + A")
    want = quantize(e, bindings)
    calls = _count_expansions(monkeypatch)
    got = quantize(e, bindings)
    # the whole expression, then the arguments of cos and sin while it expands
    assert calls.count(False) == 3
    assert (got.matrix == want.matrix).all()


def test_check_dirac_rule_converts_each_polynomial_once(monkeypatch):
    f, h = parse_canonical("x"), parse_canonical("p^2 + x^2")
    rep = build_fock(24)
    calls = []
    original = CanonicalPolynomial.to_expr

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CanonicalPolynomial, "to_expr", counting)
    expansions = _count_expansions(monkeypatch)
    report = check_dirac_rule(f, h, rep)
    assert report.passed
    assert len(calls) == 3  # f, h and {f, h}
    assert expansions.count(False) == 3


def test_quantize_accepts_an_expanded_form():
    a = hermitian_from_matrix([[1.0, 0.5], [0.5, -1.0]])
    bindings = BindingSet({"A": a})
    e = parse("exp(0.1*A + 0.2*A - 0.3*A + A) + A^2")
    assert (quantize(ex.expand_polynomial(e), bindings).matrix == quantize(e, bindings).matrix).all()
