import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcp import expressions
from avcp.errors import DimTooSmall, NonSimpleInput, UnboundVariable, UnsupportedExpression
from avcp.kinematics import build_fock
from avcp.operators import make_rng
from avcp.poisson import (
    CanonicalPolynomial,
    check_dirac_rule,
    counterexample_report,
    parse_canonical,
    poisson_bracket,
)

# --- independent oracle: normal-ordered operator algebra with [x, p] = i*alpha.
# Operators are dicts {(xdeg, pdeg, alphapow): coeff} meaning
# sum c * alpha^apow * x^a p^b; the reordering identity
# p^m x^n = sum_k (-i alpha)^k k! C(m,k) C(n,k) x^(n-k) p^(m-k)
# keeps every coefficient dyadic, so the algebra is exact.  No matrices.


def _no_mul(a, b):
    out = {}
    for (a1, b1, e1), c1 in a.items():
        for (a2, b2, e2), c2 in b.items():
            for k in range(0, min(b1, a2) + 1):
                coeff = (
                    c1
                    * c2
                    * (-1j) ** k
                    * math.factorial(k)
                    * math.comb(b1, k)
                    * math.comb(a2, k)
                )
                key = (a1 + a2 - k, b1 + b2 - k, e1 + e2 + k)
                out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v != 0}


def _no_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v != 0}


def _oracle_counterexample_gap(gamma):
    """[x^3, gamma p^3] - (9 i gamma alpha / 2)(x^2 p^2 + p^2 x^2), exactly.

    Returns {(xdeg, pdeg, alpha power): coefficient}.
    """
    x3, p3 = {(3, 0, 0): 1.0}, {(0, 3, 0): gamma}
    x2, p2 = {(2, 0, 0): 1.0}, {(0, 2, 0): 1.0}
    comm = _no_sub(_no_mul(x3, p3), _no_mul(p3, x3))
    sym = _no_mul(x2, p2)
    for k, v in _no_mul(p2, x2).items():
        sym[k] = sym.get(k, 0) + v
    herm = {(a, b, e + 1): 9j * gamma / 2 * v for (a, b, e), v in sym.items()}
    return _no_sub(comm, herm)


def test_oracle_gap_is_pure_constant():
    for gamma in (1.0, 2.0, -1.5):
        gap = _oracle_counterexample_gap(gamma)
        assert set(gap) == {(0, 0, 3)}  # a pure constant times alpha^3
        assert gap[(0, 0, 3)] == 3j * gamma


# --- symbolic brackets --------------------------------------------------------


def test_canonical_pair_brackets():
    x = parse_canonical("x")
    p = parse_canonical("p")
    assert poisson_bracket(x, p) == parse_canonical("1")
    assert poisson_bracket(x, p * 2.5) == parse_canonical("2.5")


def test_textbook_cubic_bracket():
    f = parse_canonical("x^3")
    h = parse_canonical("p^3") * Fraction(7, 3)
    want = parse_canonical("x^2*p^2") * 9 * Fraction(7, 3)
    assert poisson_bracket(f, h) == want


def test_kronecker_pairs():
    for i in range(2):
        for j in range(2):
            qi = CanonicalPolynomial.coordinate("x", i, 2)
            pj = CanonicalPolynomial.coordinate("p", j, 2)
            got = poisson_bracket(qi, pj)
            if i == j:
                assert got == CanonicalPolynomial.constant(1, 2)
            else:
                assert got.is_zero()


_coeffs = st.integers(-4, 4)
_exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def _polys():
    return st.dictionaries(_exps, _coeffs, min_size=1, max_size=3).map(
        lambda d: CanonicalPolynomial.from_terms(d, 2)
    )


@given(_polys(), _polys())
def test_bracket_antisymmetry_exact(f, h):
    assert (poisson_bracket(f, h) + poisson_bracket(h, f)).is_zero()


@given(_polys(), _polys(), _polys())
def test_bracket_leibniz_exact(f, g, h):
    lhs = poisson_bracket(f * g, h)
    rhs = f * poisson_bracket(g, h) + poisson_bracket(f, h) * g
    assert (lhs - rhs).is_zero()


@given(_polys(), _polys(), _polys())
def test_bracket_jacobi_exact(f, g, h):
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.is_zero()


def test_bracket_axioms_on_seeded_randoms():
    rng = make_rng(42)

    def rand_poly():
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            exps = tuple(int(rng.integers(0, 3)) for _ in range(4))
            terms[exps] = int(rng.integers(-5, 6))
        return CanonicalPolynomial.from_terms(terms, 2)

    for _ in range(100):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()
        assert (
            poisson_bracket(f * g, h)
            - f * poisson_bracket(g, h)
            - poisson_bracket(f, h) * g
        ).is_zero()
        jac = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert jac.is_zero()


# --- parsing ---------------------------------------------------------------------


def test_parse_canonical_aliases():
    assert parse_canonical("x1 + p1") == parse_canonical("x + p")


def test_parse_canonical_rejects_functions():
    with pytest.raises(UnsupportedExpression):
        parse_canonical("cos(x)")


def test_parse_canonical_rejects_unknown_names():
    with pytest.raises(UnboundVariable):
        parse_canonical("x + y")
    with pytest.raises(UnboundVariable):
        parse_canonical("x2", n_pairs=1)


def test_polynomial_evaluate_and_to_expr():
    poly = parse_canonical("2*x^2*p - 3*p + 1")
    assert poly.evaluate([2.0], [0.5]) == pytest.approx(2 * 4 * 0.5 - 1.5 + 1)
    again = parse_canonical("x") * 0 + poly  # exercise arithmetic
    assert again == poly


def test_repr_tells_unequal_polynomials_apart():
    third = parse_canonical("x") * Fraction(1, 3)
    near = parse_canonical("0.3333333333333333*x")
    assert third != near
    assert repr(third) != repr(near)
    assert "Fraction(1, 3)" in repr(third)


def test_repr_is_equal_exactly_when_polynomials_are_equal():
    rng = make_rng(13)
    coeffs = (Fraction(1, 3), 0.3333333333333333, 0.1, Fraction(1, 10), 2, -2.5, Fraction(-5, 2))
    polys = [
        CanonicalPolynomial.from_terms(
            {(int(rng.integers(0, 2)), int(rng.integers(0, 2))): coeffs[int(rng.integers(0, len(coeffs)))]
             for _ in range(int(rng.integers(1, 3)))},
            1,
        )
        for _ in range(60)
    ]
    for p in polys:
        for q in polys:
            assert (repr(p) == repr(q)) == (p == q)


# --- bracket-commutator rule -----------------------------------------------------


def test_dirac_rule_harmonic_oscillator():
    rep = build_fock(64)
    f = parse_canonical("x")
    h = parse_canonical("p^2") * Fraction(1, 2) + parse_canonical("x^2") * Fraction(1, 2)
    report = check_dirac_rule(f, h, rep)
    assert report.bracket == parse_canonical("p") * Fraction(1, 1)
    assert report.passed
    assert report.residual <= 1e-9 * report.scale


def test_dirac_rule_recovers_canonical_commutator():
    rep = build_fock(64)
    report = check_dirac_rule(parse_canonical("x"), parse_canonical("p") * 2.0, rep)
    # {x, 2p} = 2, so the commutator must be 2*i*alpha on the safe block
    assert report.passed


def test_dirac_rule_rejects_nonsimple_bracket():
    rep = build_fock(32)
    with pytest.raises(NonSimpleInput) as err:
        check_dirac_rule(parse_canonical("x^3"), parse_canonical("p^3"), rep)
    assert "{f,h}" in err.value.failures
    assert ("p", "x") in err.value.failures["{f,h}"]


def test_dirac_rule_rejects_nonsimple_input_polynomial():
    rep = build_fock(32)
    with pytest.raises(NonSimpleInput) as err:
        check_dirac_rule(parse_canonical("x*p"), parse_canonical("x"), rep)
    assert "f" in err.value.failures


@pytest.mark.parametrize(
    "f, h, failures", [("x^2", "p", None), ("x^3", "p^3", {"{f,h}": (("p", "x"),)})], ids=["simple", "x3_p3"]
)
def test_dirac_rule_classifies_each_of_f_h_and_the_bracket_once(monkeypatch, f, h, failures):
    calls, classify_simple = [], expressions.classify_simple

    def counting(*args):
        calls.append(args)
        return classify_simple(*args)

    monkeypatch.setattr(expressions, "classify_simple", counting)
    if failures is None:
        assert check_dirac_rule(parse_canonical(f), parse_canonical(h), build_fock(32)).passed
    else:
        with pytest.raises(NonSimpleInput) as err:
            check_dirac_rule(parse_canonical(f), parse_canonical(h), build_fock(32))
        assert err.value.failures == failures
    assert len(calls) == 3


def test_dirac_rule_residual_improves_with_levels():
    f = parse_canonical("x^2")
    h = parse_canonical("p")
    residuals = []
    for n in (16, 32, 64):
        r = check_dirac_rule(f, h, build_fock(n))
        residuals.append(r.residual / r.scale)
        assert r.passed
    assert all(a >= b or b <= 1e-12 for a, b in zip(residuals, residuals[1:]))


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_dirac_rule_alpha_scaling(alpha):
    rep = build_fock(48, alpha)
    report = check_dirac_rule(parse_canonical("x"), parse_canonical("p^2"), rep)
    assert report.passed


# --- the x^3 / p^3 counterexample ---------------------------------------------------


def test_counterexample_gap_matches_normal_ordering_oracle():
    coeff = _oracle_counterexample_gap(1.0)[(0, 0, 3)]
    for alpha in (1.0, 0.7):
        rep = build_fock(64, alpha)
        ce = counterexample_report(1.0, rep)
        want = coeff * alpha**3
        assert ce.scalar == pytest.approx(want, abs=1e-8 * max(1.0, alpha**3))
        assert ce.off_scalar_residual <= 1e-8
        assert ce.scalar_magnitude == pytest.approx(3 * alpha**3, abs=1e-8)


def test_counterexample_zero_coupling():
    ce = counterexample_report(0.0, build_fock(32))
    assert ce.scalar == 0
    assert ce.off_scalar_residual == 0


def test_counterexample_linear_in_gamma():
    rep = build_fock(48)
    c1 = counterexample_report(1.0, rep)
    c2 = counterexample_report(2.0, rep)
    assert c2.scalar == pytest.approx(2 * c1.scalar, rel=1e-9)


def test_counterexample_needs_enough_levels():
    with pytest.raises(DimTooSmall):
        counterexample_report(1.0, build_fock(8))
