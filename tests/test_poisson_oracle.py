"""Slow reference for the exact Poisson algebra.

`_ReferencePolynomial` keeps the earlier `CanonicalPolynomial` arithmetic
verbatim: every operation merged like terms in its own dict with a
`Fraction(0)` default and handed the result back to `from_terms`, which
re-validated and re-coerced it.  The library now keeps integer numerators over one
common denominator and routes every site through one accumulator
(`poisson._collect`, over `expressions.collect_terms`); these tests require the
same sorted `Fraction` terms, term for term, and the same `==`, `hash` and
`repr`, on seeded random inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import pytest

from avcp import expressions as ex
from avcp.errors import UnboundVariable, UnsupportedExpression
from avcp.operators import make_rng
from avcp.poisson import CanonicalPolynomial, parse_canonical, poisson_bracket

_Exponents = tuple


def _coerce(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


@dataclass(frozen=True)
class _ReferencePolynomial:
    n_pairs: int
    terms: tuple[tuple[_Exponents, Fraction], ...]

    @classmethod
    def from_terms(cls, terms: Mapping[_Exponents, object], n_pairs: int) -> "_ReferencePolynomial":
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(k) for k in exps)
            if len(exps) != 2 * n_pairs or any(k < 0 for k in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n_pairs} pair(s)")
            c = _coerce(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        return cls(n_pairs, tuple(sorted((e, c) for e, c in clean.items() if c != 0)))

    @classmethod
    def zero(cls, n_pairs: int = 1) -> "_ReferencePolynomial":
        return cls(n_pairs, ())

    @classmethod
    def constant(cls, c, n_pairs: int = 1) -> "_ReferencePolynomial":
        return cls.from_terms({(0,) * (2 * n_pairs): c}, n_pairs)

    def _dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other):
        other = self._match(other)
        d = self._dict()
        for e, c in other.terms:
            d[e] = d.get(e, Fraction(0)) + c
        return _ReferencePolynomial.from_terms(d, self.n_pairs)

    def __sub__(self, other):
        other = self._match(other)
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return _ReferencePolynomial.from_terms(
                {e: c * _coerce(other) for e, c in self.terms}, self.n_pairs
            )
        other = self._match(other)
        out: dict[_Exponents, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return _ReferencePolynomial.from_terms(out, self.n_pairs)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = _ReferencePolynomial.constant(1, self.n_pairs)
        for _ in range(k):
            out = out * self
        return out

    def _match(self, other) -> "_ReferencePolynomial":
        if isinstance(other, (int, float, Fraction)):
            return _ReferencePolynomial.constant(other, self.n_pairs)
        if other.n_pairs != self.n_pairs:
            raise ValueError("polynomials use different numbers of canonical pairs")
        return other

    def differentiate(self, kind: str, index: int = 0) -> "_ReferencePolynomial":
        pos = index + (self.n_pairs if kind == "p" else 0)
        out: dict[_Exponents, Fraction] = {}
        for e, c in self.terms:
            if e[pos] == 0:
                continue
            key = tuple(k - 1 if i == pos else k for i, k in enumerate(e))
            out[key] = out.get(key, Fraction(0)) + c * e[pos]
        return _ReferencePolynomial.from_terms(out, self.n_pairs)


def _reference_parse_canonical(text: str, n_pairs: int = 1) -> _ReferencePolynomial:
    form = ex.expand_polynomial(ex.parse(text))
    allowed: dict[str, int] = {}
    for i in range(n_pairs):
        allowed[f"x{i + 1}"] = i
        allowed[f"p{i + 1}"] = n_pairs + i
    if n_pairs == 1:
        allowed["x"] = 0
        allowed["p"] = 1
    terms: dict[_Exponents, Fraction] = {}
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
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + _coerce(c)
    return _ReferencePolynomial.from_terms(terms, n_pairs)


def _reference_bracket(f: _ReferencePolynomial, h: _ReferencePolynomial) -> _ReferencePolynomial:
    if f.n_pairs != h.n_pairs:
        raise ValueError("polynomials use different numbers of canonical pairs")
    out = _ReferencePolynomial.zero(f.n_pairs)
    for i in range(f.n_pairs):
        out = out + f.differentiate("x", i) * h.differentiate("p", i)
        out = out - h.differentiate("x", i) * f.differentiate("p", i)
    return out


# --- seeded inputs ---------------------------------------------------------------------

_FLOATS = (0.1, 2.5, -3.0)


def _coefficient(rng):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return int(rng.integers(-5, 6))  # zero included: from_terms must drop it
    if kind == 1:
        return Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 7)))
    if kind == 2:
        return _FLOATS[int(rng.integers(0, len(_FLOATS)))]
    return -3


def _random_terms(rng, n_pairs: int, max_deg: int = 2) -> dict:
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        exps = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(2 * n_pairs))
        terms[exps] = _coefficient(rng)
    return terms


def _pair(terms: dict, n_pairs: int):
    return CanonicalPolynomial.from_terms(terms, n_pairs), _ReferencePolynomial.from_terms(terms, n_pairs)


def _same(new: CanonicalPolynomial, ref: _ReferencePolynomial) -> bool:
    # repr also catches an int or float where the reference holds a Fraction
    return (
        isinstance(new, CanonicalPolynomial)
        and new.n_pairs == ref.n_pairs
        and new.terms == ref.terms
        and repr(new.terms) == repr(ref.terms)
        and hash(new) == hash(ref)
        and repr(new) == repr(ref).replace("_ReferencePolynomial", "CanonicalPolynomial", 1)
    )


def _arithmetic_cases(rng, n_pairs: int):
    """Yield (label, new result, reference result) for one random draw."""
    f_terms, g_terms = _random_terms(rng, n_pairs), _random_terms(rng, n_pairs)
    # a g that cancels part or all of f exercises the zero drop after summing
    cancel_terms = {e: -_coerce(c) for e, c in f_terms.items()}
    if rng.integers(0, 2):
        cancel_terms.update(_random_terms(rng, n_pairs))
    (f, rf), (g, rg), (c, rc) = _pair(f_terms, n_pairs), _pair(g_terms, n_pairs), _pair(cancel_terms, n_pairs)
    scalar = _coefficient(rng)
    k = int(rng.integers(0, 5))
    i = int(rng.integers(0, n_pairs))
    yield "from_terms", f, rf
    yield "f + g", f + g, rf + rg
    yield "f - g", f - g, rf - rg
    yield "f - f", f - f, rf - rf
    yield "f + cancel", f + c, rf + rc
    yield "f + scalar", f + scalar, rf + scalar
    yield "f * g", f * g, rf * rg
    yield "f * cancel", f * c, rf * rc
    yield "f * scalar", f * scalar, rf * scalar
    yield "scalar * f", scalar * f, scalar * rf
    yield f"f ** {k}", f**k, rf**k
    yield f"d/dx{i} f", f.differentiate("x", i), rf.differentiate("x", i)
    yield f"d/dp{i} f", f.differentiate("p", i), rf.differentiate("p", i)
    yield "{f, g}", poisson_bracket(f, g), _reference_bracket(rf, rg)
    yield "{f, f + cancel}", poisson_bracket(f, f + c), _reference_bracket(rf, rf + rc)


def _mismatches(cases) -> tuple[int, list]:
    count, bad = 0, []
    for label, new, ref in cases:
        count += 1
        if not _same(new, ref):
            bad.append((label, new.terms, ref.terms))
    return count, bad


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_arithmetic_matches_reference(n_pairs):
    rng = make_rng(1000 + n_pairs)
    count, bad = 0, []
    for _ in range(60):
        c, b = _mismatches(_arithmetic_cases(rng, n_pairs))
        count += c
        bad += b
    assert count == 900
    assert not bad, bad[:3]


# thirds and twelfths, binary floats with 2^k denominators (0.1 is 3602879701896397 / 2^55), integers
_MIXED = (Fraction(1, 3), Fraction(-5, 6), Fraction(7, 12), 0.1, 0.375, -2.5, 1e-3, 3, -1)


def _mixed_terms(rng, n_pairs: int) -> dict:
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        exps = tuple(int(rng.integers(0, 3)) for _ in range(2 * n_pairs))
        terms[exps] = _MIXED[int(rng.integers(0, len(_MIXED)))]
    return terms


def _mixed_cases(rng, n_pairs: int):
    """Yield (label, new, reference) over coefficients with mixed denominators, sums that cancel to zero included."""
    (f, rf), (g, rg) = _pair(_mixed_terms(rng, n_pairs), n_pairs), _pair(_mixed_terms(rng, n_pairs), n_pairs)
    scalar = _MIXED[int(rng.integers(0, len(_MIXED)))]
    k, i = int(rng.integers(0, 4)), int(rng.integers(0, n_pairs))
    yield "from_terms", f, rf
    yield "constant", CanonicalPolynomial.constant(scalar, n_pairs), _ReferencePolynomial.constant(scalar, n_pairs)
    yield "f + g", f + g, rf + rg
    yield "f - g", f - g, rf - rg
    yield "(f + g) - g - f", (f + g) - g - f, (rf + rg) - rg - rf
    yield "f + scalar", f + scalar, rf + scalar
    yield "f * g", f * g, rf * rg
    yield "f * scalar", f * scalar, rf * scalar
    yield f"f ** {k}", f**k, rf**k
    yield f"d/dx{i} (f g)", (f * g).differentiate("x", i), (rf * rg).differentiate("x", i)
    yield f"d/dp{i} f", f.differentiate("p", i), rf.differentiate("p", i)
    yield "{f, g}", poisson_bracket(f, g), _reference_bracket(rf, rg)
    yield (
        "{f, g} + {g, f}",
        poisson_bracket(f, g) + poisson_bracket(g, f),
        _reference_bracket(rf, rg) + _reference_bracket(rg, rf),
    )
    yield "{f g, f}", poisson_bracket(f * g, f), _reference_bracket(rf * rg, rf)


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_mixed_denominators_match_reference_in_terms_eq_hash_and_repr(n_pairs):
    rng = make_rng(4000 + n_pairs)
    cases = [case for _ in range(40) for case in _mixed_cases(rng, n_pairs)]
    _, bad = _mismatches(cases)
    assert not bad, bad[:3]
    # == agrees with the reference's on every pair of results, so equal values are equal however they were built
    news, refs = [new for _, new, _ in cases], [ref for _, _, ref in cases]
    assert [[a == b for b in news] for a in news] == [[a == b for b in refs] for a in refs]
    # the draws reach zero sums, thirds and large binary denominators
    dens = {c.denominator for new in news for _, c in new.terms}
    assert any(new.is_zero() for new in news)
    assert any(d % 3 == 0 for d in dens) and any(d >= 2**50 for d in dens)


def _verify_shaped_terms(rng) -> dict:
    """Terms drawn like `verify._random_poly`: two pairs, degree at most 3, integer coefficients."""
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        terms[tuple(int(rng.integers(0, 4)) for _ in range(4))] = int(rng.integers(-5, 6))
    return terms


def _bracket_cases(rng, n_pairs: int, draw):
    """Yield (label, new, reference) for the brackets `verify poisson` takes: plain, antisymmetric,
    Leibniz-shaped {f g, h} with its right side, and the three nested brackets of the Jacobi sum."""
    (f, rf), (g, rg), (h, rh) = (_pair(draw(rng), n_pairs) for _ in range(3))
    yield "{f, g}", poisson_bracket(f, g), _reference_bracket(rf, rg)
    yield "{g, f}", poisson_bracket(g, f), _reference_bracket(rg, rf)
    yield "{f g, h}", poisson_bracket(f * g, h), _reference_bracket(rf * rg, rh)
    yield (
        "f {g, h} + {f, h} g",
        f * poisson_bracket(g, h) + poisson_bracket(f, h) * g,
        rf * _reference_bracket(rg, rh) + _reference_bracket(rf, rh) * rg,
    )
    for label, (a, ra), (b, rb), (c, rc) in (
        ("{f, {g, h}}", (f, rf), (g, rg), (h, rh)),
        ("{g, {h, f}}", (g, rg), (h, rh), (f, rf)),
        ("{h, {f, g}}", (h, rh), (f, rf), (g, rg)),
    ):
        yield label, poisson_bracket(a, poisson_bracket(b, c)), _reference_bracket(ra, _reference_bracket(rb, rc))


@pytest.mark.parametrize(
    "n_pairs, draw",
    [(2, _verify_shaped_terms), (1, lambda rng: _random_terms(rng, 1, 3)), (3, lambda rng: _random_terms(rng, 3))],
    ids=["verify_shaped", "one_pair", "three_pairs"],
)
def test_nested_and_leibniz_brackets_match_reference(n_pairs, draw):
    rng = make_rng(3000 + n_pairs)
    count, bad = 0, []
    for _ in range(40):
        c, b = _mismatches(_bracket_cases(rng, n_pairs, draw))
        count += c
        bad += b
    assert count == 280
    assert not bad, bad[:3]


def _random_canonical_text(rng, n_pairs: int, aliases: bool) -> str:
    names = [f"x{i + 1}" for i in range(n_pairs)] + [f"p{i + 1}" for i in range(n_pairs)]
    if aliases:
        names = ["x", "p", "x1", "p1"]
    coeffs = ("2", "0.1", "2.5", "3", "0.3", "0")

    def monomial():
        factors = [coeffs[int(rng.integers(0, len(coeffs)))]]
        for _ in range(int(rng.integers(0, 3))):
            name = names[int(rng.integers(0, len(names)))]
            k = int(rng.integers(1, 4))
            factors.append(name if k == 1 else f"{name}^{k}")
        return "*".join(factors)

    def poly():
        text = monomial()
        for _ in range(int(rng.integers(0, 3))):
            text += (" + ", " - ")[int(rng.integers(0, 2))] + monomial()
        return text

    shape = int(rng.integers(0, 4))
    a, b = poly(), poly()
    if shape == 0:
        return a
    if shape == 1:
        return f"({a}) * ({b})"
    if shape == 2:
        return f"({a})^{int(rng.integers(0, 4))} - ({b})"
    return f"({a}) - ({a})"  # cancels to zero


_PARSE_CORPUS = [
    ("x", 1), ("p", 1), ("x1", 1), ("p1", 1), ("x1 + p1", 1), ("x + p", 1),
    ("x*x1 - x^2", 1), ("p1^2 - p*p", 1), ("(x + p)^2 - x^2 - p^2", 1),
    ("0.1*x^3 + 2.5*p - 3", 1), ("0.75*x + 0.3*p", 1), ("0", 1), ("1", 1), ("x - x", 1),
    ("(x1 + p2)*(x2 - p1)", 2), ("x1^2*p2 + 0.1*x2", 2), ("x1 - x1", 2),
    ("x1*p1*x2*p2*x3*p3", 3), ("(x1 + x2 + x3)^3", 3), ("2.5*p3 - 0.1*p3 + x1", 3),
]


def test_parse_canonical_matches_reference():
    cases = list(_PARSE_CORPUS)
    rng = make_rng(2024)
    for _ in range(200):
        n_pairs = int(rng.integers(1, 4))
        aliases = n_pairs == 1 and bool(rng.integers(0, 2))
        cases.append((_random_canonical_text(rng, n_pairs, aliases), n_pairs))
    bad = []
    for text, n_pairs in cases:
        new, ref = parse_canonical(text, n_pairs), _reference_parse_canonical(text, n_pairs)
        if not _same(new, ref):
            bad.append((text, n_pairs, new.terms, ref.terms))
    assert len(cases) == 220
    assert not bad, bad[:3]


@pytest.mark.parametrize(
    "text,n_pairs,error",
    [("cos(x)", 1, UnsupportedExpression), ("x + y", 1, UnboundVariable),
     ("x2", 1, UnboundVariable), ("x", 2, UnboundVariable)],
)
def test_parse_canonical_rejects_like_reference(text, n_pairs, error):
    with pytest.raises(error):
        _reference_parse_canonical(text, n_pairs)
    with pytest.raises(error):
        parse_canonical(text, n_pairs)


@pytest.mark.parametrize(
    "terms,n_pairs",
    [({(1,): 1}, 1), ({(1, 0, 0): 1}, 1), ({(1, 0): 1}, 2), ({(-1, 0): 1}, 1), ({(0, 1, 0, -2): 3}, 2)],
)
def test_from_terms_rejects_bad_exponent_tuples(terms, n_pairs):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        CanonicalPolynomial.from_terms(terms, n_pairs)
