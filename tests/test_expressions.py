import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcp import expressions
from avcp.errors import (
    CommutingInput,
    DomainError,
    ExpressionSyntaxError,
    NonSimpleExpression,
    UnboundVariable,
    UnknownFunction,
    UnsupportedExpression,
)
from avcp.expressions import (
    Add,
    BindingSet,
    Const,
    Func,
    MeasurementBinding,
    Mul,
    Pow,
    Var,
    classify_simple,
    demonstrate_inconsistency,
    evaluate,
    expand_polynomial,
    parse,
    quantize,
    quantize_hermitized,
    to_string,
    variables,
)
from avcp.operators import (
    hermitian_from_matrix,
    make_rng,
    max_norm,
    random_commuting_family,
    random_hermitian,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _pauli_bindings():
    return BindingSet({"A": hermitian_from_matrix(SX), "B": hermitian_from_matrix(SY)})


# --- parsing -----------------------------------------------------------------


def test_parse_power():
    assert parse("A^2") == Pow(Var("A"), 2)


def test_parse_sum_with_coefficient():
    assert parse("A + 2*B") == Add((Var("A"), Mul((Const(2.0), Var("B")))))


def test_parse_function_of_product():
    assert parse("cos(A*B)") == Func("cos", Mul((Var("A"), Var("B"))))


def test_parse_whitespace_insensitive():
    assert parse(" A +  2 * B ") == parse("A+2*B")


def test_parse_subtraction_as_negated_term():
    assert parse("A - B") == Add((Var("A"), Mul((Const(-1.0), Var("B")))))


def test_parse_parens_preserve_grouping():
    assert parse("A*(A*B)") == Mul((Var("A"), Mul((Var("A"), Var("B")))))
    assert parse("A*A*B") == Mul((Var("A"), Var("A"), Var("B")))


def test_parse_error_carries_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("A +* B")
    assert err.value.offset == 3
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("A + ")
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("A $ B")
    assert err.value.offset == 2
    with pytest.raises(ExpressionSyntaxError, match="unexpected 'B'") as err:
        parse("A B")
    assert err.value.offset == 2


@pytest.mark.parametrize("text, offset", [("2*1e999", 2), ("1e999*A", 0), ("A^1e999", 2), ("A + 9e400", 4)])
def test_parse_rejects_non_finite_number_literals(text, offset):
    # float("1e999") is inf: as a constant it printed as `inf`, which reparses as a
    # variable, and as an exponent int(inf) raised OverflowError
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset
    assert parse("1e300*A^1e2") == Mul((Const(1e300), Pow(Var("A"), 100)))


def test_parse_unknown_function():
    with pytest.raises(UnknownFunction) as err:
        parse("tan(A)")
    assert err.value.name == "tan"
    assert err.value.offset == 0


def test_parse_exponent_must_be_integer():
    with pytest.raises(ExpressionSyntaxError):
        parse("A^1.5")
    with pytest.raises(ExpressionSyntaxError):
        parse("A^B")


def test_a_negative_power_node_is_rejected():
    with pytest.raises(ValueError, match="exponent must be non-negative"):
        Pow(Var("A"), -1)


def test_parse_unbalanced_paren():
    with pytest.raises(ExpressionSyntaxError):
        parse("(A + B")


# random ASTs round-trip through the printer
_names = st.sampled_from(["A", "B", "C2", "x_1"])


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            _names.map(Var),
            st.integers(0, 9).map(lambda n: Const(float(n))),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        _names.map(Var),
        st.integers(0, 9).map(lambda n: Const(float(n))),
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: Add(tuple(ts))),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["cos", "sin", "exp", "neg"]), sub).map(lambda t: Func(*t)),
    )


@given(_exprs(3))
def test_printer_parser_round_trip(e):
    assert parse(to_string(e)) == e


# --- expansion ------------------------------------------------------------------


def test_binomial_expansion():
    got = expand_polynomial(parse("(A+B)^2"))
    want = expand_polynomial(parse("A^2 + 2*A*B + B^2"))
    assert got == want


def test_like_terms_merge():
    assert expand_polynomial(parse("A + A")) == expand_polynomial(parse("2*A"))


def test_distribution():
    got = expand_polynomial(parse("A*(B + C)"))
    want = expand_polynomial(parse("A*B + A*C"))
    assert got == want


def test_cancellation_gives_empty_form():
    assert expand_polynomial(parse("A - A")).terms == ()


@pytest.mark.parametrize(
    "text",
    [
        "(A+B)^2",
        "A*(B + C) - A*B",
        "(A + 2*B)*(A - B) + cos(A)*sin(B)",
        "neg(A)^3 + exp(B)*(A - 1)",
        "sqrt(A^2)*B + 0.5",
    ],
)
def test_expansion_preserves_value(text):
    e = parse(text)
    form = expand_polynomial(e)
    rng = make_rng(17)
    for _ in range(100):
        assignment = {name: float(rng.uniform(0.2, 2.0)) for name in variables(e)}
        a = evaluate(e, assignment)
        b = form.evaluate(assignment)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# --- simplicity -------------------------------------------------------------------


def test_noncommuting_product_not_simple():
    v = classify_simple(parse("A*B"), _pauli_bindings())
    assert not v.simple
    assert v.offending_pairs == (("A", "B"),)


def test_noncommuting_pairs_keep_the_order_of_the_names():
    sz = hermitian_from_matrix(SZ)
    bind = BindingSet({"A": hermitian_from_matrix(SX), "B": hermitian_from_matrix(SY), "C": sz, "D": sz})
    pairs = list(bind.noncommuting_pairs(["C", "A", "D", "B"]))
    assert pairs == [("C", "A"), ("C", "B"), ("A", "D"), ("A", "B"), ("D", "B")]
    assert list(bind.noncommuting_pairs(["C", "D"])) == []


def test_every_name_is_bound_before_any_commutator_is_formed(monkeypatch):
    formed, commutator = [], expressions.commutator

    def counting(a, b):
        formed.append(1)
        return commutator(a, b)

    monkeypatch.setattr(expressions, "commutator", counting)
    bind = _pauli_bindings()
    with pytest.raises(UnboundVariable, match="'Z'"):
        bind.noncommuting_pairs(["A", "B", "Z"])
    with pytest.raises(UnboundVariable, match="'Z'"):
        classify_simple(parse("A*B*Z"), bind)
    assert formed == []
    assert classify_simple(parse("A*B + B*A^2"), bind).offending_pairs == (("A", "B"),)
    assert len(formed) == 1  # each pair's commutator is formed once and cached


def test_cross_term_makes_square_of_sum_not_simple():
    v = classify_simple(parse("(A+B)^2"), _pauli_bindings())
    assert not v.simple
    assert v.offending_pairs == (("A", "B"),)


def test_disjoint_subsystem_product_is_simple():
    b = BindingSet(
        {
            "A": (hermitian_from_matrix(SX), 0),
            "B": (hermitian_from_matrix(SY), 1),
        },
        factor_dims=[2, 2],
    )
    assert classify_simple(parse("A*B"), b).simple


def test_same_variable_products_are_simple():
    b = _pauli_bindings()
    assert classify_simple(parse("A*cos(A) + A^3"), b).simple


def test_function_arguments_count_as_products():
    b = _pauli_bindings()
    assert not classify_simple(parse("cos(A*B)"), b).simple
    assert not classify_simple(parse("cos(A+B)"), b).simple
    assert not classify_simple(parse("A*cos(B)"), b).simple


def test_sum_is_always_simple():
    assert classify_simple(parse("A + B"), _pauli_bindings()).simple


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        classify_simple(parse("A*Q"), _pauli_bindings())
    with pytest.raises(UnboundVariable, match="no value for variable 'B'"):
        evaluate(parse("A + B"), {"A": 1.0})


@pytest.mark.parametrize(
    "walk",
    [variables, to_string, expand_polynomial, lambda e: evaluate(e, {}),
     lambda e: quantize_hermitized(e, _pauli_bindings())],
    ids=["variables", "to_string", "expand_polynomial", "evaluate", "quantize_hermitized"],
)
def test_a_string_is_not_an_expression_node(walk):
    with pytest.raises(TypeError, match="not an expression node: 'A'"):
        walk("A")


# --- quantization -------------------------------------------------------------------


def test_sum_rule():
    got = quantize(parse("A + B"), _pauli_bindings())
    assert np.allclose(got.matrix, SX + SY, atol=1e-14)


def test_function_rule_square():
    got = quantize(parse("A^2"), _pauli_bindings())
    assert np.allclose(got.matrix, SX @ SX, atol=1e-14)


def test_product_rule_commuting():
    a, b = random_commuting_family(4, 2, make_rng(3))
    bind = BindingSet({"A": a, "B": b})
    got = quantize(parse("A*B"), bind)
    assert max_norm(got.matrix - (a.matrix @ b.matrix + b.matrix @ a.matrix) / 2) <= 1e-10


def test_reordering_invariance_is_exact():
    a, b = random_commuting_family(4, 2, make_rng(5))
    bind = BindingSet({"A": a, "B": b})
    left = quantize(parse("A*B"), bind)
    right = quantize(parse("B*A"), bind)
    assert np.array_equal(left.matrix, right.matrix)


def test_single_variable_spectral_consistency():
    h = random_hermitian(5, make_rng(6))
    bind = BindingSet({"A": h})
    got = quantize(parse("cos(A) + A^2"), bind)
    want = np.sort([math.cos(x) + x * x for x in h.spectrum.eigenvalues])
    assert np.abs(np.sort(got.spectrum.eigenvalues) - want).max() <= 1e-10


def test_nonsimple_rejected_with_pairs():
    with pytest.raises(NonSimpleExpression) as err:
        quantize(parse("A*B"), _pauli_bindings())
    assert err.value.offending_pairs == (("A", "B"),)


def test_multivariate_function_argument_rejected():
    b = BindingSet(
        {
            "A": (hermitian_from_matrix(SX), 0),
            "B": (hermitian_from_matrix(SY), 1),
        },
        factor_dims=[2, 2],
    )
    # simple (disjoint factors), but the spectral calculus takes one operator
    assert classify_simple(parse("cos(A*B)"), b).simple
    with pytest.raises(UnsupportedExpression):
        quantize(parse("cos(A*B)"), b)


def test_quantize_and_quantize_hermitized_reject_a_mixed_argument_with_one_message():
    # commuting, so that quantize gets past the simplicity check to the function argument
    b = BindingSet({"A": hermitian_from_matrix(SZ), "B": hermitian_from_matrix(np.diag([2.0, -1.0]))})
    with pytest.raises(UnsupportedExpression) as plain:
        quantize(parse("cos(A + B)"), b)
    with pytest.raises(UnsupportedExpression) as hermitized:
        quantize_hermitized(parse("cos(A + B)"), b)
    assert str(plain.value) == str(hermitized.value)
    assert str(plain.value).endswith("; the spectral calculus applies to one operator at a time")


def test_quantize_sqrt_domain_error():
    h = hermitian_from_matrix(np.diag([-2.0, 1.0]))
    with pytest.raises(DomainError):
        quantize(parse("sqrt(A)"), BindingSet({"A": h}))


def test_quantize_output_hermitian_for_random_simple_expressions():
    rng = make_rng(31)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        ops = random_commuting_family(dim, 2, rng)
        extra = random_hermitian(dim, rng)
        bind = BindingSet({"A": ops[0], "B": ops[1], "C": extra})
        e = parse("0.5*A*B - B^2 + cos(C) + 1.5")
        got = quantize(e, bind)
        assert max_norm(got.matrix - got.matrix.conj().T) <= 1e-12 * max(1.0, max_norm(got.matrix))


def test_quantize_composite_subsystems():
    b = BindingSet(
        {
            "A": (hermitian_from_matrix(SZ), 0),
            "B": (hermitian_from_matrix(SX), 1),
        },
        factor_dims=[2, 2],
    )
    got = quantize(parse("A*B"), b)
    assert np.allclose(got.matrix, np.kron(SZ, SX), atol=1e-14)


def _identity_fold_quantize(e, bindings):
    """The earlier fold, kept as the byte reference: each monomial starts at c I and multiplies in its factors."""
    n = bindings.dim
    total = np.zeros((n, n), dtype=complex)
    for m, c in expand_polynomial(e).terms:
        acc = np.eye(n, dtype=complex) * c
        for name, k in m.var_powers:
            acc = acc @ np.linalg.matrix_power(bindings.embedded(name).matrix, k)
        for f, k in m.func_powers:
            op = expressions._spectral(f.name, f.arg.variable_names(), lambda: _identity_fold_quantize(f.arg, bindings))
            acc = acc @ np.linalg.matrix_power(op.matrix, k)
        total += acc
    return hermitian_from_matrix((total + total.conj().T) / 2)


@pytest.mark.parametrize("dim", [4, 64, 256])
def test_quantize_is_bytewise_the_identity_fold(dim):
    rng = make_rng(34)
    a, b = random_commuting_family(dim, 2, rng)
    bind = BindingSet({"A": a, "B": b, "C": random_hermitian(dim, rng)})
    for text in ("A + B", "0.5*A*B - B^2 + cos(C) + 1.5", "A^3*B", "1 - 2*A*B*A", "exp(C)*2", "sqrt(C^2)",
                 "cos(A)^2*B - 0.25", "3", "A*sqrt(B^2 + 1)"):
        e = parse(text)
        assert quantize(e, bind).matrix.tobytes() == _identity_fold_quantize(e, bind).matrix.tobytes(), text


# --- the rejected symmetrization rule --------------------------------------------------


def test_hermitized_product_of_noncommuting_pair():
    got = quantize_hermitized(parse("A*B"), _pauli_bindings())
    assert np.allclose(got.matrix, (SX @ SY + SY @ SX) / 2, atol=1e-14)


def test_hermitized_commuting_product_reduces_to_plain_product():
    a, b = random_commuting_family(3, 2, make_rng(8))
    bind = BindingSet({"A": a, "B": b})
    got = quantize_hermitized(parse("A*B"), bind)
    sym = (a.matrix @ b.matrix + b.matrix @ a.matrix) / 2
    assert max_norm(got.matrix - sym) <= 1e-12
    assert max_norm(a.matrix @ b.matrix - sym) <= 1e-9  # commuting: same thing


def test_hermitized_groupings_match_closed_forms():
    a, b = SX, SY
    bind = _pauli_bindings()
    nested = quantize_hermitized(parse("A*(A*B)"), bind)
    want_nested = (a @ a @ b + 2 * a @ b @ a + b @ a @ a) / 4
    assert np.allclose(nested.matrix, want_nested, atol=1e-14)
    flat = quantize_hermitized(parse("A^2*B"), bind)
    want_flat = (a @ a @ b + b @ a @ a) / 2
    assert np.allclose(flat.matrix, want_flat, atol=1e-14)


def test_hermitized_products_fold_from_the_right():
    rng = make_rng(41)
    names = ("A", "B", "C")
    ops = [random_hermitian(3, rng).matrix for _ in names]
    bind = BindingSet({n: hermitian_from_matrix(m) for n, m in zip(names, ops)})

    def sym(x, y):
        return (x @ y + y @ x) / 2

    got = quantize_hermitized(parse("A*B*C"), bind).matrix
    a, b, c = ops
    assert max_norm(got - sym(a, sym(b, c))) <= 1e-12
    assert max_norm(got - sym(sym(a, b), c)) > 1e-3


def test_demonstrate_inconsistency_pauli():
    rep = demonstrate_inconsistency(hermitian_from_matrix(SX), hermitian_from_matrix(SY))
    assert rep.difference_norm > 1e-8
    want = (SX @ SX @ SY + 2 * SX @ SY @ SX + SY @ SX @ SX) / 4 - (SX @ SX @ SY + SY @ SX @ SX) / 2
    assert np.allclose(rep.difference, want, atol=1e-14)


def test_demonstrate_inconsistency_commuting_input():
    sz = hermitian_from_matrix(SZ)
    with pytest.raises(CommutingInput):
        demonstrate_inconsistency(sz, sz)


def test_demonstrate_inconsistency_random_pairs():
    rng = make_rng(77)
    found = 0
    while found < 20:
        a = random_hermitian(3, rng)
        b = random_hermitian(3, rng)
        try:
            rep = demonstrate_inconsistency(a, b)
        except CommutingInput:
            continue
        found += 1
        assert rep.difference_norm > 1e-8


# --- bindings ------------------------------------------------------------------------------


def test_binding_set_total_dim_consistency():
    from avcp.errors import DimMismatch

    with pytest.raises(DimMismatch):
        BindingSet({"A": hermitian_from_matrix(SX), "B": hermitian_from_matrix(np.eye(3))})


def test_binding_set_subsystem_requires_factor_dims():
    from avcp.errors import DimMismatch

    with pytest.raises(DimMismatch):
        BindingSet({"A": (hermitian_from_matrix(SX), 0)})


def test_binding_set_json_round_trip():
    b = BindingSet(
        {
            "A": (hermitian_from_matrix(SX), 0),
            "B": hermitian_from_matrix(np.kron(SZ, np.eye(3))),
        },
        factor_dims=[2, 3],
    )
    other = BindingSet.from_dict(b.to_dict())
    assert other.factor_dims == (2, 3)
    assert np.array_equal(other.embedded("A").matrix, b.embedded("A").matrix)
    assert np.array_equal(other.embedded("B").matrix, b.embedded("B").matrix)


def test_binding_set_bare_json():
    b = BindingSet.from_dict(
        {"A": {"dim": 2, "re": [0, 1, 1, 0], "im": [0, 0, 0, 0]}}
    )
    assert np.array_equal(b.embedded("A").matrix, SX)


@pytest.mark.parametrize("value", [np.eye(2), np.eye(3)], ids=["eye2", "eye3"])
def test_binding_set_rejects_a_raw_matrix_value_naming_the_binding(value):
    # a raw matrix is neither an operator nor an (operator, subsystem) pair; its rows must not be unpacked
    with pytest.raises(TypeError, match="binding 'A' must be a HermitianOperator or an \\(operator, subsystem\\) pair"):
        BindingSet({"A": value}, factor_dims=[2, 2])


def test_binding_set_rejects_a_measurement_binding_value():
    # a MeasurementBinding value would bind its own name, not its key
    with pytest.raises(TypeError):
        BindingSet({"X": MeasurementBinding("Y", hermitian_from_matrix(SX))})


def test_commute_uses_tolerance():
    b = _pauli_bindings()
    assert not b.commute("A", "B")
    assert b.commute("A", "A")


def _mixed_bindings():
    """Two operators on each factor of a 2 x 3 space, one on the full space, one commuting with A0."""
    rng = make_rng(23)
    a0, c0 = random_commuting_family(2, 2, rng)
    return BindingSet(
        {
            "A0": (a0, 0),
            "C0": (c0, 0),
            "B0": (random_hermitian(2, rng), 0),
            "A1": (random_hermitian(3, rng), 1),
            "B1": (random_hermitian(3, rng), 1),
            "F": random_hermitian(6, rng),
            "E": hermitian_from_matrix(np.kron(np.diag([1.0, -2.0]), np.eye(3))),
        },
        factor_dims=[2, 3],
    )


def _counting_commutator(monkeypatch) -> list:
    calls = []
    real = expressions.commutator

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(expressions, "commutator", counted)
    return calls


def test_commute_forms_one_cached_product_for_bindings_on_different_subsystems(monkeypatch):
    b = _mixed_bindings()
    calls = _counting_commutator(monkeypatch)
    for x in ("A0", "B0", "C0"):
        for y in ("A1", "B1"):
            assert b.commute(x, y) and b.commute(y, x)
    # one product per pair, whichever order asked first
    names = {id(b.embedded(n).matrix): n for n in b.names}
    formed = {frozenset((names[id(ma)], names[id(mb)])) for ma, mb in calls}
    assert len(calls) == 6 and formed == {frozenset((x, y)) for x in ("A0", "B0", "C0") for y in ("A1", "B1")}
    assert max_norm(expressions.commutator(b.embedded("A0"), b.embedded("B1"))) == 0.0


@pytest.mark.parametrize("factor_dims", [(2, 3), (6, 6), (5, 8), (16, 16)], ids=str)
def test_bindings_on_different_subsystems_commute_by_an_exact_zero_product(factor_dims):
    rng = make_rng(sum(factor_dims))
    b = BindingSet({"A": (random_hermitian(factor_dims[0], rng), 0), "B": (random_hermitian(factor_dims[1], rng), 1)},
                   factor_dims=factor_dims)
    assert max_norm(expressions.commutator(b.embedded("A"), b.embedded("B"))) == 0.0
    assert b.commute("A", "B") and b.commute("B", "A")


def test_commute_pairs_a_name_with_itself_and_binds_every_name():
    b = _mixed_bindings()
    assert all(b.commute(n, n) for n in b.names)
    for a, c in (("Z", "Z"), ("Z", "A0"), ("A0", "Z"), ("F", "Z")):
        with pytest.raises(UnboundVariable, match=r"^variable 'Z' is not bound$"):
            b.commute(a, c)


def test_hermitized_sum_of_a_constant_a_product_and_a_variable():
    rng = make_rng(33)
    ops = {"A": random_hermitian(3, rng), "B": random_hermitian(3, rng)}
    got = quantize_hermitized(parse("2 + A*B + B"), BindingSet(ops))
    a, b = ops["A"].matrix, ops["B"].matrix
    m = 2 * np.eye(3) + (a @ b + b @ a) / 2 + b
    assert np.array_equal(got.matrix, (m + m.conj().T) / 2)


def test_quantize_needs_a_binding_to_fix_the_dimension():
    with pytest.raises(UnboundVariable, match=r"^cannot fix a dimension from an empty binding set$"):
        quantize(parse("2"), BindingSet({}))


def test_commute_matches_the_full_product_for_every_pair():
    b = _mixed_bindings()
    answers = {}
    for x in b.names:
        for y in b.names:
            ma, mb = b.embedded(x).matrix, b.embedded(y).matrix
            full = max_norm(expressions.commutator(ma, mb)) <= expressions.COMMUTATION_RTOL * max_norm(ma) * max_norm(mb)
            answers[x, y] = b.commute(x, y)
            assert answers[x, y] == full, (x, y)
    # same-subsystem, full-space and mixed pairs take the full product, and both answers occur among them
    assert not answers["A0", "B0"] and answers["A0", "C0"] and not answers["A1", "B1"]
    assert answers["E", "A1"] and answers["E", "B1"] and not answers["E", "B0"] and not answers["F", "A1"]
