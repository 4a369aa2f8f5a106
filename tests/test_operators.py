import json
import math
import re

import numpy as np
import pytest

import avcp.verify
from avcp.errors import (
    DimMismatch,
    DomainError,
    ImaginaryResidue,
    NonFinite,
    NotHermitian,
    StateNotNormalized,
)
from avcp.operators import (
    HermitianOperator,
    QuantumState,
    apply_spectral_function,
    born_split,
    cdf_table,
    commutator,
    draw_flat,
    embed_operator,
    expectation,
    hermitian_from_matrix,
    make_rng,
    matrix_to_dict,
    max_norm,
    measure_projective,
    operator_from_dict,
    operator_to_dict,
    random_hermitian,
    random_state,
    state_from_dict,
    state_to_dict,
    tensor,
)
from avcp.verify import run_suite

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _born_probabilities(v: QuantumState, h: HermitianOperator) -> np.ndarray:
    """`born_split`'s weights of the one state v over h's outcome groups, normalised."""
    weights = born_split(h.spectrum, v.amplitudes[None, :])[0][0]
    return weights / weights.sum()


# --- independent eigenvalue oracle: characteristic polynomial + Durand-Kerner


def _charpoly(a):
    # Faddeev-LeVerrier; p(x) = sum_k coeffs[k] x^(n-k)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def _durand_kerner(coeffs, iterations=500):
    n = len(coeffs) - 1
    roots = np.array([(0.4 + 0.9j) ** k for k in range(1, n + 1)], dtype=complex)
    for _ in range(iterations):
        for i in range(n):
            num = np.polyval(coeffs, roots[i])
            den = np.prod([roots[i] - roots[j] for j in range(n) if j != i])
            roots[i] -= num / den
    return roots


def _oracle_eigenvalues(a):
    return np.sort(_durand_kerner(_charpoly(a)).real)


# --- construction gate ------------------------------------------------------


def test_accepts_real_diagonal():
    hermitian_from_matrix(np.diag([1.0, -1.0]))


def test_accepts_pauli_y():
    hermitian_from_matrix(SY)


def test_rejects_antihermitian():
    with pytest.raises(NotHermitian) as err:
        hermitian_from_matrix(np.array([[0, 1j], [1j, 0]]))
    assert err.value.asymmetry > 0


def test_rejects_nonfinite():
    with pytest.raises(NonFinite):
        hermitian_from_matrix(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_rejects_rectangular():
    with pytest.raises(DimMismatch):
        hermitian_from_matrix(np.zeros((2, 3)))


# --- eigensystem --------------------------------------------------------------


def test_diagonal_eigenvalues_sorted():
    s = hermitian_from_matrix(np.diag([3.0, 1.0, 2.0])).spectrum
    assert np.allclose(s.eigenvalues, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_spin_component_sum_eigenvalues(alpha):
    total = hermitian_from_matrix(alpha / 2 * (SX + SZ))
    expected = alpha / math.sqrt(2)
    assert np.allclose(total.spectrum.eigenvalues, [-expected, expected], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenvalues_match_charpoly_oracle(dim, seed):
    h = random_hermitian(dim, make_rng(seed))
    got = h.spectrum.eigenvalues
    want = _oracle_eigenvalues(h.matrix)
    assert np.abs(got - want).max() <= 1e-8 * max(1.0, max_norm(h.matrix))


def test_reconstruction_residual():
    for seed in range(5):
        h = random_hermitian(4, make_rng(seed))
        s = h.spectrum
        rebuilt = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
        assert max_norm(rebuilt - h.matrix) <= 1e-10
        eye = np.eye(4)
        assert max_norm(s.eigenvectors.conj().T @ s.eigenvectors - eye) <= 1e-10


def test_eigensystem_deterministic():
    h1 = random_hermitian(5, make_rng(9))
    h2 = HermitianOperator(h1.matrix.copy())
    s1, s2 = h1.spectrum, h2.spectrum
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_phase_convention():
    h = random_hermitian(4, make_rng(2))
    vec = h.spectrum.eigenvectors
    for c in range(4):
        col = vec[:, c]
        pivot = next(i for i in range(4) if abs(col[i]) > 1e-12)
        assert col[pivot].real > 0
        assert abs(col[pivot].imag) <= 1e-12


def test_degenerate_outcome_grouping():
    s = hermitian_from_matrix(np.diag([5.0, 5.0, 2.0])).spectrum
    assert len(s.outcome_groups) == 2
    assert np.allclose(s.group_values, [2.0, 5.0])
    assert [len(g) for g in s.outcome_groups] == [1, 2]


def test_empty_operator_has_an_empty_spectrum():
    s = HermitianOperator(np.zeros((0, 0))).spectrum
    assert s.dim == 0
    assert s.eigenvalues.dtype == float and s.eigenvectors.shape == (0, 0)
    assert s.eigenvectors.dtype == complex
    assert s.outcome_groups == ()
    assert s.group_values.shape == (0,) and s.group_values.dtype == float


# --- spectral functional calculus ----------------------------------------------


def test_sqrt_on_diagonal():
    h = hermitian_from_matrix(np.diag([1.0, 4.0]))
    got = apply_spectral_function(h, math.sqrt)
    assert np.allclose(got.matrix, np.diag([1.0, 2.0]), atol=1e-12)


def test_identity_function_is_identity():
    h = random_hermitian(5, make_rng(1))
    got = apply_spectral_function(h, lambda x: x)
    assert max_norm(got.matrix - h.matrix) <= 1e-12


def test_square_of_pauli_x():
    got = apply_spectral_function(hermitian_from_matrix(SX), lambda x: x * x)
    direct = SX @ SX  # the plain matrix product is the oracle here
    assert max_norm(got.matrix - direct) <= 1e-12


def test_domain_error_for_sqrt_of_negative():
    h = hermitian_from_matrix(np.diag([-1.0, 1.0]))
    with pytest.raises(DomainError):
        apply_spectral_function(h, math.sqrt)


@pytest.mark.parametrize("seed", [0, 3])
def test_functional_calculus_composition(seed):
    h = random_hermitian(4, make_rng(seed))
    f = lambda x: x**3 - 2 * x
    g = lambda x: 0.5 * x * x + 1
    direct = apply_spectral_function(h, lambda x: f(g(x)))
    chained = apply_spectral_function(apply_spectral_function(h, g), f)
    assert max_norm(direct.matrix - chained.matrix) <= 1e-10


def _composition_check(report):
    (check,) = [c for c in report["checks"] if c["name"] == "functional_calculus_composition"]
    return check


@pytest.mark.parametrize("seed", [98, 133])
def test_verify_composition_check_is_relative_to_the_result_size(seed):
    # |f(g(H))| reaches about 1e5 here: the absolute residual exceeds 1e-10, the relative one does not
    report = run_suite("operators", seed=seed)
    assert report["passed"]
    assert _composition_check(report)["threshold"] == 1e-10


def test_verify_composition_check_fails_on_a_composition_off_by_one_part_in_a_million(monkeypatch):
    real = avcp.verify.apply_spectral_function
    inner_results = []

    def perturbed(h, f):
        out = real(h, f)
        if any(h is r for r in inner_results):  # the outer step of f applied to g(H)
            return HermitianOperator(out.matrix * (1 + 1e-6))
        inner_results.append(out)
        return out

    monkeypatch.setattr(avcp.verify, "apply_spectral_function", perturbed)
    check = _composition_check(run_suite("operators", seed=7))
    assert not check["passed"]
    assert check["value"] > 1e-7


# --- commutator ----------------------------------------------------------------


def test_self_commutator_zero():
    h = random_hermitian(3, make_rng(0))
    assert max_norm(commutator(h, h)) == 0.0


def test_pauli_commutator():
    # oracle: explicit 2x2 products
    direct = SX @ SY - SY @ SX
    assert np.allclose(direct, 2j * SZ)
    assert np.allclose(commutator(SX, SY), direct)


def test_diagonal_matrices_commute():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.diag([-1.0, 5.0, 0.5]).astype(complex)
    assert max_norm(commutator(a, b)) == 0.0


def test_commutator_dim_mismatch():
    with pytest.raises(DimMismatch):
        commutator(np.eye(2), np.eye(3))


# --- expectation -----------------------------------------------------------------


def test_eigenstate_expectation():
    assert expectation(hermitian_from_matrix(SZ), QuantumState([1, 0])) == pytest.approx(1.0)


def test_bloch_angle_expectation():
    for theta in np.linspace(0, math.pi, 7):
        v = QuantumState([math.cos(theta / 2), math.sin(theta / 2)])
        # oracle: explicit component arithmetic
        want = math.cos(theta / 2) ** 2 - math.sin(theta / 2) ** 2
        assert expectation(hermitian_from_matrix(SZ), v) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(math.cos(theta), abs=1e-12)


def test_identity_expectation_is_one():
    v = random_state(6, make_rng(4))
    assert expectation(hermitian_from_matrix(np.eye(6)), v) == pytest.approx(1.0, abs=1e-12)


def test_imaginary_residue_detected():
    skew = np.array([[0, 1], [0, 0]], dtype=complex)  # raw matrix bypasses the gate
    with pytest.raises(ImaginaryResidue):
        expectation(skew, QuantumState([1 / math.sqrt(2), 1j / math.sqrt(2)]))


def test_expectation_dim_mismatch():
    with pytest.raises(DimMismatch):
        expectation(hermitian_from_matrix(np.eye(3)), QuantumState([1, 0]))


def test_global_phase_invariance():
    h = random_hermitian(4, make_rng(8))
    v = random_state(4, make_rng(9))
    w = QuantumState(v.amplitudes * np.exp(1j * 1.234))
    assert abs(expectation(h, v) - expectation(h, w)) <= 1e-12
    assert np.abs(_born_probabilities(v, h) - _born_probabilities(w, h)).max() <= 1e-12


# --- tensor and embedding ---------------------------------------------------------


def test_tensor_identities():
    eye2 = hermitian_from_matrix(np.eye(2))
    assert np.array_equal(tensor(eye2, eye2).matrix, np.eye(4))


def test_tensor_basis_states():
    v = tensor(QuantumState([1, 0]), QuantumState([0, 1]))
    assert np.array_equal(v.amplitudes, np.array([0, 1, 0, 0], dtype=complex))
    assert v.factor_dims == (2, 2)


def test_disjoint_factors_commute_exactly():
    rng = make_rng(3)
    left = tensor(random_hermitian(2, rng), hermitian_from_matrix(np.eye(3)))
    right = tensor(hermitian_from_matrix(np.eye(2)), random_hermitian(3, rng))
    assert max_norm(commutator(left, right)) == 0.0


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: commutator(np.array([[np.nan, 0], [0, 1]]), np.eye(2)), NonFinite, "matrix contains non-finite"),
        (lambda: QuantumState([]), DimMismatch, "state vector must be non-empty"),
        (lambda: QuantumState([np.nan, 1.0]), NonFinite, "state vector contains non-finite"),
        (lambda: QuantumState.normalized([0.0, 0.0]), StateNotNormalized, "cannot normalize the zero vector"),
        (lambda: apply_spectral_function(hermitian_from_matrix(SZ), lambda x: math.inf), DomainError,
         "non-finite value on the spectrum"),
        (lambda: tensor(hermitian_from_matrix(SZ), QuantumState([1, 0])), TypeError,
         "two HermitianOperators or two QuantumStates"),
        (lambda: embed_operator(hermitian_from_matrix(SZ), (2, 2), 2), DimMismatch,
         r"subsystem 2 outside factors \(2, 2\)"),
        (lambda: born_split(hermitian_from_matrix(SZ).spectrum, np.ones((1, 3))), DimMismatch,
         "operator dim 2 vs state dim 3"),
    ],
    ids=["nan_commutator", "empty_state", "nan_state", "normalize_zeros", "inf_spectral_value", "operator_times_state",
         "subsystem_out_of_range", "born_split_dim"],
)
def test_public_error_paths_raise_their_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_embed_operator_matches_kron():
    op = hermitian_from_matrix(SZ)
    emb = embed_operator(op, (3, 2), 1)
    assert np.array_equal(emb.matrix, np.kron(np.eye(3), SZ))
    with pytest.raises(DimMismatch):
        embed_operator(op, (3, 3), 1)


# --- states ------------------------------------------------------------------------


def test_state_norm_gate():
    with pytest.raises(StateNotNormalized):
        QuantumState([1.0, 1.0])
    v = QuantumState.normalized([1.0, 1.0])
    assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_state_factor_dims_validated():
    with pytest.raises(DimMismatch):
        QuantumState([1, 0, 0, 0], factor_dims=(3, 2))


# --- projective measurement ----------------------------------------------------------


def test_measurement_of_eigenstate_is_certain():
    out = measure_projective(QuantumState([1, 0]), hermitian_from_matrix(SZ), make_rng(0))
    assert out.value == pytest.approx(1.0)
    assert np.allclose(out.collapsed.amplitudes, [1, 0])


def test_born_rule_frequencies():
    h = hermitian_from_matrix(SZ)
    v = QuantumState(np.array([1, 1]) / math.sqrt(2))
    rng = make_rng(123)
    n = 100_000
    plus = sum(measure_projective(v, h, rng).value > 0 for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(plus / n - 0.5) <= 3 * sigma


def test_born_rule_all_groups_within_band():
    h = random_hermitian(4, make_rng(5))
    v = random_state(4, make_rng(6))
    probs = _born_probabilities(v, h)
    rng = make_rng(7)
    n = 20_000
    counts = np.zeros(len(probs))
    for _ in range(n):
        counts[measure_projective(v, h, rng).outcome_index] += 1
    for p, c in zip(probs, counts):
        assert abs(c / n - p) <= 4 * math.sqrt(p * (1 - p) / n) + 1e-12


class _FixedRng:
    def __init__(self, u):
        self._u = u

    def random(self):
        return self._u


def test_degenerate_measurement_collapse():
    h = hermitian_from_matrix(np.diag([5.0, 5.0, 2.0]))
    a, b, c = 0.6, 0.48, 0.64  # |a|^2+|b|^2+|c|^2 = 1
    v = QuantumState([a, b, c])
    probs = _born_probabilities(v, h)
    # spectrum order is ascending: group 0 is the eigenvalue-2 outcome
    assert probs[1] == pytest.approx(a * a + b * b, abs=1e-12)
    out = measure_projective(v, h, _FixedRng(0.99))
    assert out.value == pytest.approx(5.0)
    norm = math.sqrt(a * a + b * b)
    assert np.allclose(out.collapsed.amplitudes, [a / norm, b / norm, 0.0], atol=1e-12)


# the largest value Generator.random returns; the normalised cumulative sums of
# weights (0.1, 0.2, 0.3, 0) end at 0.9999999999999999 when summed after dividing
_TOP_DRAW = 1.0 - 2.0**-53


def test_draw_flat_never_picks_a_zero_weight_group():
    weights = np.array([[0.1, 0.2, 0.3, 0.0]])
    assert draw_flat(cdf_table(weights), 0, np.array([_TOP_DRAW])).tolist() == [2]


def test_top_draw_never_collapses_onto_a_zero_probability_outcome():
    h = hermitian_from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    v = QuantumState.normalized([0.17565562060255901, 0.8631789223498866, 0.5414612202490917, 0.0])
    out = measure_projective(v, h, _FixedRng(_TOP_DRAW))
    assert out.outcome_index == 2
    assert out.value == 3.0


def test_measurement_phase_invariance():
    h = random_hermitian(3, make_rng(11))
    v = random_state(3, make_rng(12))
    w = QuantumState(v.amplitudes * np.exp(1j * 0.777))
    o1 = measure_projective(v, h, _FixedRng(0.42))
    o2 = measure_projective(w, h, _FixedRng(0.42))
    assert o1.outcome_index == o2.outcome_index
    assert o1.value == o2.value


# --- serialization ---------------------------------------------------------------------


def test_operator_dict_round_trip():
    h = random_hermitian(3, make_rng(21))
    other = operator_from_dict(json.loads(json.dumps(operator_to_dict(h))))
    assert np.array_equal(other.matrix, h.matrix)
    assert operator_to_dict(h) == matrix_to_dict(h.matrix)


def test_state_dict_round_trip():
    v = random_state(6, make_rng(22), factor_dims=(2, 3))
    other = state_from_dict(json.loads(json.dumps(state_to_dict(v))))
    assert np.array_equal(other.amplitudes, v.amplitudes)
    assert other.factor_dims == (2, 3)
    assert state_to_dict(v)["factor_dims"] == [2, 3]
    # `evolve --format text` prints the dict as it is, so its key order is output
    assert list(state_to_dict(v)) == ["dim", "re", "im", "factor_dims"]
    assert list(state_to_dict(QuantumState([1, 0]))) == ["dim", "re", "im"]


def test_matrix_dict_without_im_is_real():
    m = operator_from_dict({"dim": 2, "re": [1.0, -0.5, -0.5, 2.0]}).matrix
    assert m.dtype == complex
    assert np.array_equal(m, np.array([[1.0, -0.5], [-0.5, 2.0]], dtype=complex))
    assert matrix_to_dict(m) == {"dim": 2, "re": [1.0, -0.5, -0.5, 2.0], "im": [0.0, 0.0, 0.0, 0.0]}
    assert state_from_dict({"dim": 2, "re": [0.6, 0.8]}).amplitudes.tolist() == [0.6 + 0j, 0.8 + 0j]


def test_a_bad_re_is_reported_before_a_bad_im():
    with pytest.raises(ValueError, match="^re must have 4 entries for dim 2, got 3$"):
        operator_from_dict({"dim": 2, "re": [1.0, 0.0, 0.0], "im": [0.0]})
    with pytest.raises(ValueError, match="^re must have 2 entries for dim 2, got 3$"):
        state_from_dict({"dim": 2, "re": [1.0, 0.0, 0.0], "im": [0.0]})


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (state_from_dict, {"dim": 2, "re": [1.0], "im": [0.0]}, "re must have 2 entries for dim 2, got 1"),
        (state_from_dict, {"dim": 2, "re": [1.0, 0.0], "im": [0.0]}, "im must have 2 entries for dim 2, got 1"),
        (operator_from_dict, {"dim": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 5},
         "im must have 4 entries for dim 2, got 5"),
        (state_from_dict, {"dim": -1, "re": [1.0]}, "dim must be at least 0, got -1"),
        (operator_from_dict, {"dim": -2, "re": [1.0, 0.0, 0.0, 1.0]}, "dim must be at least 0, got -2"),
    ],
    ids=["short_state_re", "short_state_im", "long_operator_im", "negative_state_dim", "negative_operator_dim"],
)
def test_a_dict_field_of_the_wrong_size_is_named(read, doc, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(doc)


_WRONG_TYPE = "must be a flat list of real numbers, got"


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (state_from_dict, {"dim": 2, "re": "ab"}, f"re {_WRONG_TYPE} 'ab'"),
        (state_from_dict, {"dim": 1, "re": "1"}, f"re {_WRONG_TYPE} '1'"),
        (state_from_dict, {"dim": 2, "re": ["1", "0"]}, f"re {_WRONG_TYPE} ['1', '0']"),
        (state_from_dict, {"dim": 2, "re": [1.0, 0.0], "im": None}, f"im {_WRONG_TYPE} None"),
        (state_from_dict, {"dim": 2, "re": [1.0, None]}, f"re {_WRONG_TYPE} [1.0, None]"),
        (operator_from_dict, {"dim": 2, "re": [[1, 0], [0]]}, f"re {_WRONG_TYPE} [[1, 0], [0]]"),
        (operator_from_dict, {"dim": 2, "re": [[1, 0], [0, 1]]}, f"re {_WRONG_TYPE} [[1, 0], [0, 1]]"),
        (operator_from_dict, {"dim": 1, "re": [1.0], "im": {"0": 0.0}}, f"im {_WRONG_TYPE} {{'0': 0.0}}"),
        (operator_from_dict, {"dim": 4, "re": ["0"] * 16}, f"re {_WRONG_TYPE} ['0', '0', '0', '0', '0', '0', ...]"),
    ],
    ids=["string", "numeric_string", "list_of_strings", "null_im", "null_entry", "ragged", "nested", "object_im",
         "long_list_of_strings"],
)
def test_a_re_or_im_that_is_not_a_flat_list_of_numbers_is_a_type_error_naming_it(read, doc, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        read(doc)


def test_an_entry_beyond_the_float_range_is_a_value_error_naming_the_field():
    with pytest.raises(ValueError, match="^im has an integer entry too large for a float$"):
        state_from_dict({"dim": 2, "re": [1, 0], "im": [0, 10**400]})


def test_a_dict_round_trip_at_d256_fills_no_zeros(monkeypatch):
    # the missing-"im" default was built on every read, "im" or not: 512 KB at d = 256
    h = random_hermitian(256, make_rng(31))
    filled = []
    real_zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda *a, **k: filled.append(a) or real_zeros(*a, **k))
    back = operator_from_dict(operator_to_dict(h))
    assert filled == []
    assert np.array_equal(back.matrix, h.matrix)


@pytest.mark.parametrize("value", [2, 2.0, True], ids=["int", "float", "bool"])
def test_factor_dims_that_are_not_a_list_raise_type_error(value):
    with pytest.raises(TypeError, match=re.escape(f"factor_dims must be a list of whole numbers, got {value!r}")):
        QuantumState([0.6, 0.8], value)


@pytest.mark.parametrize("factor_dims, got", [([-1, -3], -1), ([3, 0], 0)], ids=["negative", "zero"])
def test_a_non_positive_factor_dim_is_named_by_the_whole_number_bound(factor_dims, got):
    # [-1, -3] does multiply to 3, so a product test alone would misreport it
    with pytest.raises(ValueError, match=re.escape(f"factor_dims must be at least 1, got {got}")):
        state_from_dict({"dim": 3, "re": [1, 0, 0], "factor_dims": factor_dims})


def test_embed_operator_reads_factor_dims_through_the_whole_number_rule():
    with pytest.raises(ValueError, match="^factor_dims must be a whole number, got 2.5$"):
        embed_operator(HermitianOperator(SX), [2, 2.5], 0)
    assert np.array_equal(embed_operator(HermitianOperator(SX), [2.0, 3], 0).matrix, np.kron(SX, np.eye(3)))
