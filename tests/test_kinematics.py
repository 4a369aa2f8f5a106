import math

import numpy as np
import pytest

from avcp.errors import DimTooSmall, UnsafeState
from avcp.kinematics import (
    boundary_weight,
    build_fock,
    canonical_defect,
    coherent_state,
    displacement_shift_residual,
    displacement_unitary,
    momentum_invariance_residual,
    photon_drift_check,
)
from avcp.operators import QuantumState, commutator, expectation, max_norm


def test_ladder_entries_small_sizes():
    f2 = build_fock(2)
    assert np.array_equal(f2.lowering, np.array([[0, 1], [0, 0]], dtype=complex))
    f3 = build_fock(3)
    assert f3.lowering[0, 1] == pytest.approx(1.0)
    assert f3.lowering[1, 2] == pytest.approx(math.sqrt(2))


def test_operators_pass_hermiticity_gate():
    f = build_fock(16)
    # construction already went through the gate; sanity-check the formulas
    s = math.sqrt(f.alpha / 2)
    want_x = s * (f.lowering + f.lowering.conj().T)
    assert max_norm(f.x_op.matrix - want_x) <= 1e-15


def test_min_levels():
    with pytest.raises(DimTooSmall):
        build_fock(1)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_build_fock_rejects_a_non_positive_or_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        build_fock(8, alpha)


def test_defect_2x2_direct_oracle():
    f = build_fock(2, alpha=1.0)
    x, p = f.x_op.matrix, f.p_op.matrix
    direct = x @ p - p @ x - 1j * np.eye(2)  # explicit 2x2 products
    d = canonical_defect(f)
    assert np.allclose(d, direct, atol=0)
    assert d[1, 1] == pytest.approx(-2j)
    assert abs(d[0, 0]) <= 1e-15


def test_defect_corner_value_n5():
    d = canonical_defect(build_fock(5))
    assert d[4, 4] == pytest.approx(-5j, abs=1e-13)
    off = d.copy()
    off[4, 4] = 0
    assert max_norm(off) <= 1e-14


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_defect_locality_structure(alpha):
    for n in range(2, 65):
        d = canonical_defect(build_fock(n, alpha))
        corner = d[n - 1, n - 1]
        assert abs(corner - (-1j * alpha * n)) <= 1e-12 * max(1.0, alpha * n)
        body = np.array(d)
        body[n - 1, n - 1] = 0
        diag = np.abs(np.diag(body)).max()
        np.fill_diagonal(body, 0)
        # strictly off-diagonal entries cancel structurally: exactly zero
        assert max_norm(body) == 0.0
        # diagonal entries differ from i*alpha only by float rounding
        assert diag <= 1e-13 * max(1.0, alpha)


def test_commutator_with_generator_is_i_on_safe_block():
    f = build_fock(32)
    c = commutator(f.x_op.matrix, f.p_op.matrix / f.alpha)
    block = c[: 32 - 2, : 32 - 2]
    assert max_norm(block - 1j * np.eye(30)) <= 1e-13


def test_displacement_at_zero_is_identity():
    f = build_fock(8)
    assert max_norm(displacement_unitary(f, 0.0) - np.eye(8)) <= 1e-12


def test_displacement_shifts_position_against_highdim_reference():
    beta = 1.1 + 0.2j
    eps = 0.1
    ref = build_fock(128)
    ref_state = coherent_state(ref, beta)
    assert boundary_weight(ref_state) <= 1e-10
    assert displacement_shift_residual(ref, ref_state, eps) <= 1e-8

    f = build_fock(64)
    state = coherent_state(f, beta)
    assert displacement_shift_residual(f, state, eps) <= 1e-6


def test_displacement_preserves_momentum():
    f = build_fock(64)
    state = coherent_state(f, 0.9 - 0.4j)
    assert momentum_invariance_residual(f, state, 0.1) <= 1e-10


def test_shift_residual_decreases_with_levels():
    beta = 0.55 + 0.25j  # must already be safe at 16 levels
    eps = 0.1
    residuals = []
    for n in (16, 32, 64, 128):
        f = build_fock(n)
        state = coherent_state(f, beta)
        residuals.append(displacement_shift_residual(f, state, eps))
    assert all(a >= b or b <= 1e-14 for a, b in zip(residuals, residuals[1:]))


def test_photon_drift_gaussian_profile():
    f = build_fock(64)
    state = coherent_state(f, 1.3)
    assert photon_drift_check(f, 1.0, state, 1e-4) <= 1e-5


def test_photon_drift_zero_velocity():
    f = build_fock(32)
    state = coherent_state(f, 0.8)
    assert photon_drift_check(f, 0.0, state, 1e-4) <= 1e-10


def test_unsafe_state_guard_fires():
    f = build_fock(16)
    top_heavy = QuantumState.normalized(np.linspace(0, 1, 16))
    with pytest.raises(UnsafeState):
        photon_drift_check(f, 1.0, top_heavy, 1e-4)


def test_alpha_scales_defect_and_drift():
    alpha = 2.5
    f = build_fock(48, alpha)
    d = canonical_defect(f)
    assert d[47, 47] == pytest.approx(-1j * alpha * 48, rel=1e-12)
    state = coherent_state(f, 1.0)
    assert photon_drift_check(f, 0.7, state, 1e-4) <= 1e-5


def test_coherent_state_position_expectation():
    # <x> of a coherent state is sqrt(2 alpha) Re(beta)
    f = build_fock(96)
    beta = 0.8 + 0.3j
    state = coherent_state(f, beta)
    want = math.sqrt(2 * f.alpha) * beta.real
    assert expectation(f.x_op, state) == pytest.approx(want, abs=1e-9)
