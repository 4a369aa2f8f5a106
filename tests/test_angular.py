import math

import numpy as np
import pytest

from avcp.angular import (
    casimir_matrix,
    check_frame_rotation_covariance,
    check_rotation_identity,
    commutant_scalar_residual,
    expectation_vector,
    full_turn_matrix,
    rotation_generator,
    spin_operators,
)
from avcp.errors import DimMismatch, DimTooSmall
from avcp.operators import QuantumState, commutator, make_rng, max_norm, random_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_two_dimensional_triple_is_half_paulis():
    t = spin_operators(2, alpha=1.0)
    assert np.allclose(t.lx.matrix, SX / 2, atol=1e-15)
    assert np.allclose(t.ly.matrix, SY / 2, atol=1e-15)
    assert np.allclose(t.lz.matrix, SZ / 2, atol=1e-15)


def test_three_dimensional_lz_diagonal():
    t = spin_operators(3, alpha=2.0)
    assert np.allclose(t.lz.matrix, 2.0 * np.diag([1.0, 0.0, -1.0]), atol=1e-15)


def test_min_dimension():
    with pytest.raises(DimTooSmall):
        spin_operators(1)


def test_component_names_its_axis():
    t = spin_operators(3)
    assert t.component("y") is t.ly
    with pytest.raises(ValueError, match="axis must be x, y or z, not 'w'"):
        t.component("w")


def test_casimir_spin_half():
    t = spin_operators(2)
    assert np.allclose(casimir_matrix(t), 0.75 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_commutators_and_casimir(n):
    alpha = 1.0
    t = spin_operators(n, alpha)
    for a, b, c in ((t.lx, t.ly, t.lz), (t.ly, t.lz, t.lx), (t.lz, t.lx, t.ly)):
        assert max_norm(commutator(a, b) - 1j * alpha * c.matrix) <= 1e-10
    want = alpha**2 * t.j * (t.j + 1) * np.eye(n)
    assert max_norm(casimir_matrix(t) - want) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_rotation_generator_relations(n):
    t = spin_operators(n)
    rz = rotation_generator("z", t)
    assert max_norm(rz.matrix - t.lz.matrix / t.alpha) <= 1e-15
    assert max_norm(commutator(rz, t.lx) - 1j * t.ly.matrix) <= 1e-10
    assert max_norm(commutator(rz, t.ly) + 1j * t.lx.matrix) <= 1e-10
    assert max_norm(commutator(rz, t.lz)) <= 1e-10


def test_expectation_vector_basis_states():
    alpha = 1.0
    t = spin_operators(2, alpha)
    up = QuantumState([1, 0])
    assert np.allclose(expectation_vector(t, up), [0, 0, alpha / 2], atol=1e-12)
    plus = QuantumState(np.array([1, 1]) / math.sqrt(2))
    assert np.allclose(expectation_vector(t, plus), [alpha / 2, 0, 0], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_expectation_vector_norm_bound(n):
    t = spin_operators(n)
    for seed in range(5):
        v = random_state(n, make_rng(seed))
        assert np.linalg.norm(expectation_vector(t, v)) <= t.alpha * t.j + 1e-12


def test_expectation_vector_dim_mismatch():
    with pytest.raises(DimMismatch):
        expectation_vector(spin_operators(3), QuantumState([1, 0]))


def test_rotation_identity_zero_angle():
    t = spin_operators(2)
    v = random_state(2, make_rng(1))
    assert check_rotation_identity(t, v, 0.0) == 0.0


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 4)])
def test_rotation_identity_cubic_scaling(n, seed):
    t = spin_operators(n)
    v = random_state(n, make_rng(seed))
    eps = 0.05
    ratio = check_rotation_identity(t, v, eps) / check_rotation_identity(t, v, eps / 2)
    assert 6.0 <= ratio <= 10.0


def test_frame_covariance_zero_angle():
    t = spin_operators(3)
    v = random_state(3, make_rng(2))
    assert check_frame_rotation_covariance(t, v, 0.0) == 0.0


def test_frame_covariance_lz_invariant_for_up_state():
    t = spin_operators(2)
    up = QuantumState([1, 0])
    assert check_frame_rotation_covariance(t, up, 0.08) <= 1e-14


def test_frame_covariance_quadratic_scaling():
    t = spin_operators(3)
    v = random_state(3, make_rng(3))
    r = [check_frame_rotation_covariance(t, v, eps) for eps in (0.1, 0.05, 0.025)]
    assert 3.2 <= r[0] / r[1] <= 4.8
    assert 3.2 <= r[1] / r[2] <= 4.8


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_commutant_contains_only_scalars(n):
    null_dim, residual = commutant_scalar_residual(spin_operators(n))
    assert null_dim == 1
    assert residual <= 1e-8


@pytest.mark.parametrize("n", range(2, 13))
def test_full_turn_sign(n):
    t = spin_operators(n)
    sign = 1.0 if n % 2 == 1 else -1.0  # integer spin iff odd dimension
    assert max_norm(full_turn_matrix(t) - sign * np.eye(n)) <= 1e-10


def test_alpha_scaling():
    alpha = 3.0
    t = spin_operators(4, alpha)
    for a, b, c in ((t.lx, t.ly, t.lz),):
        assert max_norm(commutator(a, b) - 1j * alpha * c.matrix) <= 1e-10 * alpha**2
    rz = rotation_generator("z", t)
    assert max_norm(commutator(rz, t.lx) - 1j * t.ly.matrix) <= 1e-10 * alpha
