import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import avcp.angular
import avcp.evolution
import avcp.kinematics
import avcp.operators
from avcp.angular import check_frame_rotation_covariance, check_rotation_identity, spin_operators
from avcp.errors import AvcpError, ConvergenceFailure, DimMismatch, NonFinite, ScheduleGap
from avcp.evolution import (
    HamiltonianSchedule,
    check_ehrenfest,
    check_energy_conservation,
    evolve,
    evolved_expectation,
    propagate,
    propagator,
    real_number,
    whole_number,
)
from avcp.experiments import EvolutionWindow
from avcp.kinematics import (
    _require_safe,
    build_fock,
    coherent_state,
    displacement_shift_residual,
    momentum_invariance_residual,
    photon_drift_check,
)
from avcp.operators import (
    HermitianOperator,
    QuantumState,
    as_complex_matrix,
    commutator,
    eigh_stack,
    expectation,
    hermitian_from_matrix,
    hermitian_gate,
    make_rng,
    max_norm,
    operator_to_dict,
    random_hermitian,
    random_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _expm_series(m, terms=80):
    """Independent scaling-and-squaring Taylor summation."""
    norm = np.abs(m).max()
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    x = m / (2**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


# --- propagator ----------------------------------------------------------------


def test_zero_hamiltonian_gives_identity():
    h = hermitian_from_matrix(np.zeros((3, 3)))
    assert max_norm(propagator(h, 2.7) - np.eye(3)) <= 1e-14


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_eigenstate_picks_up_energy_phase(alpha):
    h = hermitian_from_matrix(np.diag([1.3, -0.4]))
    dt = 0.81
    u = propagator(h, dt, alpha)
    got = (u @ np.array([1.0, 0.0]))[0]
    assert got == pytest.approx(np.exp(-1j * 1.3 * dt / alpha), abs=1e-12)


def test_propagator_matches_series_oracle():
    h = hermitian_from_matrix(SX)
    dt = math.pi
    got = propagator(h, dt, 1.0)
    want = _expm_series(-1j * dt * SX)
    assert max_norm(got - want) <= 1e-12
    # second independent route
    assert max_norm(got - scipy.linalg.expm(-1j * dt * SX)) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_propagator_against_scipy_on_randoms(seed):
    rng = make_rng(seed)
    h = random_hermitian(int(rng.integers(2, 7)), rng)
    dt = float(rng.uniform(-2, 2))
    alpha = float(rng.uniform(0.5, 2.0))
    got = propagator(h, dt, alpha)
    want = scipy.linalg.expm(-1j * h.matrix * dt / alpha)
    assert max_norm(got - want) <= 1e-11


def test_unitarity_and_composition():
    rng = make_rng(10)
    for _ in range(10):
        h = random_hermitian(4, rng)
        t1, t2 = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        u1, u2, u12 = propagator(h, t1), propagator(h, t2), propagator(h, t1 + t2)
        assert max_norm(u1.conj().T @ u1 - np.eye(4)) <= 1e-10
        assert max_norm(u2 @ u1 - u12) <= 1e-10


# --- propagate -------------------------------------------------------------------


def test_propagate_of_a_matrix_is_propagate_of_each_column():
    rng = make_rng(20)
    h = random_hermitian(6, rng)
    cols = np.stack([random_state(6, rng).amplitudes for _ in range(4)], axis=1)
    got = propagate(h, 0.83, cols, 1.3)
    for k in range(cols.shape[1]):
        # matrix and vector products may round differently in the last bit
        assert np.abs(got[:, k] - propagate(h, 0.83, cols[:, k], 1.3)).max() <= 1e-15


def test_propagate_at_zero_dt_returns_the_input():
    h = random_hermitian(5, make_rng(21))
    amps = random_state(5, make_rng(22)).amplitudes
    assert np.array_equal(propagate(h, 0.0, amps), amps)


@pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
def test_propagate_rejects_non_finite_dt(dt):
    h = random_hermitian(3, make_rng(23))
    with pytest.raises(ValueError):
        propagate(h, dt, np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        propagator(h, dt)


def test_state_moving_checks_never_build_the_matrix(monkeypatch):
    def built(*args):
        raise AssertionError("built the d x d propagator to move one state")

    for module in (avcp.evolution, avcp.kinematics, avcp.angular):
        monkeypatch.setattr(module, "propagator", built)
    rng = make_rng(24)
    h, f = random_hermitian(4, rng), random_hermitian(4, rng)
    v = random_state(4, rng)
    evolve(v, HamiltonianSchedule.constant(h, 0.0, 1.0), 8)
    check_energy_conservation(v, h, 0.5)
    check_ehrenfest(f, h, v, 1e-4)
    fock = build_fock(32)
    safe = coherent_state(fock, 0.8 + 0.3j)
    displacement_shift_residual(fock, safe, 0.1)
    momentum_invariance_residual(fock, safe, 0.1)
    photon_drift_check(fock, 0.7, safe, 1e-3)
    spin = spin_operators(3)
    check_rotation_identity(spin, random_state(3, rng), 0.1)
    check_frame_rotation_covariance(spin, random_state(3, rng), 0.1)


# --- evolve against the matrix-per-slice reference ------------------------------------


def _reference_evolve(v, sched, steps):
    """Reference slice loop: build the d x d propagator (V * phases) @ V^dag at
    each midpoint, multiply the state by it, renormalise."""

    def matrix(h, dt, alpha):
        s = h.spectrum
        phases = np.exp(-1j * s.eigenvalues * (dt / alpha))
        return (s.eigenvectors * phases) @ s.eigenvectors.conj().T

    amps = np.array(v.amplitudes, dtype=complex)
    dt = (sched.t_end - sched.t_start) / steps
    for k in range(steps):
        mid = sched.t_start + (k + 0.5) * dt
        amps = matrix(sched.at(mid), dt, sched.alpha) @ amps
        amps /= np.linalg.norm(amps)
    return amps


def _constant_d64():
    rng = make_rng(30)
    return random_state(64, rng), HamiltonianSchedule.constant(random_hermitian(64, rng), 0.0, 2.5, 0.8), 128


def _three_pieces_d8():
    rng = make_rng(31)
    hs = [random_hermitian(8, rng) for _ in range(3)]
    # 7 slices of width 2/7: the second and fourth straddle the piece boundaries
    sched = HamiltonianSchedule.piecewise([(0.0, 0.35, hs[0]), (0.35, 1.1, hs[1]), (1.1, 2.0, hs[2])], 1.4)
    return random_state(8, rng), sched, 7


def _callable_d3():
    rng = make_rng(32)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    sched = HamiltonianSchedule.from_function(
        lambda t: HermitianOperator(h0.matrix + math.sin(t) * h1.matrix), -0.5, 1.5
    )
    return random_state(3, rng), sched, 40


@pytest.mark.parametrize("case", [_constant_d64, _three_pieces_d8, _callable_d3], ids=lambda c: c.__name__[1:])
def test_evolve_matches_the_matrix_per_slice_reference(case):
    v, sched, steps = case()
    got = evolve(v, sched, steps).amplitudes
    assert np.abs(got - _reference_evolve(v, sched, steps)).max() <= 1e-12


# --- callable schedules: slices diagonalised in blocks ------------------------------


def _per_slice_evolve(v, fn, t0, t1, steps, alpha):
    """Unblocked reference: per slice, one operator, its single `eigensystem` (through the
    `spectrum` property that `propagate` reads), one `propagate`, renormalise."""
    amps = np.array(v.amplitudes, dtype=complex)
    dt = (t1 - t0) / steps
    for k in range(steps):
        amps = propagate(HermitianOperator(fn(t0 + (k + 0.5) * dt)), dt, amps, alpha)
        amps /= float(np.linalg.norm(amps))
    return amps


def _linear_drive(d, seed):
    rng = make_rng(seed)
    h0, h1 = random_hermitian(d, rng).matrix, random_hermitian(d, rng).matrix
    return random_state(d, rng), lambda t: h0 + t * h1


@pytest.mark.parametrize("d, steps", [(3, 4096), (16, 300)])
def test_blocked_evolve_is_bytewise_the_per_slice_loop(d, steps):
    # 300 slices at d = 16: one full block of 256 and a partial one
    v, fn = _linear_drive(d, 50 + d)
    got = evolve(v, HamiltonianSchedule.from_function(fn, -0.25, 1.0, 0.9), steps).amplitudes
    assert got.tobytes() == _per_slice_evolve(v, fn, -0.25, 1.0, steps, 0.9).tobytes()


def test_callable_is_called_once_per_slice_in_midpoint_order():
    v, fn = _linear_drive(3, 60)
    calls = []
    sched = HamiltonianSchedule.from_function(lambda t: calls.append(t) or fn(t), 0.5, 2.0)
    evolve(v, sched, 600)
    dt = 1.5 / 600
    assert calls == [0.5 + (k + 0.5) * dt for k in range(600)]


class _Tracked(HermitianOperator):
    """HermitianOperator that admits weak references."""


def test_at_most_one_block_of_slice_operators_is_alive():
    rng = make_rng(61)
    h0, h1 = random_hermitian(3, rng).matrix, random_hermitian(3, rng).matrix
    alive = weakref.WeakSet()
    peak = 0

    def fn(t):
        nonlocal peak
        h = _Tracked(h0 + t * h1)
        alive.add(h)
        peak = max(peak, len(alive))
        return h

    evolve(random_state(3, rng), HamiltonianSchedule.from_function(fn, 0.0, 1.0), 20_000)
    assert peak <= avcp.evolution._BLOCK_SLICES


# --- evolve against the earlier blocked slice loop ---------------------------------


def _blocked_reference_evolve(v, sched, steps):
    """The earlier library loop, kept as the byte reference for callables and the slow per-slice
    reference for pieces: each slice's shape checked in turn before the block is stacked, the
    eigenvectors conjugated per slice (once per run for pieces), and the norm taken by `np.linalg.norm`
    on a freshly allocated product."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    span = sched.t_end - sched.t_start
    if span == 0:
        return QuantumState(v.amplitudes.copy(), v.factor_dims)
    if sched.fn is None and sched.dim != v.dim:
        raise DimMismatch(f"schedule dim {sched.dim} vs state dim {v.dim}")
    amps = np.array(v.amplitudes, dtype=complex)
    dt = span / steps
    block = max(1, min(avcp.evolution._BLOCK_SLICES, avcp.evolution._BLOCK_ENTRIES // v.dim**2))
    last = None
    for start in range(0, steps, block):
        mids = [sched.t_start + (k + 0.5) * dt for k in range(start, min(start + block, steps))]
        if sched.fn is None:
            spectra = [sched.at(t).spectrum for t in mids]
            values, vectors = np.array([s.eigenvalues for s in spectra]), [s.eigenvectors for s in spectra]
        else:
            mats = [h.matrix if isinstance(h, HermitianOperator) else h for h in map(sched.fn, mids)]
            for m in mats:
                if np.shape(m) != (v.dim, v.dim):
                    raise DimMismatch(f"schedule dim {as_complex_matrix(m).shape[0]} vs state dim {v.dim}")
            mats = np.array(mats, dtype=complex)
            hermitian_gate(mats)
            values, vectors, _, _ = eigh_stack(mats)
        for phases, vecs in zip(np.exp(-1j * values * (dt / sched.alpha)), vectors):
            if vecs is not last:
                last, vecs_h = vecs, vecs.conj().T
            amps = vecs @ (phases * (vecs_h @ amps))
            norm = float(np.linalg.norm(amps))
            if abs(norm - 1.0) > avcp.evolution._NORM_DRIFT_TOL:
                raise DimMismatch(f"norm drifted by {abs(norm - 1.0):.3e} in one slice")
            amps /= norm
    return QuantumState(amps, v.factor_dims)


@pytest.mark.parametrize("form", ["ndarray", "operator", "nested_list"])
@pytest.mark.parametrize("steps", [4096, 257, 513, 1])
def test_evolve_is_bytewise_the_earlier_slice_loop_for_callables(form, steps):
    # blocks of 256 at d = 3: 4096 fills 16 blocks, 257 and 513 end one slice past a block edge
    v, fn = _linear_drive(3, 80)
    wrap = {"ndarray": fn, "operator": lambda t: HermitianOperator(fn(t)), "nested_list": lambda t: fn(t).tolist()}
    sched = HamiltonianSchedule.from_function(wrap[form], -0.3, 1.1, 0.7)
    got = evolve(v, sched, steps).amplitudes
    assert np.array_equal(got, _blocked_reference_evolve(v, sched, steps).amplitudes)


# --- piecewise schedules: one propagation per run of slices on a piece -------------


def _three_pieces_d100():
    rng = make_rng(81)
    hs = [random_hermitian(100, rng) for _ in range(3)]
    sched = HamiltonianSchedule.piecewise([(0.0, 0.4, hs[0]), (0.4, 1.3, hs[1]), (1.3, 2.0, hs[2])], 1.2)
    return random_state(100, rng), sched


def _expm_over_runs(v, sched, steps):
    """Independent oracle: scipy's expm of -i H k dt / alpha for each maximal run of k midpoints in one
    piece, the pieces scanned in order and a midpoint on a shared endpoint taken by the earlier piece."""
    dt = (sched.t_end - sched.t_start) / steps
    runs = []
    for k in range(steps):
        mid = sched.t_start + (k + 0.5) * dt
        h = next(h for a, b, h in sched.pieces if a <= mid <= b)
        if runs and runs[-1][0] is h:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    amps = v.amplitudes
    for h, k in runs:
        amps = scipy.linalg.expm(-1j * h.matrix * (k * dt / sched.alpha)) @ amps
    return amps


def _run_reference_evolve(v, sched, steps):
    """Byte reference: `sched.at` at each midpoint, then one `propagate` per run of consecutive slices
    on the same operator, each followed by a renormalisation."""
    dt = (sched.t_end - sched.t_start) / steps
    hs = [sched.at(sched.t_start + (k + 0.5) * dt) for k in range(steps)]
    amps = np.array(v.amplitudes, dtype=complex)
    first = 0
    for k in range(1, steps + 1):
        if k == steps or hs[k] is not hs[first]:
            amps = propagate(hs[first], (k - first) * dt, amps, sched.alpha)
            amps /= float(np.linalg.norm(amps))
            first = k
    return amps


@pytest.mark.parametrize("steps", [7, 300, 4096])
def test_evolve_on_pieces_matches_expm_over_runs_at_d100(steps):
    # blocks of 104 slices at d = 100: 300 and 4096 slices cross block edges and both piece boundaries
    v, sched = _three_pieces_d100()
    want = _expm_over_runs(v, sched, steps)
    got = evolve(v, sched, steps).amplitudes
    err = np.abs(got - want).max()
    assert err <= 1e-13
    assert err <= np.abs(_blocked_reference_evolve(v, sched, steps).amplitudes - want).max()
    assert got.tobytes() == _run_reference_evolve(v, sched, steps).tobytes()


def _boundary_pieces(zero_length):
    """Four slices of 0.5 over [0, 2]: the midpoint 0.75 sits exactly on the first boundary."""
    rng = make_rng(83)
    hs = [random_hermitian(5, rng) for _ in range(3)]
    pieces = [(0.0, 0.75, hs[0]), (0.75, 0.75, hs[1]), (0.75, 2.0, hs[2])]
    if not zero_length:
        del pieces[1]
    return random_state(5, rng), HamiltonianSchedule.piecewise(pieces, 0.9), hs


@pytest.mark.parametrize("zero_length", [False, True])
def test_a_midpoint_on_a_boundary_runs_with_the_earlier_piece(zero_length, monkeypatch):
    v, sched, hs = _boundary_pieces(zero_length)
    want = _run_reference_evolve(v, sched, 4)
    calls = []
    real = avcp.evolution.propagate
    monkeypatch.setattr(avcp.evolution, "propagate", lambda h, dt, *a: calls.append((h, dt)) or real(h, dt, *a))
    assert evolve(v, sched, 4).amplitudes.tobytes() == want.tobytes()
    assert calls == [(hs[0], 1.0), (hs[2], 1.0)]


@pytest.mark.parametrize("steps", [1, 3])
def test_a_midpoint_in_an_admitted_gap_still_raises_schedule_gap(steps):
    # the pieces are 8e-13 apart, inside the 1e-12 contiguity tolerance; the midpoint 0.5 is in the gap
    rng = make_rng(84)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    sched = HamiltonianSchedule.piecewise([(0.0, 0.5 - 4e-13, h0), (0.5 + 4e-13, 1.0, h1)])
    v = random_state(3, rng)
    with pytest.raises(ScheduleGap) as want:
        _blocked_reference_evolve(v, sched, steps)
    with pytest.raises(ScheduleGap) as got:
        evolve(v, sched, steps)
    assert str(got.value) == str(want.value)


def test_three_pieces_take_three_propagations(monkeypatch):
    v, sched = _three_pieces_d100()
    calls = []
    real = avcp.evolution.propagate
    monkeypatch.setattr(avcp.evolution, "propagate", lambda h, *a: calls.append(h) or real(h, *a))
    evolve(v, sched, 4096)
    assert calls == [h for _, _, h in sched.pieces]


@pytest.mark.parametrize("sched", [
    HamiltonianSchedule.constant(HermitianOperator(SZ), 0.0, 1.0),
    HamiltonianSchedule.from_function(lambda t: SX + t * SZ, 0.0, 1.0),
], ids=["pieces", "callable"])
def test_evolve_reads_steps_through_the_whole_number_rule(sched):
    v = QuantumState.normalized(np.array([1.0, 1.0j]))
    with pytest.raises(ValueError, match=r"^steps must be a whole number, got True$"):
        evolve(v, sched, True)
    assert evolve(v, sched, 2.0).amplitudes.tobytes() == evolve(v, sched, 2).amplitudes.tobytes()


@pytest.mark.parametrize("value", ["128", " 7 ", "1e3", None, [3]],
                         ids=["digits", "padded", "exponent", "null", "list"])
def test_whole_number_rejects_what_is_not_a_real_number(value):
    with pytest.raises(ValueError, match=rf"^steps must be a whole number, got {re.escape(repr(value))}$"):
        whole_number(value, "steps")


@pytest.mark.parametrize("value", [np.int64(7), np.uint8(7), np.float64(7.0), np.float32(7.0)], ids=repr)
def test_whole_number_reads_numpy_scalars(value):
    got = whole_number(value, "steps")
    assert got == 7 and type(got) is int


@pytest.mark.parametrize("value", ["0.5", " 1 ", True, None, [1]], ids=["digits", "padded", "true", "null", "list"])
def test_real_number_rejects_what_is_not_a_real_number(value):
    with pytest.raises(ValueError, match=rf"^t1 must be a real number, got {re.escape(repr(value))}$"):
        real_number(value, "t1")


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(2), 2], ids=repr)
def test_real_number_reads_python_and_numpy_numbers(value):
    got = real_number(value, "t1")
    assert got == float(value) and type(got) is float


@pytest.mark.parametrize("read", [whole_number, real_number])
@pytest.mark.parametrize("value, bits", [(10**400, 1329), (-(10**400), 1329), (2**1024 - 1, 1024)],
                         ids=["large", "large_negative", "rounds_up_to_2**1024"])
def test_an_integer_beyond_the_float_range_is_a_value_error_naming_the_field(read, value, bits):
    with pytest.raises(ValueError, match=rf"^steps is too large for a float, got an integer of {bits} bits$"):
        read(value, "steps")


@pytest.mark.parametrize("value, least", [(0, 1), (-1, 0), (-3.0, 1), (np.int64(0), 1)], ids=repr)
def test_whole_number_below_least_is_a_value_error_naming_the_field_and_the_bound(value, least):
    with pytest.raises(ValueError, match=rf"^steps must be at least {least}, got {int(value)}$"):
        whole_number(value, "steps", least)
    assert whole_number(value, "steps") == value and whole_number(least, "steps", least) == least


def test_make_rng_reads_its_seed_through_the_whole_number_rule():
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        make_rng(-1)
    with pytest.raises(ValueError, match=r"^seed must be a whole number, got True$"):
        make_rng(True)
    assert make_rng(7.0).random() == make_rng(7).random()


def test_the_largest_integer_that_rounds_down_reads_as_the_largest_float():
    assert real_number(2**1024 - 2**970 - 1, "t1") == np.finfo(float).max


@pytest.mark.parametrize("field, value", [("alpha", "0.5"), ("t0", "0"), ("t1", True)])
def test_schedule_times_and_alpha_are_read_only_from_json_numbers(field, value):
    d = HamiltonianSchedule.constant(HermitianOperator(SZ), 0.0, 1.0).to_dict()
    (d if field == "alpha" else d["pieces"][0])[field] = value
    with pytest.raises(ValueError, match=rf"^{field} must be a real number, got {re.escape(repr(value))}$"):
        HamiltonianSchedule.from_dict(d)


_SZ_OP = HermitianOperator(SZ)


@pytest.mark.parametrize("build, error", [
    (lambda: HamiltonianSchedule.constant(_SZ_OP, 0, 1, alpha="0.5"), "alpha must be a real number, got '0.5'"),
    (lambda: HamiltonianSchedule.piecewise([("0", 1.0, _SZ_OP)]), "t0 must be a real number, got '0'"),
    (lambda: HamiltonianSchedule.piecewise([(0.0, True, _SZ_OP)]), "t1 must be a real number, got True"),
    (lambda: HamiltonianSchedule.from_function(lambda t: _SZ_OP, 0, 1, alpha="0.5"),
     "alpha must be a real number, got '0.5'"),
    (lambda: HamiltonianSchedule.from_function(lambda t: _SZ_OP, "0", 1), "t_start must be a real number, got '0'"),
    (lambda: HamiltonianSchedule.from_function(lambda t: _SZ_OP, 0, True), "t_end must be a real number, got True"),
], ids=["constant_string_alpha", "piecewise_string_t0", "piecewise_bool_t1", "from_function_string_alpha",
        "from_function_string_start", "from_function_bool_end"])
def test_schedules_built_in_code_read_alpha_and_times_as_json_does(build, error):
    with pytest.raises(ValueError, match=rf"^{re.escape(error)}$"):
        build()


def test_schedules_built_in_code_read_integer_and_numpy_times_and_alpha_as_floats():
    sched = HamiltonianSchedule.constant(_SZ_OP, np.int64(0), 1, alpha=np.float32(0.5))
    assert sched.pieces[0][:2] == (0.0, 1.0) and sched.alpha == 0.5
    assert all(type(x) is float for x in (*sched.pieces[0][:2], sched.alpha, sched.t_start, sched.t_end))
    sched = HamiltonianSchedule.from_function(lambda t: _SZ_OP, 0, np.float64(2), alpha=2)
    assert all(type(x) is float for x in (sched.alpha, sched.t_start, sched.t_end))


def _faulty_drive(start, fault):
    """A d = 3 linear drive over [0, 1] whose slices from t = `start` on are `fault(t, matrix)`. Run with
    600 slices in blocks of 256, start 0.6 puts the first faulty slice (slice 360) inside the second block."""
    v, fn = _linear_drive(3, 82)
    return v, HamiltonianSchedule.from_function(lambda t: fault(t, fn(t)) if t >= start else fn(t), 0.0, 1.0)


_BAD_SLICES = {
    "wrong_dim_mid_block": (0.6, lambda t, m: np.eye(4) if t < 0.61 else m),
    "wrong_dim_whole_block": (0.0, lambda t, m: np.eye(4)),
    "ragged_block": (0.6, lambda t, m: m[:2, :2]),
    "ragged_slice": (0.6, lambda t, m: [list(m[0]), list(m[1, :2]), list(m[2])]),
    "not_a_matrix": (0.6, lambda t, m: None),
    "non_finite": (0.6, lambda t, m: _non_finite(m)),
    "non_hermitian": (0.6, lambda t, m: _skew(m)),
}


@pytest.mark.parametrize("name", list(_BAD_SLICES))
def test_evolve_raises_what_the_earlier_slice_loop_raised(name):
    v, sched = _faulty_drive(*_BAD_SLICES[name])
    with pytest.raises(Exception) as want:
        _blocked_reference_evolve(v, sched, 600)
    with pytest.raises(Exception) as got:
        evolve(v, sched, 600)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# --- a piece's single run at d >= 128: Lanczos instead of an eigendecomposition ---------


def _counting(monkeypatch, module, name):
    """Record the arguments of each call of `module.name`, which still runs."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def _krylov_case(name, rng):
    """(H, state) of one oracle input; the eigenvector state is H's eighth eigenvector."""
    d = 128 if name.startswith("random_d128") else 256
    v = random_state(d, rng).amplitudes
    if name.startswith("random"):
        return random_hermitian(d, rng), v
    if name.startswith("fock_x"):
        return build_fock(d).x_op, v
    if name == "diagonal":
        return HermitianOperator(np.diag(rng.normal(size=d))), v
    if name == "degenerate":  # three d/3-fold eigenvalues: the Krylov space is invariant from step 3
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        m = (q * (np.arange(d) % 3 - 1.0)) @ q.conj().T
        return HermitianOperator((m + m.conj().T) / 2), v
    if name == "scalar":
        return HermitianOperator(3.0 * np.eye(d)), v
    h = random_hermitian(d, rng)
    return h, np.linalg.eigh(h.matrix)[1][:, 7]


@pytest.mark.parametrize("name, tau, falls_back", [
    ("random_d128", 1.0, False),
    ("random_d128_wide", 2.0, True),
    ("random_d256", 2.0, False),
    ("random_d256_wide", 3.3, True),
    ("fock_x", 1.0, False),
    ("fock_x_wide", 3.0, False),
    ("diagonal", 1.0, False),
    ("degenerate", 1.0, False),
    ("scalar", 1.0, False),
    ("eigenvector", 1.0, False),
])
def test_lanczos_matches_scipy_expm_or_gives_up(name, tau, falls_back):
    h, v = _krylov_case(name, make_rng(91))
    got = avcp.evolution._lanczos(h, tau, v)
    assert (got is None) == falls_back
    got = propagate(h, tau, v) if got is None else got  # what evolve applies in its place
    assert np.abs(got - scipy.linalg.expm(-1j * tau * h.matrix) @ v).max() <= 1e-12


@pytest.mark.parametrize("name, tau", [("random_d128_wide", 2.0), ("random_d256_wide", 3.3)])
def test_lanczos_gives_up_by_its_step_bound_by_step_16(name, tau, monkeypatch):
    h, v = _krylov_case(name, make_rng(91))
    eighs = _counting(monkeypatch, np.linalg, "eigh")  # one eigh of T_m per check, every 8 steps
    assert avcp.evolution._lanczos(h, tau, v) is None
    assert len(eighs) <= 2


def test_lanczos_gives_up_after_d_over_2_steps_and_evolve_then_propagates(monkeypatch):
    h, v = _krylov_case("random_d128_wide", make_rng(91))
    monkeypatch.setattr(avcp.evolution, "_KRYLOV_RUN_STEPS", -(10**9))  # the step bound never passes d / 2
    eighs = _counting(monkeypatch, np.linalg, "eigh")
    assert avcp.evolution._lanczos(h, 2.0, v) is None
    assert len(eighs) == 64 // 8  # a check every 8 steps, through all d / 2 = 64
    got = evolve(QuantumState(v), HamiltonianSchedule.constant(h, 0.0, 2.0), 64).amplitudes
    assert np.abs(got - scipy.linalg.expm(-2j * h.matrix) @ v).max() <= 1e-12


def test_lanczos_raises_when_its_basis_is_not_orthonormal(monkeypatch):
    rng = make_rng(92)
    h, v = random_hermitian(256, rng), random_state(256, rng).amplitudes
    monkeypatch.setattr(avcp.evolution, "SPECTRUM_TOL", 0.0)
    with pytest.raises(ConvergenceFailure, match=r"^Krylov basis is not orthonormal$"):
        avcp.evolution._lanczos(h, 1.0, v)


def _alternating(h0, h1, runs, span=1.0):
    """Pieces h0, h1, h0, ... over [0, span]: `runs` runs on each of the two."""
    edges = np.linspace(0.0, span, 2 * runs + 1)
    return HamiltonianSchedule.piecewise([(edges[i], edges[i + 1], (h0, h1)[i % 2]) for i in range(2 * runs)])


def test_evolve_takes_lanczos_for_every_run_from_d_128(monkeypatch):
    rng = make_rng(93)
    v = random_state(256, rng)
    calls = _counting(monkeypatch, avcp.operators, "eigh_stack")
    one_piece = HamiltonianSchedule.constant(random_hermitian(256, rng), 0.0, 1.0)
    assert np.abs(evolve(v, one_piece, 128).amplitudes - _expm_over_runs(v, one_piece, 128)).max() <= 1e-12
    assert len(calls) == 0
    # a piece reused on runs that are not adjacent takes Lanczos on each run, however many and short
    for runs, span in ((2, 1.0), (5, 1.0), (2, 1e-4)):
        many = _alternating(random_hermitian(256, rng), random_hermitian(256, rng), runs, span)
        got = evolve(v, many, 128).amplitudes
        assert len(calls) == 0
        assert np.abs(got - _expm_over_runs(v, many, 128)).max() <= 1e-12
    wide = HamiltonianSchedule.constant(random_hermitian(256, rng), 0.0, 1.0, 0.3)  # gives up at step 8
    assert evolve(v, wide, 128).amplitudes.tobytes() == _run_reference_evolve(v, wide, 128).tobytes()
    assert len(calls) == 1


def test_pieces_read_from_json_with_equal_operators_each_take_lanczos(monkeypatch):
    """`from_dict` reads each piece's operator anew, so equal operator dicts are two pieces of one run each."""
    rng = make_rng(96)
    op, v = operator_to_dict(random_hermitian(256, rng)), random_state(256, rng)
    sched = HamiltonianSchedule.from_dict([{"t0": 0.0, "t1": 0.5, "operator": op},
                                           {"t0": 0.5, "t1": 1.0, "operator": op}])
    runs = list(avcp.evolution._runs(sched, 128))
    assert len(runs) == 2 and runs[0][0] is not runs[1][0]
    outs, real = [], avcp.evolution._lanczos
    monkeypatch.setattr(avcp.evolution, "_lanczos", lambda *a: outs.append(real(*a)) or outs[-1])
    calls = _counting(monkeypatch, avcp.operators, "eigh_stack")
    got = evolve(v, sched, 128).amplitudes
    assert len(outs) == 2 and all(out is not None for out in outs)
    assert len(calls) == 0
    assert np.abs(got - _expm_over_runs(v, sched, 128)).max() <= 1e-12


@pytest.mark.parametrize("t2, gives_up", [(2.0, False), (4.0, True)], ids=["both_lanczos", "longer_gives_up"])
def test_window_legs_each_take_the_path_of_a_lone_evolve(t2, gives_up, monkeypatch):
    """Each leg of a d = 256 window is one `evolve`: at t2 = 4 the longer leg's run passes the Lanczos bound
    and gives up, although the shorter leg's run on the same piece took Lanczos."""
    rng = make_rng(95)
    h, v = random_hermitian(256, rng), random_state(256, rng)
    window = EvolutionWindow(HamiltonianSchedule.constant(h, 0.0, t2), 1.0, t2, 64)
    calls = _counting(monkeypatch, avcp.operators, "eigh_stack")
    states = window.states(v)
    assert len(calls) == gives_up
    for t, got in zip((1.0, t2), states):
        assert got.amplitudes.tobytes() == evolve(v, window.schedule.restrict(0.0, t), 64).amplitudes.tobytes()


@pytest.mark.parametrize("d, krylov", [(127, False), (128, True)])
def test_evolve_takes_the_krylov_path_from_d_128_whatever_is_cached(d, krylov, monkeypatch):
    rng = make_rng(94)
    h, v = random_hermitian(d, rng), random_state(d, rng)
    sched = HamiltonianSchedule.constant(h, 0.0, 1.0)
    fresh = evolve(v, sched, 64).amplitudes
    h.spectrum  # a cached eigenbasis does not change the path
    calls = _counting(monkeypatch, avcp.evolution, "propagate")
    assert evolve(v, sched, 64).amplitudes.tobytes() == fresh.tobytes()
    assert len(calls) == (not krylov)


# --- schedules and evolve ----------------------------------------------------------


def test_time_independent_slicing_matches_single_propagator():
    h = random_hermitian(3, make_rng(4))
    v = random_state(3, make_rng(5))
    sched = HamiltonianSchedule.constant(h, 0.0, 1.7)
    direct = propagator(h, 1.7) @ v.amplitudes
    for steps in (1, 7, 50):
        got = evolve(v, sched, steps).amplitudes
        assert np.abs(got - direct).max() <= 1e-12


def test_zero_duration_schedule_is_identity():
    h = random_hermitian(3, make_rng(4))
    v = random_state(3, make_rng(6))
    sched = HamiltonianSchedule.constant(h, 1.0, 1.0)
    assert np.array_equal(evolve(v, sched, 3).amplitudes, v.amplitudes)


def test_norm_is_conserved():
    sched = HamiltonianSchedule.constant(random_hermitian(5, make_rng(7)), 0.0, 3.0)
    v = random_state(5, make_rng(8))
    out = evolve(v, sched, 64)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_midpoint_rule_is_second_order():
    rng = make_rng(9)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    v = random_state(3, rng)
    sched = HamiltonianSchedule.from_function(
        lambda t: HermitianOperator(h0.matrix + t * h1.matrix), 0.0, 1.0
    )
    ref = evolve(v, sched, 10_000).amplitudes

    def err(steps):
        return float(np.linalg.norm(evolve(v, sched, steps).amplitudes - ref))

    ratio = err(20) / err(40)
    assert 3.6 <= ratio <= 4.4


def test_piecewise_schedule_contiguity_enforced():
    h = random_hermitian(2, make_rng(1))
    with pytest.raises(ScheduleGap):
        HamiltonianSchedule.piecewise([(0.0, 1.0, h), (1.5, 2.0, h)])
    with pytest.raises(ScheduleGap):
        HamiltonianSchedule.piecewise([])


def test_schedule_lookup_and_restrict():
    ha = hermitian_from_matrix(np.diag([1.0, 0.0]))
    hb = hermitian_from_matrix(np.diag([0.0, 1.0]))
    sched = HamiltonianSchedule.piecewise([(0.0, 1.0, ha), (1.0, 2.0, hb)])
    assert sched.at(0.5) is ha
    assert sched.at(1.5) is hb
    sub = sched.restrict(0.5, 1.5)
    assert sub.t_start == 0.5 and sub.t_end == 1.5
    with pytest.raises(ScheduleGap):
        sched.at(5.0)
    with pytest.raises(ScheduleGap):
        sched.restrict(-1.0, 0.5)


@pytest.mark.parametrize("t0", [1.5, 1.0])
def test_restrict_window_below_tolerance_takes_the_operator_in_force(t0):
    # shorter than the contiguity tolerance, so no piece overlaps it by more
    ha = hermitian_from_matrix(np.diag([1.0, 0.0]))
    hb = hermitian_from_matrix(np.diag([0.0, 1.0]))
    sched = HamiltonianSchedule.piecewise([(0.0, 1.0, ha), (1.0, 2.0, hb)])
    sub = sched.restrict(t0, t0 + 1e-13)
    assert [h for _, _, h in sub.pieces] == [hb]
    assert sub.t_start == t0 and sub.t_end == t0 + 1e-13
    assert [h for _, _, h in sched.restrict(0.25, 0.25 + 1e-13).pieces] == [ha]
    # clamped into the span when the window pokes past its end within tolerance
    assert [h for _, _, h in sched.restrict(2.0, 2.0 + 1e-13).pieces] == [hb]


def test_schedule_json_round_trip():
    h = random_hermitian(2, make_rng(2))
    sched = HamiltonianSchedule.piecewise([(0.0, 0.5, h)], alpha=0.7)
    other = HamiltonianSchedule.from_dict(sched.to_dict())
    assert other.alpha == 0.7
    assert np.allclose(other.pieces[0][2].matrix, h.matrix)


def test_piecewise_schedule_pieces_must_share_one_dimension():
    pieces = [(0.0, 1.0, random_hermitian(3, make_rng(6))), (1.0, 2.0, random_hermitian(2, make_rng(7)))]
    with pytest.raises(DimMismatch, match=re.escape("schedule pieces disagree on dimension: [2, 3]")):
        HamiltonianSchedule.piecewise(pieces)


def test_only_piecewise_schedules_serialize():
    sched = HamiltonianSchedule.from_function(lambda t: SZ, 0.0, 1.0)
    with pytest.raises(ValueError, match="^only piecewise schedules serialize to JSON$"):
        sched.to_dict()


@pytest.mark.parametrize("drift, raises", [(1e-13, False), (1e-9, True)])
def test_evolve_raises_when_one_propagation_drifts_from_unit_norm(drift, raises, monkeypatch):
    sched = HamiltonianSchedule.constant(random_hermitian(3, make_rng(8)), 0.0, 1.0)
    v = random_state(3, make_rng(9))
    monkeypatch.setattr(avcp.evolution, "propagate", lambda h, dt, amps, alpha: amps * (1 + drift))
    if raises:
        with pytest.raises(ConvergenceFailure, match=r"^norm drifted by 1\.000e-09 in one slice$"):
            evolve(v, sched, 4)
    else:  # within tolerance the state is renormalised
        assert np.abs(evolve(v, sched, 4).amplitudes - v.amplitudes).max() <= 1e-15


def test_evolve_dim_mismatch():
    sched = HamiltonianSchedule.constant(random_hermitian(3, make_rng(3)), 0.0, 1.0)
    with pytest.raises(DimMismatch):
        evolve(random_state(2, make_rng(3)), sched, 4)


def test_callable_of_the_wrong_dim_fails_before_any_diagonalisation(monkeypatch):
    def no_spectra(a):
        raise AssertionError("eigh_stack ran before the dimension check")

    monkeypatch.setattr(avcp.evolution, "eigh_stack", no_spectra)
    h = random_hermitian(3, make_rng(3)).matrix
    sched = HamiltonianSchedule.from_function(lambda t: h, 0.0, 1.0)
    with pytest.raises(DimMismatch, match="schedule dim 3 vs state dim 2"):
        evolve(random_state(2, make_rng(3)), sched, 4)


@pytest.mark.parametrize("switch", [1.0, 1.707])
def test_callable_that_changes_dim_in_a_later_block_fails(switch):
    # 600 slices over [0, 2] at d = 3, in blocks of 256: the switch at 1.0 falls inside the
    # second block; at 1.707 the third block (midpoints from 1.7083) is the first all at d = 4
    rng = make_rng(4)
    h3, h4 = random_hermitian(3, rng).matrix, random_hermitian(4, rng).matrix
    sched = HamiltonianSchedule.from_function(lambda t: h3 if t < switch else h4, 0.0, 2.0)
    with pytest.raises(DimMismatch, match="schedule dim 4 vs state dim 3"):
        evolve(random_state(3, rng), sched, 600)


def test_a_wrong_size_slice_holding_a_nan_reports_its_size_not_the_nan():
    h = random_hermitian(4, make_rng(4)).matrix.copy()
    h[1, 2] = np.nan
    sched = HamiltonianSchedule.from_function(lambda t: h, 0.0, 1.0)
    with pytest.raises(DimMismatch, match="^schedule dim 4 vs state dim 3$"):
        evolve(random_state(3, make_rng(4)), sched, 8)


def _second_block_fault(fault):
    """A d = 3 linear drive over 600 slices (blocks of 256) whose slice 300, inside the second block,
    is `fault(matrix)`; returns the schedule and that slice's raw matrix."""
    v, fn = _linear_drive(3, 70)
    dt = 1.0 / 600
    bad_t = (300 + 0.5) * dt
    bad = fault(fn(bad_t))
    return v, HamiltonianSchedule.from_function(lambda t: bad if t == bad_t else fn(t), 0.0, 1.0), bad


def _skew(m):
    m = m.copy()
    m[0, 1] += 1e-3
    return m


def _non_finite(m):
    m = m.copy()
    m[2, 2] = math.nan
    return m


@pytest.mark.parametrize("fault", [_skew, _non_finite], ids=lambda f: f.__name__[1:])
def test_a_bad_slice_in_a_later_block_raises_what_its_operator_raises(fault, monkeypatch):
    v, sched, bad = _second_block_fault(fault)
    with pytest.raises(AvcpError) as want:
        HermitianOperator(bad)
    stacks = []
    monkeypatch.setattr(avcp.evolution, "eigh_stack", lambda a: stacks.append(len(a)) or eigh_stack(a))
    with pytest.raises(type(want.value)) as got:
        evolve(v, sched, 600)
    assert str(got.value) == str(want.value)
    assert stacks == [256]  # the first block only: the faulty block is never diagonalised


def test_hermitian_gate_names_the_first_failing_matrix_of_a_stack():
    rng = make_rng(71)
    good = [random_hermitian(4, rng).matrix for _ in range(3)]
    for faults in ([_skew, _non_finite], [_non_finite, _skew]):
        a = np.array([good[0], faults[0](good[1]), faults[1](good[2])])
        with pytest.raises(AvcpError) as want:
            HermitianOperator(a[1])
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            hermitian_gate(a)
    hermitian_gate(np.array(good))


def test_callable_may_return_a_matrix_or_an_operator():
    v, fn = _linear_drive(5, 72)
    raw = evolve(v, HamiltonianSchedule.from_function(fn, 0.0, 1.5, 0.8), 300).amplitudes
    wrapped = evolve(v, HamiltonianSchedule.from_function(lambda t: HermitianOperator(fn(t)), 0.0, 1.5, 0.8), 300)
    assert raw.tobytes() == wrapped.amplitudes.tobytes()


# --- a callable's slices at d >= 128: runs, each taken by Lanczos ---------------------


def _stack_sizes(monkeypatch):
    """The number of matrices in each `eigh_stack` call, whether evolve's blocks or a spectrum make it."""
    sizes = []
    for module in (avcp.evolution, avcp.operators):
        monkeypatch.setattr(module, "eigh_stack", lambda a: sizes.append(len(a)) or eigh_stack(a))
    return sizes


@pytest.mark.parametrize("d", [128, 256])
def test_a_callable_from_d_128_takes_lanczos_on_each_slice_and_builds_no_stack(d, monkeypatch):
    v, fn = _linear_drive(d, 50 + d)
    sched = HamiltonianSchedule.from_function(fn, -0.25, 1.0, 0.9)
    want = _blocked_reference_evolve(v, sched, 24).amplitudes
    sizes = _stack_sizes(monkeypatch)
    got = evolve(v, sched, 24).amplitudes
    assert sizes == []
    assert np.abs(got - want).max() <= 1e-12


def test_callable_slices_that_give_up_are_bytewise_the_blocked_loop(monkeypatch):
    # at alpha = 0.01 every d = 128 slice's step bound passes d / 2: each slice falls back to its own eigenbasis
    v, fn = _linear_drive(128, 62)
    sched = HamiltonianSchedule.from_function(fn, 0.0, 1.0, 0.01)
    want = _blocked_reference_evolve(v, sched, 16).amplitudes
    sizes = _stack_sizes(monkeypatch)
    assert evolve(v, sched, 16).amplitudes.tobytes() == want.tobytes()
    assert sizes == [1] * 16


def test_a_callable_returning_one_operator_for_consecutive_slices_gives_one_run(monkeypatch):
    rng = make_rng(63)
    ha, hb, v = random_hermitian(256, rng), random_hermitian(256, rng), random_state(256, rng)
    sched = HamiltonianSchedule.from_function(lambda t: ha if t < 0.5 else hb, 0.0, 1.0)
    assert list(avcp.evolution._runs(sched, 16)) == [(ha, 0.5), (hb, 0.5)]
    lanczos = _counting(monkeypatch, avcp.evolution, "_lanczos")
    got = evolve(v, sched, 16).amplitudes
    assert [a[0] for a in lanczos] == [ha, hb]
    pieces = HamiltonianSchedule.piecewise([(0.0, 0.5, ha), (0.5, 1.0, hb)])
    assert got.tobytes() == evolve(v, pieces, 16).amplitudes.tobytes()


def test_at_most_three_slice_operators_are_alive_from_d_128():
    """The run being propagated, the slice `groupby` looked ahead to, and the previous run's operator, which
    evolve's loop variable holds until the next run is yielded."""
    rng = make_rng(64)
    h0, h1 = random_hermitian(256, rng).matrix, random_hermitian(256, rng).matrix
    alive = weakref.WeakSet()
    peak = 0

    def fn(t):
        nonlocal peak
        h = _Tracked(h0 + t * h1)
        alive.add(h)
        peak = max(peak, len(alive))
        return h

    evolve(random_state(256, rng), HamiltonianSchedule.from_function(fn, 0.0, 1.0), 12)
    assert peak <= 3


def _wrong_size(m):
    return m[:-1, :-1]


@pytest.mark.parametrize("fault, error, message", [
    (_skew, None, None),
    (_non_finite, None, None),
    (_wrong_size, DimMismatch, "schedule dim 255 vs state dim 256"),
    # each slice becomes a HermitianOperator before its size is compared: the nan is named, not the size
    (lambda m: _non_finite(_wrong_size(m)), NonFinite, "matrix contains non-finite entries"),
], ids=["skew", "non_finite", "wrong_size", "wrong_size_and_nan"])
def test_the_first_faulty_slice_from_d_128_raises_its_own_error(fault, error, message):
    v, fn = _linear_drive(256, 65)
    dt = 1.0 / 12
    bad_t = (5 + 0.5) * dt
    bad = fault(fn(bad_t))
    later = np.eye(3)  # the slices after the first fault are at fault too, and never named
    sched = HamiltonianSchedule.from_function(lambda t: fn(t) if t < bad_t else bad if t == bad_t else later, 0.0, 1.0)
    if error is None:
        with pytest.raises(AvcpError) as want:
            HermitianOperator(bad)
        error, message = type(want.value), str(want.value)
    with pytest.raises(error) as got:
        evolve(v, sched, 12)
    assert type(got.value) is error and str(got.value) == message


_THREAD_CASES = """
import hashlib, sys
import numpy as np
from avcp.evolution import HamiltonianSchedule, evolve
from avcp.experiments import EvolutionWindow
from avcp.operators import make_rng, random_hermitian, random_state

rng = make_rng(66)
h0, h1, h2 = (random_hermitian(256, rng) for _ in range(3))
v = random_state(256, rng)
drive = HamiltonianSchedule.from_function(lambda t: h0.matrix + t * h1.matrix, 0.0, 2.0, 0.8)
edges = np.linspace(0.0, 1.0, 5)
reused = HamiltonianSchedule.piecewise([(edges[i], edges[i + 1], (h1, h2)[i % 2]) for i in range(4)])
states = [evolve(v, drive, 32), evolve(v, reused, 32), *EvolutionWindow(drive, 1.0, 2.0, 16).states(v)]
for s in states:
    sys.stdout.write(hashlib.sha256(s.amplitudes.tobytes()).hexdigest() + "\\n")
"""


def test_callables_and_reused_pieces_from_d_128_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREAD_CASES], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(outs[0].split()) == 4
    assert outs[1] == outs[0]


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, -math.inf, math.nan, True])
def test_schedules_reject_an_alpha_that_is_not_finite_and_positive(alpha):
    h = random_hermitian(2, make_rng(73))
    for build in (
        lambda: HamiltonianSchedule.constant(h, 0.0, 1.0, alpha),
        lambda: HamiltonianSchedule.from_function(lambda t: h, 0.0, 1.0, alpha),
        lambda: HamiltonianSchedule.from_dict({**HamiltonianSchedule.constant(h, 0.0, 1.0).to_dict(), "alpha": alpha}),
    ):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            build()


@pytest.mark.parametrize(
    "t0, t1", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 0.0), (-1e308, 1e308), (1.0, 0.0)]
)
def test_schedules_reject_a_span_that_is_not_finite_or_is_reversed(t0, t1):
    def fn(t):
        raise AssertionError("fn ran for a schedule with a bad span")

    h = random_hermitian(2, make_rng(74))
    with pytest.raises(ScheduleGap, match="must be finite and not reversed"):
        HamiltonianSchedule.from_function(fn, t0, t1)
    with pytest.raises(ScheduleGap, match="must be finite and not reversed"):
        HamiltonianSchedule.piecewise([(t0, t1, h)])


def test_piecewise_schedules_reject_a_non_finite_inner_endpoint():
    # every comparison with nan is false, so the contiguity check must be written to fail on it
    h = random_hermitian(2, make_rng(75))
    with pytest.raises(ScheduleGap, match="not contiguous"):
        HamiltonianSchedule.piecewise([(0.0, math.nan, h), (math.nan, 1.0, h)])
    with pytest.raises(ScheduleGap, match="not contiguous"):
        HamiltonianSchedule.piecewise([(0.0, math.inf, h), (math.inf, 1.0, h)])


def test_a_schedule_with_neither_pieces_nor_fn_is_rejected_when_built():
    with pytest.raises(ValueError, match=r"^a schedule takes exactly one of pieces and fn, got neither$"):
        HamiltonianSchedule(0.0, 1.0)


def test_a_schedule_with_both_pieces_and_fn_is_rejected_when_built():
    pieces = HamiltonianSchedule.constant(_SZ_OP, 0.0, 1.0).pieces
    with pytest.raises(ValueError, match=r"^a schedule takes exactly one of pieces and fn, got both$"):
        HamiltonianSchedule(0.0, 1.0, 1.0, pieces, lambda t: _SZ_OP)


# --- conservation checks --------------------------------------------------------------


def test_energy_conserved_for_eigenstate():
    h = random_hermitian(4, make_rng(11))
    v = QuantumState(h.spectrum.eigenvectors[:, 2])
    assert check_energy_conservation(v, h, 0.9) <= 1e-12


def test_energy_conserved_for_random_states():
    rng = make_rng(12)
    for _ in range(10):
        h = random_hermitian(5, rng)
        v = random_state(5, rng)
        assert check_energy_conservation(v, h, 0.37) <= 1e-10


def test_superposition_oscillates_while_energy_constant():
    h = hermitian_from_matrix(np.diag([0.0, 1.0]))
    v = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2))
    probe = hermitian_from_matrix(SX)
    sched = lambda t: HamiltonianSchedule.constant(h, 0.0, t)
    # closed two-level form: <sx>(t) = cos(t)
    for t in (0.5, 1.2):
        out = evolve(v, sched(t), 32)
        assert expectation(probe, out) == pytest.approx(math.cos(t), abs=1e-10)
        assert check_energy_conservation(v, h, t) <= 1e-10


# --- instantaneous-rate (Ehrenfest-style) checks ------------------------------------------


def test_rate_vanishes_for_commuting_observable():
    h = random_hermitian(4, make_rng(13))
    assert check_ehrenfest(h, h, random_state(4, make_rng(14)), 1e-4) <= 1e-9


def test_rabi_rate_matches_closed_form():
    omega = 1.7
    h = hermitian_from_matrix(omega / 2 * SX)
    sz = hermitian_from_matrix(SZ)
    v = QuantumState([1.0, 0.0])
    # d<sz>/dt at t=0 is 0 for the +z state; check along the orbit too
    assert check_ehrenfest(sz, h, v, 1e-6) <= 1e-5
    vt = evolve(v, HamiltonianSchedule.constant(h, 0.0, 0.4), 64)
    # closed form: <sz>(t) = cos(omega t), so the rate is -omega*sin(omega t)
    drift = -omega * math.sin(omega * 0.4)
    rate = 1j * (vt.amplitudes.conj() @ ((h.matrix @ sz.matrix - sz.matrix @ h.matrix) @ vt.amplitudes))
    assert rate.real == pytest.approx(drift, abs=1e-10)
    assert check_ehrenfest(sz, h, vt, 1e-6) <= 1e-5


def test_rate_residual_linear_in_dt():
    rng = make_rng(15)
    h = random_hermitian(3, rng)
    f = random_hermitian(3, rng)
    v = random_state(3, rng)
    res = [check_ehrenfest(f, h, v, dt) for dt in (1e-2, 1e-3, 1e-4)]
    assert 5 <= res[0] / res[1] <= 20
    assert 5 <= res[1] / res[2] <= 20


# --- the shared <F>-after-evolution probe against the hand-written checks it replaced ------------------
# Each reference below is the check's earlier body, verbatim: before and after computed by hand,
# without `evolved_expectation`. The library must give the same float, bit for bit.


def _reference_energy_conservation(v, h, dt, alpha=1.0):
    before = expectation(h, v)
    after_amps = propagate(h, dt, v.amplitudes, alpha)
    after = expectation(h, QuantumState.normalized(after_amps, v.factor_dims))
    return abs(after - before)


def _reference_ehrenfest(f, h, v, dt, alpha=1.0):
    now = expectation(f, v)
    later_amps = propagate(h, dt, v.amplitudes, alpha)
    later = expectation(f, QuantumState.normalized(later_amps, v.factor_dims))
    drift = (later - now) / dt
    rate = (1j / alpha) * complex(
        v.amplitudes.conj() @ (commutator(h, f) @ v.amplitudes)
    )
    return abs(drift - rate.real) + abs(rate.imag)


def _reference_displacement_shift(f, v, eps):
    _require_safe(v)
    before = expectation(f.x_op, v)
    shifted = QuantumState.normalized(propagate(f.p_op, eps, v.amplitudes, f.alpha))
    after = expectation(f.x_op, shifted)
    return abs(after - (before + eps))


def _reference_momentum_invariance(f, v, eps):
    before = expectation(f.p_op, v)
    shifted = QuantumState.normalized(propagate(f.p_op, eps, v.amplitudes, f.alpha))
    return abs(expectation(f.p_op, shifted) - before)


def _reference_photon_drift(f, c, state, dt):
    _require_safe(state)
    h = HermitianOperator(c * f.p_op.matrix)
    before = expectation(f.x_op, state)
    after_amps = propagate(h, dt, state.amplitudes, f.alpha)
    after = expectation(f.x_op, QuantumState.normalized(after_amps))
    return abs((after - before) / dt - c)


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("factor_dims", [None, (2, 3), (3, 2, 2)])
def test_evolution_checks_equal_their_hand_written_reference(alpha, factor_dims):
    dim = 6 if factor_dims is None else math.prod(factor_dims)
    rng = make_rng(80 + len(factor_dims or ()))
    for dt in (1e-4, 0.37, 2.5):
        h, f = random_hermitian(dim, rng), random_hermitian(dim, rng)
        v = random_state(dim, rng, factor_dims)
        assert check_energy_conservation(v, h, dt, alpha) == _reference_energy_conservation(v, h, dt, alpha)
        assert check_ehrenfest(f, h, v, dt, alpha) == _reference_ehrenfest(f, h, v, dt, alpha)
        assert evolved_expectation(f, h, v, 0.0, alpha) == pytest.approx(expectation(f, v), abs=1e-14)


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_kinematics_checks_equal_their_hand_written_reference(alpha):
    fock = build_fock(40, alpha)
    for beta in (0.0, 1.1 + 0.3j, -0.6 + 0.9j):
        v = coherent_state(fock, beta)
        for eps in (1e-3, 0.1, 0.45):
            assert displacement_shift_residual(fock, v, eps) == _reference_displacement_shift(fock, v, eps)
            assert momentum_invariance_residual(fock, v, eps) == _reference_momentum_invariance(fock, v, eps)
        for c in (0.0, 0.7, 1.0):
            for dt in (1e-4, 1e-3):
                assert photon_drift_check(fock, c, v, dt) == _reference_photon_drift(fock, c, v, dt)
