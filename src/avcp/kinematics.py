"""Truncated position/momentum representation on a ladder basis.

With lowering operator a (a|k> = sqrt(k)|k-1>) on n levels,

    x = sqrt(alpha/2) (a + a^dag)      p = i sqrt(alpha/2) (a^dag - a),

the commutator [x, p] equals i*alpha exactly everywhere except the last
diagonal entry, where truncation forces the value i*alpha*(1 - n).  States
with negligible weight near the boundary therefore see the exact canonical
algebra, which is what makes displacement and drift identities testable at
finite dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimTooSmall, UnsafeState
from .evolution import check_energy_conservation, evolved_expectation, propagator
from .operators import HermitianOperator, QuantumState, commutator, expectation

#: maximum total weight on the top boundary levels for a state to count safe
SAFE_BOUNDARY_WEIGHT = 1e-10
#: number of boundary levels inspected by the safety gate
BOUNDARY_LEVELS = 4


@dataclass(frozen=True)
class FockTruncation:
    n_levels: int
    alpha: float
    lowering: np.ndarray
    x_op: HermitianOperator
    p_op: HermitianOperator


def build_fock(n_levels: int, alpha: float = 1.0) -> FockTruncation:
    """Ladder operator and the derived position/momentum pair."""
    if n_levels < 2:
        raise DimTooSmall("need at least 2 levels")
    a = np.zeros((n_levels, n_levels), dtype=complex)
    for k in range(1, n_levels):
        a[k - 1, k] = math.sqrt(k)
    scale = math.sqrt(alpha / 2.0)
    x = HermitianOperator(scale * (a + a.conj().T))
    p = HermitianOperator(1j * scale * (a.conj().T - a))
    return FockTruncation(n_levels, float(alpha), a, x, p)


def canonical_defect(f: FockTruncation) -> np.ndarray:
    """[x, p] - i*alpha*I; zero except the bottom-right entry -i*alpha*n."""
    n = f.n_levels
    return commutator(f.x_op, f.p_op) - 1j * f.alpha * np.eye(n)


def displacement_unitary(f: FockTruncation, eps: float) -> np.ndarray:
    """exp(-i eps p / alpha): displaces position expectations by eps."""
    return propagator(f.p_op, eps, f.alpha)


def boundary_weight(v: QuantumState, levels: int = BOUNDARY_LEVELS) -> float:
    """Probability carried by the top `levels` basis states."""
    return float(np.sum(np.abs(v.amplitudes[-levels:]) ** 2))


def _require_safe(v: QuantumState):
    w = boundary_weight(v)
    if w > SAFE_BOUNDARY_WEIGHT:
        raise UnsafeState(
            f"boundary weight {w:.3e} exceeds {SAFE_BOUNDARY_WEIGHT:.0e}; "
            "truncation artifacts would dominate"
        )


def displacement_shift_residual(f: FockTruncation, v: QuantumState, eps: float) -> float:
    """|<x> after displacement - (<x> before + eps)| on a safe state."""
    _require_safe(v)
    before = expectation(f.x_op, v)
    after = evolved_expectation(f.x_op, f.p_op, v, eps, f.alpha)
    return abs(after - (before + eps))


def momentum_invariance_residual(f: FockTruncation, v: QuantumState, eps: float) -> float:
    """|<p> after displacement - <p> before|; exactly zero in exact arithmetic."""
    return check_energy_conservation(v, f.p_op, eps, f.alpha)


def photon_drift_check(f: FockTruncation, c: float, state: QuantumState, dt: float) -> float:
    """Residual of d<x>/dt = c under the Hamiltonian c*p.

    Exact off the truncation corner, so the state must pass the safety gate.
    """
    _require_safe(state)
    h = HermitianOperator(c * f.p_op.matrix)
    before = expectation(f.x_op, state)
    after = evolved_expectation(f.x_op, h, state, dt, f.alpha)
    return abs((after - before) / dt - c)


def coherent_state(f: FockTruncation, beta: complex) -> QuantumState:
    """Truncated coherent state with amplitude beta (renormalized)."""
    amps = np.empty(f.n_levels, dtype=complex)
    amps[0] = 1.0
    for k in range(1, f.n_levels):
        amps[k] = amps[k - 1] * beta / math.sqrt(k)
    return QuantumState.normalized(amps)
