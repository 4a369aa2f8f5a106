"""Unitary time evolution generated by Hamiltonian schedules.

In a time-independent background a state picks up exp(-i H dt / alpha),
applied in H's eigenbasis by `propagate`; a time-dependent background is
sliced, one such factor per slice, with the Hamiltonian sampled at slice
midpoints (second-order accurate in the slice width). Consecutive slices on
one operator, a piece or a callable's slice, form a run, applied as one
factor exp(-i H k dt / alpha) and renormalised.

From dimension `KRYLOV_MIN_DIM` up, `evolve` applies each run by Lanczos,
without diagonalising H, and falls back to the eigenbasis where the run's
Lanczos step bound passes d / 2. Below it, runs and a callable's stacked
slice blocks move in H's eigenbasis, as `propagator` and
`evolved_expectation` always do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceFailure, DimMismatch, ScheduleGap
from .operators import (
    SPECTRUM_TOL,
    HermitianOperator,
    QuantumState,
    _square_matrix,
    commutator,
    eigh_stack,
    expectation,
    hermitian_from_matrix,
    hermitian_gate,
    max_norm,
    one_blas_thread,
    operator_from_dict,
    operator_to_dict,
    real_number,
    whole_number,
)

_CONTIGUITY_RTOL = 1e-12
_NORM_DRIFT_TOL = 1e-12
#: below KRYLOV_MIN_DIM, evolve samples and diagonalises a callable schedule's slices in blocks of at most this
#: many slices and matrix entries
_BLOCK_SLICES, _BLOCK_ENTRIES = 256, 2**20
#: from this dimension up, `evolve` applies each run by Lanczos, a callable's slices included: against an
#: eigendecomposition made for one vector, it breaks even between d = 96 and d = 128 (random H, |H| dt / alpha
#: about 30, one BLAS thread of a 2-core x86 host)
KRYLOV_MIN_DIM = 128
#: Lanczos stops once its error estimate beta_m |[exp(-i tau T_m) e_1]_m| is at most this
_KRYLOV_TOL = 1e-14
#: steps between two convergence checks (each an eigh of T_m), and the last check step that may decide the
#: fallback: the Ritz values' spread only grows with the step, so a bound past the cap at step 8 stays past it
_KRYLOV_CHECK_EVERY, _KRYLOV_SPREAD_STEP = 8, 16
#: a run's Lanczos step bound is e (theta_max - theta_min) |tau| / 4 plus this (at d = 256, runs with a spread
#: times |tau| of 0.6 to 124 took 16 to 104 steps); a run whose bound passes d / 2 keeps its piece's eigenbasis
_KRYLOV_RUN_STEPS = 30
#: slices per evolution where none is given: an experiment window's "steps" and `avcp evolve --steps`
DEFAULT_STEPS = 128


def require_alpha(alpha: float) -> float:
    """The evolution constant alpha as a float, read as `real_number` reads a time; ValueError unless it is
    finite and positive (a bool is not a number, and fails with that message)."""
    if not isinstance(alpha, bool):
        alpha = real_number(alpha, "alpha")
    if isinstance(alpha, bool) or not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    return alpha


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Hamiltonian as a function of time over a finite interval.

    Either a list of contiguous constant `pieces` (t0, t1, operator) or a
    callable `fn(t)` returning a HermitianOperator or a matrix, with the covered
    span (finite) and the evolution constant `alpha` (finite and positive).
    """

    t_start: float
    t_end: float
    alpha: float = 1.0
    pieces: tuple[tuple[float, float, HermitianOperator], ...] | None = None
    fn: Callable[[float], HermitianOperator | np.ndarray] | None = None

    def __post_init__(self):
        if (self.pieces is None) == (self.fn is None):
            got = "neither" if self.fn is None else "both"
            raise ValueError(f"a schedule takes exactly one of pieces and fn, got {got}")
        if not (np.isfinite([self.t_start, self.t_end]).all() and 0 <= self.t_end - self.t_start < np.inf):
            raise ScheduleGap(f"schedule span [{self.t_start}, {self.t_end}] must be finite and not reversed")
        require_alpha(self.alpha)

    @classmethod
    def piecewise(cls, pieces: Sequence[tuple[float, float, HermitianOperator]], alpha: float = 1.0):
        alpha = require_alpha(alpha)
        items = sorted(((real_number(a, "t0"), real_number(b, "t1"), h) for a, b, h in pieces), key=lambda p: p[0])
        if not items:
            raise ScheduleGap("schedule needs at least one piece")
        dims = {h.dim for _, _, h in items}
        if len(dims) != 1:
            raise DimMismatch(f"schedule pieces disagree on dimension: {sorted(dims)}")
        span = items[-1][1] - items[0][0]
        tol = _CONTIGUITY_RTOL * max(1.0, abs(span))
        for (a0, b0, _), (a1, _, _) in zip(items, items[1:]):
            if not abs(a1 - b0) <= tol:  # "not <=", so that a nan endpoint fails too
                raise ScheduleGap(f"pieces are not contiguous at t={b0!r} vs {a1!r}")
        for a, b, _ in items:
            if not a <= b:
                raise ScheduleGap(f"piece [{a}, {b}] must be finite and not reversed")
        return cls(items[0][0], items[-1][1], alpha, tuple(items), None)

    @classmethod
    def constant(cls, h: HermitianOperator, t_start: float, t_end: float, alpha: float = 1.0):
        return cls.piecewise([(t_start, t_end, h)], alpha)

    @classmethod
    def from_function(cls, fn, t_start: float, t_end: float, alpha: float = 1.0):
        return cls(real_number(t_start, "t_start"), real_number(t_end, "t_end"), require_alpha(alpha), None, fn)

    @property
    def dim(self) -> int:
        if self.pieces is not None:
            return self.pieces[0][2].dim
        return self.at(self.t_start).dim

    def at(self, t: float) -> HermitianOperator:
        """Hamiltonian in force at time `t`."""
        if self.fn is not None:
            h = self.fn(t)
            return h if isinstance(h, HermitianOperator) else hermitian_from_matrix(h)
        for a, b, h in self.pieces:
            if a <= t <= b:
                return h
        raise ScheduleGap(f"t={t!r} outside schedule [{self.t_start}, {self.t_end}]")

    def restrict(self, t0: float, t1: float) -> "HamiltonianSchedule":
        """Sub-schedule over [t0, t1], which must sit inside the span."""
        tol = _CONTIGUITY_RTOL * max(1.0, abs(self.t_end - self.t_start))
        if t0 < self.t_start - tol or t1 > self.t_end + tol or t1 < t0:
            raise ScheduleGap(f"[{t0}, {t1}] not inside [{self.t_start}, {self.t_end}]")
        if self.fn is not None:
            return HamiltonianSchedule(t0, t1, self.alpha, None, self.fn)
        kept = []
        for a, b, h in self.pieces:
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo + tol or (t0 == t1 and lo <= t0 <= hi):
                kept.append((lo, hi, h))
        if not kept:  # a window shorter than the tolerance: the operator at its midpoint
            kept = [(t0, t1, self.at(min(max((t0 + t1) / 2, self.t_start), self.t_end)))]
        return HamiltonianSchedule.piecewise(kept, self.alpha)

    @classmethod
    def from_dict(cls, d, alpha: float = 1.0) -> "HamiltonianSchedule":
        """JSON form: list of pieces {t0, t1, operator}, or a wrapper with alpha; `alpha` if it sets none."""
        pieces = d
        if isinstance(d, dict):
            alpha = d.get("alpha", alpha)
            pieces = d["pieces"]
        require_alpha(alpha)  # before any piece
        items = [(real_number(p["t0"], "t0"), real_number(p["t1"], "t1"), operator_from_dict(p["operator"]))
                 for p in pieces]
        return cls.piecewise(items, alpha)

    def to_dict(self) -> dict:
        if self.pieces is None:
            raise ValueError("only piecewise schedules serialize to JSON")
        return {
            "alpha": self.alpha,
            "pieces": [{"t0": a, "t1": b, "operator": operator_to_dict(h)} for a, b, h in self.pieces],
        }


def propagate(h: HermitianOperator, dt: float, amps: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """exp(-i H dt / alpha) applied to a vector or to the columns of a matrix, O(d^2) per vector:
    rotate into H's cached eigenbasis, one phase per eigenvalue, rotate back. The first call on H pays
    its eigendecomposition; from dimension KRYLOV_MIN_DIM up `evolve` applies each run by Lanczos
    instead, unless that run is too long for it."""
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt == 0.0:
        return amps
    s = h.spectrum
    phases = np.exp(-1j * s.eigenvalues * (dt / alpha))
    return s.eigenvectors @ (phases * (s.eigenvectors.conj().T @ amps).T).T


def _lanczos(h: HermitianOperator, tau: float, amps: np.ndarray) -> np.ndarray | None:
    """exp(-i tau H) applied to the vector `amps` on one BLAS thread, or None where `propagate` should.

    Lanczos with full reorthogonalisation builds T_m = V^dag H V on the Krylov basis V of `amps`, checking
    every few steps, through an eigh of T_m, whether beta_m |[exp(-i tau T_m) e_1]_m| <= 1e-14; it also
    stops when the Krylov space is invariant (beta_m <= 1e-14). At steps 8 and 16 the Ritz values bound
    its steps, e (theta_max - theta_min) |tau| / 4 + 30, and above d / 2 it gives up, as it does when
    d / 2 steps did not converge or tau is zero or not finite. Raises ConvergenceFailure unless
    max|V^dag V - I| <= SPECTRUM_TOL."""
    if tau == 0.0 or not np.isfinite(tau):
        return None
    cap = h.dim // 2
    beta0 = float(np.linalg.norm(amps))
    basis = np.empty((cap + 1, h.dim), dtype=complex)  # row j is v_j
    basis[0] = amps / beta0
    diag, off = np.empty(cap), np.empty(cap)
    with one_blas_thread():
        for j in range(cap):
            w = h.matrix @ basis[j]
            diag[j] = np.vdot(basis[j], w).real
            w -= diag[j] * basis[j]
            if j:
                w -= off[j - 1] * basis[j - 1]
            w -= (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]  # against every earlier v
            off[j] = np.linalg.norm(w)
            m = j + 1
            invariant = off[j] <= _KRYLOV_TOL
            if invariant or m % _KRYLOV_CHECK_EVERY == 0:
                theta, s = np.linalg.eigh(np.diag(diag[:m]) + np.diag(off[:j], 1) + np.diag(off[:j], -1))
                u = s @ (np.exp(-1j * tau * theta) * s[0])  # exp(-i tau T_m) e_1
                if invariant or off[j] * abs(u[-1]) <= _KRYLOV_TOL:
                    if max_norm(basis[:m].conj() @ basis[:m].T - np.eye(m)) > SPECTRUM_TOL:
                        raise ConvergenceFailure("Krylov basis is not orthonormal")
                    return beta0 * (u @ basis[:m])
                bound = math.e * (theta[-1] - theta[0]) * abs(tau) / 4 + _KRYLOV_RUN_STEPS
                if m <= _KRYLOV_SPREAD_STEP and bound > cap:
                    return None
            basis[m] = w / off[j]
    return None


def propagator(h: HermitianOperator, dt: float, alpha: float = 1.0) -> np.ndarray:
    """Unitary exp(-i H dt / alpha) as a matrix: `propagate` applied to the identity."""
    return propagate(h, dt, np.eye(h.dim, dtype=complex), alpha)


def _runs(sched: HamiltonianSchedule, steps: int) -> Iterator[tuple[HermitianOperator, float]]:
    """(operator, k dt) for each run of k consecutive midpoint slices on one operator, generated lazily: a
    callable schedule's `fn` runs at most one slice ahead of the run being yielded."""
    dt = (sched.t_end - sched.t_start) / steps
    mids = (sched.t_start + (k + 0.5) * dt for k in range(steps))
    return ((h, sum(1 for _ in run) * dt) for h, run in groupby(map(sched.at, mids)))


def evolve(v: QuantumState, sched: HamiltonianSchedule, steps: int) -> QuantumState:
    """Propagate across the schedule span with `steps` midpoint-sampled slices, one propagation per run of
    slices on one operator: by `_lanczos` from dimension KRYLOV_MIN_DIM up, where `fn` then runs at most one
    slice ahead, else, or where Lanczos gives up, by `propagate`. Below KRYLOV_MIN_DIM a callable's slices are
    diagonalised in blocks, `fn` up to one block ahead. The state is renormalised after each propagation."""
    steps = whole_number(steps, "steps", 1)
    span = sched.t_end - sched.t_start
    if span == 0:
        return QuantumState(v.amplitudes.copy(), v.factor_dims)
    amps = np.array(v.amplitudes, dtype=complex)
    dt = span / steps
    krylov = v.dim >= KRYLOV_MIN_DIM
    if sched.fn is None or krylov:  # every slice of a run shares one H: k slices are exp(-i H k dt / alpha)
        for h, run_dt in _runs(sched, steps):
            if h.dim != v.dim:
                raise DimMismatch(f"schedule dim {h.dim} vs state dim {v.dim}")
            out = _lanczos(h, run_dt / sched.alpha, amps) if krylov else None
            amps = _renormalised(propagate(h, run_dt, amps, sched.alpha) if out is None else out)
        return QuantumState(amps, v.factor_dims)
    block = max(1, min(_BLOCK_SLICES, _BLOCK_ENTRIES // v.dim**2))
    for start in range(0, steps, block):
        mids = [sched.t_start + (k + 0.5) * dt for k in range(start, min(start + block, steps))]
        # one validated stack: the block's dims first, then each slice in order as HermitianOperator would
        mats = [h.matrix if isinstance(h, HermitianOperator) else h for h in map(sched.fn, mids)]
        for m in mats:  # the first slice at fault is the one named
            if np.shape(m) != (v.dim, v.dim):
                raise DimMismatch(f"schedule dim {_square_matrix(m).shape[0]} vs state dim {v.dim}")  # size before nan
        mats = np.array(mats, dtype=complex)  # rebinding drops fn's results before the next block is sampled
        hermitian_gate(mats)
        values, vectors, _, _ = eigh_stack(mats)
        for phases, vecs in zip(np.exp(-1j * values * (dt / sched.alpha)), vectors):
            amps = _renormalised(vecs @ (phases * (vecs.conj().T @ amps)))
    return QuantumState(amps, v.factor_dims)


def _renormalised(amps: np.ndarray) -> np.ndarray:
    """`amps` divided by its norm, in place; a norm more than _NORM_DRIFT_TOL from 1 raises ConvergenceFailure."""
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > _NORM_DRIFT_TOL:
        raise ConvergenceFailure(f"norm drifted by {abs(norm - 1.0):.3e} in one slice")
    amps /= norm
    return amps


def evolved_expectation(
    f: HermitianOperator, h: HermitianOperator, v: QuantumState, dt: float, alpha: float = 1.0
) -> float:
    """<F> in v after exp(-i H dt / alpha), renormalised: the probe behind every drift and conservation check."""
    return expectation(f, QuantumState.normalized(propagate(h, dt, v.amplitudes, alpha), v.factor_dims))


def check_energy_conservation(v: QuantumState, h: HermitianOperator, dt: float, alpha: float = 1.0) -> float:
    """|<H> after - <H> before| under the constant-background propagator."""
    before = expectation(h, v)
    return abs(evolved_expectation(h, h, v, dt, alpha) - before)


def check_ehrenfest(
    f: HermitianOperator, h: HermitianOperator, v: QuantumState, dt: float, alpha: float = 1.0
) -> float:
    """Residual of the finite-difference form of d<F>/dt = (i/alpha) <[H, F]>.

    The residual is O(dt); pick dt well below 1/|H| for a meaningful check.
    """
    now = expectation(f, v)
    drift = (evolved_expectation(f, h, v, dt, alpha) - now) / dt
    rate = (1j / alpha) * complex(v.amplitudes.conj() @ (commutator(h, f) @ v.amplitudes))
    return abs(drift - rate.real) + abs(rate.imag)
