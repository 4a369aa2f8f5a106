"""Unitary time evolution generated by Hamiltonian schedules.

In a time-independent background a state picks up exp(-i H dt / alpha),
applied in H's eigenbasis by `propagate`; a time-dependent background is
sliced, one such factor per slice, with the Hamiltonian sampled at slice
midpoints (second-order accurate in the slice width).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimMismatch, ScheduleGap
from .operators import (
    HermitianOperator,
    QuantumState,
    as_complex_matrix,
    commutator,
    eigh_stack,
    expectation,
    hermitian_from_matrix,
    hermitian_gate,
    operator_from_dict,
    operator_to_dict,
)

_CONTIGUITY_RTOL = 1e-12
_NORM_DRIFT_TOL = 1e-12
#: evolve samples and diagonalises at most this many slices, of at most this many matrix entries, at once
_BLOCK_SLICES, _BLOCK_ENTRIES = 256, 2**20


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
        if not (np.isfinite([self.t_start, self.t_end]).all() and 0 <= self.t_end - self.t_start < np.inf):
            raise ScheduleGap(f"schedule span [{self.t_start}, {self.t_end}] must be finite and not reversed")
        if not 0 < self.alpha < np.inf:
            raise ScheduleGap(f"alpha must be finite and positive, got {self.alpha!r}")

    @classmethod
    def piecewise(cls, pieces: Sequence[tuple[float, float, HermitianOperator]], alpha: float = 1.0):
        items = sorted(((float(a), float(b), h) for a, b, h in pieces), key=lambda p: p[0])
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
        return cls(items[0][0], items[-1][1], float(alpha), tuple(items), None)

    @classmethod
    def constant(cls, h: HermitianOperator, t_start: float, t_end: float, alpha: float = 1.0):
        return cls.piecewise([(t_start, t_end, h)], alpha)

    @classmethod
    def from_function(cls, fn, t_start: float, t_end: float, alpha: float = 1.0):
        return cls(float(t_start), float(t_end), float(alpha), None, fn)

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
    def from_dict(cls, d) -> "HamiltonianSchedule":
        """JSON form: list of pieces {t0, t1, operator}, or a wrapper with alpha."""
        alpha = 1.0
        pieces = d
        if isinstance(d, dict):
            alpha = float(d.get("alpha", 1.0))
            pieces = d["pieces"]
        items = [(float(p["t0"]), float(p["t1"]), operator_from_dict(p["operator"])) for p in pieces]
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
    rotate into H's cached eigenbasis, one phase per eigenvalue, rotate back."""
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt == 0.0:
        return amps
    s = h.spectrum
    phases = np.exp(-1j * s.eigenvalues * (dt / alpha))
    return s.eigenvectors @ (phases * (s.eigenvectors.conj().T @ amps).T).T


def propagator(h: HermitianOperator, dt: float, alpha: float = 1.0) -> np.ndarray:
    """Unitary exp(-i H dt / alpha) as a matrix: `propagate` applied to the identity."""
    return propagate(h, dt, np.eye(h.dim, dtype=complex), alpha)


def evolve(v: QuantumState, sched: HamiltonianSchedule, steps: int) -> QuantumState:
    """Propagate across the schedule span with `steps` midpoint-sampled slices, sampled and
    diagonalised in blocks: a callable schedule's `fn` may run up to one block ahead of propagation."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    span = sched.t_end - sched.t_start
    if span == 0:
        return QuantumState(v.amplitudes.copy(), v.factor_dims)
    if sched.fn is None and sched.dim != v.dim:
        raise DimMismatch(f"schedule dim {sched.dim} vs state dim {v.dim}")
    amps = np.array(v.amplitudes, dtype=complex)
    buf, re, im = np.empty_like(amps), amps.real, amps.imag
    dt = span / steps
    block = max(1, min(_BLOCK_SLICES, _BLOCK_ENTRIES // v.dim**2))
    last = None  # (eigenvectors, their conjugate transpose) of the piece in force at the last slice
    for start in range(0, steps, block):
        mids = [sched.t_start + (k + 0.5) * dt for k in range(start, min(start + block, steps))]
        if sched.fn is None:  # a piece's spectrum is diagonalised once and cached on its operator
            spectra = [sched.at(t).spectrum for t in mids]
            values, vectors = np.array([s.eigenvalues for s in spectra]), [s.eigenvectors for s in spectra]
            vectors_h = []
            for vecs in vectors:  # conjugated once for every run of slices inside a piece
                if last is None or last[0] is not vecs:
                    last = vecs, vecs.conj().T
                vectors_h.append(last[1])
        else:  # one validated stack: the block's dims first, then each slice in order as HermitianOperator would
            mats = [h.matrix if isinstance(h, HermitianOperator) else h for h in map(sched.fn, mids)]
            try:
                stack = np.array(mats, dtype=complex)
            except (ValueError, TypeError):
                stack = None
            if stack is None or stack.shape != (len(mats), v.dim, v.dim):  # name the first slice at fault
                for m in mats:
                    if np.shape(m) != (v.dim, v.dim):
                        raise DimMismatch(f"schedule dim {as_complex_matrix(m).shape[0]} vs state dim {v.dim}")
                stack = np.array(mats, dtype=complex)
            mats = stack  # rebinding drops fn's results before the next block is sampled
            hermitian_gate(mats)
            values, vectors, _, _ = eigh_stack(mats)
            vectors_h = vectors.conj().swapaxes(1, 2)
        for phases, vecs, vecs_h in zip(np.exp(-1j * values * (dt / sched.alpha)), vectors, vectors_h):
            np.multiply(phases, np.matmul(vecs_h, amps, out=buf), out=buf)
            np.matmul(vecs, buf, out=amps)
            norm = math.sqrt(re.dot(re) + im.dot(im))  # what np.linalg.norm computes for a complex vector
            if abs(norm - 1.0) > _NORM_DRIFT_TOL:
                raise DimMismatch(f"norm drifted by {abs(norm - 1.0):.3e} in one slice")
            amps /= norm
    return QuantumState(amps, v.factor_dims)


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
