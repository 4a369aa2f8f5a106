"""Spin angular momentum triples and rotation generators for any dimension.

For n = 2j+1 the ladder construction gives Lz = alpha*diag(j, ..., -j) and
L+/- with elements alpha*sqrt(j(j+1) - m(m+1)), from which Lx, Ly follow.
The triple satisfies [Lx, Ly] = i*alpha*Lz (and cyclic) and the squared sum
Lx^2+Ly^2+Lz^2 = alpha^2 j(j+1) I; rotation generators are R_a = L_a/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DimTooSmall
from .evolution import propagate, propagator
from .operators import HermitianOperator, QuantumState, expectation, max_norm


@dataclass(frozen=True)
class SpinTriple:
    n: int
    j: float
    alpha: float
    lx: HermitianOperator
    ly: HermitianOperator
    lz: HermitianOperator

    def component(self, axis: str) -> HermitianOperator:
        try:
            return {"x": self.lx, "y": self.ly, "z": self.lz}[axis]
        except KeyError:
            raise ValueError(f"axis must be x, y or z, not {axis!r}") from None


def spin_operators(n: int, alpha: float = 1.0) -> SpinTriple:
    if n < 2:
        raise DimTooSmall("need dimension >= 2")
    j = (n - 1) / 2.0
    m = j - np.arange(n)  # basis index i holds m = j - i
    lz = HermitianOperator(alpha * np.diag(m).astype(complex))
    lplus = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        lplus[i - 1, i] = alpha * math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    lminus = lplus.conj().T
    lx = HermitianOperator((lplus + lminus) / 2)
    ly = HermitianOperator((lplus - lminus) / 2j)
    return SpinTriple(n, j, float(alpha), lx, ly, lz)


def rotation_generator(axis: str, t: SpinTriple) -> HermitianOperator:
    """R_a = L_a / alpha."""
    return HermitianOperator(t.component(axis).matrix / t.alpha)


def casimir_matrix(t: SpinTriple) -> np.ndarray:
    return t.lx.matrix @ t.lx.matrix + t.ly.matrix @ t.ly.matrix + t.lz.matrix @ t.lz.matrix


def expectation_vector(t: SpinTriple, v: QuantumState) -> np.ndarray:
    """(<Lx>, <Ly>, <Lz>) as a 3-vector."""
    if v.dim != t.n:
        raise DimMismatch(f"state dim {v.dim} vs spin dim {t.n}")
    return np.array([expectation(t.lx, v), expectation(t.ly, v), expectation(t.lz, v)])


def _rotated(t: SpinTriple, axis: str, angle: float, v: QuantumState) -> QuantumState:
    # no renormalization: the rotation is unitary to machine precision and
    # renormalizing would blur the exact zero at angle 0
    return QuantumState(propagate(t.component(axis), angle, v.amplitudes, t.alpha))


def check_rotation_identity(t: SpinTriple, v: QuantumState, eps: float) -> float:
    """Residual of the composed-rotation relation on expectation vectors.

    With U_a = exp(-i eps L_a/alpha), the x-then-y and y-then-x orderings
    differ, at the expectation level, by a z-rotation of angle eps^2:

        proj(U1 U2 v) - proj(U2 U1 v) = proj(U3(eps^2) v) - proj(v) + O(eps^3)

    The returned max-norm of the two sides' difference scales cubically.
    """
    v12 = _rotated(t, "x", eps, _rotated(t, "y", eps, v))
    v21 = _rotated(t, "y", eps, _rotated(t, "x", eps, v))
    v3 = _rotated(t, "z", eps * eps, v)
    lhs = expectation_vector(t, v12) - expectation_vector(t, v21)
    rhs = expectation_vector(t, v3) - expectation_vector(t, v)
    return max_norm(lhs - rhs)


def check_frame_rotation_covariance(t: SpinTriple, v: QuantumState, eps: float) -> float:
    """First-order covariance of the expectation vector under a frame rotation.

    Measured in a frame rotated by eps about z (state transformed by
    exp(-i eps R_z)), the expectation vector obeys

        (<Lx'>, <Ly'>, <Lz'>) = [[1, -eps, 0], [eps, 1, 0], [0, 0, 1]] (<Lx>, <Ly>, <Lz>)

    up to O(eps^2); the residual max-norm scales quadratically.
    """
    lhs = expectation_vector(t, _rotated(t, "z", eps, v))
    m = np.array([[1.0, -eps, 0.0], [eps, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rhs = m @ expectation_vector(t, v)
    return max_norm(lhs - rhs)


def commutant_scalar_residual(t: SpinTriple) -> tuple[int, float]:
    """Certify that only scalar matrices commute with all three components.

    Solves [L_a, M] = 0 for all a by SVD of the stacked linear maps and
    returns (null-space dimension, worst deviation of a null matrix from a
    scalar matrix, after unit Frobenius normalization).
    """
    n = t.n
    eye = np.eye(n)
    maps = []
    for op in (t.lx, t.ly, t.lz):
        a = op.matrix
        maps.append(np.kron(a, eye) - np.kron(eye, a.T))  # row-major vec of [A, M]
    stacked = np.vstack(maps)
    _, sing, vh = np.linalg.svd(stacked)
    cutoff = 1e-10 * (sing[0] if sing.size else 1.0)
    null = [vh[i].conj() for i in range(len(sing)) if sing[i] <= cutoff]
    worst = 0.0
    for vec in null:
        m = vec.reshape(n, n)
        m = m / np.linalg.norm(m)
        scalar = np.trace(m) / n * eye
        worst = max(worst, max_norm(m - scalar))
    return len(null), worst


def full_turn_matrix(t: SpinTriple) -> np.ndarray:
    """exp(-i 2 pi Lz / alpha): +I for integer spin, -I for half-integer."""
    return propagator(t.lz, 2 * math.pi, t.alpha)
