"""Hermitian operators, spectra, states, and projective measurement.

Everything lives on finite-dimensional complex Hilbert spaces held as dense
numpy arrays.  Operators are validated on construction and carry a lazily
cached eigensystem with a deterministic ordering and phase convention, so any
quantity derived from a spectrum is reproducible bit for bit on a given
platform.  All tolerance checks use the max-norm (largest entry magnitude).
"""

from __future__ import annotations

import ctypes
import functools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    ImaginaryResidue,
    NonFinite,
    NotHermitian,
    StateNotNormalized,
)

#: relative asymmetry admitted by the Hermiticity gate
HERMITICITY_RTOL = 1e-12
#: residual allowed in A V = V Lambda and V^dag V = I (scaled by max(1, |A|))
SPECTRUM_TOL = 1e-10
#: eigenvalues closer than this (times max(1, |A|)) merge into one outcome
DEGENERACY_RTOL = 1e-9
#: admissible deviation of a state vector from unit norm
STATE_NORM_TOL = 1e-12

_PHASE_CUTOFF = 1e-12


def max_norm(m) -> float:
    """Largest entry magnitude; the norm used by every tolerance check here."""
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0


def _square_matrix(m) -> np.ndarray:
    """Return `m` as a square complex ndarray, entries unchecked."""
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def as_complex_matrix(m) -> np.ndarray:
    """Return `m` as a square complex ndarray with finite entries."""
    arr = _square_matrix(m)
    if not np.isfinite(arr).all():
        raise NonFinite("matrix contains non-finite entries")
    return arr


def make_rng(seed) -> np.random.Generator:
    """Seeded random generator; the only RNG constructor used in this package."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    Eigenvalues ascend and eigenvectors are the matching columns.  Each
    column is phase-fixed so its first component above a small cutoff is real
    and positive, and columns inside a degenerate run are ordered
    lexicographically, which makes the decomposition deterministic.

    `outcome_groups` partitions the indices into runs whose adjacent
    eigenvalue gaps stay within the degeneracy tolerance; each group is one
    measurement outcome, with value `group_values[g]` and projector
    `projector(g)` onto the group eigenspace.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    outcome_groups: tuple[tuple[int, ...], ...]
    group_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def projector(self, group: int) -> np.ndarray:
        """Dense projector onto a group eigenspace, for reference checks; measurement never builds it."""
        cols = self.eigenvectors[:, list(self.outcome_groups[group])]
        p = cols @ cols.conj().T
        p.setflags(write=False)
        return p

    def projectors(self) -> list[np.ndarray]:
        """`projector(g)` for every outcome group; G dense d x d arrays, not cached."""
        return [self.projector(g) for g in range(len(self.outcome_groups))]


class HermitianOperator:
    """A validated Hermitian matrix representing a quantum measurement."""

    __slots__ = ("matrix", "_spectrum")

    def __init__(self, matrix):
        arr = _square_matrix(matrix)
        hermitian_gate(arr[None])  # the finite check, then the Hermiticity gate
        arr.setflags(write=False)
        self.matrix = arr
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectrum(self) -> Spectrum:
        """Cached eigensystem (computed on first access)."""
        if self._spectrum is None:
            self._spectrum = eigensystem(self)
        return self._spectrum

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def hermitian_gate(a: np.ndarray) -> None:
    """Finite check and Hermiticity gate over an (n, d, d) complex stack, in order: the first failing
    matrix raises the NonFinite or NotHermitian(asym, allowed) that `HermitianOperator` raises for it."""
    finite = np.isfinite(a).all(axis=(1, 2))
    ok = a[: len(a) if finite.all() else int(np.argmin(finite))]  # the matrices before the first non-finite one
    # conj(A) - A^T is the exact conjugate of A - A^dag, so |.| is the same to the bit, at a fraction of the cost
    asym = np.abs(ok.conj() - ok.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    allowed = HERMITICITY_RTOL * np.abs(ok).max(axis=(1, 2), initial=0.0)
    for i in np.flatnonzero(asym > allowed)[:1]:
        raise NotHermitian(float(asym[i]), float(allowed[i]))
    if len(ok) < len(a):
        raise NonFinite("matrix contains non-finite entries")


def hermitian_from_matrix(m) -> HermitianOperator:
    """Wrap `m` as a HermitianOperator, enforcing the Hermiticity gate."""
    return HermitianOperator(m)


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, HermitianOperator):
        return op.matrix
    return as_complex_matrix(op)


class QuantumState:
    """Normalized complex vector on a (possibly composite) Hilbert space.

    `factor_dims` records the subsystem dimensions; their product must equal
    the total dimension.  A plain system has `factor_dims == (dim,)`.
    """

    __slots__ = ("amplitudes", "factor_dims")

    def __init__(self, amplitudes, factor_dims: Sequence[int] | None = None):
        arr = np.array(amplitudes, dtype=complex).reshape(-1)
        if arr.size == 0:
            raise DimMismatch("state vector must be non-empty")
        if not np.isfinite(arr).all():
            raise NonFinite("state vector contains non-finite entries")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise StateNotNormalized(f"norm deviates from 1 by {abs(norm - 1.0):.3e}")
        if factor_dims is None:
            factor_dims = (arr.size,)
        factor_dims = tuple(int(d) for d in factor_dims)
        if any(d <= 0 for d in factor_dims) or int(np.prod(factor_dims)) != arr.size:
            raise DimMismatch(
                f"factor dims {factor_dims} do not multiply to dim {arr.size}"
            )
        arr.setflags(write=False)
        self.amplitudes = arr
        self.factor_dims = factor_dims

    @classmethod
    def normalized(cls, amplitudes, factor_dims=None) -> "QuantumState":
        """Build a state from an unnormalized vector."""
        arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(arr)
        if norm == 0:
            raise StateNotNormalized("cannot normalize the zero vector")
        return cls(arr / norm, factor_dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def __repr__(self):
        return f"QuantumState(dim={self.dim}, factors={self.factor_dims})"


def eigensystem(h: HermitianOperator) -> Spectrum:
    """Deterministic eigendecomposition of a Hermitian operator: `eigensystems` of one matrix."""
    return eigensystems([h.matrix])[0]


def eigensystems(mats) -> list[Spectrum]:
    """Deterministic eigendecompositions of a stack of equal-size Hermitian matrices: `eigh_stack` as `Spectrum`s."""
    return [Spectrum(*parts) for parts in zip(*eigh_stack(np.asarray(mats, dtype=complex)))]


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS; a constant 1 and a no-op for another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # symbol lookup also searches the libraries it links
    get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads64_", None) for op in ("get", "set"))
    if get is None or put is None:
        return (lambda: 1), (lambda n: None)
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, put


def eigh_stack(a: np.ndarray):
    """Eigenvalues (n, d), eigenvectors (n, d, d), outcome groups and group values of an (n, d, d) Hermitian stack.

    One batched `eigh` (bit-identical to per-matrix calls), on one thread of numpy's bundled OpenBLAS: from d = 97
    up the eigenvectors change in the last bits with the thread count.  Ascending eigenvalues, ties within the
    degeneracy tolerance ordered by the lexicographic key (re, im, re, im, ...) of the phase-fixed eigenvector.
    Raises ConvergenceFailure if any matrix fails a gate."""
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    get_threads, set_threads = _openblas_threads()
    threads = get_threads()
    try:
        set_threads(1)
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise ConvergenceFailure(str(exc)) from None
    finally:
        set_threads(threads)
    n, d = eigenvalues.shape
    if d:
        # a unit column always has an entry of at least 1/sqrt(d), far above the cutoff;
        # np.hypot rounds like scalar abs() (np.abs on arrays does not), as the oracle test pins
        z = np.take_along_axis(vectors, np.argmax(np.abs(vectors) > _PHASE_CUTOFF, axis=1)[:, None, :], axis=1)
        # each matrix column-major, as before: BLAS rounds products with the other layout differently
        fixed = np.empty((n, d, d), dtype=complex).transpose(0, 2, 1)
        vectors = np.multiply(vectors, z.conj() / np.hypot(z.real, z.imag), out=fixed)

    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    tol = DEGENERACY_RTOL * scale
    groups = [tuple((c,) for c in range(d))] * n
    # np.mean of one value is the value, except that -0.0 becomes 0.0
    group_values = list(eigenvalues + 0.0)

    # deterministic order inside each degenerate run, for the matrices that have one
    for i in np.flatnonzero((np.diff(eigenvalues, axis=1) <= tol[:, None]).any(axis=1)):
        order = np.arange(d)
        for lo, hi in _runs(eigenvalues[i], tol[i]):
            if hi - lo > 1:
                keys = np.ascontiguousarray(vectors[i, :, lo:hi].T).view(float)  # row c: column c's lex key
                order[lo:hi] = lo + np.lexsort(keys.T[::-1])
        eigenvalues[i] = eigenvalues[i, order]
        vectors[i] = vectors[i][:, order]
        runs = _runs(eigenvalues[i], tol[i])
        groups[i] = tuple(tuple(range(lo, hi)) for lo, hi in runs)
        # one np.mean per run: np.add.reduceat sums large runs in another order
        group_values[i] = np.array([float(np.mean(eigenvalues[i, lo:hi])) for lo, hi in runs])

    residual = np.abs(a @ vectors - vectors * eigenvalues[:, None, :]).max(axis=(1, 2), initial=0.0)
    if (residual > SPECTRUM_TOL * scale).any():
        raise ConvergenceFailure("eigenpair residual exceeds tolerance")
    if max_norm(vectors.conj().transpose(0, 2, 1) @ vectors - np.eye(d)) > SPECTRUM_TOL:
        raise ConvergenceFailure("eigenvector matrix is not unitary")

    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return eigenvalues, vectors, groups, group_values


def _runs(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """(start, end) of each run of `values` whose adjacent gaps stay within `tol`."""
    if not values.size:
        return []
    cuts = (np.flatnonzero(np.diff(values) > tol) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, values.size]))


def apply_spectral_function(h: HermitianOperator, f: Callable[[float], float]) -> HermitianOperator:
    """Spectral functional calculus: sum of f(a_i) v_i v_i^dag.

    `f` is applied to each eigenvalue as a Python float; it must return a
    finite real number everywhere on the spectrum.
    """
    s = h.spectrum
    values = np.empty(s.dim, dtype=float)
    for i, lam in enumerate(s.eigenvalues):
        try:
            values[i] = float(f(float(lam)))
        except (ValueError, ArithmeticError, TypeError) as exc:
            raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from None
    if not np.isfinite(values).all():
        raise DomainError("function produced a non-finite value on the spectrum")
    m = (s.eigenvectors * values) @ s.eigenvectors.conj().T
    # exact symmetry can be lost to rounding; the result is Hermitian by construction
    return HermitianOperator((m + m.conj().T) / 2)


def commutator(a, b) -> np.ndarray:
    """A B - B A for matrices or HermitianOperators of equal dimension.

    Products go through einsum rather than gemm: 3M-style complex gemm adds
    roundoff that would spoil the exact zero of structurally commuting
    operators (for example, embeddings on disjoint tensor factors).
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"dims {ma.shape[0]} and {mb.shape[0]} differ")
    return np.einsum("ik,kj->ij", ma, mb) - np.einsum("ik,kj->ij", mb, ma)


def expectation(h, v: QuantumState) -> float:
    """<v|H|v> for Hermitian H; the imaginary residue must be negligible."""
    m = _as_matrix(h)
    if m.shape[0] != v.dim:
        raise DimMismatch(f"operator dim {m.shape[0]} vs state dim {v.dim}")
    val = complex(v.amplitudes.conj() @ (m @ v.amplitudes))
    tol = 1e-12 * max(1.0, abs(val), max_norm(m))
    if abs(val.imag) > tol:
        raise ImaginaryResidue(f"imaginary part {val.imag:.3e} exceeds {tol:.3e}")
    return val.real


def tensor(a, b):
    """Kronecker product of two operators or two states."""
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    if isinstance(a, QuantumState) and isinstance(b, QuantumState):
        return QuantumState(
            np.kron(a.amplitudes, b.amplitudes), a.factor_dims + b.factor_dims
        )
    raise TypeError("tensor expects two HermitianOperators or two QuantumStates")


def embed_operator(op: HermitianOperator, factor_dims: Sequence[int], subsystem: int) -> HermitianOperator:
    """Embed `op`, acting on one factor, into the full composite space."""
    factor_dims = tuple(int(d) for d in factor_dims)
    if not 0 <= subsystem < len(factor_dims):
        raise DimMismatch(f"subsystem {subsystem} outside factors {factor_dims}")
    if op.dim != factor_dims[subsystem]:
        raise DimMismatch(
            f"operator dim {op.dim} does not match factor {factor_dims[subsystem]}"
        )
    m = np.eye(1, dtype=complex)
    for k, d in enumerate(factor_dims):
        m = np.kron(m, op.matrix if k == subsystem else np.eye(d))
    return HermitianOperator(m)


@dataclass(frozen=True)
class MeasurementOutcome:
    value: float
    collapsed: QuantumState
    outcome_index: int


def born_split(spectrum: Spectrum, states: np.ndarray):
    """Born rule and collapse for k row states, in the eigenbasis of `spectrum`.

    Rotates once, c = V^dag psi, and returns the (k, G) unnormalised weights
    (sums of |c_i|^2 over each group's contiguous columns) and `children(rows,
    groups)`, which builds only the collapsed states V[:, g] c[g] / ||c[g]|| asked for.
    """
    if states.shape[1] != spectrum.dim:
        raise DimMismatch(f"operator dim {spectrum.dim} vs state dim {states.shape[1]}")
    coords = states @ spectrum.eigenvectors.conj()
    starts = [g[0] for g in spectrum.outcome_groups]
    weights = np.add.reduceat(coords.real**2 + coords.imag**2, starts, axis=1)

    def children(rows: np.ndarray | int, groups: np.ndarray) -> np.ndarray:
        labels = np.array([k for k, g in enumerate(spectrum.outcome_groups) for _ in g])
        kept = np.where(labels == groups[:, None], coords[rows], 0)
        return (kept @ spectrum.eigenvectors.T) / np.sqrt(weights[rows, groups])[:, None]

    return weights, children


def inverse_cdf(weights: np.ndarray, rows: np.ndarray | int, u: np.ndarray) -> np.ndarray:
    """Outcome groups u draws from the normalised cumulative weights of `rows` (an index or array).

    The count of sums <= u[t] (`searchsorted`, side="right"); leaving out the last clamps it to G - 1.
    Normalising after the sum keeps trailing zero-weight groups at exactly 1.0, out of reach of u < 1.
    The count is found by indexed search (Chen & Asau 1974): each weight row gets a guide row counting
    its sums at or below each cell edge b/k of [0, 1), k >= 2G, and a draw steps on from its cell's
    count only past the sums inside its cell, (G - 1)/k < 1/2 steps per draw on average.  O(n + nodes*G)
    expected time and memory for n draws and (nodes, G) weights; no n x G table is ever built.
    Raises ValueError, before any table is built, for a draw outside [0, 1) and for a weight row
    with a negative weight or without a finite positive sum.
    """
    n_rows, n_groups = weights.shape
    k = 1 << (2 * n_groups - 1).bit_length()  # a power of two, so u*k and every cell edge b/k are exact
    uk = u * k
    if not (uk.min(initial=0.0) >= 0 and uk.max(initial=0.0) < k):  # a nan fails both
        raise ValueError(f"uniform draw {float(u[~((u >= 0) & (u < 1))][0])!r} is outside [0, 1)")
    with np.errstate(over="ignore"):  # an overflowing sum is reported just below, as a ValueError
        cum = np.cumsum(weights, axis=1)
    ok = (weights >= 0).all(axis=1) & (cum[:, -1] > 0) & (cum[:, -1] < np.inf)  # a nan fails all three
    if not ok.all():
        r = int(np.argmin(ok))
        raise ValueError(f"weight row {r} has a negative weight or no finite positive sum ({float(cum[r, -1])!r})")
    cum = cum[:, :-1] / cum[:, -1:]
    # sum j <= b/k exactly when ceil(k * sum j) <= b, a key in [0, k]
    keys = np.ceil(cum * k).astype(np.intp) + (k + 1) * np.arange(n_rows)[:, None]
    # guide[r*(k + 1) + b] = r*(G - 1) + (how many sums of row r are <= b/k): a flat index into cum
    guide = np.bincount(keys.ravel(), minlength=n_rows * (k + 1))
    np.cumsum(guide, out=guide)
    rows = np.asarray(rows, dtype=np.intp)
    at = uk.astype(np.intp) + (k + 1) * rows
    pos, end = guide[at], guide[at + 1]
    cum = cum.ravel()
    t = np.flatnonzero(pos < end)  # the draws whose cell holds a sum
    while t.size:
        t = t[cum[pos[t]] <= u[t]]
        pos[t] += 1
        t = t[pos[t] < end[t]]
    pos -= (n_groups - 1) * rows
    return pos


def outcome_probabilities(v: QuantumState, h: HermitianOperator) -> np.ndarray:
    """Born probabilities of each outcome group of `h` in state `v` (`born_split`, normalised)."""
    weights = born_split(h.spectrum, v.amplitudes[None, :])[0][0]
    return weights / weights.sum()


def measure_projective(v: QuantumState, h: HermitianOperator, rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement with collapse onto the outcome eigenspace.

    Consumes exactly one uniform draw from `rng` and selects the outcome by
    inverting the cumulative Born distribution over outcome groups, taken in
    spectrum order: the one-state case of `born_split` and `inverse_cdf`.
    """
    s = h.spectrum
    weights, children = born_split(s, v.amplitudes[None, :])
    idx = inverse_cdf(weights, 0, np.array([rng.random()]))
    collapsed = QuantumState(children(0, idx)[0], v.factor_dims)
    return MeasurementOutcome(float(s.group_values[idx[0]]), collapsed, int(idx[0]))


# ---------------------------------------------------------------------------
# JSON serialization: {"dim": n, "re": [...], "im": [...]} flattened row-major
# ---------------------------------------------------------------------------

def _array_to_dict(arr: np.ndarray) -> dict:
    return {"dim": arr.shape[0], "re": arr.real.reshape(-1).tolist(), "im": arr.imag.reshape(-1).tolist()}


def _array_from_dict(d: dict, ndim: int) -> np.ndarray:
    """The complex array of `d`: a state for ndim 1, a matrix for ndim 2; a missing "im" reads as zeros."""
    shape = (int(d["dim"]),) * ndim
    re = np.asarray(d["re"], dtype=float).reshape(shape)
    return re + 1j * np.asarray(d.get("im", np.zeros(shape)), dtype=float).reshape(shape)


def matrix_to_dict(m) -> dict:
    return _array_to_dict(as_complex_matrix(m))


def matrix_from_dict(d: dict) -> np.ndarray:
    return _array_from_dict(d, 2)


def operator_to_dict(h: HermitianOperator) -> dict:
    return matrix_to_dict(h.matrix)


def operator_from_dict(d: dict) -> HermitianOperator:
    return HermitianOperator(matrix_from_dict(d))


def state_to_dict(v: QuantumState) -> dict:
    out = _array_to_dict(v.amplitudes)
    if v.factor_dims != (v.dim,):
        out["factor_dims"] = list(v.factor_dims)
    return out


def state_from_dict(d: dict) -> QuantumState:
    return QuantumState(_array_from_dict(d, 1), d.get("factor_dims"))


def operator_to_json(h: HermitianOperator) -> str:
    return json.dumps(operator_to_dict(h), sort_keys=True)


def operator_from_json(text: str) -> HermitianOperator:
    return operator_from_dict(json.loads(text))


def state_to_json(v: QuantumState) -> str:
    return json.dumps(state_to_dict(v), sort_keys=True)


def state_from_json(text: str) -> QuantumState:
    return state_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# random ensembles used by the verification suites and tests
# ---------------------------------------------------------------------------

def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    """Random Hermitian operator with entries of order `scale`."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * (g + g.conj().T) / 2)


def random_state(dim: int, rng: np.random.Generator, factor_dims: Sequence[int] | None = None) -> QuantumState:
    g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.normalized(g, factor_dims)


def random_commuting_family(
    dim: int, count: int, rng: np.random.Generator
) -> list[HermitianOperator]:
    """Hermitian operators sharing one random eigenbasis, so they all commute."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    out = []
    for _ in range(count):
        vals = rng.normal(size=dim)
        m = (basis * vals) @ basis.conj().T
        out.append(HermitianOperator((m + m.conj().T) / 2))
    return out
