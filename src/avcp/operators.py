"""Hermitian operators, spectra, states, and projective measurement.

Everything lives on finite-dimensional complex Hilbert spaces held as dense
numpy arrays.  Operators are validated on construction and carry a lazily
cached eigensystem with a deterministic ordering and phase convention, so any
quantity derived from a spectrum is reproducible bit for bit on a given
platform.  All tolerance checks use the max-norm (largest entry magnitude).
"""

from __future__ import annotations

import array
import contextlib
import ctypes
import functools
import numbers
import reprlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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


def real_number(value, name: str) -> float:
    """A time or alpha as a float: 1 and 0.5 read; true, "0.5", null and an integer beyond the float range raise
    ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        bits = int(value).bit_length()
        raise ValueError(f"{name} is too large for a float, got an integer of {bits} bits") from None


def whole_number(value, name: str, least: int | None = None) -> int:
    """A count or seed as an int: 128 and 128.0 read as 128; 2.7, true, "128", Infinity, an integer beyond the
    float range and a value below `least` (1 for a count, 0 for a seed) raise ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not real_number(value, name).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {int(value)}")
    return int(value)


def read_factor_dims(values) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of `whole_number`s of at least 1; a value that is not a list (or other
    iterable) raises TypeError naming the field."""
    try:
        entries = iter(values)
    except TypeError:
        raise TypeError(f"factor_dims must be a list of whole numbers, got {values!r}") from None
    return tuple(whole_number(d, "factor_dims", 1) for d in entries)


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
    """Seeded random generator, its seed a whole number from 0; the only RNG constructor used in this package."""
    return np.random.default_rng(whole_number(seed, "seed", 0))


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
        factor_dims = (arr.size,) if factor_dims is None else read_factor_dims(factor_dims)
        if int(np.prod(factor_dims)) != arr.size:
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


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one thread of numpy's bundled OpenBLAS, then restore the thread count: from d = 97 up
    eigenvectors, and products that feed them, change in the last bits with the thread count."""
    get_threads, set_threads = _openblas_threads()
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def eigh_stack(a: np.ndarray):
    """Eigenvalues (n, d), eigenvectors (n, d, d), outcome groups and group values of an (n, d, d) Hermitian stack.

    One batched `eigh` (bit-identical to per-matrix calls), on one thread of numpy's bundled OpenBLAS: from d = 97
    up the eigenvectors change in the last bits with the thread count.  Ascending eigenvalues, ties within the
    degeneracy tolerance ordered by the lexicographic key (re, im, re, im, ...) of the phase-fixed eigenvector.
    Raises ConvergenceFailure if any matrix fails a gate."""
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    try:
        with one_blas_thread():
            eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise ConvergenceFailure(str(exc)) from None
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

    # "not <=" in both gates, so that a nan fails them
    residual = np.abs(a @ vectors - vectors * eigenvalues[:, None, :]).max(axis=(1, 2), initial=0.0)
    if not (residual <= SPECTRUM_TOL * scale).all():
        raise ConvergenceFailure("eigenpair residual exceeds tolerance")
    if not max_norm(vectors.conj().transpose(0, 2, 1) @ vectors - np.eye(d)) <= SPECTRUM_TOL:
        raise ConvergenceFailure("eigenvector matrix is not unitary")

    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return eigenvalues, vectors, groups, group_values


def _runs(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """(start, end) of each run of `values` whose adjacent gaps stay within `tol`."""
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

    Each complex product is assembled from real gemm products of the real and
    imaginary parts, and the two sides are combined in the same order.  Real
    gemm forms every entry as a plain sum of real products, with no 3M-style
    recombination, so operators that commute by structure keep an exact zero:
    for embeddings on disjoint tensor factors, each entry of every real
    product of A B holds a single nonzero term, the same term as the matching
    entry of B A, so the two sides agree bit for bit.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"dims {ma.shape[0]} and {mb.shape[0]} differ")
    ar, ai, br, bi = ma.real, ma.imag, mb.real, mb.imag
    re = (ar @ br - ai @ bi) - (br @ ar - bi @ ai)
    im = (ar @ bi + ai @ br) - (br @ ai + bi @ ar)
    return re + 1j * im


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
    factor_dims = read_factor_dims(factor_dims)
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


#: guide cells per outcome group: a node's guide has k cells, the least power of two >= 8G.  A draw
#: enters the fix-up loop only when its cell holds a sum at or below it: on perfbench's `trials` specs
#: (seed 7) 12-22% of the draws at 2G cells and 3-6% at 8G.  In process, a `trials` cycle took 15.6, 15.3,
#: 14.9 and 14.6 ms at 2G, 4G, 8G and 16G cells, and `cdf_table` + `draw_flat` on 256 nodes x 256 groups
#: peaked at 3.1, 4.1, 6.1 and 10.1 MB traced.
GUIDE_CELLS_PER_GROUP = 8


class CdfTable(NamedTuple):
    """Indexed-search table of a (nodes, G) weight array: see `cdf_table`."""

    sums: np.ndarray  # (nodes * G,) normalised cumulative sums, node-major; each node's last is 1.0
    guide: np.ndarray  # (nodes * k,) flat index into `sums` where the search for a draw in each cell starts
    cells: int  # k, guide cells per node


def cdf_table(weights: np.ndarray) -> CdfTable:
    """The lookup table `draw_flat` searches, for a (nodes, G) array of weight rows.

    Each node's cumulative sums are divided by their total after summing, so its last sum is x / x,
    exactly 1.0, and so are those of trailing zero-weight groups: no draw u < 1 passes them.  The guide
    (Chen & Asau 1974) splits [0, 1) into k cells of width 1/k per node, k the least power of two
    >= GUIDE_CELLS_PER_GROUP * G, so u*k and every cell edge b/k are exact; entry b of node r holds the
    flat index of r's first sum above b/k.  k < 16G intp entries, under 128*G bytes, per node.
    Raises ValueError for a weight row with a negative weight or without a finite positive sum.
    """
    n_rows, n_groups = weights.shape
    k = 1 << (GUIDE_CELLS_PER_GROUP * n_groups - 1).bit_length()
    with np.errstate(over="ignore"):  # an overflowing sum is reported just below, as a ValueError
        cum = np.cumsum(weights, axis=1)
    ok = (weights >= 0).all(axis=1) & (cum[:, -1] > 0) & (cum[:, -1] < np.inf)  # a nan fails all three
    if not ok.all():
        r = int(np.argmin(ok))
        raise ValueError(f"weight row {r} has a negative weight or no finite positive sum ({float(cum[r, -1])!r})")
    sums = (cum / cum[:, -1:]).ravel()
    # sum j <= b/k exactly when ceil(k * sum j) <= b, a key in [0, k]; a key of k lands on the next node's
    # cell 0, whose count includes every sum of node r anyway
    keys = np.ceil(sums * k).astype(np.intp) + np.repeat(k * np.arange(n_rows), n_groups)
    guide = np.bincount(keys, minlength=n_rows * k + 1)
    np.cumsum(guide, out=guide)
    return CdfTable(sums, guide[:-1], k)


def draw_flat(table: CdfTable, rows: np.ndarray | int, u: np.ndarray) -> np.ndarray:
    """Flat (node, group) indices into `table.sums` that draws u in [0, 1) pick from nodes `rows`.

    The group is the count of the node's sums <= u.  A draw starts at its cell's guide entry and steps
    past the sums inside its cell, fewer than G/k < 1/8 steps per draw on average; the node's last sum,
    1.0, stops it.  O(n) expected time and memory for n draws.  u is not checked: every draw in avcp comes
    from `Generator.random`, and `run_trials`, `measure_projective` and `verify operators` all draw here.
    """
    sums, guide, k = table
    pos = guide[(u * k).astype(np.intp) + k * rows]
    t = np.flatnonzero(sums[pos] <= u)
    while t.size:
        pos[t] += 1
        t = t[sums[pos[t]] <= u[t]]
    return pos


def measure_projective(v: QuantumState, h: HermitianOperator, rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement with collapse onto the outcome eigenspace.

    Consumes exactly one uniform draw from `rng` and selects the outcome by
    inverting the cumulative Born distribution over outcome groups, taken in
    spectrum order: the one-state case of `born_split` and `draw_flat`.
    """
    s = h.spectrum
    weights, children = born_split(s, v.amplitudes[None, :])
    idx = draw_flat(cdf_table(weights), 0, np.array([rng.random()]))
    collapsed = QuantumState(children(0, idx)[0], v.factor_dims)
    return MeasurementOutcome(float(s.group_values[idx[0]]), collapsed, int(idx[0]))


# ---------------------------------------------------------------------------
# JSON serialization: {"dim": n, "re": [...], "im": [...]} flattened row-major
# ---------------------------------------------------------------------------

def _array_to_dict(arr: np.ndarray) -> dict:
    return {"dim": arr.shape[0], "re": arr.real.reshape(-1).tolist(), "im": arr.imag.reshape(-1).tolist()}


def _array_from_dict(d: dict, ndim: int) -> np.ndarray:
    """The complex array of `d`: a state for ndim 1, a matrix for ndim 2; a missing "im" reads as zeros.
    A negative "dim", then a "re" or "im" that is not a flat list of real numbers (TypeError; a boolean is not
    one), holds an integer beyond the float range or has not dim (or dim^2) entries (ValueError), raises naming
    it."""
    dim = whole_number(d["dim"], "dim", 0)
    shape, size = (dim,) * ndim, dim**ndim

    def part(key):
        values = d[key]
        if isinstance(values, list):
            try:  # as fast as numpy on a list of floats, and refuses a string, null or list entry
                entries = array.array("d", values)
            except OverflowError:
                raise ValueError(f"{key} has an integer entry too large for a float") from None
            except TypeError:
                pass
            else:
                if len(entries) != size:
                    raise ValueError(f"{key} must have {size} entries for dim {dim}, got {len(entries)}")
                flat = np.frombuffer(entries)
                # array.array reads true and false as 1.0 and 0.0, so only those entries can be booleans
                if not any(type(values[i]) is bool for i in np.flatnonzero((flat == 0) | (flat == 1)).tolist()):
                    return flat.reshape(shape)
        raise TypeError(f"{key} must be a flat list of real numbers, got {reprlib.repr(values)}")

    re = part("re")
    return re + 1j * part("im") if "im" in d else re + 0j


def matrix_to_dict(m) -> dict:
    return _array_to_dict(as_complex_matrix(m))


def operator_to_dict(h: HermitianOperator) -> dict:
    return _array_to_dict(h.matrix)


def operator_from_dict(d: dict) -> HermitianOperator:
    return HermitianOperator(_array_from_dict(d, 2))


def state_to_dict(v: QuantumState) -> dict:
    out = _array_to_dict(v.amplitudes)
    if v.factor_dims != (v.dim,):
        out["factor_dims"] = list(v.factor_dims)
    return out


def state_from_dict(d: dict) -> QuantumState:
    return QuantumState(_array_from_dict(d, 1), d.get("factor_dims"))


# ---------------------------------------------------------------------------
# random ensembles used by the verification suites and tests
# ---------------------------------------------------------------------------

def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Random Hermitian operator with entries of order 1."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


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
