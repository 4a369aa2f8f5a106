"""Reference oracle for the array-form `operators.eigensystems` and `eigensystem`.

`_eigensystem` below, with `_group_by_gap` and `_lex_key`, is the
per-column implementation the package used before the phase fix, the run
finder and the in-run sort became array operations.  It is kept verbatim:
it loops over every column and sorts every run with Python tuples, so it is
slow, but it shares none of that code with `eigensystem`.  Every operator in
the corpus must give the same eigenvalue, eigenvector and group-value bytes,
the same eigenvector memory layout and the same outcome groups from both
(the one change to the old code: its `eigh` runs on one BLAS thread, as the package's does),
because every Born weight, collapse and group value in the package is
derived from them.  The batched `eigensystems` must also give, for every
matrix of a stack, exactly what `eigensystem` gives for that matrix alone.
"""

import math
from collections import defaultdict

import numpy as np
import pytest

from avcp import operators
from avcp.angular import casimir_matrix, spin_operators
from avcp.errors import ConvergenceFailure, DimMismatch
from avcp.kinematics import build_fock
from avcp.operators import (
    _PHASE_CUTOFF,
    DEGENERACY_RTOL,
    SPECTRUM_TOL,
    HermitianOperator,
    Spectrum,
    eigensystem,
    eigensystems,
    embed_operator,
    make_rng,
    max_norm,
    random_commuting_family,
    random_hermitian,
    tensor,
)


def _eigh_on_one_blas_thread(a):
    """`np.linalg.eigh` on the one OpenBLAS thread `eigh_stack` pins it to where it can: from d = 97 up
    the eigenvectors change in the last bits with the thread count."""
    get_threads, set_threads = operators._openblas_threads()
    threads = get_threads()
    try:
        set_threads(1)
        return np.linalg.eigh(a)
    finally:
        set_threads(threads)


def _eigensystem(h: HermitianOperator) -> Spectrum:
    """Deterministic eigendecomposition of a Hermitian operator.

    Ascending eigenvalues; ties within the degeneracy tolerance are ordered
    by the lexicographic key of the phase-fixed eigenvector.
    """
    a = h.matrix
    try:
        eigenvalues, vectors = _eigh_on_one_blas_thread(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise ConvergenceFailure(str(exc)) from None
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    vectors = np.array(vectors, dtype=complex)

    for c in range(vectors.shape[1]):
        col = vectors[:, c]
        above = np.flatnonzero(np.abs(col) > _PHASE_CUTOFF)
        pivot = above[0] if above.size else int(np.argmax(np.abs(col)))
        z = col[pivot]
        if abs(z) > 0:
            vectors[:, c] = col * (z.conjugate() / abs(z))

    scale = max(1.0, max_norm(a))
    tol = DEGENERACY_RTOL * scale
    groups = _group_by_gap(eigenvalues, tol)

    # deterministic order inside each degenerate run
    order = []
    for g in groups:
        keyed = sorted(g, key=lambda c: _lex_key(vectors[:, c]))
        order.extend(keyed)
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    groups = _group_by_gap(eigenvalues, tol)

    if max_norm(a @ vectors - vectors * eigenvalues) > SPECTRUM_TOL * scale:
        raise ConvergenceFailure("eigenpair residual exceeds tolerance")
    eye = np.eye(a.shape[0])
    if max_norm(vectors.conj().T @ vectors - eye) > SPECTRUM_TOL:
        raise ConvergenceFailure("eigenvector matrix is not unitary")

    group_values = np.array([float(np.mean(eigenvalues[list(g)])) for g in groups])
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(eigenvalues, vectors, groups, group_values)


def _group_by_gap(values: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and v - values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def _lex_key(col: np.ndarray) -> tuple:
    return tuple(x for pair in zip(col.real, col.imag) for x in pair)


# ---------------------------------------------------------------------------
# corpus: each family returns a list of HermitianOperators
# ---------------------------------------------------------------------------

def _in_random_basis(levels, rng) -> HermitianOperator:
    d = len(levels)
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return HermitianOperator((basis * np.asarray(levels, dtype=float)) @ basis.conj().T)


def _random(rng):
    return [random_hermitian(d, rng) for d in [*range(1, 40), 50, 64, 97, 100, 128, 200, 256]]


def _degenerate(rng):
    # the diag(5, 5, 2) pattern of the Born oracle, and random multiplicities
    ops = [_in_random_basis(np.resize([5.0, 5.0, 2.0], d), rng) for d in range(3, 19)]
    for d in range(2, 14):
        ops.append(_in_random_basis(np.sort(rng.integers(-2, 3, size=d)).astype(float), rng))
    return ops


def _integer_diagonals(rng):
    return [
        HermitianOperator(np.diag(rng.integers(-3, 4, size=d)).astype(complex))
        for d in range(1, 21)
    ]


def _commuting_families(rng):
    return [op for d in range(2, 11) for op in random_commuting_family(d, 3, rng)]


def _embedded(rng):
    ops = []
    for dims in [(2, 3), (3, 4), (4, 8), (16, 16), (2, 2, 2)]:
        for sub, d in enumerate(dims):
            ops.append(embed_operator(random_hermitian(d, rng), dims, sub))
            ops.append(embed_operator(HermitianOperator(np.diag(np.arange(d, dtype=complex))), dims, sub))
    return ops


def _fock(rng):
    return [op for n in range(2, 13) for op in (build_fock(n).x_op, build_fock(n, 0.5).p_op)]


def _spins(rng):
    ops = []
    for n in range(2, 9):
        t = spin_operators(n, 0.7)
        ops += [t.lx, t.ly, t.lz, HermitianOperator(casimir_matrix(t))]
    return ops


def _special(rng):
    ops = [HermitianOperator(np.zeros((0, 0))), HermitianOperator([[2.5]]), HermitianOperator([[-0.0]])]
    for d in range(1, 6):
        ops += [HermitianOperator(np.eye(d)), HermitianOperator(np.zeros((d, d)))]
    ops += [tensor(random_hermitian(2, rng), random_hermitian(3, rng)) for _ in range(3)]
    ops.append(tensor(spin_operators(2).lz, HermitianOperator(np.eye(3))))
    # chains of gaps within the tolerance whose span exceeds it, and one with a break
    step = 0.6 * DEGENERACY_RTOL
    ops.append(_in_random_basis([0.0, step, 2 * step, 3 * step, 1.0], rng))
    ops.append(_in_random_basis([0.0, step, 2 * step, 2 * step + 3 * DEGENERACY_RTOL, 1.0], rng))
    ops.append(HermitianOperator(np.diag([0.0, step, 2 * step, 3 * step]).astype(complex)))
    return ops


FAMILIES = {
    "random": _random,
    "degenerate": _degenerate,
    "integer_diagonals": _integer_diagonals,
    "commuting_families": _commuting_families,
    "embedded": _embedded,
    "fock": _fock,
    "spins": _spins,
    "special": _special,
}


def _same(new: Spectrum, old: Spectrum) -> bool:
    # the eigenvector layout counts too: BLAS rounds products with a C-ordered copy differently
    return (
        new.eigenvalues.tobytes() == old.eigenvalues.tobytes()
        and new.eigenvectors.tobytes() == old.eigenvectors.tobytes()
        and new.eigenvectors.shape == old.eigenvectors.shape
        and new.eigenvectors.strides == old.eigenvectors.strides
        and new.group_values.tobytes() == old.group_values.tobytes()
        and new.group_values.dtype == old.group_values.dtype
        and new.outcome_groups == old.outcome_groups
    )


def _mismatches(ops) -> list[int]:
    return [i for i, op in enumerate(ops) if not _same(eigensystem(op), _eigensystem(HermitianOperator(op.matrix)))]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_eigensystem_matches_the_per_column_oracle_bytewise(family):
    ops = FAMILIES[family](make_rng(sorted(FAMILIES).index(family)))
    assert _mismatches(ops) == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batched_eigensystems_match_eigensystem_per_matrix_bytewise(family):
    by_dim = defaultdict(list)
    for op in FAMILIES[family](make_rng(sorted(FAMILIES).index(family))):
        by_dim[op.dim].append(op)
    for ops in by_dim.values():
        batched = eigensystems([op.matrix for op in ops])
        assert len(batched) == len(ops)
        assert [i for i, (s, op) in enumerate(zip(batched, ops)) if not _same(s, eigensystem(op))] == []


def test_batched_edge_cases_empty_stack_and_negative_zero():
    assert eigensystems(np.zeros((0, 3, 3))) == []
    # np.mean([-0.0]) is 0.0, and a one-value group keeps that convention
    assert eigensystems([[[-0.0]]])[0].group_values.tobytes() == np.array([0.0]).tobytes()


def test_one_bad_matrix_fails_the_whole_stack():
    rng = make_rng(41)
    mats = [random_hermitian(4, rng).matrix for _ in range(5)]
    bad = mats[2].copy()
    bad[0, 3] += 1.0  # eigh reads only the lower triangle, so only the residual gate sees this
    assert len(eigensystems(mats)) == 5
    with pytest.raises(ConvergenceFailure, match="residual"):
        eigensystems([*mats[:2], bad, *mats[3:]])


@pytest.mark.parametrize(
    "m",
    [[[np.nan, 0], [0, 1]], [[1, 0], [np.nan, 1]], [[np.inf, 0], [0, 1]]],
    ids=["nan_diagonal", "nan_lower", "inf_diagonal"],
)
def test_eigensystems_reject_a_matrix_with_a_non_finite_entry(m):
    # eigh returns nan eigenpairs here; the gates must fail on them, not pass them
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceFailure, match="residual"):
        eigensystems([m])


def test_eigensystems_rejects_a_stack_that_is_not_square_matrices():
    with pytest.raises(DimMismatch):
        eigensystems(np.eye(3))
    with pytest.raises(DimMismatch):
        eigensystems(np.zeros((2, 3, 4)))


def test_corpus_covers_at_least_200_operators_and_the_edge_sizes():
    ops = [op for name in sorted(FAMILIES) for op in FAMILIES[name](make_rng(0))]
    assert len(ops) >= 200
    assert {0, 1, 256} <= {op.dim for op in ops}


def test_near_degenerate_chain_is_one_outcome_longer_than_the_tolerance():
    step = 0.6 * DEGENERACY_RTOL
    s = eigensystem(HermitianOperator(np.diag([0.0, step, 2 * step, 3 * step, 1.0]).astype(complex)))
    assert s.outcome_groups == ((0, 1, 2, 3), (4,))
    assert math.isclose(s.group_values[0], 1.5 * step)
