"""Slow reference for `operators.commutator`.

`_reference` keeps the earlier form, two complex `np.einsum` products.  The library now assembles
each complex product from real gemm products of the real and imaginary parts, which sums in another
order, so the two agree only to within a tolerance set from the dtype: 1e-13 * d * |A| * |B| in the
max-norm.  Where the commutator vanishes by structure it must still be exactly 0.0: for operators on
disjoint tensor factors here, and off the diagonal of the truncated canonical defect in
`tests/test_kinematics.py::test_defect_locality_structure`.
"""

from __future__ import annotations

import numpy as np
import pytest

from avcp.operators import (
    commutator,
    embed_operator,
    make_rng,
    max_norm,
    random_hermitian,
)
from avcp.verify import run_suite


def _reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ik,kj->ij", a, b) - np.einsum("ik,kj->ij", b, a)


@pytest.mark.parametrize("d", [2, 7, 64, 150])
def test_commutator_matches_the_einsum_reference(d):
    rng = make_rng(2300 + d)
    for _ in range(3):
        a, b = random_hermitian(d, rng).matrix, random_hermitian(d, rng).matrix
        got = commutator(a, b)
        assert got.shape == (d, d) and got.dtype == np.complex128
        assert max_norm(got - _reference(a, b)) <= 1e-13 * d * max_norm(a) * max_norm(b)


@pytest.mark.parametrize("dims", [(2, 3), (4, 64), (16, 16), (3, 85)])
def test_operators_on_disjoint_factors_commute_exactly(dims):
    rng = make_rng(sum(dims))
    left = embed_operator(random_hermitian(dims[0], rng), dims, 0)
    right = embed_operator(random_hermitian(dims[1], rng), dims, 1)
    assert max_norm(commutator(left, right)) == 0.0
    assert max_norm(commutator(right, left)) == 0.0


@pytest.mark.parametrize("seed", [*range(12), 17, 23, 98, 133])
def test_zero_bound_commutator_checks_read_exactly_zero(seed):
    values = {c["name"]: c["value"] for suite in ("operators", "kinematics")
              for c in run_suite(suite, seed=seed)["checks"]}
    assert values["disjoint_factor_commutation"] == 0.0
    assert values["defect_strictly_offdiagonal"] == 0.0
