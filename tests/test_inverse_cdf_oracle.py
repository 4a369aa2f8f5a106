"""Comparison-table reference for the indexed search of `cdf_table` + `draw_flat`.

`_reference_inverse_cdf` is the sampler's earlier inverse CDF, kept verbatim:
it compares every draw with every normalised cumulative sum of its row, an
n x (G - 1) table.  The library finds the same count by indexed search (a
guide row of k >= 8G cells per weight row, k a power of two), so these tests
require `==` indices, `draw_flat`'s flat index less G times the row, on
hypothesis-drawn weights and draws, including the draws where an off-by-one
would show: u = 0, the largest draw 1 - 2**-53, draws equal to a cumulative
sum or next to one, and draws on the guide's cell edges b/k.  They also pin
`cdf_table`'s weight-row check and the memory bound at n = 1e5 and G = 256.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcp.operators import GUIDE_CELLS_PER_GROUP, cdf_table, draw_flat

_TOP_DRAW = 1.0 - 2.0**-53


def _reference_inverse_cdf(weights: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(weights, axis=1)
    cum = cum / cum[:, -1:]
    return (cum[rows, :-1] <= u[:, None]).sum(axis=1)


def _groups(weights: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """The groups the library's one draw path picks: `draw_flat`'s flat (row, group) indices less G * rows."""
    return draw_flat(cdf_table(weights), rows, u) - weights.shape[1] * np.asarray(rows)


@st.composite
def _weights(draw):
    """(nodes, G) rows of weights from 1e-300 to 1, with zero-weight leading, middle and trailing groups."""
    n_groups = draw(st.sampled_from([1, 2, 3, 255, 256, 257]))
    nodes = draw(st.integers(1, 4))
    decades = draw(st.sampled_from([0.0, 1.0, 16.0, 300.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = 10.0 ** -rng.uniform(0.0, decades, size=(nodes, n_groups))
    for _ in range(draw(st.integers(0, 3))):  # runs of zero-weight groups
        a, b = np.sort(rng.integers(0, n_groups + 1, size=2))
        weights[:, a:b] = 0.0
    if draw(st.booleans()):
        weights[:, : n_groups // 3] = 0.0
    if draw(st.booleans()):
        weights[:, n_groups - n_groups // 3 :] = 0.0
    empty = weights.sum(axis=1) == 0  # every row needs a positive total
    weights[empty, rng.integers(0, n_groups, size=int(empty.sum()))] = rng.uniform(1e-300, 1.0)
    return weights, rng


def _draws(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws, u = 0, the top draw, every cumulative sum and its neighbours, and cell edges b/k."""
    cum = np.cumsum(weights, axis=1)
    cum = (cum / cum[:, -1:]).ravel()
    k = cdf_table(weights).cells
    assert k >= GUIDE_CELLS_PER_GROUP * weights.shape[1] and k & (k - 1) == 0
    edges = np.arange(k) / k
    u = np.concatenate(
        [
            rng.random(200),
            [0.0, -0.0, _TOP_DRAW],
            cum,
            np.nextafter(cum, 0.0),
            np.nextafter(cum, 1.0),
            edges,
            np.nextafter(edges[1:], 0.0),
        ]
    )
    return u[(u >= 0) & (u < 1)]


@given(_weights())
def test_indexed_search_matches_the_comparison_table(case):
    weights, rng = case
    u = _draws(weights, rng)
    per_trial = rng.integers(0, len(weights), size=u.size)
    for rows in [*range(len(weights)), per_trial]:
        got, want = _groups(weights, rows, u), _reference_inverse_cdf(weights, rows, u)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "row, sum_",
    [
        ([0.0, 0.0, 0.0], "0.0"),
        ([0.2, float("nan"), 0.3], "nan"),
        pytest.param([1e308, 1e308, 0.0], "inf", marks=pytest.mark.filterwarnings("error")),
        ([-0.5, 1.0, 0.5], "1.0"),
    ],
)
def test_a_weight_row_with_a_negative_weight_or_no_finite_positive_sum_is_rejected(row, sum_):
    # row 0 is fine; the bad row 1 fails the whole table, since it would corrupt the guide
    weights = np.array([[0.5, 0.5, 0.0], row])
    with pytest.raises(ValueError, match=rf"weight row 1 has a negative weight or no finite positive sum \({sum_}\)"):
        cdf_table(weights)


def test_negative_zero_is_a_valid_draw():
    weights = np.array([[0.1, 0.2, 0.3, 0.0], [0.0, 0.0, 1.0, 0.0]])
    assert _groups(weights, 0, np.array([-0.0])).tolist() == [0]
    assert _groups(weights, np.array([1]), np.array([-0.0])).tolist() == [2]


def test_per_trial_rows_stay_in_bounded_memory():
    # the comparison table would gather one row of G - 1 sums per trial: about 220 MB here
    n, n_groups, nodes = 100_000, 256, 256
    rng = np.random.default_rng(5)
    weights = rng.random((nodes, n_groups))
    rows = rng.integers(0, nodes, size=n)
    u = rng.random(n)
    tracemalloc.start()
    try:
        idx = _groups(weights, rows, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(idx[:1000], _reference_inverse_cdf(weights, rows[:1000], u[:1000]))
    assert peak < 32 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"
