"""Dense-projector reference oracle for the eigenbasis Born/collapse kernel.

`_batch_measure` and `_group_branches` below are the sampler and the branch
enumerator that `avcp.experiments` used before it sampled from the per-copy
outcome tree in the eigenbasis.  They are kept verbatim: they build every
group projector and project every trial, so they are slow, but they share no
code with `born_split` or `inverse_cdf`, and so check both the
sampled outcomes and the exact enumeration independently.  A `math.fsum`
over the same oracle's terms bounds the enumeration's summation error.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from avcp import expressions as ex
from avcp.errors import DomainError, StateSpaceTooLarge
from avcp.evolution import HamiltonianSchedule
from avcp.experiments import (
    ENUMERATION_BUDGET,
    TRIAL_BLOCK,
    EvolutionWindow,
    ExperimentSpec,
    enumerate_expectation,
    run_trials,
)
from avcp.expressions import BindingSet
from avcp.operators import (
    HermitianOperator,
    QuantumState,
    make_rng,
    outcome_probabilities,
    random_commuting_family,
    random_hermitian,
    random_state,
)

_BRANCH_PRUNE = 1e-30


def _group_branches(group, bindings: BindingSet, state: QuantumState):
    """All outcome sequences of one copy: (probability, {name: value}).

    Measurements are applied in declaration order with collapse, so the
    probability of a branch is the product of conditional Born probabilities.
    """
    branches = [(1.0, np.array(state.amplitudes), {})]
    for name in group:
        spectrum = bindings.embedded(name).spectrum
        projs = spectrum.projectors()
        nxt = []
        for prob, amps, values in branches:
            for g, p in enumerate(projs):
                w = p @ amps
                q = float(np.vdot(w, w).real)
                if q <= _BRANCH_PRUNE:
                    continue
                nxt.append(
                    (
                        prob * q,
                        w / math.sqrt(q),
                        {**values, name: float(spectrum.group_values[g])},
                    )
                )
        branches = nxt
        if len(branches) > ENUMERATION_BUDGET:
            raise StateSpaceTooLarge(f"more than {ENUMERATION_BUDGET} outcome branches")
    return [(p, values) for p, _, values in branches]


def _batch_measure(states: np.ndarray, spectrum, u: np.ndarray):
    """Vectorized projective measurement of every row state.

    Row i consumes uniform u[i]; outcome selection inverts the cumulative
    Born distribution over outcome groups, matching the scalar
    `measure_projective` draw for draw.
    """
    projs = np.stack(spectrum.projectors())
    projected = np.einsum("gij,nj->ngi", projs, states)
    probs = np.einsum("ngi,ngi->ng", projected.conj(), projected).real
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    idx = np.minimum((cum <= u[:, None]).sum(axis=1), len(projs) - 1)
    chosen = projected[np.arange(states.shape[0]), idx]
    norms = np.linalg.norm(chosen, axis=1, keepdims=True)
    values = spectrum.group_values[idx]
    return values, chosen / norms


def _oracle_trials(spec: ExperimentSpec, n: int, seed: int):
    """Per-trial outcomes by the dense sampler: {name: values}, target values."""
    slots = spec.plan.slots()
    uniforms = np.random.default_rng(seed).random((n, len(slots) + 1))
    v1 = spec.state_at_t1().amplitudes
    values = {}
    col = 0
    for group in spec.plan.groups:
        states = np.tile(v1, (n, 1))
        for name in group:
            spectrum = spec.bindings.embedded(name).spectrum
            values[name], states = _batch_measure(states, spectrum, uniforms[:, col])
            col += 1
    v2 = spec.state_at_t2().amplitudes
    target, _ = _batch_measure(np.tile(v2, (n, 1)), spec.target_operator().spectrum, uniforms[:, col])
    return values, target


def _oracle_enumerate(spec: ExperimentSpec) -> float:
    v1 = spec.state_at_t1()
    per_group = [_group_branches(g, spec.bindings, v1) for g in spec.plan.groups]
    total = 0.0
    for combo in itertools.product(*per_group):
        prob = 1.0
        values = {}
        for p, vals in combo:
            prob *= p
            values.update(vals)
        total += prob * float(ex.evaluate(spec.f, values))
    return total


# --- corpus ---------------------------------------------------------------------------


def _rotated(values, rng) -> HermitianOperator:
    d = len(values)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    m = (u * np.asarray(values, dtype=float)) @ u.conj().T
    return HermitianOperator((m + m.conj().T) / 2)


def _split(d, rng, f="A + 0.5*B"):
    b = BindingSet({"A": random_hermitian(d, rng), "B": random_hermitian(d, rng)})
    return ExperimentSpec(random_state(d, rng), b, ["A", "B"], f)


def _three_copies(d, rng):
    b = BindingSet({name: random_hermitian(d, rng) for name in ("A", "B", "C")})
    return ExperimentSpec(random_state(d, rng), b, ["A", "B", "C"], "A*B*C + cos(A - C)")


def _repeat_split(d, rng):
    a = random_hermitian(d, rng)
    b = BindingSet({"A": a, "A2": HermitianOperator(a.matrix), "B": random_hermitian(d, rng)})
    return ExperimentSpec(random_state(d, rng), b, ["A", "A2", "B"], "A*A2 + B")


def _same_copy(d, rng):
    a, b = random_commuting_family(d, 2, rng)
    return ExperimentSpec(random_state(d, rng), BindingSet({"A": a, "B": b}), ["A", "B"], "A*B")


def _degenerate(d, rng):
    # A has repeated eigenvalues (diag(5, 5, 2) at d = 3); C shares A's basis
    # but splits its eigenspaces, so C's outcome after A's collapse is random
    levels = np.resize([5.0, 5.0, 2.0], d)
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    a = HermitianOperator((basis * levels) @ basis.conj().T)
    c = HermitianOperator((basis * np.arange(d, dtype=float)) @ basis.conj().T)
    b = BindingSet({"A": a, "A2": HermitianOperator(a.matrix), "C": c, "B": _rotated(levels, rng)})
    return ExperimentSpec(random_state(d, rng), b, ["A", "A2", "C", "B"], "A*A2*C + B")


def _subsystems(dims, rng):
    d = math.prod(dims)
    b = BindingSet(
        {
            "A": (random_hermitian(dims[0], rng), 0),
            "B": (random_hermitian(dims[1], rng), 1),
            "C": random_hermitian(d, rng),
        },
        factor_dims=dims,
    )
    return ExperimentSpec(random_state(d, rng, dims), b, ["A", "B", "C"], "A*B + C")


def _evolving(d, rng):
    h = random_hermitian(d, rng)
    window = EvolutionWindow(HamiltonianSchedule.constant(h, 0.0, 1.0), t1=0.3, t2=0.7, steps=16)
    b = BindingSet({"A": random_hermitian(d, rng), "B": random_hermitian(d, rng)})
    return ExperimentSpec(random_state(d, rng), b, ["A", "B"], "A + B", evolution=window)


def _corpus():
    rng = make_rng(20260)
    out = []
    for d in (2, 3, 6, 12, 32):
        out.append((f"split_d{d}", _split(d, rng)))
        out.append((f"repeat_split_d{d}", _repeat_split(d, rng)))
        out.append((f"same_copy_d{d}", _same_copy(d, rng)))
    for d in (3, 6, 12):
        out.append((f"degenerate_d{d}", _degenerate(d, rng)))
    out.append(("subsystems_2x3", _subsystems((2, 3), rng)))
    out.append(("subsystems_3x4", _subsystems((3, 4), rng)))
    out.append(("evolution_d6", _evolving(6, rng)))
    return out


def _enumeration_cases():
    """Extra inputs for the enumeration oracle only: f shapes and a large product."""
    rng = make_rng(20261)
    return [
        ("three_copies_d60", _three_copies(60, rng)),
        ("f_omits_B_d6", _split(6, rng, "A")),
        ("constant_f_d6", _split(6, rng, "2.5")),
        ("cos_sum_times_B_d12", _split(12, rng, "cos(A + B) * B")),
        # outcomes of A - B take both signs, so the oracle raises DomainError
        ("sqrt_difference_d6", _split(6, rng, "sqrt(A - B)")),
    ]


CORPUS = _corpus()
ENUMERATION_CORPUS = CORPUS + _enumeration_cases()
SEEDS = (0, 1, 7)


#: trial counts that straddle run_trials' block of TRIAL_BLOCK rows, on small-d entries
_STRADDLING = {
    "split_d2": TRIAL_BLOCK - 1,
    "repeat_split_d3": TRIAL_BLOCK,
    "same_copy_d3": TRIAL_BLOCK + 1,
    "same_copy_d2": 2 * TRIAL_BLOCK + 3,
    "degenerate_d3": 2 * TRIAL_BLOCK + 3,
}


def _trials(label: str, spec: ExperimentSpec) -> int:
    return _STRADDLING.get(label, 600 if spec.bindings.dim >= 32 else 2000)


def test_corpus_shapes():
    plans = {label: spec.plan.groups for label, spec in CORPUS}
    assert plans["split_d6"] == (("A",), ("B",))
    assert plans["repeat_split_d6"] == (("A", "A2"), ("B",))
    assert plans["same_copy_d6"] == (("A", "B"),)
    assert plans["degenerate_d3"] == (("A", "A2", "C"), ("B",))
    assert plans["subsystems_2x3"] == (("A", "B"), ("C",))
    degenerate = dict(CORPUS)["degenerate_d3"].bindings.embedded("A").spectrum
    assert degenerate.outcome_groups == ((0,), (1, 2))


@pytest.mark.parametrize("label,spec", CORPUS, ids=[label for label, _ in CORPUS])
def test_sampled_outcomes_match_dense_oracle(label, spec):
    n = _trials(label, spec)
    mismatches = 0
    for seed in SEEDS:
        report = run_trials(spec, n, seed)
        values, target = _oracle_trials(spec, n, seed)
        for name, want in values.items():
            mismatches += int(np.count_nonzero(report.trial_values[name] != want))
        mismatches += int(np.count_nonzero(report.trial_target != target))
    assert mismatches == 0, f"{label}: {mismatches} (seed, trial, slot) outcomes differ"


def test_trials_hold_no_more_than_half_again_their_returned_arrays():
    # the whole (n, slots + 1) uniform table came to 76 MB here, against 30.5 MB of trial arrays
    spec = dict(CORPUS)["split_d3"]
    tracemalloc.start()
    try:
        report = run_trials(spec, 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [report.trial_target, report.trial_f, *report.trial_values.values()]
    returned = sum(a.nbytes for a in arrays)
    assert returned == 4 * 8 * 10**6
    assert peak <= 1.5 * returned, f"peak traced memory {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("label,spec", ENUMERATION_CORPUS, ids=[label for label, _ in ENUMERATION_CORPUS])
def test_enumeration_matches_dense_oracle(label, spec):
    try:
        want = _oracle_enumerate(spec)
    except DomainError:
        with pytest.raises(DomainError):
            enumerate_expectation(spec)
        return
    assert enumerate_expectation(spec) == pytest.approx(want, rel=0, abs=1e-12)


def _fsum_enumerate(spec: ExperimentSpec) -> float:
    """The dense oracle's E[f], summed exactly by `math.fsum`."""
    v1 = spec.state_at_t1()
    per_group = [_group_branches(g, spec.bindings, v1) for g in spec.plan.groups]
    terms = []
    for combo in itertools.product(*per_group):
        values = {k: v for _, vals in combo for k, v in vals.items()}
        terms.append(math.prod(p for p, _ in combo) * float(ex.evaluate(spec.f, values)))
    return math.fsum(terms)


def test_three_copy_enumeration_against_fsum():
    spec = dict(ENUMERATION_CORPUS)["three_copies_d60"]
    assert spec.plan.groups == (("A",), ("B",), ("C",))
    # a running sum over all 216,000 tuples in turn was 2.4e-14 off here
    assert abs(enumerate_expectation(spec) - _fsum_enumerate(spec)) <= 1e-14


@pytest.mark.parametrize("label,spec", CORPUS, ids=[label for label, _ in CORPUS])
def test_outcome_probabilities_match_projectors(label, spec):
    v = spec.state_at_t1()
    for name in spec.implementation:
        h = spec.bindings.embedded(name)
        probs = np.array([np.vdot(v.amplitudes, p @ v.amplitudes).real for p in h.spectrum.projectors()])
        assert np.abs(outcome_probabilities(v, h) - probs / probs.sum()).max() <= 1e-12
