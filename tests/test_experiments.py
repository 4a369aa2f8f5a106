import json
import math
import tracemalloc

import numpy as np
import pytest

from avcp import evolution, experiments, expressions, operators
from avcp.errors import DimMismatch, NonSimpleExpression, ScheduleGap, StateSpaceTooLarge, UnboundVariable
from avcp.evolution import HamiltonianSchedule
from avcp.experiments import (
    EvolutionWindow,
    ExperimentSpec,
    check_avcp,
    enumerate_expectation,
    plan_setups,
    run_trials,
)
from avcp.expressions import BindingSet
from avcp.operators import (
    HermitianOperator,
    QuantumState,
    Spectrum,
    expectation,
    hermitian_from_matrix,
    make_rng,
    random_commuting_family,
    random_hermitian,
    random_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _pauli(alpha=1.0):
    return (
        hermitian_from_matrix(alpha / 2 * SX),
        hermitian_from_matrix(alpha / 2 * SY),
        hermitian_from_matrix(alpha / 2 * SZ),
    )


# --- planning -------------------------------------------------------------------


def test_commuting_pair_shares_a_copy():
    a, b = random_commuting_family(3, 2, make_rng(0))
    plan = plan_setups(["A", "B"], BindingSet({"A": a, "B": b}))
    assert plan.groups == (("A", "B"),)


def test_noncommuting_pair_needs_two_copies():
    sx, sy, _ = _pauli()
    plan = plan_setups(["A", "B"], BindingSet({"A": sx, "B": sy}))
    assert plan.groups == (("A",), ("B",))


def test_single_measurement_single_group():
    sx, _, _ = _pauli()
    assert plan_setups(["A"], BindingSet({"A": sx})).groups == (("A",),)


def test_disjoint_subsystems_share_a_copy():
    b = BindingSet(
        {"A": (hermitian_from_matrix(SX), 0), "B": (hermitian_from_matrix(SY), 1)},
        factor_dims=[2, 2],
    )
    assert plan_setups(["A", "B"], b).groups == (("A", "B"),)


def test_greedy_first_fit_order():
    sx, sy, sz = _pauli()
    a, b = random_commuting_family(2, 2, make_rng(1))
    bind = BindingSet({"P": sx, "Q": sy, "R": a, "S": b})
    # P and Q clash; R and S commute with each other but not with P or Q
    plan = plan_setups(["P", "Q", "R", "S"], bind)
    assert plan.groups[0][0] == "P"
    flat = [n for g in plan.groups for n in g]
    assert sorted(flat) == ["P", "Q", "R", "S"]


def test_plan_unbound_name():
    sx, _, _ = _pauli()
    with pytest.raises(UnboundVariable):
        plan_setups(["A", "Z"], BindingSet({"A": sx}))


def test_group_override_must_keep_noncommuting_apart():
    sx, sy, _ = _pauli()
    state = random_state(2, make_rng(2))
    with pytest.raises(ValueError, match="override groups 'A' and 'B' together but they do not commute"):
        ExperimentSpec(
            state,
            BindingSet({"A": sx, "B": sy}),
            ["A", "B"],
            "A + B",
            groups=[["A", "B"]],
        )


def test_group_override_names_the_first_failing_pair_in_group_order(monkeypatch):
    formed, commutator = [], expressions.commutator

    def counting(a, b):
        formed.append(1)
        return commutator(a, b)

    monkeypatch.setattr(expressions, "commutator", counting)
    sx, sy, sz = _pauli()
    bind = BindingSet({"A": sx, "B": sy, "C": sz})
    with pytest.raises(ValueError, match="override groups 'C' and 'A' together"):
        ExperimentSpec(random_state(2, make_rng(3)), bind, ["A", "B", "C"], "A + B + C", groups=[["C", "A", "B"]])
    assert len(formed) == 1  # the scan stops at the first failing pair


# --- exact enumeration ------------------------------------------------------------


def test_square_same_copy_equals_operator_square():
    rng = make_rng(3)
    for _ in range(5):
        dim = int(rng.integers(2, 7))
        op = random_hermitian(dim, rng)
        state = random_state(dim, rng)
        spec = ExperimentSpec(state, BindingSet({"A": op}), ["A"], "A^2")
        want = expectation(HermitianOperator(op.matrix @ op.matrix), state)
        assert enumerate_expectation(spec) == pytest.approx(want, abs=1e-12)


def test_commuting_product_same_copy_equals_operator_product():
    a, b = random_commuting_family(4, 2, make_rng(4))
    state = random_state(4, make_rng(5))
    spec = ExperimentSpec(state, BindingSet({"A": a, "B": b}), ["A", "B"], "A*B")
    sym = HermitianOperator((a.matrix @ b.matrix + b.matrix @ a.matrix) / 2)
    assert enumerate_expectation(spec) == pytest.approx(expectation(sym, state), abs=1e-10)


def test_constant_function_enumerates_to_itself():
    sx, _, _ = _pauli()
    state = random_state(2, make_rng(6))
    spec = ExperimentSpec(state, BindingSet({"A": sx}), ["A"], "3.25")
    assert enumerate_expectation(spec) == pytest.approx(3.25, abs=1e-12)


def test_two_copy_square_gives_squared_mean():
    op = random_hermitian(3, make_rng(7))
    state = random_state(3, make_rng(8))
    both = BindingSet({"A1": op, "A2": op})
    spec = ExperimentSpec(state, both, ["A1", "A2"], "A1*A2", groups=[["A1"], ["A2"]])
    assert enumerate_expectation(spec) == pytest.approx(expectation(op, state) ** 2, abs=1e-12)


@pytest.mark.parametrize("groups", [None, [["A"], ["A"]]], ids=["planned", "groups"])
def test_an_implementation_naming_one_measurement_twice_is_rejected_before_any_eigendecomposition(
        monkeypatch, groups):
    # a second draw under one name would overwrite the first: E[A^2], not the two-copy E[A]^2
    op, state = random_hermitian(3, make_rng(3)), random_state(3, make_rng(4))
    calls = _counted_eigh_stack(monkeypatch)
    with pytest.raises(ValueError, match=r"^implementation names 'A' more than once; "):
        ExperimentSpec(state, BindingSet({"A": op}), ["A", "A"], "A*A", groups=groups)
    assert calls == []


def test_enumeration_budget_guard():
    ops = random_commuting_family(6, 8, make_rng(9))
    bind = BindingSet({f"M{i}": op for i, op in enumerate(ops)})
    state = random_state(6, make_rng(10))
    spec = ExperimentSpec(state, bind, list(bind.names), " + ".join(bind.names))
    with pytest.raises(StateSpaceTooLarge):
        enumerate_expectation(spec)


# --- correspondence verdicts ---------------------------------------------------------


def test_sum_rule_holds_for_noncommuting_pair():
    sx, sy, _ = _pauli()
    for seed in range(5):
        state = random_state(2, make_rng(seed))
        spec = ExperimentSpec(state, BindingSet({"A": sx, "B": sy}), ["A", "B"], "A + B")
        v = check_avcp(spec)
        assert v.holds, v


def test_square_rule_holds_same_copy():
    op = random_hermitian(4, make_rng(11))
    state = random_state(4, make_rng(12))
    spec = ExperimentSpec(state, BindingSet({"A": op}), ["A"], "A^2")
    assert check_avcp(spec).holds


def test_hermitized_target_violated_for_generic_state():
    sx, sy, _ = _pauli()
    herm = hermitian_from_matrix((sx.matrix @ sy.matrix + sy.matrix @ sx.matrix) / 2)
    bind = BindingSet({"A": sx, "B": sy, "C": herm})
    violations = []
    for seed in range(10):
        state = random_state(2, make_rng(100 + seed))
        spec = ExperimentSpec(state, bind, ["A", "B"], "A*B", target="C")
        violations.append(check_avcp(spec).residual)
    assert max(violations) > 1e-6


def test_nonsimple_f_without_target_is_rejected():
    sx, sy, _ = _pauli()
    state = random_state(2, make_rng(13))
    spec = ExperimentSpec(state, BindingSet({"A": sx, "B": sy}), ["A", "B"], "A*B")
    with pytest.raises(NonSimpleExpression):
        check_avcp(spec)
    with pytest.raises(NonSimpleExpression):
        run_trials(spec, 10, 0)


def test_nonsimple_f_fails_before_any_sampling(monkeypatch):
    def sampled(*args):
        raise AssertionError("sampled before the target operator was resolved")

    monkeypatch.setattr(experiments, "born_split", sampled)
    sx, sy, _ = _pauli()
    state = random_state(2, make_rng(13))
    spec = ExperimentSpec(state, BindingSet({"A": sx, "B": sy}), ["A", "B"], "A*B")
    with pytest.raises(NonSimpleExpression):
        run_trials(spec, 100_000, 0)


def test_enumeration_budget_fails_before_any_sampling(monkeypatch):
    def sampled(*args):
        raise AssertionError("sampled before the enumeration budget was checked")

    monkeypatch.setattr(experiments, "born_split", sampled)
    rng = make_rng(101)
    bind = BindingSet({name: random_hermitian(101, rng) for name in ("A", "B", "C")})
    spec = ExperimentSpec(random_state(101, rng), bind, ["A", "B", "C"], "A + B + C")
    assert spec.plan.groups == (("A",), ("B",), ("C",))  # 101^3 tuples, over the budget
    with pytest.raises(StateSpaceTooLarge):
        run_trials(spec, 100_000, 0)


def _over_budget_spec():
    rng = make_rng(101)
    bind = BindingSet({name: random_hermitian(101, rng) for name in ("A", "B", "C")})
    window = EvolutionWindow(HamiltonianSchedule.constant(bind.embedded("A"), 0.0, 2.0), 1.0, 2.0)
    return ExperimentSpec(random_state(101, rng), bind, ["A", "B", "C"], "A + B + C", evolution=window)


@pytest.mark.parametrize(
    "check", [check_avcp, lambda spec: run_trials(spec, 10, 0)], ids=["check_avcp", "run_trials"]
)
def test_enumeration_budget_fails_before_any_evolution(monkeypatch, check):
    def evolved(*args):
        raise AssertionError("evolved before the enumeration budget was checked")

    monkeypatch.setattr(experiments, "evolve", evolved)
    with pytest.raises(StateSpaceTooLarge):
        check(_over_budget_spec())


@pytest.mark.parametrize("t1, t2", [(5.0, 0.5), (0.5, 5.0), (-1.0, 0.5)])
def test_window_times_outside_the_schedule_fail_before_any_eigendecomposition(monkeypatch, t1, t2):
    calls, eigh_stack = [], operators.eigh_stack

    def counting(mats):
        calls.append(len(mats))
        return eigh_stack(mats)

    monkeypatch.setattr(operators, "eigh_stack", counting)
    monkeypatch.setattr(evolution, "eigh_stack", counting)
    rng = make_rng(256)
    h = random_hermitian(256, rng)
    spec = {
        **ExperimentSpec(random_state(256, rng), BindingSet({"A": h}), ["A"], "A").to_dict(),
        "evolution": {"schedule": HamiltonianSchedule.constant(h, 0.0, 1.0).to_dict(), "t1": t1, "t2": t2},
    }
    bad = t1 if t1 != 0.5 else t2
    with pytest.raises(ScheduleGap, match=rf"^\[0.0, {bad}\] not inside \[0.0, 1.0\]$"):
        check_avcp(ExperimentSpec.from_dict(spec))
    assert calls == []


def _counted_eigh_stack(monkeypatch):
    calls, eigh_stack = [], operators.eigh_stack

    def counting(mats):
        calls.append(len(mats))
        return eigh_stack(mats)

    monkeypatch.setattr(operators, "eigh_stack", counting)
    monkeypatch.setattr(evolution, "eigh_stack", counting)
    return calls


def _window_spec(**window):
    rng = make_rng(257)
    h = random_hermitian(4, rng)
    return {
        **ExperimentSpec(random_state(4, rng), BindingSet({"A": h}), ["A"], "A").to_dict(),
        "evolution": {"schedule": HamiltonianSchedule.constant(h, 0.0, 1.0).to_dict(), "t1": 0.5, "t2": 1.0,
                      **window},
    }


@pytest.mark.parametrize("steps", [0, -5])
def test_window_steps_below_one_fail_before_any_eigendecomposition(monkeypatch, steps):
    calls = _counted_eigh_stack(monkeypatch)
    with pytest.raises(ValueError, match=r"^steps must be >= 1$"):
        check_avcp(ExperimentSpec.from_dict(_window_spec(steps=steps)))
    assert calls == []


def test_a_negative_seed_fails_before_any_eigendecomposition(monkeypatch):
    calls = _counted_eigh_stack(monkeypatch)
    spec = ExperimentSpec.from_dict(_window_spec())
    with pytest.raises(ValueError, match=r"^expected non-negative integer$"):
        run_trials(spec, 10, -1)
    assert calls == []


def test_window_at_the_schedule_start_still_rejects_zero_steps():
    sched = HamiltonianSchedule.constant(random_hermitian(3, make_rng(258)), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^steps must be >= 1$"):
        EvolutionWindow(sched, 0.0, 0.0, steps=0)


def test_window_steps_read_as_a_whole_float():
    window = ExperimentSpec.from_dict(_window_spec(steps=128.0)).evolution
    assert window.steps == 128 and type(window.steps) is int


@pytest.mark.parametrize("steps", [2.7, True, False], ids=["fraction", "true", "false"])
def test_window_steps_that_are_not_a_whole_number_are_rejected(steps):
    with pytest.raises(ValueError, match=r"^steps must be a whole number, got "):
        ExperimentSpec.from_dict(_window_spec(steps=steps))


@pytest.mark.parametrize("steps", [True, 2.5], ids=["true", "fraction"])
def test_window_built_in_code_rejects_steps_before_any_eigendecomposition(monkeypatch, steps):
    calls = _counted_eigh_stack(monkeypatch)
    rng = make_rng(259)
    h = random_hermitian(4, rng)
    with pytest.raises(ValueError, match=rf"^steps must be a whole number, got {steps}$"):
        ExperimentSpec(random_state(4, rng), BindingSet({"A": h}), ["A"], "A",
                       evolution=EvolutionWindow(HamiltonianSchedule.constant(h, 0.0, 1.0), 0.5, 1.0, steps))
    assert calls == []


@pytest.mark.parametrize(
    "check", [check_avcp, lambda spec: run_trials(spec, 10, 0)], ids=["check_avcp", "run_trials"]
)
def test_each_measurement_time_is_evolved_to_once(monkeypatch, check):
    spans, evolve = [], experiments.evolve

    def counting(v, schedule, steps):
        spans.append((schedule.t_start, schedule.t_end))
        return evolve(v, schedule, steps)

    monkeypatch.setattr(experiments, "evolve", counting)
    h = random_hermitian(3, make_rng(31))
    window = EvolutionWindow(HamiltonianSchedule.constant(h, 0.0, 2.0), t1=1.0, t2=2.0, steps=16)
    rng = make_rng(32)
    bind = BindingSet({"A": random_hermitian(3, rng), "B": random_hermitian(3, rng)})
    spec = ExperimentSpec(random_state(3, rng), bind, ["A", "B"], "A + B", evolution=window)
    check(spec)
    assert sorted(spans) == [(0.0, 1.0), (0.0, 2.0)]


def test_avcp_property_random_simple_ensembles():
    rng = make_rng(14)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        com = random_commuting_family(dim, 2, rng)
        solo = random_hermitian(dim, rng)
        bind = BindingSet({"A": com[0], "B": com[1], "C": solo})
        state = random_state(dim, rng)
        f = "0.5*A*B - C^2 + cos(A) + 2"
        spec = ExperimentSpec(state, bind, ["A", "B", "C"], f)
        v = check_avcp(spec)
        assert v.holds, (dim, v)


# --- sampling ---------------------------------------------------------------------------


def test_spin_half_sum_outcomes_quantized():
    alpha = 1.0
    sx, _, sz = _pauli(alpha)
    total = hermitian_from_matrix(sx.matrix + sz.matrix)
    bind = BindingSet({"Sx": sx, "Sz": sz, "C": total})
    state = random_state(2, make_rng(15))
    spec = ExperimentSpec(state, bind, ["Sx", "Sz"], "Sx + Sz", target="C")
    report = run_trials(spec, 4000, seed=2)
    values = set(np.round(report.trial_f, 12))
    assert values <= {-alpha, 0.0, alpha}
    assert np.allclose(
        np.sort(total.spectrum.eigenvalues), [-alpha / math.sqrt(2), alpha / math.sqrt(2)]
    )
    assert report.plan == (("Sx",), ("Sz",))


def test_same_copy_repetition_yields_identical_outcomes():
    op = random_hermitian(4, make_rng(16))
    state = random_state(4, make_rng(17))
    both = BindingSet({"A1": op, "A2": op})
    spec = ExperimentSpec(state, both, ["A1", "A2"], "A1*A2")
    assert spec.plan.groups == (("A1", "A2"),)
    report = run_trials(spec, 2000, seed=3)
    assert np.array_equal(report.trial_values["A1"], report.trial_values["A2"])


def test_two_copy_outcomes_uncorrelated():
    op = random_hermitian(3, make_rng(18))
    state = random_state(3, make_rng(19))
    both = BindingSet({"A1": op, "A2": op})
    spec = ExperimentSpec(state, both, ["A1", "A2"], "A1*A2", groups=[["A1"], ["A2"]])
    n = 40_000
    report = run_trials(spec, n, seed=4)
    x, y = report.trial_values["A1"], report.trial_values["A2"]
    cov = float(np.mean((x - x.mean()) * (y - y.mean())))
    se = float(np.std((x - x.mean()) * (y - y.mean()), ddof=1) / math.sqrt(n))
    assert abs(cov) <= 4 * se


def test_sampled_means_track_enumeration_over_seeds():
    sx, sy, _ = _pauli()
    op3 = random_hermitian(2, make_rng(20))
    bind = BindingSet({"A": sx, "B": sy, "C": op3})
    state = random_state(2, make_rng(21))
    spec = ExperimentSpec(state, bind, ["A", "B", "C"], "A + B*0 + C^2 + B")
    hits = 0
    for seed in range(50):
        r = run_trials(spec, 2500, seed)
        ok = (
            abs(r.sampled_rhs - r.exact_rhs) <= 4 * max(r.stderr_rhs, 1e-15)
            and abs(r.sampled_lhs - r.exact_lhs) <= 4 * max(r.stderr_lhs, 1e-15)
        )
        hits += ok
    assert hits >= 49  # 4-sigma misses should be far rarer than 1 in 50


def test_reports_are_bit_reproducible():
    sx, sy, _ = _pauli()
    bind = BindingSet({"A": sx, "B": sy})
    state = random_state(2, make_rng(22))
    spec = ExperimentSpec(state, bind, ["A", "B"], "A + B")
    r1 = run_trials(spec, 5000, seed=9)
    r2 = run_trials(spec, 5000, seed=9)
    assert r1.to_dict() == r2.to_dict()
    r3 = run_trials(spec, 5000, seed=10)
    assert r3.to_dict() != r1.to_dict()


def test_large_split_runs_in_bounded_memory_without_projectors(monkeypatch):
    # one stacked projector set alone would be 256 outcome groups of 256x256 (268 MB)
    def dense(self):
        raise AssertionError("dense projectors built")

    monkeypatch.setattr(Spectrum, "projectors", dense)
    rng = make_rng(31)
    bind = BindingSet({"A": random_hermitian(256, rng), "B": random_hermitian(256, rng)})
    spec = ExperimentSpec(random_state(256, rng), bind, ["A", "B"], "A + 0.5*B")
    tracemalloc.start()
    try:
        report = run_trials(spec, 8, seed=3)  # samples, and enumerates the exact E[f]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 64 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"


def test_stderr_zero_for_single_trial():
    sx, _, _ = _pauli()
    spec = ExperimentSpec(QuantumState([1, 0]), BindingSet({"A": sx}), ["A"], "A")
    r = run_trials(spec, 1, seed=0)
    assert r.stderr_lhs == 0.0 and r.stderr_rhs == 0.0
    assert math.isfinite(r.sampled_lhs) and math.isfinite(r.sampled_rhs)


# --- evolution plumbing -------------------------------------------------------------------


def test_evolution_window_applied_to_both_times():
    h = random_hermitian(2, make_rng(23))
    sched = HamiltonianSchedule.constant(h, 0.0, 2.0)
    window = EvolutionWindow(sched, t1=0.8, t2=0.8, steps=32)
    sx, sy, _ = _pauli()
    state = random_state(2, make_rng(24))
    spec = ExperimentSpec(
        state, BindingSet({"A": sx, "B": sy}), ["A", "B"], "A + B", evolution=window
    )
    v = check_avcp(spec)
    assert v.holds, v
    # against a hand-evolved state
    from avcp.evolution import evolve

    expected_state = evolve(state, sched.restrict(0.0, 0.8), 32)
    want = expectation(hermitian_from_matrix(sx.matrix + sy.matrix), expected_state)
    assert v.lhs == pytest.approx(want, abs=1e-12)


def test_callable_window_evolves_like_a_callable_schedule():
    h0, h1 = random_hermitian(3, make_rng(61)).matrix, random_hermitian(3, make_rng(62)).matrix

    def fn(t):
        return h0 + math.sin(t) * h1

    window = EvolutionWindow(HamiltonianSchedule.from_function(fn, 0.0, 1.5), t1=0.6, t2=1.2, steps=24)
    state = random_state(3, make_rng(63))
    a, b = random_hermitian(3, make_rng(64)), random_hermitian(3, make_rng(65))
    spec = ExperimentSpec(state, BindingSet({"A": a, "B": b}), ["A", "B"], "A + B", evolution=window)
    assert window.schedule.dim == 3
    for t, got in ((0.6, spec.state_at_t1()), (1.2, spec.state_at_t2())):
        want = evolution.evolve(state, HamiltonianSchedule.from_function(fn, 0.0, t), 24)
        assert np.array_equal(got.amplitudes, want.amplitudes)


def test_target_cannot_be_an_implementation_measurement():
    sx, sy, _ = _pauli()
    bind = BindingSet({"A": sx, "B": sy})
    with pytest.raises(ValueError):
        ExperimentSpec(random_state(2, make_rng(25)), bind, ["A", "B"], "A + B", target="A")


def test_state_dim_must_match_bindings_dim():
    sx, sy, _ = _pauli()
    with pytest.raises(DimMismatch, match="state dim 3 does not match bindings dim 2"):
        ExperimentSpec(QuantumState([1, 0, 0]), BindingSet({"A": sx, "B": sy}), ["A"], "A", target="B")


def test_report_dict_has_the_summary_keys_in_order_and_no_trial_arrays():
    sx, sy, _ = _pauli()
    spec = ExperimentSpec(random_state(2, make_rng(30)), BindingSet({"A": sx, "B": sy}), ["A", "B"], "A + B")
    report = run_trials(spec, 200, seed=4)
    d = report.to_dict()
    assert list(d) == [
        "n_trials",
        "seed",
        "plan",
        "sampled_lhs",
        "stderr_lhs",
        "sampled_rhs",
        "stderr_rhs",
        "exact_lhs",
        "exact_rhs",
        "residual",
        "tolerance",
        "verdict",
        "z_lhs",
        "z_rhs",
        "z_gap",
    ]
    assert d["plan"] == [["A"], ["B"]]
    assert d["verdict"] == "holds"
    assert (d["n_trials"], d["seed"], d["exact_lhs"], d["z_gap"]) == (200, 4, report.exact_lhs, report.z_gap)
    assert report.trial_f is not None


def test_f_variables_must_be_implementation_names():
    sx, _, _ = _pauli()
    with pytest.raises(UnboundVariable):
        ExperimentSpec(random_state(2, make_rng(26)), BindingSet({"A": sx}), ["A"], "A + Q")


# --- JSON spec ------------------------------------------------------------------------------


def test_degenerate_operator_same_copy_square():
    # degenerate outcomes collapse onto eigenspaces, not single eigenvectors
    op = hermitian_from_matrix(np.diag([5.0, 5.0, 2.0]))
    state = QuantumState([0.6, 0.48, 0.64])
    both = BindingSet({"A1": op, "A2": op})
    spec = ExperimentSpec(state, both, ["A1", "A2"], "A1*A2")
    want = expectation(hermitian_from_matrix(op.matrix @ op.matrix), state)
    assert enumerate_expectation(spec) == pytest.approx(want, abs=1e-12)
    report = run_trials(spec, 3000, seed=8)
    assert np.array_equal(report.trial_values["A1"], report.trial_values["A2"])
    assert set(np.round(report.trial_f, 9)) <= {4.0, 25.0}


def test_entangled_state_keeps_subsystem_correlations():
    # A on factor 0 and B on factor 1 share a copy; on an entangled state the
    # enumerated product must match <A (x) B>, not <A><B>
    bell = QuantumState(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
    bind = BindingSet(
        {"A": (hermitian_from_matrix(SZ), 0), "B": (hermitian_from_matrix(SZ), 1)},
        factor_dims=[2, 2],
    )
    spec = ExperimentSpec(bell, bind, ["A", "B"], "A*B")
    assert spec.plan.groups == (("A", "B"),)
    want = expectation(hermitian_from_matrix(np.kron(SZ, SZ)), bell)
    assert want == pytest.approx(1.0)
    assert enumerate_expectation(spec) == pytest.approx(1.0, abs=1e-12)
    assert check_avcp(spec).holds
    # forced onto separate copies the correlation disappears
    split = ExperimentSpec(bell, bind, ["A", "B"], "A*B", groups=[["A"], ["B"]])
    assert enumerate_expectation(split) == pytest.approx(0.0, abs=1e-12)


def test_unequal_measurement_times_with_conserved_target():
    # [H, A] = 0, so a later measurement of A must average like an earlier one
    a_op = hermitian_from_matrix(np.diag([1.0, -2.0, 0.5]))
    h = hermitian_from_matrix(np.diag([0.3, 1.1, -0.7]))
    rng = make_rng(33)
    state = random_state(3, rng)
    sched = HamiltonianSchedule.constant(h, 0.0, 2.0)
    window = EvolutionWindow(sched, t1=0.5, t2=1.7, steps=64)
    bind = BindingSet({"A": a_op, "C": hermitian_from_matrix(a_op.matrix)})
    spec = ExperimentSpec(state, bind, ["A"], "A", target="C", evolution=window)
    v = check_avcp(spec)
    assert v.holds, v


def test_spec_json_round_trip():
    sx, sy, _ = _pauli()
    bind = BindingSet({"A": sx, "B": sy})
    state = random_state(2, make_rng(27))
    spec = ExperimentSpec(state, bind, ["A", "B"], "A + B")
    d = spec.to_dict()
    d["n_trials"] = 100
    d["seed"] = 5
    again = ExperimentSpec.from_dict(d)
    assert again.plan.groups == spec.plan.groups
    assert check_avcp(again).holds


def test_spec_json_with_groups_override():
    op = random_hermitian(2, make_rng(28))
    state = random_state(2, make_rng(29))
    d = {
        "state": {"dim": 2, "re": state.amplitudes.real.tolist(), "im": state.amplitudes.imag.tolist()},
        "bindings": {
            "A1": {"dim": 2, "re": op.matrix.real.reshape(-1).tolist(), "im": op.matrix.imag.reshape(-1).tolist()},
            "A2": {"dim": 2, "re": op.matrix.real.reshape(-1).tolist(), "im": op.matrix.imag.reshape(-1).tolist()},
        },
        "implementation": ["A1", "A2"],
        "f": "A1*A2",
        "groups": [["A1"], ["A2"]],
    }
    spec = ExperimentSpec.from_dict(d)
    assert spec.plan.groups == (("A1",), ("A2",))
    assert enumerate_expectation(spec) == pytest.approx(expectation(op, state) ** 2, abs=1e-12)


def test_spec_with_a_window_survives_the_json_round_trip():
    rng = make_rng(30)
    h, a, b = (random_hermitian(3, rng) for _ in range(3))
    window = EvolutionWindow(HamiltonianSchedule.constant(h, 0.0, 1.0), 0.4, 0.9, steps=16)
    spec = ExperimentSpec(random_state(3, rng), BindingSet({"A": a, "B": b}), ["A", "B"], "A + B", evolution=window)
    again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.to_dict() == spec.to_dict()
    assert check_avcp(again) == check_avcp(spec)


def test_groups_override_that_leaves_out_a_name_is_rejected():
    sx, sy, _ = _pauli()
    with pytest.raises(ValueError, match=r"^groups override must cover the implementation exactly$"):
        ExperimentSpec(random_state(2, make_rng(31)), BindingSet({"A": sx, "B": sy}), ["A", "B"], "A + B",
                       groups=[["A"]])


def test_run_trials_needs_at_least_one_trial():
    sx, _, _ = _pauli()
    spec = ExperimentSpec(random_state(2, make_rng(32)), BindingSet({"A": sx}), ["A"], "A")
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        run_trials(spec, 0, 1)


# --- one outcome tree per copy ---------------------------------------------------


def _product_spec(seed: int) -> ExperimentSpec:
    """A and B on the two factors of a 2 x 3 space share a copy, and C, generic, gets its own."""
    rng = make_rng(seed)
    a, b = random_hermitian(2, rng).matrix, random_hermitian(3, rng).matrix
    bind = BindingSet({
        "A": hermitian_from_matrix(np.kron(a, np.eye(3))),
        "B": hermitian_from_matrix(np.kron(np.eye(2), b)),
        "C": random_hermitian(6, rng),
    })
    return ExperimentSpec(random_state(6, rng), bind, ["A", "B", "C"], "A*B - 1.5*C")


def _count_calls(monkeypatch, name: str) -> list:
    calls, real = [], getattr(experiments, name)
    monkeypatch.setattr(experiments, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_sampling_makes_no_born_split_beyond_the_enumeration_and_the_target(monkeypatch):
    calls = _count_calls(monkeypatch, "born_split")
    enumerate_expectation(_product_spec(5))
    enumerated = len(calls)
    assert enumerated == 3  # A and B on one copy, C on the other
    calls.clear()
    run_trials(_product_spec(5), 500, seed=2)
    assert len(calls) == enumerated + 1


def test_check_avcp_then_run_trials_builds_each_copy_tree_once(monkeypatch):
    spec = _product_spec(6)
    calls = _count_calls(monkeypatch, "_outcome_tree")
    check_avcp(spec)
    run_trials(spec, 500, seed=2)
    run_trials(spec, 300, seed=4)
    # one tree per copy at t1, and the target's one-level tree once per run
    assert len(calls) == len(spec.plan.groups) + 2


def test_a_pruned_branch_is_never_drawn():
    op = hermitian_from_matrix(np.diag([0.0, 1.0]))
    state = QuantumState.normalized(np.array([np.sqrt(1e-31), 1.0]))
    _, _, levels = experiments._outcome_tree([op.spectrum], state)
    u = np.array([1e-32])
    weights = levels[0][0]
    assert weights[0, 0] == 0.0 and weights[0, 1] > 0.99
    (drawn,) = experiments._draw(experiments._lookup_tables(levels), iter([u]))
    assert drawn.tolist() == [1.0]
    # unpruned, the 1e-31 branch would take this draw
    raw, _ = operators.born_split(op.spectrum, state.amplitudes[None, :])
    assert operators.draw_flat(operators.cdf_table(raw), 0, u).tolist() == [0]


def test_run_trials_keeps_the_trial_arrays_outside_equality_and_the_dict():
    sx, _, sz = _pauli()
    spec = ExperimentSpec(random_state(2, make_rng(66)), BindingSet({"A": sx, "B": sz}), ["A", "B"], "A + B")
    report = run_trials(spec, 300, seed=9)
    assert report.trial_target.shape == report.trial_f.shape == (300,)
    assert sorted(report.trial_values) == ["A", "B"]
    assert np.array_equal(report.trial_f, report.trial_values["A"] + report.trial_values["B"])
    assert report == run_trials(spec, 300, seed=9)
    assert not {"trial_target", "trial_f", "trial_values"} & set(report.to_dict())


def test_a_constant_f_samples_one_value_per_trial():
    spec = ExperimentSpec(random_state(3, make_rng(67)), BindingSet({"A": random_hermitian(3, make_rng(68))}), ["A"], "2")
    report = run_trials(spec, 50, seed=1)
    assert report.trial_f.shape == (50,)
    assert np.all(report.trial_f == 2.0)


@pytest.mark.parametrize("seed", range(8))
def test_a_gap_within_the_verdict_tolerance_has_z_zero(seed):
    # a deterministic sample that matches the exact value up to roundoff: a constant f,
    # and f = A on an eigenvector of A; the standard error is 0 or about 1e-18
    a = random_hermitian(4, make_rng(seed))
    constant = ExperimentSpec(random_state(4, make_rng(100 + seed)), BindingSet({"A": a}), ["A"], "3")
    eigen = QuantumState.normalized(a.spectrum.eigenvectors[:, 1])
    sharp = ExperimentSpec(eigen, BindingSet({"A": a}), ["A"], "A")
    for spec in (constant, sharp):
        report = run_trials(spec, 1000, seed)
        assert (report.z_lhs, report.z_rhs, report.z_gap) == (0.0, 0.0, 0.0)
