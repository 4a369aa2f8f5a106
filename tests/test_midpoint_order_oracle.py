"""`midpoint_order_ratio_dev` against the fine-reference estimator it replaced.

`verify evolution` estimates the order of the sliced evolution from three coarse
runs, |v16 - v32| / |v32 - v64|.  `_reference_ratio` is the estimator it used
before: err(16) / err(32), each error measured against one 4096-slice run.  Both
must give the suite's verdict on its own inputs, and both must flag a stepper
that is only first order.
"""

import numpy as np
import pytest

import avcp.verify
from avcp.evolution import evolve
from avcp.operators import make_rng, random_hermitian, random_state
from avcp.verify import midpoint_order_ratio, run_suite

BOUND = 0.45


def _reference_ratio(run) -> float:
    """err(16) / err(32) against a 4096-slice reference run of the same stepper."""
    ref = run(4096)

    def err(steps):
        return float(np.linalg.norm(run(steps) - ref))

    return err(16) / err(32)


def _suite_midpoint_case(seed, alpha, monkeypatch):
    """(reported check, state, callable schedule) of `run_suite("evolution")`'s order check."""
    calls = []

    def recording_evolve(v, sched, steps):
        calls.append((v, sched))
        return evolve(v, sched, steps)

    monkeypatch.setattr(avcp.verify, "evolve", recording_evolve)
    report = run_suite("evolution", seed=seed, alpha=alpha)
    monkeypatch.undo()
    (check,) = [c for c in report["checks"] if c["name"] == "midpoint_order_ratio_dev"]
    (v0, sched), *rest = [(v, s) for v, s in calls if s.fn is not None]
    assert all(v is v0 and s is sched for v, s in rest)
    return check, v0, sched


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_three_run_and_fine_reference_estimators_agree_on_the_suite_inputs(alpha, monkeypatch):
    for seed in range(20):
        check, v0, sched = _suite_midpoint_case(seed, alpha, monkeypatch)
        run = lambda steps: evolve(v0, sched, steps).amplitudes
        assert check["threshold"] == BOUND
        assert check["value"] == abs(midpoint_order_ratio(run) - 4.0)
        assert check["passed"] == (abs(_reference_ratio(run) - 4.0) <= BOUND), (seed, alpha)


def _left_end_stepper(h0, h1, v0, alpha):
    """A first-order stepper for H(t) = h0 + t*h1 on [0, 1]: H sampled at each slice's left end."""

    def run(steps):
        amps = v0.copy()
        dt = 1.0 / steps
        for k in range(steps):
            w, u = np.linalg.eigh(h0 + (k * dt) * h1)
            amps = u @ (np.exp(-1j * w * (dt / alpha)) * (u.conj().T @ amps))
        return amps

    return run


@pytest.mark.parametrize("seed, alpha", [(0, 1.0), (1, 0.25), (2, 4.0)])
def test_both_estimators_flag_a_first_order_stepper(seed, alpha):
    rng = make_rng(seed)
    h0, h1 = random_hermitian(3, rng).matrix, random_hermitian(3, rng).matrix
    run = _left_end_stepper(h0, h1, random_state(3, rng).amplitudes, alpha)
    for ratio in (midpoint_order_ratio(run), _reference_ratio(run)):
        assert abs(ratio - 2.0) < 0.2
        assert abs(ratio - 4.0) > 4 * BOUND


def test_the_evolution_suite_stays_within_its_slice_budget(monkeypatch):
    steps_taken = []

    def counting_evolve(v, sched, steps):
        steps_taken.append(steps)
        return evolve(v, sched, steps)

    monkeypatch.setattr(avcp.verify, "evolve", counting_evolve)
    assert run_suite("evolution", seed=0)["passed"]
    # 7 slices for the frozen eigenstate, 16 + 32 + 64 for the order check
    assert 0 < sum(steps_taken) <= 128
