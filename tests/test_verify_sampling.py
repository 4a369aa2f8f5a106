"""`verify operators`' Born-rule sampling check against its per-draw reference.

`_reference_born_z` replays the suite's draws up to the check and then runs the
loop the suite used before it drew all samples in one `born_split` and
`draw_flat` pass: one `measure_projective` call per draw.  The batched check
must give the same z bit for bit and leave the generator where the loop left it.
"""

import math

import numpy as np
import pytest

import avcp.verify
from avcp.operators import make_rng, measure_projective, random_hermitian, random_state
from avcp.verify import run_suite


def _reference_born_z(seed: int):
    """(z, next uniform) from the per-draw loop, at the suite's position in the stream."""
    rng = make_rng(seed)
    for dim in (2, 3, 4, 6, 8, 5):  # spectral reconstruction, functional calculus
        random_hermitian(dim, rng)
    random_state(4, rng)  # global phase invariance
    random_hermitian(4, rng)

    probe = random_hermitian(3, rng)
    state3 = random_state(3, rng)
    probs = np.array(
        [float(np.linalg.norm(p @ state3.amplitudes) ** 2) for p in probe.spectrum.projectors()]
    )
    n_draws = 6000
    counts = np.zeros(len(probs))
    for _ in range(n_draws):
        counts[measure_projective(state3, probe, rng).outcome_index] += 1
    freq = counts / n_draws
    z = 0.0
    for pk, fk in zip(probs, freq):
        sigma = math.sqrt(max(pk * (1 - pk), 1e-12) / n_draws)
        z = max(z, abs(fk - pk) / sigma)
    return z, rng.random()


def _born_check(report: dict) -> dict:
    (check,) = [c for c in report["checks"] if c["name"] == "born_rule_sampling_z"]
    return check


@pytest.mark.parametrize("seed", [*range(12), 17, 23])
def test_batched_born_check_is_the_per_draw_loop_bit_for_bit(seed, monkeypatch):
    rngs, after = [], []
    real = avcp.verify.draw_flat

    def recording(table, rows, u):
        # the suite's uniforms are drawn before this call: the stream now stands where the
        # later checks pick it up
        after.append(rngs[0].bit_generator.state)
        return real(table, rows, u)

    monkeypatch.setattr(avcp.verify, "make_rng", lambda s: rngs.append(make_rng(s)) or rngs[-1])
    monkeypatch.setattr(avcp.verify, "draw_flat", recording)
    z = _born_check(run_suite("operators", seed=seed))["value"]

    z_ref, next_ref = _reference_born_z(seed)
    assert z.hex() == z_ref.hex()
    resumed = np.random.default_rng()
    resumed.bit_generator.state = after[0]
    assert resumed.random() == next_ref


def _shift_up(real):
    def shifted(table, rows, u):  # one group up; the suite's table has one row, so the last group is len(sums) - 1
        return np.minimum(real(table, rows, u) + 1, len(table.sums) - 1)

    return shifted


def _reverse_weights(real):
    def reversed_(spectrum, states):
        weights, children = real(spectrum, states)
        return weights[:, ::-1], children

    return reversed_


@pytest.mark.parametrize("name, mutate", [("draw_flat", _shift_up), ("born_split", _reverse_weights)])
def test_born_check_fails_on_a_broken_sampler(name, mutate, monkeypatch):
    assert _born_check(run_suite("operators", seed=7))["passed"]
    monkeypatch.setattr(avcp.verify, name, mutate(getattr(avcp.verify, name)))
    assert not _born_check(run_suite("operators", seed=7))["passed"]


def test_born_check_draws_every_sample_in_one_kernel_pass(monkeypatch):
    calls = {"born_split": 0, "draw_flat": 0}

    def counted(name):
        real = getattr(avcp.verify, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(avcp.verify, name, counted(name))
    run_suite("operators")
    assert calls == {"born_split": 1, "draw_flat": 1}
