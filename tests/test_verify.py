"""How `run_suite` collects the checks each suite yields."""

import pytest

from avcp import verify
from avcp.errors import DimTooSmall
from avcp.verify import run_suite


def test_a_suite_that_raises_becomes_one_error_check(monkeypatch):
    want = run_suite("all", seed=0)["checks"]

    def fails(*args):
        raise DimTooSmall("no room for the counterexample")

    monkeypatch.setattr(verify, "counterexample_report", fails)
    got = run_suite("all", seed=0)
    poisson = [c for c in got["checks"] if c["suite"] == "poisson"]
    # the poisson checks yielded before the failure are dropped with it
    assert poisson == [
        {
            "name": "poisson_suite",
            "error": "DimTooSmall",
            "detail": "no room for the counterexample",
            "passed": False,
            "suite": "poisson",
        }
    ]
    assert [c for c in got["checks"] if c["suite"] != "poisson"] == [c for c in want if c["suite"] != "poisson"]
    assert not got["passed"]


@pytest.mark.parametrize("levels", [16, 18])
def test_verify_all_passes_below_the_coherent_state_floor(levels):
    # the kinematics suite builds its coherent state on at least 19 levels, where it passes the boundary gate
    assert all(run_suite("all", seed=seed, levels=levels)["passed"] for seed in range(4))
