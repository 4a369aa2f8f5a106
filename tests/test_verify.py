"""How `run_suite` collects the checks each suite yields, in this process and in forked workers."""

import json
import os
import threading

import pytest

from avcp import verify
from avcp.cli import main
from avcp.errors import DimTooSmall
from avcp.operators import one_blas_thread
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


@pytest.mark.parametrize(
    "suite, levels, message",
    [
        ("kinematics", -3, "levels must be at least 2, got -3"),
        ("all", 1, "levels must be at least 2, got 1"),
        ("poisson", 2.5, "levels must be a whole number, got 2.5"),
        ("operators", True, "levels must be a whole number, got True"),
    ],
    ids=["negative", "one", "fractional", "boolean"],
)
def test_run_suite_bounds_levels_as_the_cli_does_before_any_suite(suite, levels, message, monkeypatch):
    monkeypatch.setattr(verify, "_suite_checks", lambda *a: pytest.fail("a suite ran"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_suite(suite, levels=levels)


def test_run_suite_reports_levels_as_an_int():
    report = run_suite("kinematics", levels=24.0)
    assert report["levels"] == 24 and type(report["levels"]) is int
    assert report == run_suite("kinematics", levels=24)


@pytest.mark.parametrize("levels", [16, 18])
def test_verify_all_passes_below_the_coherent_state_floor(levels):
    # the kinematics suite builds its coherent state on at least 19 levels, where it passes the boundary gate
    assert all(run_suite("all", seed=seed, levels=levels)["passed"] for seed in range(4))


# ---------------------------------------------------------------------------
# suites run by forked workers
# ---------------------------------------------------------------------------


@pytest.fixture
def workers(monkeypatch):
    """Two processes for every multi-suite run, whatever this host has; the list collects the pids forked.

    The test runs on one thread of numpy's OpenBLAS, as under OPENBLAS_NUM_THREADS=1: a forced worker beside a
    pool with a thread per CPU would put two busy threads on each CPU.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(verify, "_native_threads", lambda: 1)
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with one_blas_thread():
        yield forked


def _only_claimer(monkeypatch, claimer):
    """Let only the parent or only the worker claim suites, so that a fault planted in a suite lands there; returns
    the parent's pid."""
    parent = os.getpid()
    real = verify._run_claimed

    def run_claimed(claims, args):
        return real(claims, args) if (os.getpid() == parent) == (claimer == "parent") else {}

    monkeypatch.setattr(verify, "_run_claimed", run_claimed)
    return parent


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "kwargs", [{"seed": seed} for seed in range(12)] + [{"alpha": 0.7, "levels": 40}],
    ids=[f"seed_{seed}" for seed in range(12)] + ["alpha_0.7_levels_40"],
)
def test_workers_give_the_one_cpu_report(kwargs, workers, monkeypatch):
    parallel = json.dumps(run_suite("all", **kwargs), sort_keys=True)
    assert len(workers) == 1
    _no_child_left()
    _one_cpu(monkeypatch)
    assert json.dumps(run_suite("all", **kwargs), sort_keys=True) == parallel
    assert len(workers) == 1


@pytest.mark.parametrize("cpus", [1, 2, 6, 9])
def test_every_cpu_count_gives_the_same_report(cpus, workers, monkeypatch):
    _one_cpu(monkeypatch)
    want = run_suite("all", seed=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert run_suite("all", seed=5) == want
    assert len(workers) == min(cpus, len(verify.SUITE_NAMES)) - 1
    _no_child_left()


def _plant(monkeypatch, names, record):
    """Make each named suite record the pid it runs in and raise ValueError naming the suite."""
    for name in names:
        def raises(*args, name=name):
            with open(record, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise ValueError(f"planted in {name}")

        monkeypatch.setitem(verify._SUITES, name, raises)


@pytest.mark.parametrize("claimer", ["worker", "parent"])
@pytest.mark.parametrize("raising", [["avcp"], ["angular", "kinematics"], ["poisson", "operators"]])
def test_an_exception_in_a_claimed_suite_exits_as_on_one_cpu(raising, claimer, workers, monkeypatch, capsys, tmp_path):
    # suites are claimed longest first, so the later suite in report order is claimed first in the last two rows
    parent = _only_claimer(monkeypatch, claimer)
    _plant(monkeypatch, raising, tmp_path / "pids")
    first = min(raising, key=verify.SUITE_NAMES.index)  # the earlier suite in report order wins
    want = (1, "", f"error: ValueError: planted in {first}\n")
    assert _cli(capsys, "verify", "all", "--seed", "3") == want
    ran_in = set((tmp_path / "pids").read_text().split())
    assert workers and (ran_in - {str(parent)} if claimer == "worker" else ran_in == {str(parent)})
    _no_child_left()
    _one_cpu(monkeypatch)
    assert _cli(capsys, "verify", "all", "--seed", "3") == want


def test_a_worker_that_dies_mid_suite_leaves_its_suites_to_the_parent(workers, monkeypatch):
    _one_cpu(monkeypatch)
    want = run_suite("all", seed=4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = _only_claimer(monkeypatch, "worker")
    real = verify._SUITES["avcp"]

    def dies_in_a_worker(*args):
        yield from real(*args)
        if os.getpid() != parent:
            os._exit(1)

    monkeypatch.setitem(verify._SUITES, "avcp", dies_in_a_worker)
    assert run_suite("all", seed=4) == want
    assert len(workers) == 1
    _no_child_left()


def test_no_worker_is_forked_beside_another_python_thread(workers):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = run_suite("all", seed=2)
    finally:
        stop.set()
        thread.join()
    assert workers == []
    assert report == run_suite("all", seed=2)
    assert len(workers) == 1


def test_a_blas_pool_takes_its_cpus_from_the_workers(workers, monkeypatch):
    # two processes each running a two-thread pool would put four busy threads on two CPUs
    monkeypatch.setattr(verify, "_native_threads", lambda: 2)
    run_suite("all", seed=2)
    assert workers == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    run_suite("all", seed=2)
    assert len(workers) == 1


def test_one_suite_runs_in_this_process(workers):
    run_suite("poisson", seed=2)
    assert workers == []
