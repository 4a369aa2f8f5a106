#!/usr/bin/env python3
"""Benchmark of avcp's user paths, end to end and layer by layer.

    python3 perfbench/run.py --workload trials --seed 1 --seconds 15 --trace 0

Runs one workload in this process, a closed loop with one client: each
operation starts when the previous one returns.  The process pins BLAS to
one thread and caps its own address space before numpy is imported.

With `--trace 0` it sets the workload up several times (import avcp,
generate and write the inputs, one untimed warm-up operation) and then runs
whole cycles of the workload's operations for at least `--seconds` seconds,
and reports the end-to-end metrics.  Times are reported in reference-speed
seconds: each is scaled by a fixed speed probe run right before and after
it, because the host's speed swings by more than the bounds.

With `--trace 1` it runs one cycle untraced, the same cycle under the span
recorder, and the same cycle again under tracemalloc, and reports the
per-layer metrics in raw wall-clock seconds.  Every operation's output is
checked against values the benchmark computes itself.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
come from BENCHMARK.json.  The lines before it give the environment record
and a table of every metric, including those BENCHMARK.json leaves out.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

BLAS_THREADS = 1
#: address-space cap in MiB; the largest workload peaks near 1.2 GiB
MEMORY_CAP_MB = 2048
#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3
#: what the speed probe takes on the reference host; times are scaled to it
PROBE_REF_S = 0.010


def _pin_environment() -> None:
    """One BLAS thread and a memory cap; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("AVCP_ALPHA", None)  # verify would read it
    cap = MEMORY_CAP_MB * 2**20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))


def _environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "memory_cap_mb": resource.getrlimit(resource.RLIMIT_AS)[0] // 2**20,
        "workload": workload,
        "seed": seed,
    }


def _purge_avcp() -> None:
    for name in [m for m in sys.modules if m == "avcp" or m.startswith("avcp.")]:
        del sys.modules[name]


def _probe() -> float:
    """Wall time of a fixed stretch of interpreter work.

    Of the probes tried on `exact` and `large_dim` operations (interpreter
    arithmetic, object churn, small numpy calls, a memory stream, BLAS),
    this one tracked the host's speed swings best.
    """
    start = time.perf_counter()
    x = 0.0
    for i in range(120_000):
        x += i * 0.5
    return time.perf_counter() - start


class Runner:
    """Runs cases, times them, and records every failed or wrong output."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.trials = 0
        self.tuples = 0

    def op(self, case) -> float:
        """Run one case, check its output, and return its wall time."""
        import workloads

        self.attempted += 1
        self.trials += case.trials
        self.tuples += case.tuples
        start = time.perf_counter()
        try:
            text = workloads.run(case)
        except Exception as exc:  # an operation that raises is a failed operation; the run goes on
            elapsed = time.perf_counter() - start
            self.failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            if self.reference.setdefault(case.name, text) != text:
                raise workloads.OpFailed(f"{case.name}: report differs from an earlier run of the same input")
            workloads.check(case, text)
        except (workloads.OpFailed, KeyError, TypeError, ValueError) as exc:
            self.failures.append(str(exc))
        return elapsed


def _set_up(runner: Runner, workload: str, seed: int, workdir: Path, tiny: bool):
    import workloads

    _purge_avcp()
    importlib.import_module("avcp")
    cases = workloads.build(workload, seed, str(workdir), tiny)
    runner.op(cases[0])
    return cases


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten operations beyond it, and its rank.

    Below 20 operations no percentile at or above the median has ten beyond
    it, and the slowest operation (p100) stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload: str, seed: int, seconds: float, workdir: Path, tiny: bool = False) -> dict:
    """Untraced run: set-up repeats, then whole cycles for at least `seconds`.

    A speed probe runs before the first timed step and after every one; each
    step's wall time is also reported scaled by PROBE_REF_S over the mean of
    the probes on either side of it.
    """
    runner = Runner()
    probe = _probe()
    setups, setups_ref = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        cases = _set_up(runner, workload, seed, workdir, tiny)
        setups.append(time.perf_counter() - start)
        after = _probe()
        setups_ref.append(setups[-1] * 2 * PROBE_REF_S / (probe + after))
        probe = after
    runner.trials = runner.tuples = 0
    times, ref = [], []
    start = time.perf_counter()
    while True:
        for case in cases:
            times.append(runner.op(case))
            after = _probe()
            ref.append(times[-1] * 2 * PROBE_REF_S / (probe + after))
            probe = after
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    busy = sum(ref)
    tail, pct = _tail(ref)
    return {
        "runner": runner,
        "metrics": {
            "setup_s": statistics.median(setups_ref),
            "op_s_p50": statistics.median(ref),
            "op_s_tail": tail,
            "ops_per_s": len(ref) / busy,
            "trials_per_s": runner.trials / busy,
            "tuples_per_s": runner.tuples / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_ratio": len(runner.failures) / runner.attempted,
            "wall.setup_s": statistics.median(setups),
            "wall.op_s_p50": statistics.median(times),
            "wall.op_s_tail": _tail(times)[0],
            "wall.ops_per_s": len(times) / wall,
        },
        "notes": {
            "op_s_tail_percentile": pct,
            "ops_timed": len(times),
            "cycles": len(times) // len(cases),
            "op_s_p50_by_case": {c.name: statistics.median(ref[i :: len(cases)]) for i, c in enumerate(cases)},
        },
    }


def trace(workload: str, seed: int, workdir: Path, spans_path: Path | None = None, tiny: bool = False) -> dict:
    """Traced run: one cycle untraced, then traced, then under tracemalloc."""
    import tracemalloc

    from tracer import Tracer

    runner = Runner()
    cases = _set_up(runner, workload, seed, workdir, tiny)

    def cycle(subset, tracer=None) -> float:
        start = time.perf_counter()
        for case in subset:
            if tracer is not None:
                tracer.op = case.name
            runner.op(case)
        return time.perf_counter() - start

    untraced = cycle(cases)
    timing = Tracer()
    timing.install()
    try:
        traced = cycle(cases, timing)
    finally:
        timing.uninstall()
    memory = Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        cycle([case for case in cases if case.in_memory_pass], memory)
    finally:
        tracemalloc.stop()
        memory.uninstall()
    if spans_path is not None:
        timing.dump(str(spans_path))
    metrics = {**timing.metrics(), **memory.metrics(), "trace.overhead_ratio": traced / untraced}
    return {
        "runner": runner,
        "metrics": metrics,
        "notes": {"untraced_cycle_s": untraced, "traced_cycle_s": traced, "spans": len(timing.spans)},
    }


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "avcp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no avcp sources under {SRC}; run from a full checkout\n")
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))
    import avcp
    import workloads

    if Path(avcp.__file__).resolve().parent != SRC / "avcp":
        sys.stderr.write(f"error: imported avcp from {avcp.__file__}, not from {SRC}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    declared = _declared("per_layer" if args.trace else "end_to_end")

    env = _environment(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = trace(args.workload, args.seed, workdir, WORK / f"spans-{args.workload}-{args.seed}.json")
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runner, metrics = result["runner"], result["metrics"]
    print(json.dumps({"environment": env, **result["notes"]}, sort_keys=True))
    for name in sorted(metrics):
        flag = "" if name in declared else "   (not in BENCHMARK.json)"
        print(f"{name:58s} {metrics[name]:>16.6g} {declared.get(name, '')}{flag}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
