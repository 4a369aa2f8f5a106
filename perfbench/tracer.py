"""Outside-in span recorder for the traced benchmark run.

The program has no trace of its own, so the benchmark wraps avcp's public
functions from outside: each wrapped function is rebound in every `avcp.*`
module namespace that holds it (`experiments` imports `evolve` and
`expectation` by name, `cli` imports `run_trials`, and so on), and methods
are patched on their classes.  `uninstall` puts every original back.

A span is (id, parent id, name, start, end, op).  A recursive function
(`evaluate`, `quantize`) records only its outermost call; inner calls count
as the outer span's own time.  Self time is a span's duration minus the time
its direct child spans cover.  Spans stay in memory until `dump`.

Memory peaks come from a separate pass (`Tracer(memory=True)`) that wraps
only the functions whose peak is reported, so tracemalloc's cost never
reaches the self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

#: (module, attribute) of the wrapped module-level functions
FUNCTIONS = (
    ("operators", "eigensystem"),
    ("operators", "commutator"),
    ("operators", "expectation"),
    ("operators", "measure_projective"),
    ("expressions", "parse"),
    ("expressions", "classify_simple"),
    ("expressions", "quantize"),
    ("expressions", "evaluate"),
    ("experiments", "plan_setups"),
    ("experiments", "enumerate_expectation"),
    ("experiments", "check_avcp"),
    ("experiments", "run_trials"),
    ("evolution", "propagator"),
    ("evolution", "evolve"),
    ("kinematics", "build_fock"),
    ("angular", "spin_operators"),
    ("angular", "commutant_scalar_residual"),
    ("poisson", "poisson_bracket"),
    ("poisson", "check_dirac_rule"),
    ("poisson", "counterexample_report"),
    ("verify", "run_suite"),
    ("cli", "main"),
)
#: (module, class, attribute, span name) of the wrapped methods
METHODS = (
    ("operators", "HermitianOperator", "__init__", "operators.HermitianOperator.init"),
    ("operators", "Spectrum", "projectors", "operators.projectors"),
    ("expressions", "BindingSet", "commute", "expressions.BindingSet.commute"),
    ("experiments", "ExperimentSpec", "from_dict", "experiments.ExperimentSpec.from_dict"),
)
#: spans whose peak traced memory the memory pass reports
PEAK_SPANS = ("operators.projectors", "experiments.enumerate_expectation", "experiments.run_trials")

_EIGH = "operators.eigensystem"
_COMMUTATOR = "operators.commutator"


def _module(name: str):
    return importlib.import_module(f"avcp.{name}")


class Tracer:
    """Install with `install()`, run operations, then `uninstall()`."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.op = ""  # label of the operation being run, stored with each span
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._open: set[str] = set()
        self._next_id = 0
        self._mem_stack: list[list] = []  # [base bytes, highest bytes seen]
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._spectrum_fget = None

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer._open.add(name)
            frame = [span_id, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open.discard(name)
                duration = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.spans.append((span_id, parent, name, frame[1], end, tracer.op))
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                tracer.total_s[name] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _peak(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if tracer._mem_stack:
                tracer._mem_stack[-1][1] = max(tracer._mem_stack[-1][1], peak)
            frame = [current, current]
            tracer._mem_stack.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                frame[1] = max(frame[1], peak)
                tracer._mem_stack.pop()
                if tracer._mem_stack:
                    tracer._mem_stack[-1][1] = max(tracer._mem_stack[-1][1], frame[1])
                tracer.peak_bytes[name] = max(tracer.peak_bytes[name], frame[1] - frame[0])

        return wrapper

    def _after_enumerate(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        tuples = 1
        for group in spec.plan.groups:
            for name in group:
                tuples *= len(self._spectrum_fget(spec.bindings.embedded(name)).outcome_groups)
        self.counts["experiments.enumerate_expectation.tuples"] += tuples

    def _after_run_trials(self, args, kwargs, result):
        self.counts["experiments.run_trials.trials"] += args[1] if len(args) > 1 else kwargs["n"]

    def _after_evolve(self, args, kwargs, result):
        self.counts["evolution.evolve.steps"] += args[2] if len(args) > 2 else kwargs["steps"]

    def _counting_hits(self, name: str, inner: str, fn):
        """Count calls of `fn` that made no call of the span `inner`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.calls[inner]
            result = fn(*args, **kwargs)
            tracer.counts[f"{name}.reads"] += 1
            tracer.counts[f"{name}.hits"] += tracer.calls[inner] == before
            return result

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "avcp" and not modname.startswith("avcp."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_class(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _wrap(self, name: str, fn):
        if self.memory:
            return self._peak(name, fn) if name in PEAK_SPANS else None
        after = {
            "experiments.enumerate_expectation": self._after_enumerate,
            "experiments.run_trials": self._after_run_trials,
            "evolution.evolve": self._after_evolve,
        }.get(name)
        wrapped = self._timed(name, fn, after)
        if name == "expressions.BindingSet.commute":
            wrapped = self._counting_hits(name, _COMMUTATOR, wrapped)
        return wrapped

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        operators = _module("operators")
        self._spectrum_fget = operators.HermitianOperator.__dict__["spectrum"].fget
        for mod, attr in FUNCTIONS:
            original = getattr(_module(mod), attr)
            wrapped = self._wrap(f"{mod}.{attr}", original)
            if wrapped is not None:
                self._rebind(original, wrapped)
        for mod, clsname, attr, name in METHODS:
            cls = getattr(_module(mod), clsname)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(name, fn)
            if wrapped is not None:
                self._patch_class(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        if not self.memory:
            self._patch_class(
                operators.HermitianOperator,
                "spectrum",
                property(self._counting_hits("operators.spectrum", _EIGH, self._spectrum_fget)),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        out: dict[str, float] = {}
        if self.memory:
            for name in PEAK_SPANS:
                out[f"{name}.peak_traced_mb"] = self.peak_bytes[name] / 2**20
            return out
        names = [f"{m}.{a}" for m, a in FUNCTIONS] + [n for *_, n in METHODS]
        for name in names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for work in ("experiments.enumerate_expectation.tuples", "experiments.run_trials.trials", "evolution.evolve.steps"):
            out[work] = self.counts[work]
        out.update(self.counts)
        for name in ("operators.spectrum", "expressions.BindingSet.commute"):
            reads = self.counts[f"{name}.reads"]
            out[f"{name}.hit_ratio"] = self.counts[f"{name}.hits"] / reads if reads else 0.0
        for name, work in (
            ("experiments.enumerate_expectation", "tuples"),
            ("experiments.run_trials", "trials"),
        ):
            busy = self.total_s[name]
            out[f"{name}.{work}_per_s"] = self.counts[f"{name}.{work}"] / busy if busy else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end", "op"], "spans": self.spans}, fh
            )
