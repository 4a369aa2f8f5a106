"""Multi-copy measurement experiments.

A classically described measurement relates a target outcome to a function
`f` of implementation outcomes.  The quantum arrangement prepares one copy of
the system per set-up: measurements whose operators commute (or act on
different factors) share a copy and are performed in sequence with collapse,
while non-commuting measurements go on separate copies.  The target
measurement always gets its own copy.

This module plans those set-ups, computes the exact expectation of `f` by
enumerating outcome sequences, estimates it by seeded Monte Carlo, and
renders a verdict comparing the target operator's expectation against the
enumerated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import expressions as ex
from .errors import DimMismatch, StateSpaceTooLarge, UnboundVariable
from .evolution import HamiltonianSchedule, evolve
from .expressions import BindingSet
from .operators import QuantumState, born_split, expectation, inverse_cdf, state_from_dict, state_to_dict

#: exact enumeration refuses to expand more outcome tuples than this
ENUMERATION_BUDGET = 10**6
#: verdict: |lhs - rhs| <= AVCP_RTOL * (1 + |lhs|)
AVCP_RTOL = 1e-9
_BRANCH_PRUNE = 1e-30


@dataclass(frozen=True)
class SetupPlan:
    """Partition of the implementation measurements into system copies."""

    groups: tuple[tuple[str, ...], ...]

    def slots(self) -> list[tuple[int, str]]:
        return [(g, name) for g, group in enumerate(self.groups) for name in group]


def plan_setups(names: Sequence[str], bindings: BindingSet) -> SetupPlan:
    """Greedy first-fit grouping.

    Scanning in declared order, each measurement joins the first group whose
    members it commutes with (different-factor pairs always commute); if none
    fits, it opens a new group.  The partition is deterministic but not the
    only one satisfying the pairwise constraints.
    """
    groups: list[list[str]] = []
    for name in names:
        bindings.binding(name)
        for group in groups:
            if all(bindings.commute(name, other) for other in group):
                group.append(name)
                break
        else:
            groups.append([name])
    return SetupPlan(tuple(tuple(g) for g in groups))


@dataclass(frozen=True)
class EvolutionWindow:
    """Shared background between preparation and the two measurement times.

    The schedule starts at the preparation time; the implementation
    measurements happen at `t1` and the target measurement at `t2`, each on a
    fresh copy evolved from the initial state.
    """

    schedule: HamiltonianSchedule
    t1: float
    t2: float
    steps: int = 128

    def state_at(self, v0: QuantumState, t: float) -> QuantumState:
        sub = self.schedule.restrict(self.schedule.t_start, t)
        if sub.t_end == sub.t_start:
            return v0
        return evolve(v0, sub, self.steps)

    @classmethod
    def from_dict(cls, d: dict) -> "EvolutionWindow":
        sched = HamiltonianSchedule.from_dict(d["schedule"])
        return cls(sched, float(d["t1"]), float(d["t2"]), int(d.get("steps", 128)))

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "t1": self.t1,
            "t2": self.t2,
            "steps": self.steps,
        }


class ExperimentSpec:
    """Declarative description of one experimental arrangement.

    `f` relates the implementation outcomes (its variables) to the target
    outcome.  When `target` is None the target operator is derived by
    quantizing `f`, which requires `f` to be simple; binding the target to an
    explicit measurement allows deliberately unsound candidates to be put to
    the test.  `groups` overrides the planner (the override must still keep
    non-commuting measurements apart), which is how same-operator
    measurements are forced onto separate copies.
    """

    def __init__(
        self,
        initial_state: QuantumState,
        bindings: BindingSet,
        implementation: Sequence[str],
        f,
        target: str | None = None,
        evolution: EvolutionWindow | None = None,
        groups: Sequence[Sequence[str]] | None = None,
    ):
        self.initial_state = initial_state
        self.bindings = bindings
        self.implementation = tuple(implementation)
        self.f = ex.parse(f) if isinstance(f, str) else f
        self.target = target
        self.evolution = evolution
        self._evolved: dict[float, QuantumState] = {}
        if initial_state.dim != bindings.dim:
            raise DimMismatch(f"state dim {initial_state.dim} does not match bindings dim {bindings.dim}")
        for name in self.implementation:
            bindings.binding(name)
        if target is not None:
            bindings.binding(target)
            if target in self.implementation:
                raise ValueError("target must not be an implementation measurement")
        missing = ex.variables(self.f) - set(self.implementation)
        if missing:
            raise UnboundVariable(f"f uses non-implementation variables {sorted(missing)}")
        if groups is None:
            self.plan = plan_setups(self.implementation, bindings)
        else:
            self.plan = SetupPlan(tuple(tuple(g) for g in groups))
            flat = [n for g in self.plan.groups for n in g]
            if sorted(flat) != sorted(self.implementation):
                raise ValueError("groups override must cover the implementation exactly")
            for group in self.plan.groups:
                for i, a in enumerate(group):
                    for b in group[i + 1:]:
                        if not bindings.commute(a, b):
                            raise ValueError(
                                f"override groups {a!r} and {b!r} together but they do not commute"
                            )

    def state_at_t1(self) -> QuantumState:
        return self._state_at(self.evolution.t1) if self.evolution else self.initial_state

    def state_at_t2(self) -> QuantumState:
        return self._state_at(self.evolution.t2) if self.evolution else self.initial_state

    def _state_at(self, t: float) -> QuantumState:
        """The initial state evolved to `t`; each time is evolved to once per spec."""
        if t not in self._evolved:
            self._evolved[t] = self.evolution.state_at(self.initial_state, t)
        return self._evolved[t]

    def target_operator(self):
        if self.target is not None:
            return self.bindings.embedded(self.target)
        return ex.quantize(self.f, self.bindings)

    # JSON schema: {state, bindings, implementation, target?, f, n_trials,
    # seed, evolution?, groups?}
    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        return cls(
            initial_state=state_from_dict(d["state"]),
            bindings=BindingSet.from_dict(d["bindings"]),
            implementation=d["implementation"],
            f=d["f"],
            target=d.get("target"),
            evolution=(
                EvolutionWindow.from_dict(d["evolution"]) if d.get("evolution") else None
            ),
            groups=d.get("groups"),
        )

    def to_dict(self) -> dict:
        out = {
            "state": state_to_dict(self.initial_state),
            "bindings": self.bindings.to_dict(),
            "implementation": list(self.implementation),
            "f": ex.to_string(self.f),
        }
        if self.target is not None:
            out["target"] = self.target
        if self.evolution is not None:
            out["evolution"] = self.evolution.to_dict()
        out["groups"] = [list(g) for g in self.plan.groups]
        return out


def _group_branches(group: Sequence[str], bindings: BindingSet, state: QuantumState):
    """All outcome sequences of one copy, as arrays: (probabilities, {name: values}).

    Measurements are applied in declaration order with collapse, so the
    probability of a branch is the product of conditional Born probabilities.
    """
    nodes, probs, values = state.amplitudes[None, :], np.ones(1), {}
    for j, name in enumerate(group):
        spectrum = bindings.embedded(name).spectrum
        weights, children = born_split(spectrum, nodes)
        rows, kids = np.nonzero(weights > _BRANCH_PRUNE)
        probs = probs[rows] * weights[rows, kids]
        values = {k: v[rows] for k, v in values.items()}
        values[name] = spectrum.group_values[kids]
        if j + 1 < len(group):
            nodes = children(rows, kids)
    return probs, values


def enumerate_expectation(spec: ExperimentSpec) -> float:
    """Exact E[f]: independent copies across groups, sequential collapse within.

    Copy g's branches lie along axis g, so one evaluation of f covers every
    outcome tuple.  The copies' probability vectors are then contracted in
    from the last axis, so no sum runs over more than one copy's branches.
    """
    budget = 1
    for group in spec.plan.groups:
        for name in group:
            budget *= len(spec.bindings.embedded(name).spectrum.outcome_groups)
        if budget > ENUMERATION_BUDGET:
            raise StateSpaceTooLarge(f"more than {ENUMERATION_BUDGET} outcome tuples")
    v1 = spec.state_at_t1()
    per_group = [_group_branches(g, spec.bindings, v1) for g in spec.plan.groups]
    values: dict[str, np.ndarray] = {}
    for g, (_, vals) in enumerate(per_group):
        shape = (1,) * g + (-1,) + (1,) * (len(per_group) - g - 1)
        values.update((name, v.reshape(shape)) for name, v in vals.items())
    total = np.broadcast_to(ex.evaluate(spec.f, values), tuple(len(p) for p, _ in per_group))
    for probs, _ in reversed(per_group):
        total = total @ probs
    return float(total)


@dataclass(frozen=True)
class AvcpVerdict:
    holds: bool
    lhs: float
    rhs: float
    residual: float
    tolerance: float


def _exact(spec: ExperimentSpec):
    """The target operator and the verdict on the exact numbers.

    The enumeration runs first, so its budget is checked before any evolution.
    """
    target_op = spec.target_operator()
    rhs = enumerate_expectation(spec)
    lhs = expectation(target_op, spec.state_at_t2())
    residual = abs(lhs - rhs)
    tol = AVCP_RTOL * (1.0 + abs(lhs))
    return target_op, AvcpVerdict(residual <= tol, lhs, rhs, residual, tol)


def check_avcp(spec: ExperimentSpec) -> AvcpVerdict:
    """Compare the target operator's expectation against the enumerated E[f]."""
    return _exact(spec)[1]


@dataclass
class ExperimentReport:
    """Sampled and exact expectations plus the correspondence verdict.

    `holds` is decided from the exact numbers at the standard tolerance; the
    z-scores locate the sampled means relative to their exact counterparts
    and to each other.
    """

    n_trials: int
    seed: int
    plan: tuple[tuple[str, ...], ...]
    sampled_lhs: float
    stderr_lhs: float
    sampled_rhs: float
    stderr_rhs: float
    exact_lhs: float
    exact_rhs: float
    residual: float
    tolerance: float
    holds: bool
    z_lhs: float
    z_rhs: float
    z_gap: float
    trial_target: np.ndarray | None = field(default=None, repr=False)
    trial_f: np.ndarray | None = field(default=None, repr=False)
    trial_values: dict[str, np.ndarray] | None = field(default=None, repr=False)

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"

    def to_dict(self) -> dict:
        """The summary fields in order, `verdict` in place of `holds` and `plan` as lists; no trial arrays."""
        names = ["verdict" if f.name == "holds" else f.name for f in fields(self) if f.repr]
        return {**{k: getattr(self, k) for k in names}, "plan": [list(g) for g in self.plan]}

    def to_text(self) -> str:
        rows = [
            ("set-ups", " | ".join(",".join(g) for g in self.plan)),
            ("trials", str(self.n_trials)),
            ("seed", str(self.seed)),
            ("target mean (sampled)", f"{self.sampled_lhs:+.6f} +/- {self.stderr_lhs:.6f}"),
            ("f mean (sampled)", f"{self.sampled_rhs:+.6f} +/- {self.stderr_rhs:.6f}"),
            ("target mean (exact)", f"{self.exact_lhs:+.12f}"),
            ("f mean (exact)", f"{self.exact_rhs:+.12f}"),
            ("residual", f"{self.residual:.3e} (tolerance {self.tolerance:.3e})"),
            ("z-scores", f"lhs {self.z_lhs:.2f}, rhs {self.z_rhs:.2f}, gap {self.z_gap:.2f}"),
            ("verdict", self.verdict),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _sample_copy(spectra, state: np.ndarray, columns) -> list[np.ndarray]:
    """Per-trial outcome values of each measurement on one copy.

    Each trial walks the copy's outcome tree, carrying the index of its node;
    measurement j takes the next uniform column from `columns`.  Only
    children some trial reached are built, so nodes never outnumber trials.
    Per slot: O(nodes*(d^2 + G) + n) expected time and O(n + nodes*(d + G)) memory.
    """
    nodes, at, out = state[None, :], 0, []
    for j, (spectrum, u) in enumerate(zip(spectra, columns)):
        weights, children = born_split(spectrum, nodes)
        idx = inverse_cdf(weights, at, u)
        out.append(spectrum.group_values[idx])
        if j + 1 < len(spectra):  # np.unique(branch, return_inverse=True), by counting instead of sorting
            branch = at * weights.shape[1] + idx
            seen = np.bincount(branch, minlength=weights.size) > 0
            reached, at = np.flatnonzero(seen), (np.cumsum(seen) - 1)[branch]
            nodes = children(*np.divmod(reached, weights.shape[1]))
    return out


def run_trials(spec: ExperimentSpec, n: int, seed: int, keep_trials: bool = False) -> ExperimentReport:
    """Run `n` independent trials of the experimental arrangement.

    Trial i draws its randomness from row i of a uniform table generated
    once from `seed` (one column per measurement slot, target last), so the
    outcome of a trial is a function of (seed, trial index) alone and the
    report does not depend on execution order.  The exact values come first,
    so a non-simple `f` or too many outcome tuples fail before any trial.
    Sampling each copy's outcome tree costs O(nodes*(d^2 + G) + n) expected
    time and O(n + nodes*(d + G)) memory per slot, with nodes <= min(n, branches).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target_op, exact = _exact(spec)
    v1, v2 = spec.state_at_t1().amplitudes, spec.state_at_t2().amplitudes
    uniforms = np.random.default_rng(seed).random((n, len(spec.plan.slots()) + 1))
    (target_vals,) = _sample_copy([target_op.spectrum], v2, [uniforms[:, -1]])

    columns = iter(uniforms.T)
    values: dict[str, np.ndarray] = {}
    for group in spec.plan.groups:
        spectra = [spec.bindings.embedded(name).spectrum for name in group]
        values.update(zip(group, _sample_copy(spectra, v1, columns)))

    f_vals = np.asarray(ex.evaluate(spec.f, values), dtype=float)
    if f_vals.ndim == 0:
        f_vals = np.full(n, float(f_vals))

    def _mean_se(x: np.ndarray) -> tuple[float, float]:
        mean = float(x.mean())
        se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return mean, se

    sampled_lhs, se_lhs = _mean_se(target_vals)
    sampled_rhs, se_rhs = _mean_se(f_vals)

    def _z(gap: float, se: float) -> float:
        return abs(gap) / se if se > 0 else (0.0 if gap == 0 else math.inf)

    return ExperimentReport(
        n_trials=n,
        seed=seed,
        plan=spec.plan.groups,
        sampled_lhs=sampled_lhs,
        stderr_lhs=se_lhs,
        sampled_rhs=sampled_rhs,
        stderr_rhs=se_rhs,
        exact_lhs=exact.lhs,
        exact_rhs=exact.rhs,
        residual=exact.residual,
        tolerance=exact.tolerance,
        holds=exact.holds,
        z_lhs=_z(sampled_lhs - exact.lhs, se_lhs),
        z_rhs=_z(sampled_rhs - exact.rhs, se_rhs),
        z_gap=_z(sampled_lhs - sampled_rhs, math.hypot(se_lhs, se_rhs)),
        trial_target=target_vals if keep_trials else None,
        trial_f=f_vals if keep_trials else None,
        trial_values=values if keep_trials else None,
    )
