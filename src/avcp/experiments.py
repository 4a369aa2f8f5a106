"""Multi-copy measurement experiments.

A classically described measurement relates a target outcome to a function
`f` of implementation outcomes.  The quantum arrangement prepares one copy of
the system per set-up: measurements whose operators commute (or act on
different factors) share a copy and are performed in sequence with collapse,
while non-commuting measurements go on separate copies.  The target
measurement always gets its own copy.

This module plans those set-ups, computes the exact expectation of `f` by
enumerating outcome trees, estimates it by seeded Monte Carlo down them, and
renders a verdict comparing the target operator's expectation against the
enumerated value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import expressions as ex
from .errors import DimMismatch, StateSpaceTooLarge, UnboundVariable
from .evolution import DEFAULT_STEPS, HamiltonianSchedule, evolve
from .expressions import BindingSet
from .operators import QuantumState, born_split, cdf_table, draw_flat, expectation, make_rng, real_number, whole_number
from .operators import state_from_dict, state_to_dict

#: exact enumeration refuses to expand more outcome tuples than this
ENUMERATION_BUDGET = 10**6
#: verdict: |lhs - rhs| <= AVCP_RTOL * (1 + |lhs|)
AVCP_RTOL = 1e-9
_BRANCH_PRUNE = 1e-30
#: trials per block of `run_trials`.  In process, a perfbench `trials` cycle (seed 7) took 18.4, 14.5, 13.7,
#: 13.3 and 15.2 ms in blocks of 2^10, 2^12, 2^13, 2^14 and 2^15 rows, and 15.4 ms in one block; 2^13 is the
#: largest that took no more minor page faults per cycle than 2^12 (1,141, against 1,943 at 2^14)
TRIAL_BLOCK = 1 << 13


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
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        if whole_number(self.steps, "steps") < 1:
            raise ValueError("steps must be >= 1")
        for t in (self.t1, self.t2):  # a time outside the schedule fails here, before any evolution
            self.schedule.restrict(self.schedule.t_start, t)

    def states(self, v0: QuantumState) -> tuple[QuantumState, QuantumState]:
        """`v0` evolved to t1 and to t2, each by one `evolve` from the schedule start in `steps` slices, so
        each leg takes the Lanczos or eigenbasis path that a lone `evolve` over it would take."""
        start = self.schedule.t_start
        states = [evolve(v0, self.schedule.restrict(start, t), self.steps) for t in dict.fromkeys((self.t1, self.t2))]
        return states[0], states[-1]

    @classmethod
    def from_dict(cls, d: dict, alpha: float = 1.0) -> "EvolutionWindow":
        schedule = d["schedule"]  # read first, so that a window that is not an object is a TypeError
        steps = whole_number(d.get("steps", DEFAULT_STEPS), "steps")
        return cls(HamiltonianSchedule.from_dict(schedule, alpha), real_number(d["t1"], "t1"),
                   real_number(d["t2"], "t2"), steps)

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
        if initial_state.dim != bindings.dim:
            raise DimMismatch(f"state dim {initial_state.dim} does not match bindings dim {bindings.dim}")
        for i, name in enumerate(self.implementation):
            if name in self.implementation[:i]:  # one name is one copy's outcome: a second draw would overwrite it
                raise ValueError(f"implementation names {name!r} more than once; bind its operator to a second name")
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
                for a, b in bindings.noncommuting_pairs(group):
                    raise ValueError(f"override groups {a!r} and {b!r} together but they do not commute")

    def state_at_t1(self) -> QuantumState:
        return self._evolved[0]

    def state_at_t2(self) -> QuantumState:
        return self._evolved[1]

    @functools.cached_property
    def _evolved(self) -> tuple[QuantumState, QuantumState]:
        """The initial state at t1 and at t2; each time is evolved to once per spec."""
        if self.evolution is None:
            return self.initial_state, self.initial_state
        return self.evolution.states(self.initial_state)

    @functools.cached_property
    def _trees(self) -> list:
        """Each copy's `_outcome_tree` at t1, built once per spec for enumeration and sampling alike."""
        per_copy = ([self.bindings.embedded(n).spectrum for n in g] for g in self.plan.groups)
        return [_outcome_tree(spectra, self.state_at_t1()) for spectra in per_copy]

    def target_operator(self):
        if self.target is not None:
            return self.bindings.embedded(self.target)
        return ex.quantize(self.f, self.bindings)

    # JSON schema: {state, bindings, implementation, target?, f, n_trials,
    # seed, evolution?, groups?}; `alpha` is for an evolution schedule without its own
    @classmethod
    def from_dict(cls, d: dict, alpha: float = 1.0) -> "ExperimentSpec":
        return cls(
            initial_state=state_from_dict(d["state"]),
            bindings=BindingSet.from_dict(d["bindings"]),
            implementation=_spec_field(d, "implementation", 1),
            f=_spec_field(d, "f", 0),
            target=_spec_field(d, "target", 0, required=False),
            evolution=(
                EvolutionWindow.from_dict(d["evolution"], alpha) if d.get("evolution") else None
            ),
            groups=_spec_field(d, "groups", 2, required=False),
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


def _spec_field(d: dict, key: str, depth: int, required: bool = True):
    """d[key] if it is a string in `depth` nested lists, else TypeError naming it; an optional one may be null."""
    value = d[key] if required else d.get(key)
    if not (_strings(value, depth) or value is None and not required):
        kind = ("a string", "a list of strings", "a list of lists of strings")[depth]
        raise TypeError(f"{key} must be {kind}, got {value!r}")
    return value


def _strings(value, depth: int) -> bool:
    if depth == 0:
        return isinstance(value, str)
    return isinstance(value, list) and all(_strings(v, depth - 1) for v in value)


def _outcome_tree(spectra, state: QuantumState):
    """All outcome sequences of one copy: (probabilities, [values per measurement], levels).

    Measurements are applied in order with collapse, so the probability of a branch is the product
    of conditional Born probabilities.  Level j is measurement j's (weights, group_values), a row per
    node, with weights <= _BRANCH_PRUNE zeroed; its kept branches, row-major, are level j + 1's nodes.
    """
    nodes, probs, values, levels = state.amplitudes[None, :], np.ones(1), [], []
    for j, spectrum in enumerate(spectra):
        weights, children = born_split(spectrum, nodes)
        weights = np.where(weights > _BRANCH_PRUNE, weights, 0.0)
        rows, kids = np.nonzero(weights)
        probs = probs[rows] * weights[rows, kids]
        values = [v[rows] for v in values] + [spectrum.group_values[kids]]
        levels.append((weights, spectrum.group_values))
        if j + 1 < len(spectra):
            nodes = children(rows, kids)
    return probs, values, levels


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
    per_group = spec._trees
    values: dict[str, np.ndarray] = {}
    for g, (group, (_, vals, _)) in enumerate(zip(spec.plan.groups, per_group)):
        shape = (1,) * g + (-1,) + (1,) * (len(per_group) - g - 1)
        values.update((name, v.reshape(shape)) for name, v in zip(group, vals))
    total = np.broadcast_to(ex.evaluate(spec.f, values), tuple(len(p) for p, _, _ in per_group))
    for probs, _, _ in reversed(per_group):
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
    and to each other, and a gap within that tolerance reads as z = 0.  The
    per-trial arrays are kept for inspection but stay out of `==`, `repr`,
    `to_dict` and `to_text`.
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
    trial_target: np.ndarray = field(repr=False, compare=False)
    trial_f: np.ndarray = field(repr=False, compare=False)
    trial_values: dict[str, np.ndarray] = field(repr=False, compare=False)

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


def _lookup_tables(levels) -> list[tuple]:
    """Per `_outcome_tree` level: its `cdf_table`, and per flat (node, group) index the branch's value and
    the rank of its node among the next level's (the kept branches, row-major; a pruned one is never drawn)."""
    return [
        (cdf_table(weights), np.tile(group_values, len(weights)), np.cumsum(weights.ravel() > 0) - 1)
        for weights, group_values in levels
    ]


def _draw(tables, columns) -> list[np.ndarray]:
    """Per-trial outcome values of each measurement on one copy, drawn down its `_lookup_tables`.

    Measurement j draws each trial's flat (node, group) index from its node's row with the next column
    of `columns`, and reads the branch's value and the trial's next node from the level's tables:
    a guide gather, a short fix-up and two gathers, O(n) expected time and memory per slot for n trials.
    """
    at, out = 0, []
    for (table, values, ranks), u in zip(tables, columns):
        pos = draw_flat(table, at, u)
        out.append(values[pos])
        at = ranks[pos]
    return out


def run_trials(spec: ExperimentSpec, n: int, seed: int) -> ExperimentReport:
    """Run `n` independent trials of the experimental arrangement.

    Trial i draws its randomness from row i of a uniform table from `seed` (one column per measurement
    slot, target last), so the outcome of a trial is a function of (seed, trial index) alone and the
    report does not depend on execution order.  The exact values come first, so a non-simple `f` or too
    many outcome tuples fail before any trial.  Each outcome-tree level's `_lookup_tables` are built
    once, and the table is drawn and walked in blocks of TRIAL_BLOCK rows, which `Generator.random` fills
    in order from the one stream: O(nodes*G + n) expected time per slot, and O(n) memory for the
    returned arrays plus O(TRIAL_BLOCK * slots) for a block and O(nodes*k) for the guides.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)  # a bad seed fails here, before any exact work
    target_op, exact = _exact(spec)
    _, _, target_levels = _outcome_tree([target_op.spectrum], spec.state_at_t2())
    target_tables = _lookup_tables(target_levels)
    copy_tables = [_lookup_tables(levels) for _, _, levels in spec._trees]
    n_slots = len(spec.plan.slots())
    target_vals = np.empty(n)
    values = {name: np.empty(n) for _, name in spec.plan.slots()}
    for lo in range(0, n, TRIAL_BLOCK):
        uniforms = rng.random((min(TRIAL_BLOCK, n - lo), n_slots + 1))
        block = slice(lo, lo + len(uniforms))
        (target_vals[block],) = _draw(target_tables, [uniforms[:, -1]])
        columns = iter(uniforms.T)
        for group, tables in zip(spec.plan.groups, copy_tables):
            for name, drawn in zip(group, _draw(tables, columns)):
                values[name][block] = drawn

    f_vals = np.asarray(ex.evaluate(spec.f, values), dtype=float)
    if f_vals.ndim == 0:
        f_vals = np.full(n, float(f_vals))

    def _mean_se(x: np.ndarray) -> tuple[float, float]:
        mean = float(x.mean())
        se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return mean, se

    sampled_lhs, se_lhs = _mean_se(target_vals)
    sampled_rhs, se_rhs = _mean_se(f_vals)

    def _z(gap: float, se: float, ref: float) -> float:
        # a gap within the verdict's own tolerance is roundoff, whatever the standard error
        if abs(gap) <= AVCP_RTOL * (1.0 + abs(ref)):
            return 0.0
        return abs(gap) / se if se > 0 else math.inf

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
        z_lhs=_z(sampled_lhs - exact.lhs, se_lhs, exact.lhs),
        z_rhs=_z(sampled_rhs - exact.rhs, se_rhs, exact.rhs),
        z_gap=_z(sampled_lhs - sampled_rhs, math.hypot(se_lhs, se_rhs), sampled_lhs),
        trial_target=target_vals,
        trial_f=f_vals,
        trial_values=values,
    )
