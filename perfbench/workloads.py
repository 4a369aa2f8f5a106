"""Inputs, operations and the output oracle of the avcp benchmark.

Every input is generated here with plain numpy from the workload seed (never
with `avcp.operators.random_*`) and written as the JSON files a user would
write, so the program only sees those files.  Every expected output is
computed here as well, independently of avcp: expectations straight from the
matrices, evolved states from one `eigh` of the Hamiltonian.

A workload is a cycle of cases; one case is one operation.  Sizes are fixed
per workload and the seed only draws the numbers, so the cost of a cycle does
not depend on the seed.  Where a cycle mixes cases of very different cost,
the mix puts the median operation inside one case's samples, not between
two cases, so that the median does not jump between them from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

WORKLOADS = ("trials", "exact", "large_dim", "verify_all")

#: the program's AVCP verdict rule: |lhs - rhs| <= VERDICT_RTOL * (1 + |lhs|)
VERDICT_RTOL = 1e-9
#: agreement demanded between the program's exact values and the oracle's
VALUE_RTOL = 1e-9
#: largest z-score a sampled mean may reach against its exact value
Z_MAX = 5.0
#: below this many trials the z-score is not near-normal and is not checked
Z_MIN_TRIALS = 1000
#: verify seeds the verify_all workload draws from; all pass (seed 17 does not, see README.md)
VERIFY_SEEDS = tuple(range(12))


@dataclass
class Case:
    """One operation: what to run, what it must return, and the work it stands for."""

    name: str
    kind: str  # "experiment" | "evolve" | "check" | "verify"
    args: list[str]
    expect: dict = field(default_factory=dict)
    trials: int = 0
    tuples: int = 0
    #: whether the traced run's tracemalloc pass runs this case
    in_memory_pass: bool = True


# ---------------------------------------------------------------------------
# plain-numpy generators and oracle helpers
# ---------------------------------------------------------------------------

def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _random_hermitian(rng, d: int) -> np.ndarray:
    return _hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def _commuting(rng, d: int, k: int) -> list[np.ndarray]:
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return [_hermitize((q * rng.normal(size=d)) @ q.conj().T) for _ in range(k)]


def _random_state(rng, d: int) -> np.ndarray:
    g = rng.normal(size=d) + 1j * rng.normal(size=d)
    return g / np.linalg.norm(g)


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def _state_json(v: np.ndarray) -> dict:
    return {"dim": v.shape[0], "re": v.real.tolist(), "im": v.imag.tolist()}


def _mean(m: np.ndarray, v: np.ndarray) -> float:
    return float(np.vdot(v, m @ v).real)


def _spectral(m: np.ndarray, fn) -> np.ndarray:
    w, vecs = np.linalg.eigh(m)
    return (vecs * fn(w)) @ vecs.conj().T


def _outcome_count(m: np.ndarray) -> int:
    """Distinct eigenvalues under the program's documented degeneracy rule."""
    w = np.linalg.eigvalsh(m)
    tol = 1e-9 * max(1.0, float(np.abs(m).max()))
    return 1 + int(np.count_nonzero(np.diff(w) > tol))


def _evolved(h: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    w, vecs = np.linalg.eigh(h)
    return vecs @ (np.exp(-1j * w * t) * (vecs.conj().T @ v))


_TRANSFORMS = {
    "": (lambda w: w, "{}"),
    "sq": (lambda w: w**2, "{}^2"),
    "cos": (np.cos, "cos({})"),
}


def _embed(m: np.ndarray, factor_dims, k: int) -> np.ndarray:
    out = np.eye(1)
    for i, d in enumerate(factor_dims):
        out = np.kron(out, m if i == k else np.eye(d))
    return out


def _experiment(rng, d, ops, copies, terms, target=None, state=None, local=None, factor_dims=None):
    """Spec dict plus oracle values for one multi-copy experiment.

    `ops` maps names to full-space matrices, `copies` lists the names sharing
    each copy (names within a copy commute, names across copies do not, so
    the program's planner finds exactly these copies), and `terms` is f as
    [(coef, [(transform, name), ...])].  Names in `local` are bound to one
    factor of `factor_dims` as (factor matrix, subsystem) and embedded here
    with `np.kron` for the oracle.
    """
    local = local or {}
    ops = {**ops, **{n: _embed(m, factor_dims, k) for n, (m, k) in local.items()}}
    v = _random_state(rng, d) if state is None else state
    copy_of = {n: i for i, names in enumerate(copies) for n in names}

    def factor(tr, name):
        fn, _ = _TRANSFORMS[tr]
        return ops[name] if tr == "" else _spectral(ops[name], fn)

    def f_text():
        # the grammar has no unary minus, so signs go between terms
        parts = []
        for coef, factors in terms:
            body = "*".join(_TRANSFORMS[tr][1].format(n) for tr, n in factors)
            mag = abs(coef)
            parts.append("-" if coef < 0 else "+")
            parts.append(body if mag == 1.0 else f"{mag!r}*{body}")
        return " ".join(parts[1:] if parts[0] == "+" else ["0"] + parts)

    def e_f(vec):
        total = 0.0
        for coef, factors in terms:
            prod = coef
            for c in sorted({copy_of[n] for _, n in factors}):
                m = np.eye(d, dtype=complex)
                for tr, n in factors:
                    if copy_of[n] == c:
                        m = m @ factor(tr, n)
                prod *= _mean(m, vec)
            total += prod
        return total

    def quantized():
        total = np.zeros((d, d), dtype=complex)
        for coef, factors in terms:
            m = coef * np.eye(d, dtype=complex)
            for tr, n in factors:
                m = m @ factor(tr, n)
            total += m
        return _hermitize(total)

    names = [n for names in copies for n in names]
    bindings = {
        n: {"operator": _matrix_json(local[n][0]), "subsystem": local[n][1]} if n in local else _matrix_json(ops[n])
        for n in names
    }
    spec = {
        "state": _state_json(v),
        "bindings": bindings if factor_dims is None else {"bindings": bindings, "factor_dims": list(factor_dims)},
        "implementation": names,
        "f": f_text(),
    }
    target_m = quantized()
    if target is not None:
        bindings["T"] = _matrix_json(target)
        spec["target"] = "T"
        target_m = target
    tuples = math.prod(_outcome_count(ops[n]) for n in names)
    # no sampled mean can leave these bounds, whatever the number of trials
    bounds = {
        "lhs_bound": float(np.abs(np.linalg.eigvalsh(target_m)).max()),
        "rhs_bound": sum(
            abs(coef) * math.prod(float(np.abs(_TRANSFORMS[tr][0](np.linalg.eigvalsh(ops[n]))).max()) for tr, n in fs)
            for coef, fs in terms
        ),
    }
    return spec, v, e_f, target_m, tuples, bounds


def _verdict(lhs: float, rhs: float) -> str:
    return "holds" if abs(lhs - rhs) <= VERDICT_RTOL * (1.0 + abs(lhs)) else "violated"


def _write(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _trials_cases(rng, workdir: str, tiny: bool) -> list[Case]:
    """`avcp experiment` specs whose cost is the sampling kernel."""
    layout = [
        # (name, d, n_trials, shape)
        ("three_d6", 6, 100_000, "three"),
        ("split_d12", 12, 33_000, "split"),
        ("same_copy_d12", 12, 33_000, "same"),
        ("three_d16", 16, 12_000, "three"),
        ("split_d32", 32, 10_000, "split"),
    ]
    if tiny:
        layout = [("split_d3", 3, 200, "split"), ("same_copy_d4", 4, 200, "same"), ("three_d4", 4, 200, "three")]
    cases = []
    for name, d, n, shape in layout:
        if shape == "split":
            ops = {"A": _random_hermitian(rng, d), "B": _random_hermitian(rng, d)}
            copies, terms = [["A"], ["B"]], [(1.0, [("", "A")]), (0.5, [("", "B")])]
        elif shape == "same":
            a, b = _commuting(rng, d, 2)
            ops = {"A": a, "B": b}
            copies, terms = [["A", "B"]], [(1.0, [("", "A"), ("", "B")])]
        else:
            a, b = _commuting(rng, d, 2)
            ops = {"A": a, "B": b, "C": _random_hermitian(rng, d)}
            copies, terms = [["A", "B"], ["C"]], [(1.0, [("", "A"), ("", "B")]), (-1.5, [("", "C")])]
        spec, v, e_f, target, tuples, bounds = _experiment(rng, d, ops, copies, terms)
        spec["n_trials"] = n
        spec["seed"] = int(rng.integers(2**31))
        lhs, rhs = _mean(target, v), e_f(v)
        path = _write(os.path.join(workdir, f"{name}.json"), spec)
        expect = {"exact_lhs": lhs, "exact_rhs": rhs, "verdict": _verdict(lhs, rhs), "n_trials": n, **bounds}
        cases.append(Case(name, "experiment", ["experiment", path], expect, trials=n, tuples=tuples))
    return cases


def _exact_cases(rng, workdir: str, tiny: bool) -> list[Case]:
    """`check_avcp` specs whose cost is exact enumeration."""
    layout = [
        ("separable_3x22", "separable", 22, 3),
        ("separable_4x12", "separable", 12, 4),
        ("same_copy_collapse_6x6", "same", (6, 6), 4),
        ("separable_3x60", "separable", 60, 3),
        ("named_target_2x150", "named", 150, 2),
        ("named_target_3x50", "named", 50, 3),
        ("same_copy_collapse_5x8", "same", (5, 8), 4),
    ]
    if tiny:
        layout = [("separable_3x4", "separable", 4, 3), ("named_target_2x5", "named", 5, 2), ("same_copy_collapse_2x3", "same", (2, 3), 3)]
    cases = []
    for name, shape, d, k in layout:
        names = [chr(ord("A") + i) for i in range(k)]
        target = local = factor_dims = None
        if shape == "separable":
            ops = {n: _random_hermitian(rng, d) for n in names}
            copies = [[n] for n in names]
            transforms = ["", "sq", "cos", ""]
            terms = [(float(i + 1), [(transforms[i], n)]) for i, n in enumerate(names)]
        elif shape == "named":
            ops = {n: _random_hermitian(rng, d) for n in names}
            copies = [[n] for n in names]
            terms = [(1.0, [("", n) for n in names])]
            a, b = ops[names[0]], ops[names[1]]
            target = _hermitize(a @ b + b @ a) / 2
        else:
            # A and B act on different factors, so they share one copy and B
            # is measured after A's collapse; the rest are generic, one copy each.
            # Commuting pairs in a shared random basis would not do: their
            # branch count after collapse hangs on roundoff-sized probabilities.
            factor_dims, d = d, math.prod(d)
            local = {n: (_random_hermitian(rng, fd), i) for i, (n, fd) in enumerate(zip(names[:2], factor_dims))}
            ops = {n: _random_hermitian(rng, d) for n in names[2:]}
            copies = [names[:2]] + [[n] for n in names[2:]]
            terms = [(1.0, [("", names[0]), ("", names[1])])] + [(0.5, [("", n)]) for n in names[2:]]
        spec, v, e_f, target_m, tuples, _ = _experiment(
            rng, d, ops, copies, terms, target=target, local=local, factor_dims=factor_dims
        )
        lhs, rhs = _mean(target_m, v), e_f(v)
        path = _write(os.path.join(workdir, f"{name}.json"), spec)
        expect = {"lhs": lhs, "rhs": rhs, "verdict": _verdict(lhs, rhs)}
        cases.append(Case(name, "check", [path], expect, tuples=tuples))
    return cases


def _large_dim_cases(rng, workdir: str, tiny: bool) -> list[Case]:
    """d = 256: an experiment with an evolution window, and plain evolution."""
    d, steps, n = (8, 16, 8) if tiny else (256, 128, 8)

    def evolve_case(name):
        h, v = _random_hermitian(rng, d), _random_state(rng, d)
        state = _write(os.path.join(workdir, f"{name}_state.json"), _state_json(v))
        sched = _write(
            os.path.join(workdir, f"{name}_schedule.json"),
            [{"t0": 0.0, "t1": 1.0, "operator": _matrix_json(h)}],
        )
        final = _evolved(h, v, 1.0)
        args = ["evolve", "--state", state, "--schedule", sched, "--steps", str(steps)]
        return Case(name, "evolve", args, {"re": final.real.tolist(), "im": final.imag.tolist()})

    # H = A + B conserves <A + B>, so the verdict holds although the state moves
    ops = {"A": _random_hermitian(rng, d), "B": _random_hermitian(rng, d)}
    h = ops["A"] + ops["B"]
    v0 = _random_state(rng, d)
    t1, t2 = 0.4, 0.9
    spec, _, e_f, target, tuples, bounds = _experiment(
        rng, d, ops, [["A"], ["B"]], [(1.0, [("", "A")]), (1.0, [("", "B")])], state=v0
    )
    spec["evolution"] = {
        "schedule": [{"t0": 0.0, "t1": 1.0, "operator": _matrix_json(h)}],
        "t1": t1,
        "t2": t2,
        "steps": steps,
    }
    spec["n_trials"] = n
    spec["seed"] = int(rng.integers(2**31))
    lhs, rhs = _mean(target, _evolved(h, v0, t2)), e_f(_evolved(h, v0, t1))
    path = _write(os.path.join(workdir, "window.json"), spec)
    expect = {
        "exact_lhs": lhs,
        "exact_rhs": rhs,
        "verdict": _verdict(lhs, rhs),
        "n_trials": n,
        **bounds,
    }
    experiment = Case("window_d%d" % d, "experiment", ["experiment", path], expect, trials=n, tuples=tuples)
    # five cheap evolve ops per experiment put the median inside the evolve ops
    return [evolve_case("evolve_1"), experiment] + [evolve_case(f"evolve_{i}") for i in range(2, 6)]


def _verify_cases(rng, workdir: str, tiny: bool) -> list[Case]:
    """`avcp verify all`, one case per verify seed, in an order drawn from the seed."""
    seeds = VERIFY_SEEDS[:1] if tiny else [VERIFY_SEEDS[i] for i in rng.permutation(len(VERIFY_SEEDS))]
    # Every seed runs the same suites at the same sizes, so one seed gives the
    # memory peaks; tracemalloc slows these many small calls several-fold.
    return [
        Case(f"verify_seed_{s}", "verify", ["verify", "all", "--seed", str(s)], in_memory_pass=i == 0)
        for i, s in enumerate(seeds)
    ]


_BUILDERS = {
    "trials": _trials_cases,
    "exact": _exact_cases,
    "large_dim": _large_dim_cases,
    "verify_all": _verify_cases,
}


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Case]:
    """Generate the workload's inputs into `workdir` and return its cycle of cases."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]), workdir, tiny)


# ---------------------------------------------------------------------------
# running one case, and checking what it returned
# ---------------------------------------------------------------------------

class OpFailed(Exception):
    """The operation returned, but not what the oracle expects."""


def run(case: Case) -> str:
    """Run one case through the program and return its report text.

    Program entry points are looked up at call time so that a tracer that
    rebinds them sees every call.
    """
    if case.kind == "check":
        from avcp import experiments

        with open(case.args[0]) as fh:
            spec = experiments.ExperimentSpec.from_dict(json.load(fh))
        verdict = experiments.check_avcp(spec)
        return json.dumps(asdict(verdict), sort_keys=True)
    from avcp import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case.args)
    if code != 0:
        raise OpFailed(f"{case.name}: exit code {code}")
    return out.getvalue()


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= VALUE_RTOL * (1.0 + abs(want))


def check(case: Case, text: str) -> None:
    """Raise OpFailed unless `text` is the output the oracle expects."""
    report = json.loads(text)
    e = case.expect
    problems = []
    if case.kind == "verify":
        if report.get("passed") is not True:
            problems.append("suite did not pass")
    elif case.kind == "evolve":
        got = np.asarray(report["re"]) + 1j * np.asarray(report["im"])
        want = np.asarray(e["re"]) + 1j * np.asarray(e["im"])
        if got.shape != want.shape or float(np.abs(got - want).max()) > 1e-9:
            problems.append("evolved state differs from the eigh propagation")
    elif case.kind == "check":
        if not (_close(report["lhs"], e["lhs"]) and _close(report["rhs"], e["rhs"])):
            problems.append(f"lhs/rhs {report['lhs']}/{report['rhs']} vs {e['lhs']}/{e['rhs']}")
        if ("holds" if report["holds"] else "violated") != e["verdict"]:
            problems.append(f"verdict should be {e['verdict']}")
    else:
        if report["n_trials"] != e["n_trials"]:
            problems.append("wrong trial count")
        if not (_close(report["exact_lhs"], e["exact_lhs"]) and _close(report["exact_rhs"], e["exact_rhs"])):
            problems.append(
                f"exact {report['exact_lhs']}/{report['exact_rhs']} vs {e['exact_lhs']}/{e['exact_rhs']}"
            )
        if report["verdict"] != e["verdict"]:
            problems.append(f"verdict should be {e['verdict']}")
        if e["n_trials"] >= Z_MIN_TRIALS:
            if not (report["z_lhs"] <= Z_MAX and report["z_rhs"] <= Z_MAX):
                problems.append(f"z-scores {report['z_lhs']}, {report['z_rhs']} exceed {Z_MAX}")
        elif not (
            abs(report["sampled_lhs"]) <= e["lhs_bound"] * (1 + 1e-12)
            and abs(report["sampled_rhs"]) <= e["rhs_bound"] * (1 + 1e-12)
        ):
            problems.append("sampled mean outside the range of outcome values")
    if problems:
        raise OpFailed(f"{case.name}: " + "; ".join(problems))
