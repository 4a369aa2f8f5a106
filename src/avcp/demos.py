"""Canned demonstrations, each reproducing one headline phenomenon.

Every demo returns (report dict, narrative text) and is fully determined by
its seed, trial count, and alpha.
"""

from __future__ import annotations

import numpy as np

from .angular import spin_operators
from .errors import NonSimpleInput, UnknownDemo
from .evolution import require_alpha
from .experiments import ExperimentSpec, run_trials
from .expressions import BindingSet, demonstrate_inconsistency
from .kinematics import build_fock
from .operators import (
    HermitianOperator,
    expectation,
    make_rng,
    matrix_to_dict,
    random_hermitian,
    random_state,
)
from .poisson import check_dirac_rule, counterexample_report, parse_canonical


def demo_a_squared(seed: int = 0, trials: int = 20000, alpha: float = 1.0):
    """Three ways to 'measure A^2' and where their expectations part ways.

    (i) measure A once and square; (ii) measure A twice on the same copy and
    multiply; (iii) measure A on two separate copies and multiply.  The first
    two agree with <A^2>; the third lands on <A>^2.
    """
    rng = make_rng(seed)
    op = random_hermitian(3, rng)
    state = random_state(3, rng)
    a2 = expectation(HermitianOperator(op.matrix @ op.matrix), state)
    a_mean_sq = expectation(op, state) ** 2

    single = ExperimentSpec(state, BindingSet({"A": op}), ["A"], "A^2")
    twice = BindingSet({"A1": op, "A2": op})
    same_copy = ExperimentSpec(state, twice, ["A1", "A2"], "A1*A2")
    two_copies = ExperimentSpec(
        state, twice, ["A1", "A2"], "A1*A2", groups=[["A1"], ["A2"]]
    )

    reports = {
        "square_outcome": run_trials(single, trials, seed),
        "repeat_same_copy": run_trials(same_copy, trials, seed + 1),
        "two_copies": run_trials(two_copies, trials, seed + 2),
    }
    out = {
        "alpha": alpha,
        "expected_same_copy": a2,
        "expected_two_copies": a_mean_sq,
        "gap": a2 - a_mean_sq,
        "implementations": {k: r.to_dict() for k, r in reports.items()},
    }
    lines = [
        "Measuring the square of an observable, three ways.",
        "",
        f"  <A^2>  = {a2:+.6f}   (what one copy gives, squared or repeated)",
        f"  <A>^2  = {a_mean_sq:+.6f}   (what two independent copies give)",
        f"  gap    = {a2 - a_mean_sq:+.6f}",
        "",
    ]
    for name, r in reports.items():
        lines.append(f"[{name}]")
        lines.append(r.to_text())
        lines.append("")
    return out, "\n".join(lines)


def demo_a_plus_b(seed: int = 0, trials: int = 20000, alpha: float = 1.0):
    """Spin-1/2 sum of non-commuting components.

    The operator Sx + Sz has eigenvalues +/- alpha/sqrt(2), yet adding the
    outcomes of separate-copy Sx and Sz measurements only ever produces
    -alpha, 0, +alpha.  On average the two agree for every preparation.
    """
    spin = spin_operators(2, alpha)
    sx, sz = spin.lx, spin.lz
    total = HermitianOperator(sx.matrix + sz.matrix)
    state = random_state(2, make_rng(seed))
    bindings = BindingSet({"Sx": sx, "Sz": sz, "C": total})
    spec = ExperimentSpec(state, bindings, ["Sx", "Sz"], "Sx + Sz", target="C")
    report = run_trials(spec, trials, seed)
    eigen = total.spectrum.eigenvalues
    observed = sorted(set(np.round(report.trial_f, 12)))
    out = {
        "alpha": alpha,
        "sum_operator_eigenvalues": eigen.tolist(),
        "per_trial_sum_values": [float(v) for v in observed],
        "report": report.to_dict(),
    }
    lines = [
        "A measurement represented by Sx + Sz versus its two-copy implementation.",
        "",
        f"  eigenvalues of Sx + Sz : {eigen[0]:+.6f}, {eigen[1]:+.6f}"
        f"   (+/- alpha/sqrt(2) = {alpha / np.sqrt(2):.6f})",
        f"  per-trial outcome sums : {', '.join(f'{v:+g}' for v in observed)}",
        "",
        report.to_text(),
    ]
    return out, "\n".join(lines)


def demo_hermitization(seed: int = 0, trials: int = 0, alpha: float = 1.0):
    """The symmetrized-product rule contradicts itself on A^2 B."""
    rng = make_rng(seed)
    a = random_hermitian(3, rng)
    b = random_hermitian(3, rng)
    rep = demonstrate_inconsistency(a, b)
    out = {
        "grouping_nested": matrix_to_dict(rep.nested.matrix),
        "grouping_flat": matrix_to_dict(rep.flat.matrix),
        "difference_norm": rep.difference_norm,
    }
    lines = [
        "Symmetrizing non-commuting products is not a consistent rule.",
        "",
        "Quantizing A^2*B by the symmetrized product rule, grouped two ways:",
        "  A*(A*B)  ->  (A^2 B + 2 A B A + B A^2) / 4",
        "  (A^2)*B  ->  (A^2 B + B A^2) / 2",
        "",
        f"  max-norm of their difference: {rep.difference_norm:.6e}",
        "  Both claim to represent the same measurement, so the rule fails.",
    ]
    return out, "\n".join(lines)


def demo_poisson_counterexample(seed: int = 0, trials: int = 0, alpha: float = 1.0):
    """Where the bracket-commutator rule stops: f = x^3, h = p^3."""
    rep = build_fock(64, alpha)
    gamma = 1.0
    f = parse_canonical("x^3")
    h = parse_canonical("p^3")
    try:
        check_dirac_rule(f, h, rep)
        bracket_failure = None
    except NonSimpleInput as exc:
        bracket_failure = {k: list(map(list, v)) for k, v in exc.failures.items()}
    ce = counterexample_report(gamma, rep)
    out = {
        "alpha": alpha,
        "gamma": gamma,
        "non_simple": bracket_failure,
        "counterexample": ce.to_dict(),
    }
    lines = [
        "The bracket-commutator rule needs f, h, and {f, h} all simple.",
        "",
        "  f = x^3, h = gamma p^3  =>  {f, h} = 9 gamma x^2 p^2,",
        "  which multiplies x and p outcomes, so no operator represents it.",
        f"  (simplicity check reports: {bracket_failure})",
        "",
        "Symmetrizing anyway and comparing with the true commutator leaves a",
        "constant disagreement on the truncation-safe sub-block:",
        "",
        f"  fitted scalar        : {ce.scalar.real:+.3e} {ce.scalar.imag:+.12f}j",
        f"  magnitude            : {ce.scalar_magnitude:.12f}   (3 gamma alpha^3 = {3 * gamma * alpha**3:.6f})",
        f"  off-scalar residual  : {ce.off_scalar_residual:.3e}",
        f"  safe sub-block size  : {ce.safe_dim}",
    ]
    return out, "\n".join(lines)


DEMOS = {
    "a-squared": demo_a_squared,
    "a-plus-b": demo_a_plus_b,
    "hermitization": demo_hermitization,
    "poisson-counterexample": demo_poisson_counterexample,
}


def run_demo(name: str, seed: int = 0, trials: int = 20000, alpha: float = 1.0):
    try:
        fn = DEMOS[name]
    except KeyError:
        raise UnknownDemo(
            f"no demo named {name!r}; options: {', '.join(sorted(DEMOS))}"
        ) from None
    require_alpha(alpha)
    return fn(seed=seed, trials=trials, alpha=alpha)
