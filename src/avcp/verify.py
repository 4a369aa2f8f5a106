"""Residual-based verification suites behind the `verify` command.

Each suite yields a fixed list of seeded checks, every residual against its
threshold, and `run_suite` collects them.  Reports are plain dicts of Python
scalars so their JSON rendering is byte-stable for a given seed.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from typing import Iterator

import numpy as np

from .angular import (
    casimir_matrix,
    check_frame_rotation_covariance,
    check_rotation_identity,
    commutant_scalar_residual,
    full_turn_matrix,
    rotation_generator,
    spin_operators,
)
from .errors import AvcpError
from .evolution import HamiltonianSchedule, check_energy_conservation, evolve, propagate, propagator, require_alpha
from .experiments import ExperimentSpec, check_avcp, enumerate_expectation, run_trials
from .expressions import BindingSet
from .kinematics import (
    boundary_weight,
    build_fock,
    canonical_defect,
    coherent_state,
    displacement_shift_residual,
    momentum_invariance_residual,
    photon_drift_check,
)
from .operators import (
    HermitianOperator,
    QuantumState,
    apply_spectral_function,
    born_split,
    cdf_table,
    commutator,
    draw_flat,
    expectation,
    make_rng,
    max_norm,
    operator_from_dict,
    operator_to_dict,
    random_commuting_family,
    random_hermitian,
    random_state,
    state_from_dict,
    state_to_dict,
    tensor,
    whole_number,
)
from .poisson import (
    CanonicalPolynomial,
    check_dirac_rule,
    counterexample_report,
    parse_canonical,
    poisson_bracket,
)


def _check(name: str, value: float, threshold: float, op: str = "<=") -> dict:
    value = float(value)
    threshold = float(threshold)
    passed = value <= threshold if op == "<=" else value >= threshold
    return {"name": name, "value": value, "threshold": threshold, "op": op, "passed": bool(passed)}


def _error_check(name: str, exc: Exception) -> dict:
    return {
        "name": name,
        "error": type(exc).__name__,
        "detail": str(exc),
        "passed": False,
    }


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _suite_operators(seed: int, alpha: float, levels: int, dims) -> Iterator[dict]:
    rng = make_rng(seed)

    worst = 0.0
    for dim in (2, 3, 4, 6, 8):
        h = random_hermitian(dim, rng)
        s = h.spectrum
        rebuilt = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
        worst = max(worst, max_norm(rebuilt - h.matrix))
    yield _check("spectral_reconstruction", worst, 1e-10)

    h = random_hermitian(5, rng)
    g = lambda x: 2 * x * x - 1.0
    f = lambda x: x**3 - x
    direct = apply_spectral_function(h, lambda x: f(g(x)))
    composed = apply_spectral_function(apply_spectral_function(h, g), f)
    # relative to the result's size: |f(g(x))| reaches 1e5 on some seeds, where 1e-10 is a few ulps
    scale = max(1.0, max_norm(direct.matrix))
    yield _check("functional_calculus_composition", max_norm(direct.matrix - composed.matrix) / scale, 1e-10)

    v = random_state(4, rng)
    h4 = random_hermitian(4, rng)
    phased = QuantumState(v.amplitudes * np.exp(1j * 0.8137))
    yield _check(
        "global_phase_invariance",
        abs(expectation(h4, v) - expectation(h4, phased)),
        1e-12,
    )

    probe = random_hermitian(3, rng)
    state3 = random_state(3, rng)
    probs = np.array(
        [float(np.linalg.norm(p @ state3.amplitudes) ** 2) for p in probe.spectrum.projectors()]
    )
    n_draws = 6000
    weights = born_split(probe.spectrum, state3.amplitudes[None, :])[0]
    idx = draw_flat(cdf_table(weights), 0, rng.random(n_draws))
    freq = np.bincount(idx, minlength=len(probs)) / n_draws
    z = 0.0
    for pk, fk in zip(probs, freq):
        sigma = math.sqrt(max(pk * (1 - pk), 1e-12) / n_draws)
        z = max(z, abs(fk - pk) / sigma)
    yield _check("born_rule_sampling_z", z, 4.0)

    left = tensor(random_hermitian(2, rng), HermitianOperator(np.eye(3)))
    right = tensor(HermitianOperator(np.eye(2)), random_hermitian(3, rng))
    yield _check("disjoint_factor_commutation", max_norm(commutator(left, right)), 0.0)

    op = random_hermitian(4, rng)
    state4 = random_state(4, rng)
    op_rt = operator_from_dict(operator_to_dict(op))
    st_rt = state_from_dict(state_to_dict(state4))
    round_trip = max(max_norm(op_rt.matrix - op.matrix), max_norm(st_rt.amplitudes - state4.amplitudes))
    yield _check("json_round_trip", round_trip, 1e-15)


# ---------------------------------------------------------------------------
# avcp
# ---------------------------------------------------------------------------

def _suite_avcp(seed: int, alpha: float, levels: int, dims) -> Iterator[dict]:
    rng = make_rng(seed)

    op = random_hermitian(4, rng)
    state = random_state(4, rng)
    spec_sq = ExperimentSpec(state, BindingSet({"A": op}), ["A"], "A^2")
    lhs = expectation(HermitianOperator(op.matrix @ op.matrix), state)
    yield _check("square_same_copy_enumeration", abs(enumerate_expectation(spec_sq) - lhs), 1e-12)

    two = BindingSet({"A1": op, "A2": op})
    spec_cop = ExperimentSpec(state, two, ["A1", "A2"], "A1*A2", groups=[["A1"], ["A2"]])
    yield _check(
        "square_two_copies_enumeration",
        abs(enumerate_expectation(spec_cop) - expectation(op, state) ** 2),
        1e-12,
    )

    a = random_hermitian(3, rng)
    b = random_hermitian(3, rng)
    st3 = random_state(3, rng)
    v = check_avcp(ExperimentSpec(st3, BindingSet({"A": a, "B": b}), ["A", "B"], "A + B"))
    yield _check("sum_rule_noncommuting", v.residual, v.tolerance)

    ca, cb = random_commuting_family(4, 2, rng)
    st4 = random_state(4, rng)
    v = check_avcp(ExperimentSpec(st4, BindingSet({"A": ca, "B": cb}), ["A", "B"], "A*B"))
    yield _check("product_rule_commuting", v.residual, v.tolerance)

    herm = HermitianOperator((a.matrix @ b.matrix + b.matrix @ a.matrix) / 2)
    worst = 0.0
    for _ in range(8):
        probe = random_state(3, rng)
        vv = check_avcp(
            ExperimentSpec(probe, BindingSet({"A": a, "B": b, "C": herm}), ["A", "B"], "A*B", target="C")
        )
        worst = max(worst, vv.residual)
    yield _check("hermitized_product_violation", worst, 1e-6, op=">=")

    report = run_trials(
        ExperimentSpec(st3, BindingSet({"A": a, "B": b}), ["A", "B"], "A + 0.5*B"), 4000, seed
    )
    yield _check("sampling_vs_enumeration_z", max(report.z_lhs, report.z_rhs), 4.0)

    rep = run_trials(
        ExperimentSpec(state, two, ["A1", "A2"], "A1*A2"), 500, seed
    )
    repeat_gap = float(np.abs(rep.trial_values["A1"] - rep.trial_values["A2"]).max())
    yield _check("same_copy_repetition_identical", repeat_gap, 0.0)

    r1 = run_trials(ExperimentSpec(st3, BindingSet({"A": a, "B": b}), ["A", "B"], "A + B"), 2000, seed)
    r2 = run_trials(ExperimentSpec(st3, BindingSet({"A": a, "B": b}), ["A", "B"], "A + B"), 2000, seed)
    same = float(max(abs(x - y) for x, y in zip(r1.to_dict().values(), r2.to_dict().values()) if isinstance(x, float)))
    yield _check("seeded_reproducibility", same, 0.0)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def midpoint_order_ratio(run) -> float:
    """|v16 - v32| / |v32 - v64|, where `run(steps)` returns the final amplitudes after `steps` slices.

    If the error falls as e(N) ~ C/N^k, the two differences are (1 - 2^-k) C/16^k and
    (1 - 2^-k) C/32^k, so the ratio tends to 2^k: 4 for the second-order midpoint rule.
    """
    v16, v32, v64 = (run(steps) for steps in (16, 32, 64))
    return float(np.linalg.norm(v16 - v32) / np.linalg.norm(v32 - v64))


def _suite_evolution(seed: int, alpha: float, levels: int, dims) -> Iterator[dict]:
    rng = make_rng(seed)
    worst_u = worst_norm = worst_energy = worst_comp = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        h = random_hermitian(dim, rng)
        v = random_state(dim, rng)
        dt = float(rng.uniform(0.1, 2.0))
        u = propagator(h, dt, alpha)
        worst_u = max(worst_u, max_norm(u.conj().T @ u - np.eye(dim)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(propagate(h, dt, v.amplitudes, alpha)) - 1.0))
        worst_energy = max(worst_energy, check_energy_conservation(v, h, dt, alpha))
        t1, t2 = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        comp = propagate(h, t2, propagator(h, t1, alpha), alpha) - propagator(h, t1 + t2, alpha)
        worst_comp = max(worst_comp, max_norm(comp))
    yield _check("propagator_unitarity", worst_u, 1e-10)
    yield _check("norm_conservation", worst_norm, 1e-12)
    yield _check("energy_conservation", worst_energy, 1e-10)
    yield _check("propagator_composition", worst_comp, 1e-10)

    h = random_hermitian(4, rng)
    s = h.spectrum
    eigstate = QuantumState(s.eigenvectors[:, 1])
    sched = HamiltonianSchedule.constant(h, 0.0, 1.3, alpha)
    evolved = evolve(eigstate, sched, 7)
    worst = 0.0
    for _ in range(4):
        probe = random_hermitian(4, rng)
        worst = max(worst, abs(expectation(probe, evolved) - expectation(probe, eigstate)))
    yield _check("eigenstate_observables_frozen", worst, 1e-10)

    h0 = random_hermitian(3, rng)
    h1 = random_hermitian(3, rng)
    v0 = random_state(3, rng)

    def ht(t):
        return h0.matrix + t * h1.matrix

    sched_t = HamiltonianSchedule.from_function(ht, 0.0, 1.0, alpha)
    ratio = midpoint_order_ratio(lambda steps: evolve(v0, sched_t, steps).amplitudes)
    yield _check("midpoint_order_ratio_dev", abs(ratio - 4.0), 0.45)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def _suite_kinematics(seed: int, alpha: float, levels: int, dims) -> Iterator[dict]:
    worst_off = 0.0
    worst_diag = 0.0
    worst_corner = 0.0
    for n in (2, 3, 5, 8, 16, 32, levels):
        f = build_fock(n, alpha)
        d = canonical_defect(f)
        corner = d[n - 1, n - 1]
        worst_corner = max(worst_corner, abs(corner - (-1j * alpha * n)) / max(1.0, alpha * n))
        d = np.array(d)
        d[n - 1, n - 1] = 0
        worst_diag = max(worst_diag, float(np.abs(np.diag(d)).max()))
        np.fill_diagonal(d, 0)
        worst_off = max(worst_off, max_norm(d))
    yield _check("defect_strictly_offdiagonal", worst_off, 0.0)
    yield _check("defect_diagonal_dust", worst_diag, 1e-13 * max(1.0, alpha))
    yield _check("defect_corner_value", worst_corner, 1e-12)

    # the coherent state's weight on the top level is 1.3e-10 at 18 levels, above the 1e-10 safety gate; 19 is
    # the fewest levels at which it passes, whatever alpha
    f = build_fock(max(19, levels), alpha)
    state = coherent_state(f, 1.1 + 0.3j)
    yield _check("coherent_state_is_safe", boundary_weight(state), 1e-10)
    yield _check("displacement_shifts_x", displacement_shift_residual(f, state, 0.1), 1e-6)
    yield _check("displacement_preserves_p", momentum_invariance_residual(f, state, 0.1), 1e-10)
    yield _check("photon_drift", photon_drift_check(f, 1.0, state, 1e-4), 1e-5)


# ---------------------------------------------------------------------------
# angular
# ---------------------------------------------------------------------------

def _suite_angular(seed: int, alpha: float, levels: int, dims) -> Iterator[dict]:
    rng = make_rng(seed)
    lo, hi = dims
    worst_cyc = worst_cas = worst_rot = worst_turn = 0.0
    for n in range(lo, hi + 1):
        t = spin_operators(n, alpha)
        for a, b, c in ((t.lx, t.ly, t.lz), (t.ly, t.lz, t.lx), (t.lz, t.lx, t.ly)):
            worst_cyc = max(worst_cyc, max_norm(commutator(a, b) - 1j * alpha * c.matrix))
        cas = casimir_matrix(t) - alpha**2 * t.j * (t.j + 1) * np.eye(n)
        worst_cas = max(worst_cas, max_norm(cas))
        rz = rotation_generator("z", t)
        worst_rot = max(
            worst_rot,
            max_norm(commutator(rz, t.lx) - 1j * t.ly.matrix),
            max_norm(commutator(rz, t.ly) + 1j * t.lx.matrix),
            max_norm(commutator(rz, t.lz)),
        )
        sign = 1.0 if (n % 2) == 1 else -1.0
        worst_turn = max(worst_turn, max_norm(full_turn_matrix(t) - sign * np.eye(n)))
    yield _check("cyclic_commutators", worst_cyc, 1e-10 * max(1.0, alpha**2))
    yield _check("casimir_scalar", worst_cas, 1e-10 * max(1.0, alpha**2))
    yield _check("rotation_generator_commutators", worst_rot, 1e-10 * max(1.0, alpha))

    t2 = spin_operators(2, alpha)
    t3 = spin_operators(3, alpha)
    eps = 0.01  # at 0.05 the O(eps^4) term still tilts the cubic ratio for some states
    ratios = []
    for t in (t2, t3):
        v = random_state(t.n, rng)
        ratios.append(check_rotation_identity(t, v, eps) / check_rotation_identity(t, v, eps / 2))
    dev = max(abs(r - 8.0) for r in ratios)
    yield _check("rotation_identity_cubic_ratio_dev", dev, 2.0)

    v3 = random_state(3, rng)
    r1 = check_frame_rotation_covariance(t3, v3, 0.1)
    r2 = check_frame_rotation_covariance(t3, v3, 0.05)
    yield _check("frame_covariance_quadratic_ratio_dev", abs(r1 / r2 - 4.0), 0.8)

    worst_comm = 0.0
    for n in (2, 3, 5, 8):
        null_dim, resid = commutant_scalar_residual(spin_operators(n, alpha))
        worst_comm = max(worst_comm, resid if null_dim == 1 else math.inf)
    yield _check("commutant_is_scalar", worst_comm, 1e-8)

    yield _check("full_turn_sign", worst_turn, 1e-10)


# ---------------------------------------------------------------------------
# poisson
# ---------------------------------------------------------------------------

def _random_poly(rng) -> CanonicalPolynomial:
    """One to four terms over two canonical pairs, exponents at most 3, integer coefficients in [-5, 5]."""
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        exps = tuple(int(rng.integers(0, 4)) for _ in range(4))
        terms[exps] = int(rng.integers(-5, 6))
    return CanonicalPolynomial.from_terms(terms, 2)


def _suite_poisson(seed: int, alpha: float, levels: int, dims) -> Iterator[dict]:
    rng = make_rng(seed)

    exact_failures = 0
    for _ in range(40):
        f, g, h = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        fg, gh = poisson_bracket(f, g), poisson_bracket(g, h)
        if not (fg + poisson_bracket(g, f)).is_zero():
            exact_failures += 1
        if not (poisson_bracket(f * g, h) - f * gh - poisson_bracket(f, h) * g).is_zero():
            exact_failures += 1
        jac = poisson_bracket(f, gh) + poisson_bracket(g, poisson_bracket(h, f)) + poisson_bracket(h, fg)
        if not jac.is_zero():
            exact_failures += 1
    yield _check("bracket_axioms_exact_failures", exact_failures, 0.0)

    x = CanonicalPolynomial.coordinate("x", 0, 2)
    p2 = CanonicalPolynomial.coordinate("p", 1, 2)
    kron = poisson_bracket(x, p2)
    yield _check("canonical_pairs_kronecker", 0.0 if kron.is_zero() else 1.0, 0.0)

    rep = build_fock(levels, alpha)
    pairs = [
        ("x", "p^2 + x^2"),
        ("x^2", "p"),
        ("x + p", "x - p"),
        ("x^3", "x^2 + 2*x"),
        ("p^2", "x"),
    ]
    worst = 0.0
    for fs, hs in pairs:
        rep_report = check_dirac_rule(parse_canonical(fs), parse_canonical(hs), rep)
        worst = max(worst, rep_report.residual / rep_report.scale)
    yield _check("dirac_rule_safe_block", worst, 1e-9)

    ce = counterexample_report(1.0, rep)
    yield _check("counterexample_off_scalar", ce.off_scalar_residual, 1e-8)
    yield _check(
        "counterexample_gap_vs_oracle",
        abs(ce.scalar - 3j * 1.0 * alpha**3),
        1e-8 * max(1.0, alpha**3),
    )


_SUITES = {
    "operators": _suite_operators,
    "avcp": _suite_avcp,
    "evolution": _suite_evolution,
    "kinematics": _suite_kinematics,
    "angular": _suite_angular,
    "poisson": _suite_poisson,
}
SUITE_NAMES = tuple(_SUITES)
#: the order in which the parent and its workers claim suites, longest first at the default sizes: one seed
#: takes about 20 ms for poisson, 9 for angular, 5 for avcp, 4 for evolution, 3 for kinematics and 1.5 for operators
#: on one core of a 2-CPU Xeon host
_LONGEST_FIRST = ("poisson", "angular", "avcp", "evolution", "kinematics", "operators")


def _suite_checks(name: str, seed: int, alpha: float, levels: int, dims) -> list[dict]:
    """One suite's checks, each tagged with the suite; an AvcpError becomes the one check `<suite>_suite`."""
    try:
        checks = list(_SUITES[name](seed, alpha, levels, dims))
    except AvcpError as exc:
        checks = [_error_check(f"{name}_suite", exc)]
    for c in checks:
        c["suite"] = name
    return checks


def _native_threads() -> int:
    """Threads this process runs, native ones such as a BLAS thread pool too where /proc lists them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _processes(suites: int) -> int:
    """How many processes share out `suites` suites: the usable CPUs over the threads this process runs.

    A forked worker starts a BLAS pool as large as this process's, so each
    process gets as many CPUs as it runs threads: two processes with two-thread
    OpenBLAS pools on two CPUs took up to 0.8 s a seed instead of 0.05 s.  numpy's
    OpenBLAS starts a thread per CPU unless OPENBLAS_NUM_THREADS is set before
    numpy is imported, so without that pin this is one process.  A Python
    thread besides this one means no fork at all, since a fork copies the
    locks that thread holds.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus // _native_threads(), suites))


def _run_claimed(claims: int, args: tuple) -> dict:
    """Run every suite claimed from the pipe `claims` until it is empty: {name: checks} for each that returned."""
    results = {}
    while claim := os.read(claims, 1):
        name = SUITE_NAMES[claim[0]]
        try:
            results[name] = _suite_checks(name, *args)
        except Exception:  # left out, so that the suite runs again in the caller's loop and raises there
            pass
    return results


def _run_with_workers(names: list[str], workers: int, args: tuple) -> dict:
    """Run `names` in this process and `workers` forked ones, each claiming the next suite, longest first.

    Returns {name: checks} for the suites that returned.  A suite that raised
    is missing, and so are the suites of a worker that died or whose result
    does not unpickle.
    """
    claims, feed = os.pipe()
    os.write(feed, bytes(SUITE_NAMES.index(n) for n in sorted(names, key=_LONGEST_FIRST.index)))
    os.close(feed)
    children = []  # (pid, read end of the worker's result pipe)
    try:
        for _ in range(workers):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process: the rest runs here
                os.close(out)
                os.close(into)
                break
            if pid == 0:
                try:  # a worker never returns into the caller's code
                    for fd in (out, *(other for _, other in children)):
                        os.close(fd)
                    with os.fdopen(into, "wb") as fh:
                        pickle.dump(_run_claimed(claims, args), fh)
                finally:
                    os._exit(0)
            os.close(into)
            children.append((pid, out))
        results = _run_claimed(claims, args)
        for _, out in children:
            try:
                with os.fdopen(out, "rb", closefd=False) as fh:
                    results.update(pickle.load(fh))
            except Exception:  # a worker that died sent nothing or a torn result; its suites run again here
                pass
        return results
    finally:
        os.close(claims)
        for _, out in children:
            os.close(out)
        for pid, _ in children:
            os.waitpid(pid, 0)


def run_suite(
    suite: str,
    seed: int = 0,
    alpha: float = 1.0,
    levels: int = 64,
    dims: tuple[int, int] = (2, 12),
    extra_bindings: dict | None = None,
) -> dict:
    """Run one suite (or `all`) and return a JSON-ready report.

    With more than one suite and CPUs to spare (see `_processes`), the suites
    run in forked worker processes as well as this one; each suite seeds its
    own generator, so the report is the same as when they all run here.
    """
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; options: all, {', '.join(SUITE_NAMES)}")
    require_alpha(alpha)
    levels = whole_number(levels, "levels", 2)  # a Fock truncation needs two levels
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    # a malformed bindings file fails before any suite runs; its row still comes last
    bindings_check = None if extra_bindings is None else _validate_bindings(extra_bindings)
    args = (seed, alpha, levels, dims)
    processes = _processes(len(names))
    done = _run_with_workers(names, processes - 1, args) if processes > 1 else {}
    checks: list[dict] = []
    for name in names:  # a suite with no result (the serial path) runs here, in report order
        checks.extend(done[name] if name in done else _suite_checks(name, *args))
    if bindings_check is not None:
        checks.append(bindings_check)
    return {
        "suite": suite,
        "seed": seed,
        "alpha": alpha,
        "levels": levels,
        "dims": list(dims),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _validate_bindings(raw: dict) -> dict:
    try:
        BindingSet.from_dict(raw)
    except AvcpError as exc:
        return {**_error_check("bindings_validation", exc), "suite": "bindings"}
    return {**_check("bindings_validation", 0.0, 0.0), "suite": "bindings"}


def render_text(report: dict) -> str:
    lines = [
        f"suite: {report['suite']}   seed: {report['seed']}   alpha: {report['alpha']}",
        "",
    ]
    width = max(len(c["name"]) for c in report["checks"]) + 2
    for c in report["checks"]:
        if "error" in c:
            lines.append(f"FAIL  {c['name'].ljust(width)} error {c['error']}: {c['detail']}")
            continue
        mark = "ok  " if c["passed"] else "FAIL"
        lines.append(
            f"{mark}  {c['name'].ljust(width)} {c['value']:.3e} {c['op']} {c['threshold']:.3e}"
        )
    lines.append("")
    lines.append("PASSED" if report["passed"] else "FAILED")
    return "\n".join(lines)
