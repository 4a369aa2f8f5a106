"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 8c pins the bracket-rule counterexample gap at the value
3i*gamma*alpha^3 that the operator algebra fixes; the exact normal-ordering
oracle in test_poisson.py and `avcp verify poisson` check the same constant.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from avcp.angular import (
    casimir_matrix,
    check_rotation_identity,
    commutant_scalar_residual,
    rotation_generator,
    spin_operators,
)
from avcp.errors import CommutingInput
from avcp.evolution import HamiltonianSchedule, check_energy_conservation, evolve, propagator
from avcp.experiments import ExperimentSpec, check_avcp, enumerate_expectation, run_trials
from avcp.expressions import (
    Add,
    BindingSet,
    Const,
    Func,
    Mul,
    Pow,
    Var,
    demonstrate_inconsistency,
)
from avcp.kinematics import (
    build_fock,
    canonical_defect,
    coherent_state,
    displacement_shift_residual,
    momentum_invariance_residual,
    photon_drift_check,
)
from avcp.operators import (
    HermitianOperator,
    QuantumState,
    commutator,
    expectation,
    hermitian_from_matrix,
    make_rng,
    max_norm,
    random_commuting_family,
    random_hermitian,
    random_state,
)
from avcp.poisson import (
    CanonicalPolynomial,
    check_dirac_rule,
    counterexample_report,
    parse_canonical,
    poisson_bracket,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} ({name}): {status}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


# criterion 1 -------------------------------------------------------------------


def test_criterion_1_square_implementations():
    start = time.monotonic()
    rng = make_rng(1001)
    worst_enum = 0.0
    worst_z = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        op = random_hermitian(dim, rng)
        state = random_state(dim, rng)
        seed = int(rng.integers(0, 2**31))

        sq = expectation(HermitianOperator(op.matrix @ op.matrix), state)
        mean_sq = expectation(op, state) ** 2
        single = ExperimentSpec(state, BindingSet({"A": op}), ["A"], "A^2")
        both = BindingSet({"A1": op, "A2": op})
        repeat = ExperimentSpec(state, both, ["A1", "A2"], "A1*A2")
        split = ExperimentSpec(state, both, ["A1", "A2"], "A1*A2", groups=[["A1"], ["A2"]])

        worst_enum = max(
            worst_enum,
            abs(enumerate_expectation(single) - sq),
            abs(enumerate_expectation(repeat) - sq),
            abs(enumerate_expectation(split) - mean_sq),
        )
        for spec in (single, repeat, split):
            r = run_trials(spec, 100_000, seed)
            worst_z = max(worst_z, r.z_rhs, r.z_lhs)
    elapsed = time.monotonic() - start
    _report(
        1,
        "square-measurement implementations",
        worst_enum <= 1e-12 and worst_z <= 4.0 and elapsed < 30.0,
        f"enum residual {worst_enum:.2e}, max z {worst_z:.2f}, {elapsed:.1f}s",
    )


# criterion 2 -------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_criterion_2_spin_half_sum(alpha):
    sx = hermitian_from_matrix(alpha / 2 * SX)
    sz = hermitian_from_matrix(alpha / 2 * SZ)
    total = hermitian_from_matrix(sx.matrix + sz.matrix)
    eig_dev = float(
        np.abs(np.sort(total.spectrum.eigenvalues) - np.array([-1, 1]) * alpha / math.sqrt(2)).max()
    )
    state = random_state(2, make_rng(2002))
    bind = BindingSet({"Sx": sx, "Sz": sz, "C": total})
    spec = ExperimentSpec(state, bind, ["Sx", "Sz"], "Sx + Sz", target="C")
    report = run_trials(spec, 50_000, seed=5)
    values = {float(v) for v in np.round(report.trial_f, 12)}
    allowed = {-alpha, 0.0, alpha}
    _report(
        2,
        f"spin-1/2 sum measurement (alpha={alpha})",
        eig_dev <= 1e-12 and values <= allowed and report.holds,
        f"eigenvalue dev {eig_dev:.1e}, trial values {sorted(values)}",
    )


# criterion 3 -------------------------------------------------------------------


def _random_binding_ensemble(rng):
    """Measurement sets mixing commuting, non-commuting, and subsystem structure."""
    if rng.random() < 0.35:
        d0 = int(rng.integers(2, 4))
        d1 = int(rng.integers(2, 4))
        entries = {
            "A": (random_hermitian(d0, rng), 0),
            "B": (random_hermitian(d1, rng), 1),
        }
        if rng.random() < 0.5:
            entries["C"] = (random_hermitian(d0, rng), 0)
        bind = BindingSet(entries, factor_dims=[d0, d1])
        dim = d0 * d1
    else:
        dim = int(rng.integers(2, 7))
        entries = {}
        if rng.random() < 0.6:
            fam = random_commuting_family(dim, 2, rng)
            entries["A"], entries["B"] = fam[0], fam[1]
        else:
            entries["A"] = random_hermitian(dim, rng)
            entries["B"] = random_hermitian(dim, rng)
        if rng.random() < 0.6:
            entries["C"] = random_hermitian(dim, rng)
        bind = BindingSet(entries)
    return bind, dim


_FNS = (
    lambda v: v,
    lambda v: Pow(v, 2),
    lambda v: Pow(v, 3),
    lambda v: Func("cos", v),
    lambda v: Func("sin", v),
)


def _random_simple_f(rng, plan):
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        group = plan.groups[int(rng.integers(0, len(plan.groups)))]
        k = int(rng.integers(1, min(2, len(group)) + 1))
        picks = [group[int(rng.integers(0, len(group)))] for _ in range(k)]
        coeff = float(rng.integers(-3, 4)) or 1.0
        factors = [Const(coeff)]
        factors += [_FNS[int(rng.integers(0, len(_FNS)))](Var(name)) for name in picks]
        terms.append(Mul(tuple(factors)))
    return Add(tuple(terms)) if len(terms) > 1 else terms[0]


def test_criterion_3_avcp_soundness_sweep():
    start = time.monotonic()
    rng = make_rng(3003)

    from avcp.experiments import plan_setups

    worst = 0.0
    for _ in range(200):
        bind, dim = _random_binding_ensemble(rng)
        state = random_state(dim, rng)
        names = list(bind.names)
        plan = plan_setups(names, bind)
        f = _random_simple_f(rng, plan)
        spec = ExperimentSpec(state, bind, names, f)
        verdict = check_avcp(spec)
        assert verdict.holds, (f, verdict)
        worst = max(worst, verdict.residual / (1.0 + abs(verdict.lhs)))

    misses = 0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        herm = hermitian_from_matrix((a.matrix @ b.matrix + b.matrix @ a.matrix) / 2)
        bind = BindingSet({"A": a, "B": b, "C": herm})
        violation = 0.0
        for _ in range(10):
            state = random_state(dim, rng)
            spec = ExperimentSpec(state, bind, ["A", "B"], "A*B", target="C")
            violation = max(violation, check_avcp(spec).residual)
        if violation <= 1e-6:
            misses += 1
    elapsed = time.monotonic() - start
    _report(
        3,
        "soundness sweep",
        worst <= 1e-9 and misses == 0 and elapsed < 60.0,
        f"worst simple residual {worst:.2e}, hermitized misses {misses}/50, {elapsed:.1f}s",
    )


# criterion 4 -------------------------------------------------------------------


def test_criterion_4_hermitization_inconsistency():
    rng = make_rng(4004)
    found = 0
    worst = math.inf
    while found < 20:
        dim = int(rng.integers(2, 6))
        try:
            rep = demonstrate_inconsistency(random_hermitian(dim, rng), random_hermitian(dim, rng))
        except CommutingInput:
            continue
        found += 1
        worst = min(worst, rep.difference_norm)
    _report(4, "hermitization inconsistency", worst > 1e-8, f"smallest gap {worst:.2e}")


# criterion 5 -------------------------------------------------------------------


def test_criterion_5_evolution():
    rng = make_rng(5005)
    worst_u = worst_norm = worst_energy = worst_frozen = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        h = random_hermitian(dim, rng)
        v = random_state(dim, rng)
        dt = float(rng.uniform(0.05, 2.5))
        u = propagator(h, dt)
        worst_u = max(worst_u, max_norm(u.conj().T @ u - np.eye(dim)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(u @ v.amplitudes) - 1.0))
        worst_energy = max(worst_energy, check_energy_conservation(v, h, dt))

    h = random_hermitian(5, rng)
    eig = QuantumState(h.spectrum.eigenvectors[:, 2])
    out = evolve(eig, HamiltonianSchedule.constant(h, 0.0, 1.9), 13)
    for _ in range(5):
        probe = random_hermitian(5, rng)
        worst_frozen = max(worst_frozen, abs(expectation(probe, out) - expectation(probe, eig)))

    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    v0 = random_state(3, rng)
    sched = HamiltonianSchedule.from_function(
        lambda t: HermitianOperator(h0.matrix + t * h1.matrix), 0.0, 1.0
    )
    ref = evolve(v0, sched, 10_000).amplitudes

    def err(steps):
        return float(np.linalg.norm(evolve(v0, sched, steps).amplitudes - ref))

    ratio = err(16) / err(32)
    _report(
        5,
        "evolution",
        worst_u <= 1e-10
        and worst_norm <= 1e-12
        and worst_energy <= 1e-10
        and worst_frozen <= 1e-10
        and 3.6 <= ratio <= 4.4,
        f"unitarity {worst_u:.1e}, norm {worst_norm:.1e}, energy {worst_energy:.1e}, "
        f"frozen {worst_frozen:.1e}, Richardson {ratio:.2f}",
    )


# criterion 6 -------------------------------------------------------------------


def test_criterion_6_kinematics():
    alpha = 1.0
    worst_off = worst_diag = worst_corner = 0.0
    for n in range(2, 65):
        d = canonical_defect(build_fock(n, alpha))
        worst_corner = max(worst_corner, abs(d[n - 1, n - 1] + 1j * alpha * n) / max(1.0, alpha * n))
        body = np.array(d)
        body[n - 1, n - 1] = 0
        worst_diag = max(worst_diag, float(np.abs(np.diag(body)).max()))
        np.fill_diagonal(body, 0)
        worst_off = max(worst_off, max_norm(body))

    f = build_fock(64, alpha)
    state = coherent_state(f, 1.1 + 0.3j)
    shift = displacement_shift_residual(f, state, 0.1)
    pres = momentum_invariance_residual(f, state, 0.1)
    drift = photon_drift_check(f, 1.0, state, 1e-4)
    _report(
        6,
        "kinematics",
        worst_off == 0.0
        and worst_diag <= 1e-13
        and worst_corner <= 1e-12
        and shift <= 1e-6
        and pres <= 1e-10
        and drift <= 1e-5,
        f"off-diag {worst_off:.1e} (exact), diag dust {worst_diag:.1e}, corner {worst_corner:.1e}, "
        f"shift {shift:.1e}, <p> {pres:.1e}, drift {drift:.1e}",
    )


# criterion 7 -------------------------------------------------------------------


def test_criterion_7_angular_momentum():
    start = time.monotonic()
    alpha = 1.0
    worst_cyc = worst_cas = worst_rot = worst_comm = 0.0
    for n in range(2, 13):
        t = spin_operators(n, alpha)
        for a, b, c in ((t.lx, t.ly, t.lz), (t.ly, t.lz, t.lx), (t.lz, t.lx, t.ly)):
            worst_cyc = max(worst_cyc, max_norm(commutator(a, b) - 1j * alpha * c.matrix))
        worst_cas = max(
            worst_cas, max_norm(casimir_matrix(t) - alpha**2 * t.j * (t.j + 1) * np.eye(n))
        )
        rz = rotation_generator("z", t)
        worst_rot = max(
            worst_rot,
            max_norm(commutator(rz, t.lx) - 1j * t.ly.matrix),
            max_norm(commutator(rz, t.ly) + 1j * t.lx.matrix),
            max_norm(commutator(rz, t.lz)),
        )
        null_dim, resid = commutant_scalar_residual(t)
        worst_comm = max(worst_comm, resid if null_dim == 1 else math.inf)

    ratios = []
    for n, seed in ((2, 0), (3, 4), (5, 1)):
        t = spin_operators(n, alpha)
        v = random_state(n, make_rng(seed))
        ratios.append(check_rotation_identity(t, v, 0.05) / check_rotation_identity(t, v, 0.025))
    elapsed = time.monotonic() - start
    _report(
        7,
        "angular momentum",
        worst_cyc <= 1e-10
        and worst_cas <= 1e-10
        and worst_rot <= 1e-10
        and worst_comm <= 1e-8
        and all(6.0 <= r <= 10.0 for r in ratios)
        and elapsed < 20.0,
        f"commutators {worst_cyc:.1e}, casimir {worst_cas:.1e}, rotations {worst_rot:.1e}, "
        f"commutant {worst_comm:.1e}, ratios {[f'{r:.1f}' for r in ratios]}, {elapsed:.1f}s",
    )


# criterion 8 -------------------------------------------------------------------


def test_criterion_8a_bracket_axioms():
    rng = make_rng(8008)

    def rand_poly():
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            exps = tuple(int(rng.integers(0, 3)) for _ in range(4))
            terms[exps] = int(rng.integers(-5, 6))
        return CanonicalPolynomial.from_terms(terms, 2)

    failures = 0
    for _ in range(100):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        if not (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero():
            failures += 1
        if not (
            poisson_bracket(f * g, h) - f * poisson_bracket(g, h) - poisson_bracket(f, h) * g
        ).is_zero():
            failures += 1
        jac = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        if not jac.is_zero():
            failures += 1
    _report("8a", "bracket axioms exact", failures == 0, f"{failures} failures in 300 identities")


def test_criterion_8b_bracket_commutator_rule():
    rep = build_fock(64)
    pairs = [
        ("x", "p"),
        ("x", "p^2 + x^2"),
        ("x", "2*p + x"),
        ("x^2", "p"),
        ("x^2 + x", "p"),
        ("x^3", "p"),
        ("p", "x^2"),
        ("p^2", "x"),
        ("x + p", "x - p"),
        ("x^2", "x^3 + p"),
    ]
    worst = 0.0
    for fs, hs in pairs:
        r = check_dirac_rule(parse_canonical(fs), parse_canonical(hs), rep)
        worst = max(worst, r.residual / r.scale)
    _report("8b", "bracket-commutator rule on safe block", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_8c_counterexample_gap():
    # [X^3, P^3] = i*alpha*W(9 x^2 p^2) - (3/2) i alpha^3 and W(x^2 p^2) = S + alpha^2/2
    # with S = (X^2 P^2 + P^2 X^2)/2, so the gap is 9i*alpha*(alpha^2/2) - (3/2) i alpha^3
    # = 3i*alpha^3 per unit gamma; the matrix-free oracle in test_poisson.py agrees.
    for gamma, alpha in ((1.0, 1.0), (2.0, 0.7), (-1.5, 1.3)):
        ce = counterexample_report(gamma, build_fock(64, alpha))
        required = 3j * gamma * alpha**3
        scalar_ok = ce.off_scalar_residual <= 1e-8
        value_ok = abs(ce.scalar - required) <= 1e-8
        _report(
            "8c",
            f"counterexample gap, gamma={gamma}, alpha={alpha}",
            scalar_ok and value_ok,
            f"gap is a scalar matrix (off-scalar {ce.off_scalar_residual:.1e}); "
            f"measured {ce.scalar:.9f} vs required 3i*gamma*alpha^3 = {required:.9f}",
        )


# criterion 9 -------------------------------------------------------------------


def _run_verify(threads: int) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] + sys.path
    )
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "avcp.cli", "verify", "all", "--seed", "7"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_determinism():
    runs = [_run_verify(1), _run_verify(1), _run_verify(2), _run_verify(4)]
    identical = all(r == runs[0] for r in runs)
    parsed = json.loads(runs[0])
    _report(
        9,
        "byte-identical verification reports",
        identical and parsed["passed"],
        f"{len(runs)} runs across thread counts 1/1/2/4",
    )
