"""Command-line interface.

Exit codes: 0 success; 1 bad usage, unreadable input, or malformed
expression; 2 expression rejected as non-simple; 3 verification failure.
Stochastic commands are reproducible: the same seed yields byte-identical
output.  The environment variable AVCP_ALPHA overrides the default evolution
constant; an explicit --alpha flag wins over both, and a schedule file's own
"alpha" wins over all three.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import demos as demo_mod
from . import expressions as ex
from . import verify as verify_mod
from .errors import AvcpError, NonSimpleExpression
from .evolution import HamiltonianSchedule, evolve
from .experiments import ExperimentSpec, run_trials
from .expressions import BindingSet
from .kinematics import build_fock
from .operators import operator_to_dict, state_from_dict, state_to_dict
from .poisson import check_dirac_rule, counterexample_report, parse_canonical


def _default_alpha() -> float:
    return float(os.environ.get("AVCP_ALPHA", "1.0"))


def _emit(payload, fmt: str, out: str | None, text_renderer=None) -> None:
    if fmt == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        body = (text_renderer(payload) if text_renderer else str(payload)) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _schedule_with_alpha(raw, alpha: float):
    """A schedule's JSON with `alpha` filled in from the command line unless it sets its own."""
    return {"alpha": alpha, "pieces": raw} if isinstance(raw, list) else {"alpha": alpha, **raw}


def _parse_dims(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if not 2 <= lo <= hi:
        raise ValueError(f"bad dimension range {text!r}")
    return lo, hi


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--levels", type=int, default=64)
    p.add_argument("--dims", type=str, default="2..12", help="dimension range, e.g. 2..12")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", type=str, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="avcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="quantize an observable expression")
    p.add_argument("expression")
    p.add_argument("--bindings", required=True, help="JSON file of measurement bindings")
    _add_common(p)

    p = sub.add_parser("experiment", help="run a multi-copy experiment from a JSON spec")
    p.add_argument("spec", help="experiment JSON file")
    _add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--bindings", default=None, help="also validate this bindings file")
    p.set_defaults(action="verify")
    _add_common(p)

    p = sub.add_parser("demo", help="run a named demonstration")
    p.add_argument("name")
    _add_common(p)

    p = sub.add_parser("evolve", help="evolve a state along a Hamiltonian schedule")
    p.add_argument("--state", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--steps", type=int, default=128)
    _add_common(p)

    p = sub.add_parser("kinematics", help="position/momentum representation checks")
    p.add_argument("action", nargs="?", default="verify")
    p.set_defaults(suite="kinematics", bindings=None)
    _add_common(p)

    p = sub.add_parser("angular", help="angular momentum checks")
    p.add_argument("action", nargs="?", default="verify")
    p.set_defaults(suite="angular", bindings=None)
    _add_common(p)

    p = sub.add_parser("poisson", help="bracket rule checks")
    p.add_argument("action", nargs="?", default="check")
    p.add_argument("--f", default="x", help="first polynomial")
    p.add_argument("--h", default="p^2 + x^2", help="second polynomial")
    p.add_argument("--gamma", type=float, default=1.0)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 0 if exc.code in (0, None) else 1
    alpha = args.alpha if args.alpha is not None else _default_alpha()
    try:
        return _dispatch(args, alpha)
    except NonSimpleExpression as exc:
        _emit(
            {"error": "NonSimpleExpression", "offending_pairs": [list(p) for p in exc.offending_pairs]},
            args.format,
            args.out,
            text_renderer=lambda d: f"non-simple expression; offending pairs: {d['offending_pairs']}",
        )
        return 2
    except AvcpError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def _dispatch(args, alpha: float) -> int:
    if args.command == "quantize":
        bindings = BindingSet.from_dict(_load_json(args.bindings))
        op = ex.quantize(ex.parse(args.expression), bindings)
        _emit(operator_to_dict(op), args.format, args.out, text_renderer=_operator_text)
        return 0

    if args.command == "experiment":
        raw = _load_json(args.spec)
        if isinstance(raw, dict) and raw.get("evolution"):
            raw["evolution"]["schedule"] = _schedule_with_alpha(raw["evolution"]["schedule"], alpha)
        spec = ExperimentSpec.from_dict(raw)
        n = int(raw.get("n_trials", args.trials))
        seed = int(raw.get("seed", args.seed))
        report = run_trials(spec, n, seed)
        _emit(report.to_dict(), args.format, args.out, text_renderer=lambda d: report.to_text())
        return 0

    if args.command in ("verify", "kinematics", "angular"):
        if args.action != "verify":
            raise ValueError(f"unknown {args.command} action {args.action!r}")
        extra = _load_json(args.bindings) if args.bindings else None
        report = verify_mod.run_suite(
            args.suite,
            seed=args.seed,
            alpha=alpha,
            levels=args.levels,
            dims=_parse_dims(args.dims),
            extra_bindings=extra,
        )
        _emit(report, args.format, args.out, text_renderer=verify_mod.render_text)
        return 0 if report["passed"] else 3

    if args.command == "demo":
        payload, text = demo_mod.run_demo(args.name, seed=args.seed, trials=args.trials, alpha=alpha)
        _emit(payload, args.format, args.out, text_renderer=lambda d: text)
        return 0

    if args.command == "evolve":
        state = state_from_dict(_load_json(args.state))
        sched = HamiltonianSchedule.from_dict(_schedule_with_alpha(_load_json(args.schedule), alpha))
        final = evolve(state, sched, args.steps)
        _emit(state_to_dict(final), args.format, args.out)
        return 0

    if args.command == "poisson":
        rep = build_fock(args.levels, alpha)
        if args.action == "check":
            r = check_dirac_rule(parse_canonical(args.f), parse_canonical(args.h), rep)
            payload = {
                "f": args.f,
                "h": args.h,
                "bracket": ex.to_string(r.bracket.to_expr()),
                "residual": r.residual,
                "scale": r.scale,
                "tolerance": r.tolerance,
                "safe_dim": r.safe_dim,
                "passed": r.passed,
            }
            _emit(payload, args.format, args.out)
            return 0 if r.passed else 3
        if args.action == "counterexample":
            ce = counterexample_report(args.gamma, rep)
            _emit(ce.to_dict(), args.format, args.out)
            return 0
        raise ValueError(f"unknown poisson action {args.action!r}")

    raise ValueError(f"unknown command {args.command!r}")


def _operator_text(d: dict) -> str:
    n = d["dim"]
    rows = []
    for i in range(n):
        cells = []
        for j in range(n):
            re = d["re"][i * n + j]
            im = d["im"][i * n + j]
            cells.append(f"{re:+.6f}{im:+.6f}j")
        rows.append("  ".join(cells))
    return "\n".join(rows)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
