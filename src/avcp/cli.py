"""Command-line interface.

Each subcommand takes --format, --out and, of --seed, --trials, --alpha,
--levels and --dims, only the options it reads; any other is a usage error.
Exit codes: 0 success; 1 bad usage, unreadable input, or malformed
expression; 2 expression or bracket-rule input rejected as non-simple;
3 verification failure.  Stochastic commands are reproducible: the same
seed yields byte-identical output.  The environment variable AVCP_ALPHA
overrides the default evolution constant; an explicit --alpha flag wins over
both, and a schedule file's own "alpha" wins over all three.  For `avcp
experiment`, an explicit --seed or --trials wins over the spec's "seed" or
"n_trials", which wins over the default.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from json.decoder import JSONArray
from json.scanner import py_make_scanner
from math import hypot

# each handler imports the modules it runs, so a command loads no module it does not use
from .errors import AvcpError, NonSimpleExpression, NonSimpleInput

#: the spec of every shared option; each subcommand names the ones it reads
_OPTIONS = {
    "seed": {"type": int, "default": 0},
    "trials": {"type": int, "default": 10000},
    "alpha": {"type": float, "default": None},
    "levels": {"type": int, "default": 64},
    "dims": {"default": "2..12", "help": "dimension range, e.g. 2..12"},
    "format": {"choices": ("json", "text"), "default": "json"},
    "out": {"default": None},
}
_VERIFY_OPTIONS = ("seed", "alpha", "levels", "dims")


def _alpha(args) -> float:
    """--alpha, else the environment variable AVCP_ALPHA, else 1.0."""
    return args.alpha if args.alpha is not None else float(os.environ.get("AVCP_ALPHA", "1.0"))


def _emit(payload, fmt: str, out: str | None, text=None) -> None:
    if fmt == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        body = (text() if text else str(payload)) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


#: the most characters of an array one orjson call reads: each call holds a copy of its input and a parse tree
_CHUNK = 1 << 16


class _Decoder(json.JSONDecoder):
    """json's decoder, except that `loads` (orjson's) reads each flat array of numbers, in chunks cut at commas."""

    def __init__(self, loads):
        super().__init__()
        self._loads = loads
        self.parse_array = self._flat_array  # before the scanner is built, which reads parse_array then
        self.scan_once = py_make_scanner(self)  # the C scanner never calls parse_array

    def _flat_array(self, s_and_end, scan_once):
        s, start = s_and_end
        close, values = s.find("]", start), []
        if close >= 0 and all(s.find(c, start, close) < 0 for c in '[{"'):  # commas only separate values
            with contextlib.suppress(ValueError, TypeError):  # NaN, Infinity, 1e400, malformed text; TypeError: a null
                while (cut := s.rfind(",", start, start + _CHUNK) if close - start > _CHUNK else close) >= 0:
                    part = self._loads(f"[{s[start:cut]}]")
                    # [] is a missing value; orjson reads an int beyond 64 bits as a float, and hypot, one C pass
                    # over the chunk, is at least every |value|, so only a chunk it lifts to 2**63 needs min and max
                    if not part or hypot(*part) >= 2**63 and (min(part) <= -2**63 or max(part) >= 2**63):
                        break
                    values += part
                    if cut == close:
                        return values, close + 1
                    start = cut + 1
        return JSONArray(s_and_end, scan_once)  # also for a value longer than a chunk


def _load_json(path: str):
    """The JSON value in the UTF-8 file at `path`, with `json.load`'s values and errors."""
    import orjson

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with contextlib.suppress(ValueError, RecursionError):  # json's own errors, also for nesting too deep here
        # json's Python scanner reads a non-ASCII decimal digit as a digit, where its C scanner stops
        if text.isascii() or not any(map(str.isdecimal, text.encode().translate(None, bytes(range(128))).decode())):
            return _Decoder(orjson.loads).decode(text)
    return json.loads(text)


def _parse_dims(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if not 2 <= lo <= hi:
        raise ValueError(f"bad dimension range {text!r}")
    return lo, hi


def _add_command(sub, name: str, summary: str, run, options=()) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    for option in (*options, "format", "out"):
        p.add_argument(f"--{option}", **_OPTIONS[option])
    p.set_defaults(run=run)
    return p


@functools.cache  # built once per process: parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="avcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "quantize", "quantize an observable expression", _quantize)
    p.add_argument("expression")
    p.add_argument("--bindings", required=True, help="JSON file of measurement bindings")

    p = _add_command(sub, "experiment", "run a multi-copy experiment from a JSON spec", _experiment,
                     ("seed", "trials", "alpha"))
    p.add_argument("spec", help="experiment JSON file")
    p.set_defaults(seed=None, trials=None)  # unset: the spec's "seed" and "n_trials", else the usual defaults

    p = _add_command(sub, "verify", "run a verification suite", _verify, _VERIFY_OPTIONS)
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--bindings", default=None, help="also validate this bindings file")

    p = _add_command(sub, "demo", "run a named demonstration", _demo, ("seed", "trials", "alpha"))
    p.add_argument("name")

    p = _add_command(sub, "evolve", "evolve a state along a Hamiltonian schedule", _evolve, ("alpha",))
    p.add_argument("--state", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--steps", type=int, default=None)  # unset: evolution.DEFAULT_STEPS

    for suite, summary in (("kinematics", "position/momentum representation checks"),
                           ("angular", "angular momentum checks")):
        p = _add_command(sub, suite, summary, _verify, _VERIFY_OPTIONS)
        p.add_argument("action", nargs="?", default="verify", choices=("verify",))
        p.set_defaults(suite=suite, bindings=None)

    p = _add_command(sub, "poisson", "bracket rule checks", _poisson, ("alpha", "levels"))
    p.add_argument("action", nargs="?", default="check", choices=("check", "counterexample"))
    p.add_argument("--f", default="x", help="first polynomial")
    p.add_argument("--h", default="p^2 + x^2", help="second polynomial")
    p.add_argument("--gamma", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 0 if exc.code in (0, None) else 1
    from .operators import whole_number  # after parse_args: a usage error or --help loads no numpy

    try:
        for flag, least in (("trials", 1), ("seed", 0), ("steps", 1), ("levels", 2)):  # each count flag it has
            if getattr(args, flag, None) is not None:  # None: experiment's unset --trials and --seed
                whole_number(getattr(args, flag), f"--{flag}", least)
        try:  # each subcommand returns (payload, text renderer or None, exit code) and writes nothing
            payload, text, code = args.run(args)
        except NonSimpleExpression as exc:
            pairs = [list(p) for p in exc.offending_pairs]
            payload, text, code = _non_simple(exc, "expression", "offending_pairs", pairs)
        except NonSimpleInput as exc:
            failures = {k: [list(p) for p in v] for k, v in exc.failures.items()}
            payload, text, code = _non_simple(exc, "input", "failures", failures)
        _emit(payload, args.format, args.out, text)
        return code
    # a RecursionError is input nested deeper than json's scanner or the expression parser can follow
    except (AvcpError, OSError, KeyError, ValueError, TypeError, RecursionError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def _non_simple(exc: AvcpError, what: str, key: str, value):
    """A non-simple expression or bracket-rule input, reported on stdout with exit code 2."""
    return {"error": type(exc).__name__, key: value}, lambda: f"non-simple {what}; {key.replace('_', ' ')}: {value}", 2


def _quantize(args):
    from .expressions import BindingSet, parse, quantize
    from .operators import operator_to_dict

    bindings = BindingSet.from_dict(_load_json(args.bindings))
    op = quantize(parse(args.expression), bindings)
    return operator_to_dict(op), lambda: _operator_text(op.matrix), 0  # lazy: d = 256 is 65,536 entries


def _experiment(args):
    from .experiments import ExperimentSpec, run_trials
    from .operators import whole_number

    raw = _load_json(args.spec)
    alpha = _alpha(args) if isinstance(raw, dict) and raw.get("evolution") else 1.0  # only a window reads alpha
    spec = ExperimentSpec.from_dict(raw, alpha)
    n = whole_number(raw.get("n_trials", _OPTIONS["trials"]["default"]), "n_trials", 1)  # checked though a flag wins
    seed = whole_number(raw.get("seed", _OPTIONS["seed"]["default"]), "seed", 0)
    report = run_trials(spec, n if args.trials is None else args.trials, seed if args.seed is None else args.seed)
    return report.to_dict(), report.to_text, 0


def _verify(args):
    """`avcp verify`, and `avcp kinematics|angular verify` as its aliases."""
    from .verify import render_text, run_suite

    extra = _load_json(args.bindings) if args.bindings else None
    report = run_suite(args.suite, seed=args.seed, alpha=_alpha(args), levels=args.levels,
                       dims=_parse_dims(args.dims), extra_bindings=extra)
    return report, lambda: render_text(report), 0 if report["passed"] else 3


def _demo(args):
    from .demos import run_demo

    payload, text = run_demo(args.name, seed=args.seed, trials=args.trials, alpha=_alpha(args))
    return payload, lambda: text, 0


def _evolve(args):
    from .evolution import DEFAULT_STEPS, HamiltonianSchedule, evolve
    from .operators import state_from_dict, state_to_dict

    state = state_from_dict(_load_json(args.state))
    sched = HamiltonianSchedule.from_dict(_load_json(args.schedule), _alpha(args))
    steps = DEFAULT_STEPS if args.steps is None else args.steps
    return state_to_dict(evolve(state, sched, steps)), None, 0


def _poisson(args):
    from .expressions import to_string
    from .kinematics import build_fock
    from .poisson import check_dirac_rule, counterexample_report, parse_canonical

    rep = build_fock(args.levels, _alpha(args))
    if args.action == "counterexample":
        return counterexample_report(args.gamma, rep).to_dict(), None, 0
    r = check_dirac_rule(parse_canonical(args.f), parse_canonical(args.h), rep)
    payload = {k: getattr(r, k) for k in ("residual", "scale", "tolerance", "safe_dim", "passed")}
    payload = {"f": args.f, "h": args.h, "bracket": to_string(r.bracket.to_expr()), **payload}
    return payload, None, 0 if r.passed else 3


def _operator_text(m) -> str:
    return "\n".join("  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) for row in m)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
