"""Report bytes pinned in tier-1: the sha256 of (exit code, stdout, stderr) of each invocation in a corpus.

Each line of `CORPUS` is one `avcp` command line, run in process through `cli.main` in a folder that
holds the inputs `_write_inputs` draws from its own seeded generator; a leading `AVCP_ALPHA=...` word
sets that variable for the one run, and a `check_avcp SPEC` line digests `repr(check_avcp(spec))`.
Relative file names keep paths out of every message.  Inputs that end in a traceback are left out,
since a traceback prints paths and line numbers.

The manifest `report_bytes.json` also records the numpy version and the BLAS the digests were taken
under; in another numpy or BLAS the test is an xfail that names both.  A change that moves bytes on
purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_report_bytes.py

which prints each key whose digest changed, was added or was removed, and lists each changed key,
with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from avcp.cli import main
from avcp.experiments import ExperimentSpec, check_avcp
from avcp.expressions import COMMUTATION_RTOL, BindingSet
from avcp.operators import commutator, max_norm

MANIFEST = Path(__file__).with_name("report_bytes.json")

SEEDS = (*range(12), 17, 23, 98, 133)
EXPERIMENTS = ("split_d6", "same_d6", "three_d6", "local_d12", "split_d12", "same_d16", "three_d16", "named_d12",
               "split_d32", "three_d32")
CHECKED = ("exact_separable", "exact_named", "exact_local", "three_d16")
CORPUS = (
    *(f"verify all --seed {s}{fmt}" for s in SEEDS for fmt in ("", " --format text")),
    "verify all --alpha 0.7 --levels 40",
    "verify avcp --bindings bindings_d4.json --format text",
    "verify poisson --levels 8 --format text",
    "kinematics verify --seed 5",
    "angular verify --dims 2..6 --format text",
    *(f"demo {name}{fmt}" for name in ("a-squared", "a-plus-b", "hermitization", "poisson-counterexample")
      for fmt in ("", " --format text")),
    "poisson check",
    "poisson check --f x^3 --h p^3 --levels 40",
    "poisson check --f x*p --h p^2 --format text",
    "poisson check --f x^2 --h p^2 --alpha 0.5",
    "poisson counterexample",
    "poisson counterexample --gamma 0.5 --levels 40 --format text",
    "quantize A+0.5*B --bindings bindings_d4.json",
    "quantize A^2+cos(A) --bindings bindings_d4.json --format text",
    "quantize A*B --bindings bindings_d4.json",
    *(f"experiment {name}.json" for name in EXPERIMENTS),
    "experiment three_d6.json --seed 4 --trials 3000 --format text",
    "experiment same_d16.json --format text",
    "experiment window_d256.json",
    "experiment window_d256.json --alpha 2",
    "AVCP_ALPHA=0.5 experiment window_d256.json",
    "experiment window_d256.json --alpha 0.3",
    "evolve --state state_d256.json --schedule schedule_d256.json",
    "evolve --state state_d256.json --schedule schedule_d256.json --alpha 0.3",
    "evolve --state state_d256.json --schedule schedule_d256.json --alpha 0",
    "evolve --state state_d12.json --schedule pieces_d12.json --steps 40 --format text",
    *(f"check_avcp {name}.json" for name in CHECKED),
    # the error lines of inputs that recent changes reject
    "experiment bad_steps.json",
    "experiment bad_n_trials.json",
    "experiment bad_seed.json",
    "experiment bad_t1.json",
    "experiment bad_groups.json",
    "experiment target_in_implementation.json",
    "experiment unbound_f.json",
    "experiment over_budget.json",
    "experiment not_json.json",
    "experiment missing.json",
    "experiment split_d6.json --levels 8",
    "evolve --state state_d12.json --schedule alpha_true.json",
    "evolve --state state_d12.json --schedule pieces_d12.json --steps 0",
    "AVCP_ALPHA=abc evolve --state state_d12.json --schedule pieces_d12.json",
    "AVCP_ALPHA=abc experiment split_d6.json",
    "verify nosuch",
    "verify angular --dims 5..3",
    "demo nosuch",
    "quantize A --bindings list.json",
    "quantize A --bindings string.json",
    "quantize A --bindings wrapped_list.json",
    "experiment list_bindings.json",
    "verify avcp --bindings wrapped_list.json",
    "experiment string_steps.json",
    "experiment string_n_trials.json",
    "experiment string_seed.json",
    "experiment string_seed.json --seed 1",
    "experiment bad_counts.json",
    "experiment bad_counts.json --trials 10 --seed 1",
    "evolve --state state_d256.json --schedule twin_pieces_d256.json",
    "experiment string_implementation.json",
    "experiment flat_groups.json",
    "experiment number_f.json",
    "experiment list_target.json",
    "experiment fractional_factor_dims.json",
    "experiment bool_subsystem.json",
    "experiment number_factor_dims.json",
    "experiment number_binding_factor_dims.json",
    "experiment short_re.json",
    "experiment long_im.json",
    "experiment zero_n_trials.json",
    "experiment zero_n_trials.json --trials 5",
    "experiment negative_n_trials.json",
    "experiment negative_n_trials.json --trials 5",
    "experiment negative_seed.json",
    "experiment negative_seed.json --seed 3",
    "experiment repeated_name.json",
    "experiment repeated_name_groups.json",
    "experiment split_d6.json --trials 0",
    "experiment split_d6.json --seed -1",
    "demo a-plus-b --trials 0",
    "demo a-plus-b --seed -1",
    "verify operators --seed -1",
    "kinematics verify --seed -1",
    "evolve --state bool_entry_d12.json --schedule pieces_d12.json",
)


def _write_inputs(folder: Path) -> None:
    """Every input file of the corpus, drawn from one seeded generator."""
    rng = np.random.default_rng(2108)

    def hermitian(d):  # entries of 3 decimals keep the files short; m + m^H is exactly Hermitian
        m = np.round(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 3)
        return m + m.conj().T

    def commuting(d, *spectra):  # one random eigenbasis for all; (m + m^H) / 2 is exactly Hermitian
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        return [((q * s) @ q.conj().T + ((q * s) @ q.conj().T).conj().T) / 2 for s in spectra]

    def array(a):
        return {"dim": a.shape[0], "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}

    def state(d):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return array(v / np.linalg.norm(v))

    def write(name, doc):
        (folder / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))

    def spec(d, ops, f, n_trials, **extra):
        return {"state": state(d), "bindings": {k: array(m) for k, m in ops.items()},
                "implementation": list(ops), "f": f, "n_trials": n_trials, "seed": int(rng.integers(2**31)),
                **extra}

    def degenerate_pair(d):  # A with three d/3-fold eigenvalues, B generic in the same basis
        return dict(zip("AB", commuting(d, np.arange(d) % 3 - 1.0, rng.normal(size=d))))

    for d, n in ((6, 20000), (12, 10000), (32, 4000)):
        write(f"split_d{d}.json", spec(d, {"A": hermitian(d), "B": hermitian(d)}, "A + 0.5*B", n))
    for d, n in ((6, 20000), (16, 5000)):
        write(f"same_d{d}.json", spec(d, degenerate_pair(d), "A*B", n))
    for d, n in ((6, 20000), (16, 5000), (32, 4000)):
        write(f"three_d{d}.json", spec(d, {**degenerate_pair(d), "C": hermitian(d)}, "A*B - 1.5*C", n))
    local = spec(12, {}, "A*B + cos(A)", 8000)
    local["bindings"] = {"bindings": {"A": {"operator": array(hermitian(2)), "subsystem": 0},
                                      "B": {"operator": array(hermitian(6)), "subsystem": 1}}, "factor_dims": [2, 6]}
    local["implementation"] = ["A", "B"]
    write("local_d12.json", local)
    named = spec(12, {"A": hermitian(12), "B": hermitian(12), "T": hermitian(12)}, "A*B", 6000, target="T")
    named["implementation"] = ["A", "B"]
    write("named_d12.json", named)

    write("exact_separable.json", spec(8, {k: hermitian(8) for k in "ABC"}, "A + 2*B^2 + 3*cos(C)", 1))
    exact_named = spec(20, {"A": hermitian(20), "B": hermitian(20), "T": hermitian(20)}, "A*B", 1, target="T")
    exact_named["implementation"] = ["A", "B"]
    write("exact_named.json", exact_named)
    exact_local = spec(12, {"C": hermitian(12)}, "A*B + 0.5*C", 1)
    exact_local["bindings"] = {"bindings": {"A": {"operator": array(hermitian(3)), "subsystem": 0},
                                            "B": {"operator": array(hermitian(4)), "subsystem": 1},
                                            "C": array(hermitian(12))}, "factor_dims": [3, 4]}
    exact_local["implementation"] = ["A", "B", "C"]
    write("exact_local.json", exact_local)

    a, b = hermitian(256), hermitian(256)
    window = {"schedule": [{"t0": 0.0, "t1": 1.0, "operator": array(a + b)}], "t1": 0.4, "t2": 0.9, "steps": 128}
    write("window_d256.json", spec(256, {"A": a, "B": b}, "A + B", 8, evolution=window))
    write("state_d256.json", state(256))
    write("schedule_d256.json", [{"t0": 0.0, "t1": 1.0, "operator": array(hermitian(256))}])
    write("state_d12.json", state(12))
    pieces = [{"t0": 0.0, "t1": 0.5, "operator": array(hermitian(12))},
              {"t0": 0.5, "t1": 1.5, "operator": array(hermitian(12))}]
    write("pieces_d12.json", {"alpha": 0.5, "pieces": pieces})
    write("alpha_true.json", {"alpha": True, "pieces": pieces})
    write("bindings_d4.json", {"A": array(hermitian(4)), "B": array(hermitian(4))})

    small = {"A": hermitian(3), "B": hermitian(3)}
    small_window = {"schedule": [{"t0": 0.0, "t1": 1.0, "operator": array(hermitian(3))}], "t1": 0.2, "t2": 0.6}
    write("bad_steps.json", spec(3, small, "A + B", 100, evolution={**small_window, "steps": 2.7}))
    write("bad_n_trials.json", spec(3, small, "A + B", 2.7))
    write("bad_seed.json", {**spec(3, small, "A + B", 100), "seed": True})
    write("bad_t1.json", spec(3, small, "A + B", 100, evolution={**small_window, "t1": 2.0}))
    write("bad_groups.json", spec(3, small, "A + B", 100, groups=[["A", "B"]]))
    write("target_in_implementation.json", spec(3, small, "A + B", 100, target="A"))
    write("unbound_f.json", spec(3, small, "A + C", 100))
    write("over_budget.json", spec(101, {k: hermitian(101) for k in "ABC"}, "A + B + C", 100))
    write("not_json.json", '{"state": ')
    write("list.json", [1])
    write("string.json", "abc")
    write("wrapped_list.json", {"bindings": [1]})
    write("list_bindings.json", {**spec(3, small, "A + B", 100), "bindings": [1]})
    write("string_steps.json", spec(3, small, "A + B", 100, evolution={**small_window, "steps": "128"}))
    write("string_n_trials.json", spec(3, small, "A + B", "100"))
    write("string_seed.json", {**spec(3, small, "A + B", 100), "seed": "7"})
    write("bad_counts.json", {**spec(3, small, "A + B", 100), "n_trials": "x", "seed": {}})
    twin = array(hermitian(256))  # two pieces with equal operator dicts: one run each
    write("twin_pieces_d256.json", [{"t0": 0.0, "t1": 0.5, "operator": twin}, {"t0": 0.5, "t1": 1.0, "operator": twin}])
    write("string_implementation.json", {**spec(3, small, "A + B", 100), "implementation": "AB"})
    write("flat_groups.json", spec(3, small, "A + B", 100, groups=["A", "B"]))
    write("number_f.json", {**spec(3, small, "A + B", 100), "f": 3})
    write("list_target.json", spec(3, small, "A + B", 100, target=["C"]))
    fractional = spec(3, small, "A + B", 100)
    fractional["state"]["factor_dims"] = [3.5]
    write("fractional_factor_dims.json", fractional)
    write("bool_subsystem.json", {**spec(3, small, "A + B", 100), "bindings": {
        "bindings": {"A": {"operator": array(small["A"]), "subsystem": True}, "B": array(small["B"])},
        "factor_dims": [3]}})
    number_dims = spec(3, small, "A + B", 100)
    number_dims["state"]["factor_dims"] = 3
    write("number_factor_dims.json", number_dims)
    write("number_binding_factor_dims.json", {**spec(3, small, "A + B", 100), "bindings": {
        "bindings": {"A": {"operator": array(small["A"]), "subsystem": 0}, "B": array(small["B"])}, "factor_dims": 3}})
    short_re = spec(3, small, "A + B", 100)
    short_re["state"]["re"] = short_re["state"]["re"][:2]
    write("short_re.json", short_re)
    long_im = spec(3, small, "A + B", 100)
    long_im["bindings"]["B"]["im"] += [0.0]
    write("long_im.json", long_im)
    write("zero_n_trials.json", spec(3, small, "A + B", 0))
    write("negative_n_trials.json", spec(3, small, "A + B", -1))
    write("negative_seed.json", {**spec(3, small, "A + B", 100), "seed": -1})
    repeated = {**spec(3, small, "A*A", 100), "implementation": ["A", "A"]}
    write("repeated_name.json", repeated)
    write("repeated_name_groups.json", {**repeated, "groups": [["A"], ["A"]]})
    bool_entry = json.loads((folder / "state_d12.json").read_text())  # one entry a JSON true, which is no real number
    bool_entry["re"][3] = True
    write("bool_entry_d12.json", bool_entry)


def _run(line: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one corpus line, run in the current folder."""
    words = shlex.split(line)
    env = dict(w.split("=", 1) for w in words if w.startswith("AVCP_ALPHA="))
    words = [w for w in words if not w.startswith("AVCP_ALPHA=")]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("AVCP_ALPHA", None)
        os.environ.update(env)
        if words[0] == "check_avcp":
            with open(words[1]) as fh:
                print(repr(check_avcp(ExperimentSpec.from_dict(json.load(fh)))))
            code = 0
        else:
            code = main(words)
    return code, out.getvalue(), err.getvalue()


def _digests(folder: Path) -> dict[str, str]:
    _write_inputs(folder)
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        return {line: hashlib.sha256(json.dumps(_run(line)).encode()).hexdigest() for line in CORPUS}
    finally:
        os.chdir(cwd)


def _environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


_RECORDED = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"environment": None, "digests": {}}


@pytest.mark.xfail(
    _environment() != _RECORDED["environment"],
    reason=f"digests recorded under {_RECORDED['environment']}, this is {_environment()}",
)
def test_report_bytes_match_the_manifest(tmp_path):
    got, want = _digests(tmp_path), _RECORDED["digests"]
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, f"report bytes changed for: {changed}"


def _full_product_commute(self, a, b):
    """`BindingSet.commute` without its cache: the full product of every pair of different names."""
    ma, mb = self.embedded(a).matrix, self.embedded(b).matrix
    return a == b or max_norm(commutator(ma, mb)) <= COMMUTATION_RTOL * max_norm(ma) * max_norm(mb)


def test_set_up_plans_match_the_full_product_commutation(tmp_path):
    _write_inputs(tmp_path)
    for name in (*EXPERIMENTS, *CHECKED, "window_d256"):
        doc = json.loads((tmp_path / f"{name}.json").read_text())
        groups = ExperimentSpec.from_dict(doc).plan.groups
        with mock.patch.object(BindingSet, "commute", _full_product_commute):
            assert ExperimentSpec.from_dict(doc).plan.groups == groups, name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        manifest = {"environment": _environment(), "digests": _digests(Path(folder))}
    old, new = _RECORDED["digests"], manifest["digests"]
    if _RECORDED["environment"] != manifest["environment"]:
        sys.stdout.write(f"environment: {_RECORDED['environment']} -> {manifest['environment']}\n")
    for key in new:
        if key not in old:
            sys.stdout.write(f"added: {key}\n")
        elif old[key] != new[key]:
            sys.stdout.write(f"changed: {key}\n")
    for key in sorted(old.keys() - new.keys()):
        sys.stdout.write(f"removed: {key}\n")
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(new)} digests to {MANIFEST}\n")
