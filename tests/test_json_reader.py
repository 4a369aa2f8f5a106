"""`cli._load_json` reads every document as `json.load` does: the same values, leaf types and errors.

orjson reads each flat array of numbers in chunks cut at commas (`cli._CHUNK` characters at most), and json reads
the rest, so the documents below mix what orjson reads differently from json (NaN, 1e400, integers beyond 64 bits,
null, digits other than 0-9), malformed tokens inside a chunk and on a chunk boundary, and deep nesting.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avcp.cli import _CHUNK, _Decoder, _load_json

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

NUMBERS = (
    "0", "-0", "-0.0", "0.0", "1", "-1", "1.5", "1e5", "1E5", "1e-5", "2.5e+10", "-3.25E-7", "1e-400", "4.9e-324",
    "1.7976931348623157e308", "0.1000000000000000055511151231257827", "123456789012345678901234567890",
    "-123456789012345678901234567890", *(str(sign * (2**63 + k)) for sign in (1, -1) for k in (-1, 0, 1)),
    str(2**64 - 1), str(2**64), str(-(2**64)), "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
)
LITERALS = ("true", "false", "null")
MALFORMED = ("01", "1.", "+1", "", " ", "-", ".5", "1e", "0x10", "1١", "١")  # "" and " " make `,,` and `, ,`
WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)


def _read(path):
    """('ok', value) or (exception type, message), for `_load_json` and for `json.load`."""
    def outcome(load):
        try:
            return "ok", _tagged(load(path))
        except Exception as exc:  # noqa: BLE001 - the type is part of what is compared
            return type(exc).__name__, str(exc)

    def json_load(p):
        with open(p, encoding="utf-8") as fh:
            return json.load(fh)

    return outcome(_load_json), outcome(json_load)


def _tagged(value):
    """The value with each leaf as (type name, repr), so 1 and 1.0, 0.0 and -0.0, and NaN compare as they differ."""
    if isinstance(value, list):
        return [_tagged(v) for v in value]
    if isinstance(value, dict):
        return {k: _tagged(v) for k, v in value.items()}
    return type(value).__name__, repr(value)


def _assert_same(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    path.write_text(text, encoding="utf-8")
    ours, theirs = _read(path)
    assert ours == theirs


def _documents(tokens):
    def array(children):
        return st.builds(lambda ws, items: "[" + ws + ",".join(items) + ws + "]", WHITESPACE, st.lists(children))

    def obj(children):
        member = st.builds(lambda k, ws, v: f"{json.dumps(k)}{ws}:{ws}{v}", st.text(max_size=4), WHITESPACE, children)
        return st.builds(lambda items: "{" + ",".join(items) + "}", st.lists(member, max_size=3))

    padded = st.builds(lambda a, t, b: a + t + b, WHITESPACE, tokens, WHITESPACE)
    return st.recursive(padded, lambda children: st.one_of(array(children), obj(children)), max_leaves=30)


VALID = st.one_of(
    st.sampled_from(NUMBERS + LITERALS),
    st.floats().map(json.dumps),  # NaN and ±Infinity too
    st.integers().map(str),
    st.text(alphabet=st.sampled_from('],[{" café١\\'), max_size=6).map(json.dumps),  # `]` and `,` inside strings
)


@given(_documents(VALID))
def test_documents_read_as_json_reads_them(tmp_path_factory, text):
    _assert_same(text, tmp_path_factory)


@given(_documents(st.one_of(VALID, st.sampled_from(MALFORMED))))
def test_malformed_documents_raise_what_json_raises(tmp_path_factory, text):
    _assert_same(text, tmp_path_factory)


@pytest.mark.parametrize("text", ["[1,2,]", "[1,,2]", "[1, ,2]", "[,1]", "[1 2]", "[ ]", "[]", "[1]x", "﻿[1]", "",
                                  "[1, null, 2]", f"[{2**64}, 1]", "[1e400]", "[1١]", '{"a": [1, 2١]}', '"café"',
                                  f"[,{' ' * _CHUNK}1]", f"[1,{' ' * _CHUNK},1]", f"[1,{' ' * _CHUNK}2]",
                                  f"[{'9' * 4000}, 1]", f"[{'9' * 5000}]"])  # json reads at most 4300 digits
def test_edge_documents(tmp_path_factory, text):
    _assert_same(text, tmp_path_factory)


@given(st.integers(0, 2**32), st.sampled_from(MALFORMED + ("1,",)), st.integers(-2, 2),
       st.sampled_from(NUMBERS + LITERALS))
def test_arrays_longer_than_a_chunk(tmp_path_factory, seed, bad, offset, special):
    """A long flat array with one malformed token near the first chunk's cut, just before it, or just after it.

    Every other token is 32 characters wide, so the cut falls at the same comma whatever the token after the cut is.
    """
    rng = random.Random(seed)
    tokens = [f"{rng.choice(' -')}{rng.uniform(1, 10):.25e}"[:-3] + f"{rng.choice('+-')}{rng.randint(10, 18)}"
              for _ in range(3 * _CHUNK // 32)]  # 26-digit mantissas; without `special`, no value reaches 2**63
    tokens[rng.randrange(len(tokens))] = special.rjust(32)
    body = ",".join(tokens)
    first_after_cut = (body.rfind(",", 0, _CHUNK) + 1) // 33
    if bad == "1,":  # a trailing comma
        text = f"[{body},]"
    else:
        tokens[first_after_cut + offset] = bad
        text = f"[{','.join(tokens)}]"
    assert len(text) > 2 * _CHUNK
    _assert_same(text, tmp_path_factory)


def test_each_flat_array_of_numbers_reaches_orjson_in_chunks():
    import orjson

    calls = []

    def loads(text):
        calls.append(text)
        return orjson.loads(text)

    text = json.dumps({"re": [0.125] * (5 * _CHUNK // 14), "names": ["a", "b"], "nested": [[1, 2], [3]]})
    assert _Decoder(loads).decode(text) == json.loads(text)
    long_calls = [c for c in calls if len(c) > 100]
    assert len(long_calls) == 3 and all(len(c) <= _CHUNK + 2 for c in long_calls)  # 7 characters an entry
    assert sorted(c for c in calls if len(c) <= 100) == ["[1, 2]", "[3]"]  # no array of strings or arrays


def test_a_long_array_is_read_exactly(tmp_path_factory):
    rng = random.Random(0)
    values = [rng.uniform(-1, 1) * 10 ** rng.randint(-300, 300) for _ in range(3 * _CHUNK // 8)] + [2**63 - 1, -0.0]
    path = tmp_path_factory.mktemp("json") / "long.json"
    path.write_text(json.dumps({"re": values}))
    assert _tagged(_load_json(path)) == _tagged({"re": values})


@pytest.mark.parametrize("depth", [10, 900, 5000])
@pytest.mark.parametrize("shape", ["[{}]", '{{"a": {}}}'])
def test_deep_nesting_is_json_s(tmp_path_factory, depth, shape):
    text = "1"
    for _ in range(depth):
        text = shape.format(text)
    _assert_same(text, tmp_path_factory)


def test_input_is_read_as_utf_8_whatever_the_locale(tmp_path):
    spec = {"note": "café", "state": {"dim": 2, "re": [1.0, 0.0]}, "bindings": {"A": {"dim": 2, "re": [0, 1, 1, 0]}},
            "implementation": ["A"], "f": "A", "n_trials": 100}
    (tmp_path / "spec.json").write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUTF8": "0", "LC_ALL": "C"}
    proc = subprocess.run([sys.executable, "-m", "avcp", "experiment", "spec.json"], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_trials"] == 100
