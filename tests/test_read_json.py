"""The JSON reader reads problem files and trace lines as ``json`` does.

``problem.read_json`` decodes with orjson and falls back to ``json`` where
orjson refuses the text, or where ``problem.orjson_reads_alike`` does not
hold for it. Every value, type, float bit and error must be what the
standard library gives, so each test compares the reader with ``json``
itself: on drawn text, on fixed tables of floats and integers, and on text
nested deep enough to overflow orjson's stack.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credible_sdp import annotator
from credible_sdp.annotator import TraceFormatError
from credible_sdp.problem import (
    MAX_ORJSON_DEPTH,
    ProblemFormatError,
    json_numbers,
    load_problem,
    orjson_reads_alike,
    read_json,
)

SRC = Path(__file__).resolve().parent.parent / "src"
EXAMPLE = SRC / "credible_sdp" / "data" / "running_example.json"


def _outcome(read, data):
    """("value", what read(data) gives) or ("error", its exception's type and text)."""
    try:
        return "value", read(data)
    except (ValueError, RecursionError) as exc:
        return "error", type(exc), str(exc)


def _int64(value: int) -> bool:
    """Whether orjson reads the integer as an int, not as the float nearest it."""
    return -(2**63) <= value < 2**64


def _same(a, b, nearest: bool = False) -> bool:
    """Equal values of equal types, floats bit for bit, keys in the same
    order; with ``nearest``, an integer outside [-2**63, 2**64) in ``a``
    may also match the float nearest it in ``b``."""
    if nearest and type(a) is int and type(b) is float and not _int64(a):
        a = float(a)
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)
    if type(a) is list:
        return len(a) == len(b) and all(_same(x, y, nearest) for x, y in zip(a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k], nearest) for k in a)
    return a == b


def _same_outcome(expected, got, nearest: bool = False) -> bool:
    if expected[0] == "value":
        return got[0] == "value" and _same(expected[1], got[1], nearest)
    return got == expected


# -- drawn JSON text ----------------------------------------------------------


def _digits(low: int, high: int):
    """Integers of low to high decimal digits, either sign, as text."""
    return st.tuples(
        st.sampled_from(["", "-"]),
        st.integers(low, high).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1)).map(str),
    ).map("".join)


_NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1)]),
    st.sampled_from([str(2**64 - 1), str(2**64), "-0", "0", "-0.0", "1e-400", "-1e-400"]),
    _digits(19, 400),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.25e" % x),
    st.tuples(_digits(1, 30), _digits(1, 40), st.integers(-400, 400)).map(
        lambda t: f"{t[0]}.{t[1].lstrip('-')}e{t[2]}"
    ),
)

_STRINGS = st.one_of(
    st.text(max_size=8).map(json.dumps),
    st.text(max_size=8).map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.sampled_from(
        ['"]]]]"', '"[{"', '"\\"]"', '"\\ud83d\\ude00"', '"a\x7fb"', '"12345678901234567890"']
    ),
)

#: Leaves that json reads and orjson refuses, or that neither reads.
_ODD = st.sampled_from(
    [
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "2e308", "nan", "inf",
        "01", "1.", ".5", "+1", "1e", "1e+", "0x10", "--1", "1.5e3.2", "-",
        '"\\ud800"', '"\\udc00x"', '"\\ud800\\u0041"',  # lone surrogates
        '"a\x01b"', '"tab\tin"', '"\\x"', '"unterminated',  # raw control characters
        "True", "nul", "undefined", "'a'",
    ]
)

_LEAVES = _NUMBERS | _STRINGS | st.sampled_from(["true", "false", "null"])

#: JSON whitespace, and then characters that are not JSON whitespace.
_SPACE = st.sampled_from(["", "", " ", "\t", "\r", "\n"])
_ODD_SPACE = st.sampled_from(["", " ", "\x0c", "\xa0", "\u2028", "\x00"])

_KEYS = st.sampled_from(['"a"', '"b"', '"type"', '"12345678901234567890"', '""'])


def _containers(space, keys, tail):
    def extend(children):
        items = st.lists(st.tuples(space, children, space).map("".join), max_size=5)
        lists = st.tuples(items, tail).map(lambda t: f"[{','.join(t[0])}{t[1]}]")
        members = st.lists(
            st.tuples(keys, space, children).map(lambda t: f"{t[0]}:{t[1]}{t[2]}"), max_size=4
        )
        objects = st.tuples(members, tail).map(lambda t: "{" + ",".join(t[0]) + t[1] + "}")
        return lists | objects

    return extend


#: Well-formed JSON (duplicate keys included), and text with an odd part.
_VALUES = st.recursive(_LEAVES, _containers(_SPACE, _KEYS, st.just("")), max_leaves=12)
_ODD_VALUES = st.recursive(
    _LEAVES | _ODD,
    _containers(_SPACE | _ODD_SPACE, _KEYS | st.just("a"), st.sampled_from(["", ","])),
    max_leaves=8,
)

_NESTED = st.tuples(
    st.integers(MAX_ORJSON_DEPTH - 2, MAX_ORJSON_DEPTH + 2), st.sampled_from(["[", '{"a":'])
).map(lambda t: t[1] * t[0] + "1" + ("]" if t[1] == "[" else "}") * t[0])

_TEXTS = st.one_of(
    st.tuples(_SPACE, _VALUES, _SPACE).map("".join),
    st.tuples(_SPACE, _VALUES | _NESTED, _SPACE).map("".join),
    st.tuples(
        st.sampled_from(["", "\ufeff"]),  # a byte order mark
        _SPACE | _ODD_SPACE,
        _ODD_VALUES | _VALUES,
        _SPACE | _ODD_SPACE,
        st.sampled_from(["", "x", "{}", "]", " 1", ",2"]),  # trailing data
    ).map("".join),
)


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(_TEXTS)
def test_read_json_gives_what_json_gives(text):
    raw = text.encode("utf-8", "surrogatepass")
    for data in (text, raw):
        expected = _outcome(json.loads, data)
        got = _outcome(read_json, data)
        # a problem file's numbers all become float64, so orjson's nearest
        # float for a long integer is let stand there (pinned below)
        assert _same_outcome(expected, got, nearest=True), (data, expected, got)
        if expected[0] == "error" and expected[1] is json.JSONDecodeError:
            with pytest.raises(ProblemFormatError) as exc:
                load_problem(data)
            assert str(exc.value) == f"problem file is not valid JSON: {expected[2]}"


def _json_lines(data: bytes) -> list[dict]:
    """How a trace's lines read with the standard decoder alone."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not valid UTF-8: {exc}") from None
    lines = [line for line in text.split("\n") if line.strip(" \t\r")]
    if not lines:
        raise TraceFormatError("trace is empty")
    objs = []
    for lineno, line in enumerate(lines, 1):
        value = line.strip(" \t\r")
        try:
            obj, end = json.JSONDecoder().raw_decode(value)
            if end < len(value):
                raise json.JSONDecodeError("Extra data", value, end)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno} is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {lineno} is not a JSON object")
        objs.append(obj)
    return objs


#: Values as a trace holds them: no integer of 19 digits, no escape in a string.
_PLAIN = st.recursive(
    st.one_of(
        st.integers(-(10**18), 10**18).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.text("abcdef-_ ", max_size=8).map(json.dumps),
        st.sampled_from(["true", "false", "null"]),
    ),
    _containers(_SPACE, _KEYS, st.just("")),
    max_leaves=12,
)

_LINES = st.lists(
    st.one_of(
        _TEXTS,
        _VALUES.map(lambda v: '{"type":"record","v":' + v + "}"),
        # twice, so that more of the drawn traces are ones orjson reads
        _PLAIN.map(lambda v: '{"type":"record","v":' + v + "}"),
        _PLAIN.map(lambda v: '{"type":"record","v":' + v + "}"),
        st.just('{"type":"record","n":' + str(2**64) + "}"),
        st.just('{"type":"record","n":12345678901234567890.5,"f":0.00012345678901234567}'),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_LINES, st.sampled_from(["\n", "\r\n", "\n\n"]))
def test_trace_lines_read_as_json_reads_them(lines, end):
    data = end.join(lines).encode("utf-8", "surrogatepass")
    expected = _outcome(_json_lines, data)
    got = _outcome(annotator._read_lines, data)
    assert _same_outcome(expected, got), (data, expected, got)


# -- fixed tables ---------------------------------------------------------------


def _assert_floats_read_alike(texts: list[str]) -> None:
    """The texts, as one JSON array, read to json's bits."""
    array = "[" + ",".join(texts) + "]"
    want = np.array(json.loads(array), dtype=float).view(np.uint64)
    got = np.array(read_json(array), dtype=float).view(np.uint64)
    bad = np.flatnonzero(want != got)
    assert not bad.size, [texts[i] for i in bad[:5]]


MAX = sys.float_info.max
TINY = 5e-324

EDGE_FLOATS = [
    "5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "7.4109846876186982e-324", "1e-323",
    "2.2250738585072009e-308", "2.2250738585072011e-308", "2.2250738585072014e-308",
    "2.225073858507201136057409796709131975934819546351645648e-308",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.797693134862315807e308",
    "179769313486231570814527423731704356798070567525844996598917476803157260780028538760"
    "589558632766878171540458953514382464234321326889464182768467546703537516986049910576"
    "551282076245490090389328944075868508455133942304583236903222948165808559332123348274"
    "797826204144723168738177180919299881250404026184124858368",
    "0.1", "0.2", "0.3", "1e23", "8.98846567431158e307", "9007199254740993",
    "9007199254740993.0", "4.35679568e-309", "1e-400", "-0.0", "-5e-324",
    "0." + "0" * 330 + "1", "1" + "0" * 200 + ".5", "3." + "1" * 800,
]


def test_edge_floats_read_alike():
    _assert_floats_read_alike(EDGE_FLOATS)
    _assert_floats_read_alike(["-" + t.lstrip("-") for t in EDGE_FLOATS])
    assert read_json("5e-324") == TINY and read_json("1.7976931348623158e308") == MAX
    # beyond the float range orjson refuses, and json's inf is read
    assert read_json("1.7976931348623159e308") == math.inf
    assert read_json("[1e400, -1e400]") == [math.inf, -math.inf]


def test_random_bit_patterns_read_alike():
    # 10**5 finite doubles from random bit patterns, in the forms the writer
    # and other writers use: repr, 17 significant digits and 26
    bits = np.random.default_rng(20260419).integers(0, 2**64, size=10**5, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size > 99_000
    for form in (repr, "%.17g".__mod__, "%.25e".__mod__):
        _assert_floats_read_alike([form(float(v)) for v in values])


def _long_integers() -> list[int]:
    """Integers beyond the int64 and uint64 range: at the two bounds, at
    random doubles from 2**64 up, halfway between two neighbouring doubles
    (a tie, which rounds to even), and one off either side of each tie."""
    rng = np.random.default_rng(2026)
    out = [2**64, 2**64 + 1, 2**64 + 2**11, 2**64 + 2**11 + 1, 2**64 + 3 * 2**11]
    out += [-(2**63) - 1, -(2**63) - 2**10, -(2**63) - 2**10 - 1, -(2**63) - 3 * 2**10]
    exponents = rng.integers(64, 1024, size=2000)
    mantissas = rng.integers(2**52, 2**53, size=2000)
    for e, mant in zip(exponents.tolist(), mantissas.tolist()):
        low = mant << (e - 52)
        high = (mant + 1) << (e - 52)
        if float(high) == math.inf:
            continue
        tie = (low + high) // 2
        out += [low, tie - 1, tie, tie + 1]
    out += [10**k for k in range(19, 309)] + [10**k - 1 for k in range(19, 309)]
    return [v for v in out + [-v for v in out] if not _int64(v)]


def test_long_integers_read_as_the_nearest_float():
    # in a problem file every number becomes float64: the float orjson gives
    # for an integer outside its int range is the one float() and numpy give
    ints = _long_integers()
    texts = list(map(str, ints))
    got = read_json("[" + ",".join(texts) + "]")
    assert all(type(x) is float for x in got)
    want = np.array([float(v) for v in ints]).view(np.uint64)
    np.testing.assert_array_equal(np.array(got).view(np.uint64), want)
    np.testing.assert_array_equal(json_numbers(got).view(np.uint64), want)
    from_ints = json_numbers(json.loads("[" + ",".join(texts) + "]"))
    np.testing.assert_array_equal(from_ints.view(np.uint64), want)


def test_long_integers_in_a_problem_file_load_as_floats():
    data = json.loads(EXAMPLE.read_text())
    big = 2**64 + 2**11  # a tie: rounds to 2**64
    data["b"] = [big, -(2**70) - 1, 0.25]
    prob = load_problem(json.dumps(data))
    assert prob.b.tolist() == [float(big), float(-(2**70) - 1), 0.25]
    assert type(read_json(json.dumps(data))["b"][0]) is float


def test_trace_integers_keep_their_type():
    # a trace's integer fields must stay ints, so a long one sends the
    # whole trace to the standard decoder
    line = '{"type":"record","n":%d,"m":-%d}' % (2**64, 2**63 + 1)
    assert not orjson_reads_alike(line.encode(), ints=True)
    assert orjson_reads_alike(line.encode())
    objs = annotator._read_lines((line + "\n" + '{"f":0.00012345678901234567}').encode())
    assert objs[0]["n"] == 2**64 and type(objs[0]["n"]) is int
    assert type(objs[0]["m"]) is int
    # a fraction of 19 or more digits is not an integer
    assert orjson_reads_alike(b'{"f":0.00012345678901234567}', ints=True)
    assert orjson_reads_alike(b'{"n":-999999999999999999}', ints=True)


DEPTHS = {
    "at the bound": ("[" * MAX_ORJSON_DEPTH + "]" * MAX_ORJSON_DEPTH, True),
    "lists past it": ("[" * (MAX_ORJSON_DEPTH + 1) + "]" * (MAX_ORJSON_DEPTH + 1), False),
    "objects past it": ('{"a":' * (MAX_ORJSON_DEPTH + 1) + "1" + "}" * (MAX_ORJSON_DEPTH + 1), False),
    # a string's brackets are not nesting, and a string that holds one is
    # refused rather than read past
    "brackets in a string": ('["]]]]", [[1]]]', False),
    "strings": ('["x", "y", [[1], {"z": ""}]]', True),
    "an escaped quote": ('["\\"", 1]', False),
    "unbalanced": ("[1]]", False),
    "closed first": ("][", False),
}


@pytest.mark.parametrize("text, alike", DEPTHS.values(), ids=DEPTHS.keys())
def test_orjson_reads_alike_only_text_of_bounded_depth(text, alike):
    assert orjson_reads_alike(text.encode()) is alike


DEEP = """
import sys
from credible_sdp import annotator, problem
text = sys.argv[1] * 200000 + "1" + sys.argv[2] * 200000
try:
    problem.read_json(text)
except RecursionError:
    print("RecursionError")
for read in (problem.load_problem, lambda t: annotator.parse_trace(t.encode())):
    try:
        read(text)
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.parametrize("opens, closes", [("[", "]"), ('{"a":', "}")], ids=["lists", "objects"])
def test_text_nested_deep_is_read_by_json(opens, closes):
    # orjson nests without a limit and overflows the C stack at this depth
    # (a segmentation fault); json raises RecursionError, and so must the
    # reader, while the problem and trace readers name the fault
    run = subprocess.run(
        [sys.executable, "-c", DEEP, opens, closes],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines() == [
        "RecursionError",
        "ProblemFormatError: problem file is nested too deep",
        "TraceFormatError: line 1 is nested too deep",
    ]


def test_common_faults_keep_the_standard_decoder_s_messages():
    expecting = r"Expecting value: line 1 column 1 \(char 0\)$"
    with pytest.raises(ProblemFormatError, match=r"^problem file is not valid JSON: " + expecting):
        load_problem("nope")
    with pytest.raises(TraceFormatError, match=r"^line 1 is not valid JSON: " + expecting):
        annotator.parse_trace(b"\xef\xbb\xbf{}\n{}")  # a byte order mark
    with pytest.raises(TraceFormatError, match=r"^line 2 is not valid JSON: Extra data: line 1 "):
        annotator.parse_trace(b'{"type":"header"}\n{} {}\n')
