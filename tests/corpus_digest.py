"""Print sha256 digests of every artifact a solve produces, over a fixed corpus.

For each of 31 problems (the bundled example, and ``bench/workload_gen.py``
seeds 2001 and 7919 at n in {2, 3, 4, 8, 16}, indices 0-2) it prints one line:
the problem's name and the sha256 of its proof trace, of the trace's values
(``values``: each line read by ``json.loads`` and written again by the
standard encoder), its pseudo-matlab and c-like listings, the listings'
values (``listing-values``: both listings with every number token replaced
by the hex of its float64 bits), its verbose report, what ``check_trace``
says of the trace, the trace's record and footer lines alone, and what
``check_trace`` says of twelve tampered copies of the trace (``tampered``).
Two versions of the package that print the same lines produce
byte-identical artifacts, and check them alike, on the corpus. A change of
notation alone (how a float is spelled, whether text is escaped) moves
``trace`` and ``records`` and leaves ``values`` where it was, since
``values`` pins every float bit, type and key order but no spelling; in the
same way it moves ``listing-m`` and ``listing-c`` and leaves
``listing-values`` where it was. The ``records`` column lets a change to how
the header or the directions are written show that the contract records did
not move; the ``tampered`` column shows a checker change that moves any
finding; its copy with a nonzero dZ is the corpus's only replay whose dual
iterate moves, so it covers the dual terms of the loop contracts. Its copy
whose dZ overflows at iteration 3 pins the replay's floating-point rule: this
script runs under Python's default warnings filter, so against a package
whose replay follows that filter the ``tampered`` column differs, by design.
Four of its copies are lines that the checker's exact match refuses, so they
pin what the diff says of them: a record with its keys reversed and a
measured 0.0 written as -0.0 check clean; an id with a lone surrogate, read
by the standard decoder, and a measured value of 10**20, read as the float
nearest it as in a problem file, are findings. One more copy holds that 10**20
and a header whose tool ends in an escaped newline, which orjson's screen
refuses: it is the only copy in which a long integer reaches the per-line
read, and it pins that the integer reads as the same float there.

Run it against the package on ``PYTHONPATH``, once per version, and diff::

    PYTHONPATH=src python tests/corpus_digest.py > change.txt
    PYTHONPATH=<other checkout>/src python tests/corpus_digest.py > parent.txt
    diff parent.txt change.txt

or in one command, which runs both in subprocesses, prints the unified diff
of their lines (the ``package:`` line aside), then one line per column that
differs with its count of problems (``differs: tampered 31/31``), and exits
1 on any difference::

    PYTHONPATH=src python tests/corpus_digest.py --against <other checkout>/src

With ``--fields`` the same command compares the two versions' traces value
by value instead: for each trace-line kind and JSON path
(``record:I9.measured``, ``iteration.dp``, ``header.init_state.p``) on which
they differ, it prints the number of problems where that path differs and
the largest relative difference, max |a - b| / max(|a|, |b|) over the
path's values, and exits 1 on any difference. So a change meant to move
named fields at rounding level alone shows exactly which fields moved, and
by how much::

    PYTHONPATH=src python tests/corpus_digest.py --fields --against <other checkout>/src

``--traces`` prints each problem's name and trace as one JSON line; that is
what ``--fields`` reads from each version.

The problems are generated in memory; nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workload_gen  # noqa: E402

import credible_sdp  # noqa: E402
from credible_sdp.cli import render_report  # noqa: E402

SEEDS = (2001, 7919)
SIZES = (2, 3, 4, 8, 16)
INDICES = (0, 1, 2)


def corpus():
    """(name, problem) for every problem of the corpus, in a fixed order."""
    yield "running_example", credible_sdp.running_example()
    for seed in SEEDS:
        for n in SIZES:
            for index in INDICES:
                data = workload_gen.problem_bytes(seed, n, index)
                yield f"seed{seed}-n{n}-i{index}", credible_sdp.load_problem(data)


def tampered(trace: bytes) -> list[bytes]:
    """Copies of a trace with one line edited each: iteration 1's I3 record
    with its measured value scaled by 1 + 1e-6, its verdict flipped, its
    verdict written as 1, its keys reversed, its id written as ``"I3\\ud800"``
    (a lone surrogate), or its measured value written as the integer
    100000000000000000000, alone or with the header's tool ending in an
    escaped newline; iteration 1's I5 record with its measured value,
    0.0, written as -0.0; iteration line 1 numbered 2; iteration line 1 with
    its first dX entry scaled by 1 + 1e-6, or with its first dZ entry set to
    1e-6; iteration line 3 with its first dZ entry set to 1e308."""
    lines = trace.split(b"\n")
    steps = [i for i, line in enumerate(lines) if line and json.loads(line)["type"] == "iteration"]
    first = steps[0]
    i3, i5 = (
        next(i for i in range(first, len(lines)) if json.loads(lines[i]).get("id") == rid)
        for rid in ("I3", "I5")
    )

    def edit(index: int, mutate, lines: list[bytes] = lines) -> bytes:
        obj = json.loads(lines[index])
        mutate(obj)
        return b"\n".join([*lines[:index], json.dumps(obj).encode(), *lines[index + 1:]])

    long_measured = edit(i3, lambda o: o.update(measured=10**20))

    return [
        edit(i3, lambda o: o.update(measured=o["measured"] * (1 + 1e-6))),
        edit(i3, lambda o: o.update(passed=not o["passed"])),
        edit(i3, lambda o: o.update(passed=1)),
        edit(i3, lambda o: [o.update({key: o.pop(key)}) for key in reversed([*o])]),
        edit(i3, lambda o: o.update(id="I3\ud800")),
        long_measured,
        edit(0, lambda o: o.update(tool=o["tool"] + "\n"), long_measured.split(b"\n")),
        edit(i5, lambda o: o.update(measured=-0.0)),
        edit(first, lambda o: o.update(iteration=2)),
        edit(first, lambda o: o["dX"].__setitem__(0, o["dX"][0] * (1 + 1e-6))),
        edit(first, lambda o: o["dZ"].__setitem__(0, 1e-6)),
        edit(steps[2], lambda o: o["dZ"].__setitem__(0, 1e308)),
    ]


#: A number in a listing: digits with an optional sign, fraction and
#: exponent, not part of a name (``F0``) or of a longer token.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def float_bits(text: str) -> str:
    """The text with every number token replaced by the hex of its float64
    bits, so two spellings of one float read alike."""
    return NUMBER.sub(lambda m: struct.pack(">d", float(m.group())).hex(), text)


def digests(prob) -> list[str]:
    """sha256 of the trace, its values re-encoded, both listing flavors, their
    numbers as float64 bits, the verbose report, the trace check's
    description, the trace's record and footer lines, and the check
    descriptions of the tampered copies."""
    report = credible_sdp.solve(prob)
    trace = credible_sdp.write_trace(report)
    claims = [
        line for line in trace.splitlines()
        if json.loads(line)["type"] in ("record", "footer")
    ]
    values = "".join(
        json.dumps(json.loads(line), separators=(",", ":"), allow_nan=False) + "\n"
        for line in trace.splitlines()
    )
    listings = [
        credible_sdp.emit_annotated_listing(prob, flavor=flavor).text
        for flavor in ("pseudo-matlab", "c-like")
    ]
    artifacts = [
        trace,
        values.encode(),
        *(text.encode() for text in listings),
        "".join(map(float_bits, listings)).encode(),
        render_report(report, verbose=True).encode(),
        credible_sdp.check_trace(trace, prob).describe().encode(),
        b"\n".join(claims),
        "\n".join(credible_sdp.check_trace(t, prob).describe() for t in tampered(trace)).encode(
            "utf-8", "surrogatepass"
        ),
    ]
    return [hashlib.sha256(a).hexdigest() for a in artifacts]


def run_against(other_src: str) -> int:
    """Digest the package on the import path and the one under ``other_src``,
    each in its own process; print the unified diff, 1 if they differ."""
    ours = str(Path(credible_sdp.__file__).resolve().parent.parent)
    lines = {src: out.splitlines(keepends=True) for src, out in _run_versions(other_src).items()}
    diff = list(difflib.unified_diff(lines[other_src], lines[ours], other_src, ours))
    sys.stdout.writelines(diff)
    columns, *theirs = (line.split() for line in lines[other_src])
    rows = [line.split() for line in lines[ours][1:]]
    for col, name in enumerate(columns[1:], 1):
        moved = sum(a[col] != b[col] for a, b in zip(theirs, rows))
        if moved:
            print(f"differs: {name} {moved}/{len(rows)}")
    return 1 if diff else 0


def _run_versions(other_src: str, *args: str) -> dict[str, str]:
    """This script's output with ``args`` for the package under ``other_src``
    and for the one on the import path, by src directory, each run in its
    own process."""
    ours = str(Path(credible_sdp.__file__).resolve().parent.parent)
    runs = {}
    for src in (other_src, ours):
        env = {**os.environ, "PYTHONPATH": src}
        runs[src] = subprocess.Popen(
            [sys.executable, __file__, *args], env=env, stdout=subprocess.PIPE, text=True
        )
    out = {}
    for src, proc in runs.items():
        out[src], _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"the digest of {src} exited with {proc.returncode}")
    return out


def line_fields(line: str) -> dict[str, object]:
    """A trace line's values by path: its kind (``record:<id>`` for a
    record), then its keys joined by dots (``record:I9.detail.primal_residual``)."""
    obj = json.loads(line)
    kind = f"record:{obj['id']}" if obj.get("type") == "record" else str(obj.get("type"))
    fields = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}")
        else:
            fields[path] = value

    walk(obj, kind)
    return fields


def relative_difference(a, b) -> float:
    """max |a - b| / max(|a|, |b|) over two equal-shaped numeric values (0
    for two zeros); NaN where they are not numbers of one shape."""
    try:
        x, y = (np.asarray(v, dtype=float) for v in (a, b))
    except (TypeError, ValueError):
        return math.nan
    if x.shape != y.shape or isinstance(a, bool) or isinstance(b, bool):
        return math.nan
    scale = max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
    return float(np.abs(x - y).max(initial=0.0) / scale) if scale else 0.0


def field_differences(theirs: str, ours: str) -> dict[str, float]:
    """The paths on which two traces differ, line by line, each with its
    largest relative difference; ``(lines)`` when the line counts differ."""
    out: dict[str, float] = {}
    a_lines, b_lines = theirs.splitlines(), ours.splitlines()
    if len(a_lines) != len(b_lines):
        out["(lines)"] = math.nan
    for a_line, b_line in zip(a_lines, b_lines):
        a, b = line_fields(a_line), line_fields(b_line)
        for path in a.keys() | b.keys():
            if path not in a or path not in b:
                out[path] = math.nan
            elif json.dumps(a[path]) != json.dumps(b[path]):
                rel = relative_difference(a[path], b[path])
                # max(nan, x) is nan: a path once not numeric stays so
                out[path] = math.nan if math.isnan(rel) else max(out.get(path, 0.0), rel)
    return out


def run_fields(other_src: str) -> int:
    """Compare, path by path, the corpus traces of the package under
    ``other_src`` and of the one on the import path; 1 if any path differs."""
    out = _run_versions(other_src, "--traces")
    theirs, ours = (
        {row["name"]: row["trace"] for row in map(json.loads, text.splitlines())}
        for text in out.values()
    )
    assert list(theirs) == list(ours), "the two versions digest different corpora"
    moved: dict[str, list[float]] = {}
    for name, trace in ours.items():
        for path, rel in field_differences(theirs[name], trace).items():
            moved.setdefault(path, []).append(rel)
    print("field problems max-relative-difference")
    for path, rels in sorted(moved.items()):
        worst = "n/a" if any(map(math.isnan, rels)) else f"{max(rels):.3e}"
        print(f"{path} {len(rels)}/{len(ours)} {worst}")
    return 1 if moved else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against",
        metavar="OTHER_SRC",
        help="the src directory of another version: print the diff of the two digests",
    )
    parser.add_argument(
        "--fields",
        action="store_true",
        help="with --against: per trace field, the problems where it differs and by how much",
    )
    parser.add_argument(
        "--traces", action="store_true", help="print each problem's name and trace as JSON lines"
    )
    args = parser.parse_args(argv)
    if args.fields and not args.against:
        parser.error("--fields needs --against")
    if args.traces:
        for name, prob in corpus():
            trace = credible_sdp.write_trace(credible_sdp.solve(prob)).decode()
            print(json.dumps({"name": name, "trace": trace}))
        return 0
    if args.against:
        return run_fields(args.against) if args.fields else run_against(args.against)
    print(f"package: {Path(credible_sdp.__file__).parent}", file=sys.stderr)
    print("problem trace values listing-m listing-c listing-values report check records tampered")
    for name, prob in corpus():
        print(name, *digests(prob))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
