"""Print sha256 digests of every artifact a solve produces, over a fixed corpus.

For each of 31 problems (the bundled example, and ``bench/workload_gen.py``
seeds 2001 and 7919 at n in {2, 3, 4, 8, 16}, indices 0-2) it prints one line:
the problem's name and the sha256 of its proof trace, its pseudo-matlab and
c-like listings, its verbose report and what ``check_trace`` says of the
trace. Two versions of the package that print the same lines produce
byte-identical artifacts, and check them alike, on the corpus.

Run it against the package on ``PYTHONPATH``, once per version, and diff::

    PYTHONPATH=src python tests/corpus_digest.py > change.txt
    PYTHONPATH=<other checkout>/src python tests/corpus_digest.py > parent.txt
    diff parent.txt change.txt

The problems are generated in memory; nothing under ``bench/`` is written.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

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


def digests(prob) -> list[str]:
    """sha256 of the trace, both listing flavors, the verbose report and the
    trace check's description."""
    report = credible_sdp.solve(prob)
    trace = credible_sdp.write_trace(report)
    artifacts = [
        trace,
        credible_sdp.emit_annotated_listing(prob, flavor="pseudo-matlab").text.encode(),
        credible_sdp.emit_annotated_listing(prob, flavor="c-like").text.encode(),
        render_report(report, verbose=True).encode(),
        credible_sdp.check_trace(trace, prob).describe().encode(),
    ]
    return [hashlib.sha256(a).hexdigest() for a in artifacts]


def main() -> int:
    print(f"package: {Path(credible_sdp.__file__).parent}", file=sys.stderr)
    print("problem trace listing-m listing-c report check")
    for name, prob in corpus():
        print(name, *digests(prob))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
