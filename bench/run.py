"""Run one workload of the credible-sdp benchmark and print its result line.

    python3 bench/run.py --workload small-certify --seed 1 --seconds 30 --trace 0

The program is imported from the ``src/`` directory beside this one, never
from an installed copy. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the full record (environment, tails, sample counts). See
bench/README.md.
"""

import os
import sys
from pathlib import Path

#: BLAS threads for the workload process, at most the CPUs available. One
#: thread keeps the timings free of a second BLAS thread spin-waiting beside
#: the single-threaded Python client on a two-CPU machine.
BLAS_THREADS = 1

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "credible_sdp" / "__init__.py").is_file():
        print(f"error: no credible_sdp package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # One CPU for the client and the interpreters it starts to time the
    # import, so the calibration kernel always measures the CPU the timed
    # work runs on: on a shared host each CPU's speed varies on its own.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import credible_sdp
    import harness

    if not Path(credible_sdp.__file__).resolve().is_relative_to(SRC):
        print(f"error: credible_sdp was imported from {credible_sdp.__file__}", file=sys.stderr)
        return 2
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
