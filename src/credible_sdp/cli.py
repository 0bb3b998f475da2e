"""Command-line interface.

Subcommands: ``solve`` (run the solver on a problem file, optionally writing
a proof trace and an annotated listing), ``annotate`` (emit the listing
alone), ``check-trace`` (replay a trace against its problem file), and
``demo`` (exercise the whole pipeline on the bundled example).

Exit codes form a total map of outcomes: 0 for a converged run with every
contract passing (or a clean trace check of such a run), 2 when contracts
failed (in the run, or in the run a checked trace records) or a checked
trace has findings, 3 for a divergence-guard abort, 4 for an iteration-cap
abort, and 1 for anything that prevented a run: unreadable files, malformed
problems or traces, bad flags, hash or schema mismatches.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .annotator import (
    BACKEND,
    LISTING_FLAVORS,
    TOOL_VERSION,
    check_trace,
    emit_annotated_listing,
    write_trace,
)
from .monitor import anchor
from .problem import (
    DEFAULT_SIGMA, MODES, SdpProblem, SolverOptions, load_problem_file, running_example,
)
from .solver import (
    InitializationError,
    SolveReport,
    SolveStatus,
    default_options,
    iteration_cap,
    sigma_from_nu,
    solve,
)

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors on stderr and exits 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_options(args: argparse.Namespace, prob: SdpProblem, **flags) -> SolverOptions:
    """Resolve options: ``flags`` and the solver flags over ``default_options(prob)``.

    --sigma wins outright; --nu without --sigma derives sigma from the
    potential weight; a nu stored in the problem file only sets the potential
    weight and never changes sigma.
    """
    if args.epsilon is not None:
        flags["epsilon"] = args.epsilon
    if args.nu is not None:
        flags["nu"] = args.nu
    if args.sigma is not None:
        flags["sigma"] = args.sigma
    elif args.nu is not None:
        flags["sigma"] = sigma_from_nu(prob.n, args.nu)
    return replace(default_options(prob), **flags)


def exit_code_for(report: SolveReport) -> int:
    if report.status is SolveStatus.CONVERGED:
        return 0 if report.clean else 2
    if report.status is SolveStatus.INVARIANT_VIOLATION:
        return 2
    if report.status is SolveStatus.DIVERGENCE_GUARD:
        return 3
    return 4  # SolveStatus.ITERATION_CAP


def _tally(label: str, count: int, failed_ids: list[str]) -> str:
    """A report line counting records and naming the failed contracts."""
    verdict = f"FAILED: {', '.join(failed_ids)}" if failed_ids else "all passed"
    return f"{label}{count} records, {verdict}"


def render_report(report: SolveReport, verbose: bool = False) -> str:
    opts = report.options
    cap = iteration_cap(opts, report.budget)
    implied = sigma_from_nu(report.problem.n, opts.nu)
    origin = "derived from nu" if opts.sigma == implied else "fixed"

    lines = [
        f"status:      {report.status.value}",
        f"iterations:  {report.iterations} (budget {report.budget}, cap {cap})",
        f"final gap:   {report.final_gap:.12e} (epsilon {opts.epsilon:g})",
        f"sigma:       {opts.sigma!r} ({origin}; nu={opts.nu!r} would imply {implied:.10g})",
        _tally("contracts:   ", report.record_count, report.failed_ids),
    ]
    if report.violation_id is not None:
        lines.append(f"violation:   {report.violation_id} (strict mode abort)")
    lines.append(
        "scope:       records certify the update logic; "
        f"{BACKEND} is trusted as the algebra backend"
    )
    if verbose:
        lines.append("")
        lines.append("smallest contract slack (bound - measured), tightest first:")
        slacks = sorted(report.min_slacks().items(), key=lambda kv: kv[1])
        for rid, slack in slacks:
            lines.append(f"  {rid:<26} {slack: .6e}  {anchor(rid, opts.sigma)}")
        init_failed = [rec.id for rec in report.init_records if not rec.passed]
        lines.append(_tally("initialization: ", len(report.init_records), init_failed))
    return "\n".join(lines)


def cmd_solve(args: argparse.Namespace) -> int:
    prob = load_problem_file(args.problem)
    opts = _build_options(args, prob, mode=args.mode, max_iterations=args.max_iterations)
    report = solve(prob, opts)
    if args.trace:
        Path(args.trace).write_bytes(write_trace(report))
    if args.listing:
        listing = emit_annotated_listing(prob, opts, flavor=args.flavor)
        Path(args.listing).write_text(listing.text)
    print(render_report(report, verbose=args.report))
    return exit_code_for(report)


def cmd_annotate(args: argparse.Namespace) -> int:
    prob = load_problem_file(args.problem)
    opts = _build_options(args, prob)
    listing = emit_annotated_listing(prob, opts, flavor=args.flavor)
    if args.listing:
        Path(args.listing).write_text(listing.text)
        print(
            f"wrote {args.listing}: {len(listing.lines)} lines, "
            f"{len(listing.contract_index)} contract annotations"
        )
    else:
        sys.stdout.write(listing.text)
    return 0


def cmd_check_trace(args: argparse.Namespace) -> int:
    prob = load_problem_file(args.problem)
    data = Path(args.trace).read_bytes()
    result = check_trace(data, prob)
    # what stdout cannot encode (a lone surrogate in an id) is escaped, as on stderr
    encoding = sys.stdout.encoding or "utf-8"
    print(result.describe().encode(encoding, "backslashreplace").decode(encoding))
    return 0 if result.clean and not result.failed_ids else 2


def cmd_demo(args: argparse.Namespace) -> int:
    prob = running_example()
    opts = replace(default_options(prob), mode=args.mode)
    report = solve(prob, opts)
    trace = write_trace(report)
    result = check_trace(trace, prob)
    listing = emit_annotated_listing(prob, opts, flavor="pseudo-matlab")
    print(render_report(report, verbose=True))
    print("")
    print(f"trace:       {len(trace)} bytes, independent recheck "
          f"{'clean' if result.clean else 'FAILED'}")
    print(f"listing:     {len(listing.lines)} lines, "
          f"{len(listing.contract_index)} contract annotations")
    ok = report.status is SolveStatus.CONVERGED and report.clean and result.clean
    return 0 if ok else 2


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", type=float, default=None,
                     help="convergence threshold on the duality gap (default: problem file)")
    sub.add_argument("--nu", type=float, default=None,
                     help="potential weight; without --sigma it also derives sigma")
    sub.add_argument("--sigma", type=float, default=None,
                     help=f"gap contraction factor per step (default {DEFAULT_SIGMA})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parsing leaves it as it
    was, so each ``main`` call in a process after the first reuses it."""
    parser = _Parser(
        prog="credible-sdp",
        description="Short-step primal-dual SDP solver with runtime contract "
                    "monitoring, proof traces, and annotated listings.",
    )
    parser.add_argument("--version", action="version", version=f"credible-sdp {TOOL_VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="run the solver on a problem file")
    p_solve.add_argument("--problem", required=True, help="problem JSON file")
    _add_config_flags(p_solve)
    p_solve.add_argument("--mode", choices=MODES, default="audit",
                         help="strict aborts on the first failed contract; audit records and continues")
    p_solve.add_argument("--max-iterations", type=int, default=None,
                         help="iteration cap (default: 10x the certified budget)")
    p_solve.add_argument("--trace", default=None, help="write the proof trace here")
    p_solve.add_argument("--listing", default=None, help="write the annotated listing here")
    p_solve.add_argument("--flavor", choices=LISTING_FLAVORS, default="pseudo-matlab",
                         help="annotation style for --listing")
    p_solve.add_argument("--report", action="store_true",
                         help="include the per-contract slack table in the output")
    p_solve.set_defaults(func=cmd_solve)

    p_ann = subs.add_parser("annotate", help="emit the annotated listing for a problem")
    p_ann.add_argument("--problem", required=True, help="problem JSON file")
    _add_config_flags(p_ann)
    p_ann.add_argument("--flavor", choices=LISTING_FLAVORS, default="pseudo-matlab",
                       help="annotation style")
    p_ann.add_argument("--listing", default=None,
                       help="write the listing here instead of stdout")
    p_ann.set_defaults(func=cmd_annotate)

    p_check = subs.add_parser("check-trace", help="replay a proof trace against its problem")
    p_check.add_argument("--problem", required=True, help="problem JSON file")
    p_check.add_argument("--trace", required=True, help="trace file to check")
    p_check.set_defaults(func=cmd_check_trace)

    p_demo = subs.add_parser("demo", help="solve, trace, re-check, and annotate the bundled example")
    p_demo.add_argument("--mode", choices=MODES, default="audit",
                        help="contract failure handling")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # ValueError covers the format, symmetry, dimension and PD errors, and
    # FloatingPointError a solve whose loop leaves the float range
    except (OSError, ValueError, InitializationError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
