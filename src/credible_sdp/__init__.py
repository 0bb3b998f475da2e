"""Credible semidefinite programming: a short-step primal-dual solver whose
every iteration is checked against an explicit contract catalog, with
serialized proof traces, an independent trace checker, and annotated-listing
generation.

The root exports the names README's "Library use" section documents. The
algebra, the contract catalog and the solver's steps are imported from their
own modules (``symvec``, ``linalg``, ``monitor``, ``solver``)."""

from .annotator import (
    AnnotatedListing,
    CheckReport,
    Finding,
    ProofTrace,
    TOOL_VERSION as __version__,
    TraceFormatError,
    check_trace,
    emit_annotated_listing,
    parse_trace,
    write_trace,
)
from .linalg import NotPositiveDefiniteError
from .monitor import InvariantRecord
from .problem import (
    ProblemFormatError,
    SdpProblem,
    SolverOptions,
    build_problem,
    load_problem,
    load_problem_file,
    running_example,
)
from .solver import (
    InitializationError,
    IterateState,
    IterationSnapshot,
    NeighborhoodViolation,
    NewtonStep,
    SolveReport,
    SolveStatus,
    solve,
)
from .symvec import DimensionError, SymmetryError

__all__ = [
    "AnnotatedListing",
    "CheckReport",
    "DimensionError",
    "Finding",
    "InitializationError",
    "InvariantRecord",
    "IterateState",
    "IterationSnapshot",
    "NeighborhoodViolation",
    "NewtonStep",
    "NotPositiveDefiniteError",
    "ProblemFormatError",
    "ProofTrace",
    "SdpProblem",
    "SolveReport",
    "SolveStatus",
    "SolverOptions",
    "SymmetryError",
    "TraceFormatError",
    "__version__",
    "build_problem",
    "check_trace",
    "emit_annotated_listing",
    "load_problem",
    "load_problem_file",
    "parse_trace",
    "running_example",
    "solve",
    "write_trace",
]
