"""Shared fixtures.

The bundled example is solved once per session; its report and serialized
trace are shared read-only by many tests (a full solve runs 56 iterations,
so re-solving in every test would dominate the suite's runtime).

The suite turns every warning into an error. Hypothesis imports
``hypothesis.extra._patching`` only when a property fails, and that import
warns (libcst's use of ``mypy_extensions.TypedDict``), which pytest would
then report as an INTERNALERROR that ends the run. So it is imported here,
once, with that one message ignored.
"""

from __future__ import annotations

import warnings
from importlib import resources

import pytest

from credible_sdp import running_example, solve, write_trace

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def example_problem():
    return running_example()


@pytest.fixture(scope="session")
def example_report(example_problem):
    return solve(example_problem)


@pytest.fixture(scope="session")
def example_trace(example_report):
    return write_trace(example_report)


@pytest.fixture()
def problem_file(tmp_path):
    """The bundled problem JSON copied to a temporary file for CLI runs."""
    data = resources.files("credible_sdp").joinpath("data/running_example.json").read_bytes()
    path = tmp_path / "problem.json"
    path.write_bytes(data)
    return path
