"""The package's import layering, and the suite's own settings."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credible_sdp"

#: The layers, in order: a module imports only the modules before it.
LAYERS = ("symvec", "linalg", "problem", "monitor", "solver", "annotator", "cli", "__init__")


def _relative_imports(node, in_function=False, type_only=False):
    """(module, line, inside a function, inside ``if TYPE_CHECKING:``) for
    each relative import under ``node``."""
    if isinstance(node, ast.ImportFrom) and node.level:
        for name in [node.module] if node.module else [alias.name for alias in node.names]:
            yield name, node.lineno, in_function, type_only
        return
    in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        children = [(child, True) for child in node.body]
        children += [(child, type_only) for child in node.orelse]
    else:
        children = [(child, type_only) for child in ast.iter_child_nodes(node)]
    for child, flag in children:
        yield from _relative_imports(child, in_function, flag)


def layering_faults(package: Path) -> list[str]:
    """Each relative import inside a function, and each one outside
    ``if TYPE_CHECKING:`` that names a module not earlier in ``LAYERS``."""
    faults = []
    for path in sorted(package.glob("*.py")):
        layer = LAYERS.index(path.stem)
        for name, line, in_function, type_only in _relative_imports(ast.parse(path.read_text())):
            where = f"{path.name}:{line} imports {name}"
            if in_function:
                faults.append(f"{where} inside a function")
            elif not type_only and LAYERS.index(name) >= layer:
                faults.append(f"{where}, a later layer")
    return faults


def test_package_modules_are_the_layers():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(LAYERS)


def test_each_module_imports_only_earlier_layers_at_module_top():
    assert layering_faults(PACKAGE) == []


TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_does_not_end_the_run(tmp_path):
    # the suite's settings (every warning an error) and its conftest, on a
    # file whose failing property comes before a passing test
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_the_package_version_is_stated_once():
    # pyproject.toml takes the version from the string every trace header
    # and listing names, rather than repeating it
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "credible_sdp.annotator.TOOL_VERSION"
    }


def _third_party_imports(package: Path) -> set[str]:
    """The top-level modules the package imports that are neither its own
    nor in the standard library."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", PACKAGE.name}


def test_runtime_dependencies_are_the_third_party_imports():
    # a module the package imports cannot go undeclared, nor a declared
    # one stay after its last use
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in config["project"]["dependencies"]
    }
    assert _third_party_imports(PACKAGE) == declared
