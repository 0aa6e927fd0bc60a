"""coverkit imports nothing outside the standard library and parses as
Python 3.10, the oldest version pyproject.toml admits. The verifiers and
the oracle import from the package only its core and errors, no module
imports a private name of the verifiers, and only core names ``_ONE_AT``,
the table by which it alone reads symbol bytes as bitsets."""

import ast
import sys
from pathlib import Path

import pytest

import coverkit

SOURCES = sorted(Path(coverkit.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """The top-level module of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def package_imports(path):
    """The dotted name below coverkit, split at its dots, of each import
    from the package in ``path``, a module of the package: ("verify",) for
    the module, ("verify", "verify_cff") for a name taken from it."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["coverkit" if node.level else "", node.module]))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from (tuple(name.split(".")[1:]) for name in names if name.startswith("coverkit."))


def test_every_module_is_checked():
    assert "core.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("name", ["verify.py", "oracle.py"])
def test_imports_from_the_package_only_core_and_errors(name):
    path = Path(coverkit.__file__).parent / name
    assert {name[0] for name in package_imports(path)} <= {"core", "errors"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_no_private_name_of_the_verifiers(path):
    taken = [name for name in package_imports(path) if name[0] == "verify" and name[-1].startswith("_")]
    assert taken == []


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "core.py"], ids=lambda path: path.name)
def test_only_core_names_the_symbol_table(path):
    assert "_ONE_AT" not in path.read_text()
