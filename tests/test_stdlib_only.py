"""coverkit imports nothing outside the standard library and parses as
Python 3.10, the oldest version pyproject.toml admits."""

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


def test_every_module_is_checked():
    assert "core.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
