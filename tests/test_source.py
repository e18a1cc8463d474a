"""Source-level rules for the library modules."""

import ast
from pathlib import Path

import pytest

import szpirolab

SOURCES = sorted(Path(szpirolab.__file__).parent.glob("*.py"))


def test_sources_found():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "reduction.py", "weierstrass.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # A result-guarding check must raise explicitly: python -O strips asserts.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on line(s) {lines}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "families.py"], ids=lambda path: path.name
)
def test_symbolic_u_keys_only_in_families(path):
    # What a symbolic u key means is decided by families.u_value alone.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("c2d", "2c")
    ]
    assert lines == [], f"{path.name}: symbolic u key on line(s) {lines}"
