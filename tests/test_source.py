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


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "bounds.py"], ids=lambda path: path.name
)
def test_process_pool_only_in_bounds(path):
    # bounds.fan_out starts every pool, so one patch of it sees them all.
    lines = [
        number
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "ProcessPoolExecutor" in line
    ]
    assert lines == [], f"{path.name}: ProcessPoolExecutor on line(s) {lines}"


def test_cli_exit_code_2_decided_in_main():
    # Input errors raise; main alone turns them into a message and exit 2.
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    in_main = {id(node) for node in ast.walk(main)}
    outside = [node for node in ast.walk(tree) if id(node) not in in_main]
    reads = [
        node.lineno
        for node in outside
        if isinstance(node, ast.Name)
        and node.id == "USAGE_ERROR"
        and isinstance(node.ctx, ast.Load)
    ]
    catches = [
        node.lineno
        for node in outside
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "ValidationError" in ast.unparse(node.type)
    ]
    assert reads == [], f"cli.py: USAGE_ERROR read outside main on line(s) {reads}"
    assert catches == [], f"cli.py: ValidationError caught outside main on line(s) {catches}"


def test_cli_has_one_usage_error_route():
    # Rejected input raises families.ValidationError; the CLI defines no
    # exception of its own and never exits through a parser's error().
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)
    ]
    error_calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "error"
    ]
    assert classes == [], f"cli.py: exception class on line(s) {classes}"
    assert error_calls == [], f"cli.py: .error(...) call on line(s) {error_calls}"


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name not in ("families.py", "sweeps.py")],
    ids=lambda path: path.name,
)
def test_c3_0_named_only_in_families_and_sweeps(path):
    # Which families have a phi branch is decided by bounds.PHI_FAMILIES.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "C3_0"
    ]
    assert lines == [], f"{path.name}: \"C3_0\" on line(s) {lines}"


def _compared_with(path, names) -> list[int]:
    """Lines of an ast.Compare with one of the string constants names among
    its operands, tuples included."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def constants(node):
        if isinstance(node, ast.Tuple):
            return {value for elt in node.elts for value in constants(elt)}
        return {node.value} if isinstance(node, ast.Constant) else set()

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(constants(op) & names for op in (node.left, *node.comparators))
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_comparison_with_c3_or_c4(path):
    # The C3 and C4 power split is FamilyId.split; nothing branches on the name.
    lines = _compared_with(path, {"C3", "C4"})
    assert lines == [], f"{path.name}: comparison with \"C3\"/\"C4\" on line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_comparison_with_c1(path):
    # The C1 sequence is a SharpFamilySpec row like the other fourteen, with
    # its own model and bound; nothing branches on its name.
    lines = _compared_with(path, {"C1"})
    assert lines == [], f"{path.name}: comparison with \"C1\" on line(s) {lines}"


SRC_FILES = sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py"))


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda path: path.name)
def test_no_sympy_import(path):
    # sympy is a test-only oracle and must never become a runtime dependency:
    # no import statement, and no module name in a string for a dynamic import.
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append((node.lineno, node.module))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            modules.append((node.lineno, node.value))
    lines = [line for line, name in modules if name.split(".")[0] == "sympy"]
    assert lines == [], f"{path.name}: sympy on line(s) {lines}"


def test_src_files_found():
    assert {"intarith.py", "cli.py"} <= {path.name for path in SRC_FILES}
