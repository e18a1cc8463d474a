"""Source-level rules for the library modules."""

import ast
from pathlib import Path

import pytest

import szpirolab
from szpirolab import bounds
from szpirolab.families import FAMILIES

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
    # bounds.fan_out forks every worker process, so one patch of os.fork
    # sees them all, and no module keeps a second pool path.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "fork")
        or (isinstance(node, ast.Name) and node.id == "fork")
        or (
            isinstance(node, (ast.Import, ast.ImportFrom))
            and any(
                name.split(".")[0] in ("concurrent", "multiprocessing")
                for name in [getattr(node, "module", None) or ""]
                + [alias.name for alias in node.names]
            )
        )
    ]
    assert lines == [], f"{path.name}: os.fork or a pool module on line(s) {lines}"


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_environment_reads(path):
    # Every setting is an argument: output and worker counts never depend
    # on an environment variable.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READERS)
        or (isinstance(node, ast.Name) and node.id in _ENVIRONMENT_READERS)
        or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name in _ENVIRONMENT_READERS for alias in node.names)
        )
    ]
    assert lines == [], f"{path.name}: environment read on line(s) {lines}"


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
    "path", [p for p in SOURCES if p.name != "families.py"], ids=lambda path: path.name
)
def test_c3_0_named_only_in_families_and_sweeps(path):
    # "C3_0" is named in families.py alone: bounds.PHI_FAMILIES decides which
    # families have a phi branch, and run_sweep tells the one-parameter
    # family by its arity, so sweeps.py does not name it either.
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_comparison_with_family_name(path):
    # A family's parameter rules are FamilyId.rules, which validate_params
    # and the sweep box both read, and its phi reduction is FamilyId.x_exps,
    # which bounds._pattern reads; no module branches on the name.
    lines = _compared_with(path, set(FAMILIES))
    assert lines == [], f"{path.name}: comparison with a family name on line(s) {lines}"


PACKAGE_EXCEPTIONS = {
    "ValidationError",
    "SingularModelError",
    "CertificateError",
    "PaperContractViolation",
    "FactorBudgetError",
    "WorkerError",
}
# factorize(0) keeps its bare ValueError while perfbench counts that error
# under the class name ValueError (ROADMAP item 1); the listed site must
# still exist, so the entry goes with the mend.  fan_out raises, in the
# caller, the error that a worker part raised and sent back, whatever its
# class.
LISTED_SITES = {
    ("intarith.py", "ValueError('cannot factor 0')"),
    ("bounds.py", "error"),
}


def test_raises_name_a_package_exception():
    # A caller can tell rejected input, a singular model, a failed
    # certificate, a contract finding and an exhausted budget apart by type.
    found, listed = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            cls = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            site = (path.name, ast.unparse(node.exc))
            if cls.split(".")[-1] in PACKAGE_EXCEPTIONS:
                continue
            if path.name == "cli.py" and cls == "argparse.ArgumentTypeError":
                continue
            if site in LISTED_SITES:
                listed.add(site)
                continue
            found.append(f"{path.name}:{node.lineno} {cls}")
    assert found == [], f"raise of a non-package exception: {found}"
    assert listed == LISTED_SITES


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


def _source(name):
    path = next(p for p in SOURCES if p.name == name)
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]


def _fraction_powers_compared(func) -> list[int]:
    """Lines of a comparison in func with a ** whose exponent is a
    .numerator or .denominator, or a name func binds to one."""

    def is_part(node):
        return isinstance(node, ast.Attribute) and node.attr in (
            "numerator",
            "denominator",
        )

    bound = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            value = node.value
            values = value.elts if isinstance(value, ast.Tuple) else [value]
            for target in node.targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for name, part in zip(elts, values):
                    if isinstance(name, ast.Name) and is_part(part):
                        bound.add(name.id)
    return [
        pow_node.lineno
        for compare in ast.walk(func)
        if isinstance(compare, ast.Compare)
        for pow_node in ast.walk(compare)
        if isinstance(pow_node, ast.BinOp)
        and isinstance(pow_node.op, ast.Pow)
        and (
            is_part(pow_node.right)
            or (isinstance(pow_node.right, ast.Name) and pow_node.right.id in bound)
        )
    ]


def test_exact_power_comparison_only_in_verify_height_bound():
    # Every exact x > |y|^l decision, l = p/q, calls bounds.verify_height_bound.
    found = {
        (path.name, func.name)
        for path in SOURCES
        for func in _functions(ast.parse(path.read_text(), filename=str(path)))
        if _fraction_powers_compared(func)
    }
    assert found == {("bounds.py", "verify_height_bound")}


def test_cmd_phi_takes_branches_from_bounds():
    # cmd_phi reads the branches from bounds.all_phi_specs and phi_spec, so
    # the CLI does not walk a family's delta_scales itself.
    (func,) = [f for f in _functions(_source("cli.py")) if f.name == "cmd_phi"]
    names = [
        node.lineno
        for node in ast.walk(func)
        if (isinstance(node, ast.Attribute) and node.attr == "delta_scales")
        or (isinstance(node, ast.Name) and node.id == "delta_scales")
    ]
    assert names == [], f"cli.py: cmd_phi names delta_scales on line(s) {names}"


@pytest.mark.parametrize(
    "text", ["has no phi branch", "is not admissible for", "prefactor must be > 0"]
)
def test_phi_branch_rule_raised_at_one_site(text):
    # phi_spec, _PhiKernel (so phi_eval and phi_scans) and leading_dominance
    # call bounds._check_branch, so no entry point keeps a rule of its own
    sites = [
        (func.name, node.lineno)
        for func in _functions(_source("bounds.py"))
        for node in ast.walk(func)
        if isinstance(node, ast.Raise) and node.exc is not None and text in ast.unparse(node.exc)
    ]
    assert [name for name, _ in sites] == ["_check_branch"], sites


def test_phi_kernel_keeps_one_set_of_constants():
    # the point path reads the folded constants that the grid scan reads
    unfolded = ("terms", "combine", "pre_num", "scale_num", "pad_a", "pad_b")
    assert [name for name in unfolded if hasattr(bounds._PhiKernel, name)] == []


def test_multiplicative_label_built_once():
    # The I_n rule of Tate's algorithm is one function of reduction.py.
    def is_i_n(node):
        # f"I{...}", and not f"I{...}*"
        if not isinstance(node, ast.JoinedStr) or len(node.values) != 2:
            return False
        head, tail = node.values
        return isinstance(head, ast.Constant) and head.value == "I" and isinstance(
            tail, ast.FormattedValue
        )

    builders = [
        func.name
        for func in _functions(_source("reduction.py"))
        if any(is_i_n(node) for node in ast.walk(func))
    ]
    assert builders == ["_local_data"]


def _log_ratio_sites(tree) -> list[str | None]:
    """The enclosing function of each math.log(...) / math.log(...)."""

    def is_log(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) in ("math.log", "log")

    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.BinOp)
                and isinstance(child.op, ast.Div)
                and is_log(child.left)
                and is_log(child.right)
            ):
                sites.append(func)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(tree, None)
    return sites


def test_log_ratio_only_in_sigma_m():
    # sigma_m = log(height) / log(conductor) is written once, in
    # reduction.sigma_m; the sweep, the CLI, szpiro_ratio and the
    # sharpness records call it.
    found = [
        (path.name, func)
        for path in SRC_FILES
        for func in _log_ratio_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [("reduction.py", "sigma_m")]
