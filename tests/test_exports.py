"""Every name a module exports in __all__ exists in it, and the library
itself uses it, unless it is listed below with its reason."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import szpirolab

MODULES = sorted(
    f"szpirolab.{info.name}" for info in pkgutil.iter_modules(szpirolab.__path__)
)

# The library modules by short name; __init__ only re-exports.
TREES = {
    path.stem: ast.parse(path.read_text(), filename=str(path))
    for path in sorted(Path(szpirolab.__file__).parent.glob("*.py"))
    if path.name != "__init__.py"
}

# Exported names that no library code uses, each with the reason it stays.
# A new public function with no caller in the library fails the test below
# until it gets a caller, an entry here, or a move into the tests.
UNUSED_EXPORTS = {
    "szpiro_ratio": "library API: README's library example",
    "conductor": "library API: README's library example",
    "exceeds": "library API: README's bounds row",
    "full_two_torsion": "library API: rational 2-torsion in README's weierstrass row",
    "phi_scan": "perfbench/ calls and binds it until ROADMAP item 1",
    "phi_eval": "perfbench/tracer.py binds it until ROADMAP item 1",
    "add_points": "perfbench/tracer.py binds it until ROADMAP item 1",
    "tate_local": "perfbench/tracer.py binds it until ROADMAP item 1",
}


def test_modules_found():
    assert "szpirolab.families" in MODULES and "szpirolab.sweeps" in MODULES


@pytest.mark.parametrize("modname", MODULES)
def test_all_entries_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], modname


def _exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _binds(node, name) -> bool:
    """Whether node binds name itself: as a parameter or an assignment."""
    return any(
        (isinstance(sub, ast.arg) and sub.arg == name)
        or (isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Store))
        for sub in ast.walk(node)
    )


def _uses(tree, own: bool, module: str, name: str) -> bool:
    """Whether tree reads module.name outside its own definition: as
    module.name, or as a bare name in its own module or one that imports it,
    not where a top-level function or class binds the same name."""
    bare = own or any(
        isinstance(node, ast.ImportFrom)
        and node.module == f"szpirolab.{module}"
        and any(alias.name == name for alias in node.names)
        for node in ast.walk(tree)
    )
    for top in tree.body:
        scoped = isinstance(top, (ast.FunctionDef, ast.ClassDef))
        if own and scoped and top.name == name:
            continue
        shadowed = scoped and _binds(top, name)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == name
                and isinstance(node.value, ast.Name)
                and node.value.id == module
            ):
                return True
            if (
                bare
                and not shadowed
                and isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
    return False


def _unused(module: str) -> list[str]:
    return [
        name
        for name in _exported(TREES[module])
        if not any(_uses(tree, other == module, module, name) for other, tree in TREES.items())
    ]


@pytest.mark.parametrize("module", sorted(TREES))
def test_exports_are_used_by_the_library_or_listed(module):
    listed = [name for name in _exported(TREES[module]) if name in UNUSED_EXPORTS]
    assert _unused(module) == listed, module


def test_every_listed_name_is_exported():
    exported = {name for tree in TREES.values() for name in _exported(tree)}
    assert set(UNUSED_EXPORTS) <= exported


def test_a_shadowing_parameter_is_not_a_use():
    # reduction.sigma_m has a parameter named conductor; only a read of the
    # function reduction.conductor counts.
    tree = ast.parse("def f(conductor):\n    return conductor\n")
    assert not _uses(tree, True, "reduction", "conductor")
    tree = ast.parse("def f(m):\n    return conductor(m)\n")
    assert _uses(tree, True, "reduction", "conductor")
    tree = ast.parse("from szpirolab import reduction\nN = reduction.conductor(m)\n")
    assert _uses(tree, False, "reduction", "conductor")
    assert not _uses(ast.parse("N = conductor(m)\n"), False, "reduction", "conductor")
