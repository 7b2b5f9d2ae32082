"""Every public top-level function and class of the package is named by the
program: somewhere in ``src/extbounds`` outside its own definition and the
``__init__`` exports, or in ``perfbench/``.  Library code that only its own
tests reach is deleted, unless ``KEPT`` says why it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extbounds"
CALLERS = ("perfbench",)

# public names that no program path names, kept on purpose
KEPT = {
    "integrate": "perfbench/tracer.py wraps it by name (LAYERS, geometry.reduce)",
    **dict.fromkeys(("weighted_norm", "log_weighted_norm", "energy_norm"),
                    "perfbench/tracer.py wraps it by name; the tests' tensor reference"),
}


def names_in(tree) -> set:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreached() -> list:
    """``module.name`` of each public top-level function or class that no
    statement other than its own definition names."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    statements = [(stmt, names_in(stmt)) for tree in modules.values() for stmt in tree.body]
    named = set().union(*(names_in(ast.parse(path.read_text()))
                          for folder in CALLERS for path in (ROOT / folder).rglob("*.py")))
    return [
        f"{module}.{stmt.name}"
        for module, tree in modules.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in named
        and not any(stmt.name in names for other, names in statements if other is not stmt)
    ]


def test_every_public_name_is_reached():
    missing = [name for name in unreached() if name.split(".")[1] not in KEPT]
    assert not missing, f"reached only by tests, delete or keep in KEPT: {missing}"


def test_kept_names_are_still_unreached():
    # a kept name that the program now names, or that is gone, leaves the list
    kept = {name.split(".")[1] for name in unreached()} & set(KEPT)
    assert kept == set(KEPT), (
        f"named by the program or gone, drop from KEPT: {set(KEPT) - kept}")
