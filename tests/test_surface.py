"""Runtime surface scan: every top-level function, class and constant in
``src/chcon`` is referenced by name from another top-level statement of the
package, exported from ``chcon/__init__.py``, or on the allowlist below.

References are ``ast`` names and attribute names, so a mention in a
docstring or comment does not count, and neither does an import that
nothing uses.  Test-only helpers belong in ``tests/``.
"""

import ast
from pathlib import Path

import chcon

PACKAGE = Path(chcon.__file__).resolve().parent

# Kept although nothing in the package calls them, each with its reason.
ALLOWLIST = {
    "separability.chisep": "the one-state entry point of chisep_batch; perfbench/tracer.py wraps it by name",
    "separability.project_ppt_density": "perfbench/tracer.py wraps it by name",
    "decompose.max_cp_weight": "perfbench/tracer.py wraps it by name",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _defined(node):
    """Names a top-level statement defines (functions, classes, constants)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(node):
    """Names and attribute names used anywhere inside a statement."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _exported(trees):
    return {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _unreferenced():
    """``module.name`` of every top-level definition nothing else refers to."""
    trees = _trees()
    exported = _exported(trees)
    uses = [
        (node, _referenced(node))
        for tree in trees.values()
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
                if name.startswith("__") or name in exported:
                    continue
                if not any(name in names for other, names in uses if other is not node):
                    found.append(f"{module}.{name}")
    return found


def test_every_definition_serves_the_package():
    stray = [name for name in _unreferenced() if name not in ALLOWLIST]
    assert not stray, (
        "top-level definitions with no caller in src/chcon and no export from "
        f"chcon/__init__.py: {stray}; delete them, move them into tests/, or "
        "allowlist them with a reason"
    )


def test_allowlist_is_current():
    # An entry that gained a caller, or lost its definition, leaves the list.
    assert sorted(_unreferenced()) == sorted(ALLOWLIST)
