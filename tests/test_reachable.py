"""`src/` holds what the command line runs.

Every top-level function, class and module-level name in
``src/fracergo`` is reached by name from ``cli.main``: the walk starts
at ``main``, and each definition it reaches adds every name and
attribute that its source mentions.  Checks that only the tests run live
in ``tests/paper_checks.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fracergo"

ALLOWED = {
    "iterate_value",  # the independent oracle of perfbench/checks.py
    "rexp_poly",  # the README examples build functions with it
}


def _definitions() -> dict[str, list[ast.AST]]:
    """Top-level definitions by name, over every module of the package."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    defs.setdefault(name, []).append(node)
    return defs


def _mentioned(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_definition_is_reached_from_cli_main():
    defs = _definitions()
    reached, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            todo.extend(_mentioned(node))
    assert ALLOWED <= set(defs)
    assert sorted(set(defs) - reached - ALLOWED) == []
