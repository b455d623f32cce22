"""`src/` holds what the command line runs.

Every top-level function, class and module-level name in
``src/fracergo`` is reached by name from ``cli.main``, and so is every
method and property of its classes: the walk starts at ``main``, and
each definition it reaches adds every name and attribute that its source
mentions.  A method is reached only through an attribute (``x.name``);
a plain name such as ``describe(sys)`` reaches the top-level
``describe`` alone.  Dunder methods run with their class.  Checks that
only the tests run live in ``tests/paper_checks.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fracergo"

ALLOWED = {
    "iterate_value",  # the independent oracle of perfbench/checks.py
    "rexp_poly",  # the README examples build functions with it
}


def _is_member(node: ast.AST) -> bool:
    """A method or property (not a dunder) of a class."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__")


def _definitions() -> tuple[dict[str, list[ast.AST]], dict[str, list[tuple[str, ast.AST]]]]:
    """Top-level definitions by name, and class members by name as
    (class, node) pairs, over every module of the package."""
    defs: dict[str, list[ast.AST]] = {}
    members: dict[str, list[tuple[str, ast.AST]]] = {}
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
            if isinstance(node, ast.ClassDef):
                for item in filter(_is_member, node.body):
                    members.setdefault(item.name, []).append((node.name, item))
    return defs, members


def _mentioned(node: ast.AST) -> tuple[set[str], set[str]]:
    """Plain names and attribute names in a definition's source; a class
    contributes its fields and dunders, not its members' bodies."""
    names, attrs = set(), set()
    todo = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        children = ast.iter_child_nodes(sub)
        if isinstance(sub, ast.ClassDef):
            children = (c for c in children if not _is_member(c))
        todo.extend(children)
    return names, attrs


def _unreached() -> list[str]:
    """Top-level names and Class.member names that the walk from main misses."""
    defs, members = _definitions()
    reached: set[tuple[str, str]] = set()
    todo = [("name", "main")]
    while todo:
        key = todo.pop()
        kind, name = key
        nodes = defs.get(name, []) if kind == "name" else [node for _, node in members.get(name, [])]
        if key in reached or not nodes:
            continue
        reached.add(key)
        for node in nodes:
            names, attrs = _mentioned(node)
            # module.name reaches a top-level name, and x.name any member so named
            todo += [("name", n) for n in names | attrs] + [("attr", a) for a in attrs]
    unreached = sorted(set(defs) - {name for kind, name in reached if kind == "name"} - ALLOWED)
    return unreached + sorted(
        f"{cls}.{name}" for name, owners in members.items() if ("attr", name) not in reached for cls, _ in owners
    )


def test_every_definition_is_reached_from_cli_main():
    defs, _ = _definitions()
    assert ALLOWED <= set(defs)
    assert _unreached() == []
