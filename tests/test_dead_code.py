"""Every module-level private function or class of the package is read
somewhere in the package outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lambda_forge"


def _reads(node) -> Counter:
    """How often each name is read under node, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unread_private_definitions(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, name) of each top-level private function or class in
    the {module: tree} map that no code outside its own definition reads;
    a read is matched by name alone, in any of the modules."""
    reads = sum(map(_reads, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                if reads[name] == _reads(node)[name]:
                    found.append((module, node.lineno, name))
    return found


def test_unread_private_definitions_are_detected():
    a = "def _used():\n    return 1\n\ndef _dead(k):\n    return _dead(k - 1)\n"
    b = "from a import _used\n\nclass _Gone:\n    pass\n\nx = _used() + len(__name__)\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert unread_private_definitions(trees) == [("a", 4, "_dead"), ("b", 3, "_Gone")]


def test_package_private_definitions_are_all_read():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert trees
    assert unread_private_definitions(trees) == []
