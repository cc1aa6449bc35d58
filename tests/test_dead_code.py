"""Every module-level private function or class of the package, every
private method and every method of a private class is read somewhere in
the package outside its own definition."""

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree, classes: set):
    """(line, name, node) of each top-level function or class of a module,
    then, named Class.method, of each method of its top-level classes
    that is private or whose class is.  Dunder methods are read
    implicitly, and a class with a base outside ``classes`` (the
    package's) may have its methods called from there, so both are left
    out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node
        if isinstance(node, ast.ClassDef) and all(
                isinstance(base, ast.Name) and base.id in classes for base in node.bases):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("__")
                        and (_private(node.name) or _private(method.name))):
                    yield method.lineno, f"{node.name}.{method.name}", method


def unread_private_definitions(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private definition in the {module:
    tree} map (a top-level function or class, or a method as
    ``_definitions`` lists it) that no code outside its own definition
    reads; a read is matched by name alone, in any of the modules."""
    reads = sum(map(_reads, trees.values()), Counter())
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    found = []
    for module, tree in trees.items():
        for line, qualname, node in _definitions(tree, classes):
            name = node.name
            if (_private(name) or "." in qualname) and reads[name] == _reads(node)[name]:
                found.append((module, line, qualname))
    return found


def test_unread_private_definitions_are_detected():
    a = "def _used():\n    return 1\n\ndef _dead(k):\n    return _dead(k - 1)\n"
    b = "from a import _used\n\nclass _Gone:\n    pass\n\nx = _used() + len(__name__)\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert unread_private_definitions(trees) == [("a", 4, "_dead"), ("b", 3, "_Gone")]
    # methods: a private one of a public class, and any one of a private
    # class, unless it is a dunder, read as an attribute somewhere, or of
    # a class with a base from outside the modules
    c = (
        "class Open:\n    def shown(self):\n        return self._kept()\n"
        "    def _kept(self):\n        return 1\n    def _stale(self):\n        return 2\n"
        "class _Call:\n    def __init__(self):\n        self.n = 0\n"
        "    def finish(self):\n        return self.n\n"
        "    def walk(self):\n        return self.walk()\n"
        "class _Parser(argparse.ArgumentParser):\n    def error(self, message):\n"
        "        raise ValueError(message)\n"
        "x = _Call().finish() + Open().shown() + len(_Parser().prog)\n"
    )
    assert unread_private_definitions({"c": ast.parse(c)}) == [
        ("c", 6, "Open._stale"), ("c", 13, "_Call.walk")]


def test_package_private_definitions_are_all_read():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert trees
    assert unread_private_definitions(trees) == []
