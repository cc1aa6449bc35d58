"""Every module-level private function or class of the package, every
private method and every method of a private class is read somewhere in
the package outside its own definition; every public one is read there
too, exported by ``lambda_forge``, read by the bench or a demo, or named
in README; every dataclass field and every ``__slots__`` entry of a
package class is read as an attribute; no package class hand-writes the
protocol that ``field.value_type`` declares, and only ``field.py`` builds an
instance past its class's constructors (``object.__new__``)."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lambda_forge"


def _reads(node) -> Counter:
    """How often each name is read under node, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_private(qualname: str) -> bool:
    """A private definition: a private name, or a method of a private class."""
    return any(map(_private, qualname.split(".")))


def _definitions(tree, classes: set):
    """(line, name, node) of each top-level function or class of a module,
    then, named Class.method, of each method of its top-level classes.
    Dunder methods are read implicitly, and a class with a base outside
    ``classes`` (the package's) may have its methods called from there,
    so both are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node
        if isinstance(node, ast.ClassDef) and all(
                isinstance(base, ast.Name) and base.id in classes for base in node.bases):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("__")):
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
            if _is_private(qualname) and reads[name] == _reads(node)[name]:
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


def unread_public_definitions(trees: dict, outside: Counter, readme: str) -> list[tuple]:
    """(module, line, name) of each public definition in the {module: tree}
    map (a top-level function or class, or a public method of a public
    class, as ``_definitions`` lists them) that no code in the map reads
    outside its own definition, that ``__init__.py`` does not import (a
    top-level name), that ``outside`` (the reads of the bench and the
    demos) does not count, and that no backticked span of ``readme``
    names as a word.  Reads are matched by name alone."""
    reads = sum(map(_reads, trees.values()), Counter())
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)}
    found = []
    for module, tree in trees.items():
        for line, qualname, node in _definitions(tree, classes):
            name = node.name
            if _is_private(qualname) or reads[name] > _reads(node)[name]:
                continue
            if (name in exported and "." not in qualname) or outside[name] or name in named:
                continue
            found.append((module, line, qualname))
    return found


def test_unread_public_definitions_are_detected():
    a = (
        "def used():\n    return 1\n\ndef stale():\n    return stale()\n"
        "def exported():\n    pass\ndef benched():\n    pass\ndef cited():\n    pass\n"
        "class Open:\n    def shown(self):\n        return 1\n"
        "    def hidden(self):\n        return 2\n    def _kept(self):\n        return 3\n"
        "    def exported(self):\n        return 4\n"
        "class Parser(argparse.ArgumentParser):\n    def error(self, message):\n"
        "        raise ValueError(message)\n"
    )
    b = "from a import Open, used\n\nx = used() + Open().shown()\n"
    init = "from .a import Parser, exported\n"
    outside = _reads(ast.parse("import a\na.benched()\n"))
    readme = "`a.cited()` names one; stale, hidden and used outside backticks name none.\n"
    trees = {"__init__.py": ast.parse(init), "a": ast.parse(a), "b": ast.parse(b)}
    # an exported class does not cover its methods, nor an export a method of that name
    assert unread_public_definitions(trees, outside, readme) == [
        ("a", 4, "stale"), ("a", 15, "Open.hidden"), ("a", 19, "Open.exported")]


def test_package_public_definitions_are_all_read():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    outside = sum((_reads(ast.parse(p.read_text()))
                   for folder in ("bench", "demos") for p in sorted((ROOT / folder).rglob("*.py"))),
                  Counter())
    assert trees and outside
    readme = (ROOT / "README.md").read_text()
    assert unread_public_definitions(trees, outside, readme) == []


def _decorator_names(node) -> list[str]:
    """The names of a class's decorators, called or not."""
    return [f.id for f in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
            if isinstance(f, ast.Name)]


def _is_dataclass(node) -> bool:
    return not {"dataclass", "value_type"}.isdisjoint(_decorator_names(node))


def _fields(tree):
    """(line, Class.field) of each field of the module's top-level
    classes: an annotated name in a dataclass's body, or a ``__slots__``
    entry."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (_is_dataclass(node) and isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield stmt.lineno, node.name, stmt.target.id
            elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                for name in ast.literal_eval(stmt.value):
                    yield stmt.lineno, node.name, name


def unread_fields(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, Class.field) of each field (as ``_fields`` lists it)
    that no code in the {module: tree} map reads as an attribute; a read
    is matched by name alone, and a store does not count."""
    reads = {n.attr for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(module, line, f"{cls}.{name}")
            for module, tree in trees.items()
            for line, cls, name in _fields(tree) if name not in reads]


def test_unread_fields_are_detected():
    a = (
        "@dataclass(frozen=True)\nclass Step:\n    kept: int\n    stale: int\n"
        "@dataclass\nclass Bare:\n    gone: int\n    shown: int = 0\n"
        "class Engine:\n    __slots__ = ('n', '_pending')\n"
        "    def __init__(self):\n        self.n = self._pending = 0\n"
        "    def size(self, step):\n        return self.n + step.kept + Bare().shown\n"
        "class Plain:\n    label: str\n"
        "@value_type(init=False)\nclass Value:\n    shown: int\n    hidden: int\n"
    )
    assert unread_fields({"a": ast.parse(a)}) == [
        ("a", 4, "Step.stale"), ("a", 7, "Bare.gone"), ("a", 10, "Engine._pending"),
        ("a", 20, "Value.hidden")]


def test_package_fields_are_all_read():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_fields(trees) == []


#: what ``value_type`` declares, so no package class writes it by hand
DECLARED = frozenset((
    "__slots__", "__setattr__", "__delattr__", "__reduce__", "__reduce_ex__",
    "__getstate__", "__setstate__", "_of",
))


def hand_written_protocol(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, what) of each class in the {module: tree} map that
    assigns or defines a name of ``DECLARED`` (what is ``Class.name``) or
    is decorated with ``dataclass`` itself (what is ``Class@dataclass``)."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "dataclass" in _decorator_names(node):
                found.append((module, node.lineno, f"{node.name}@dataclass"))
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [(module, stmt.lineno, f"{node.name}.{name}")
                          for name in names if name in DECLARED]
    return found


def test_hand_written_protocol_is_detected():
    a = (
        "@dataclass(frozen=True)\nclass Step:\n    kept: int\n"
        "@dataclass\nclass Bare:\n    pass\n"
        "class Engine:\n    __slots__ = ('n',)\n"
        "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n"
        "    __delattr__ = __setattr__\n"
        "    def __reduce__(self):\n        return (Engine, ())\n"
        "@value_type(init=False)\nclass Value:\n    n: int\n"
        "    def __hash__(self):\n        return self.n\n"
        "    def _fill(self, n):\n        object.__setattr__(self, 'n', n)\n"
        "def outer():\n    class Inner:\n        def __getstate__(self):\n            return {}\n"
        "@value_type()\nclass Built:\n    n: int\n    @staticmethod\n    def _of(n):\n"
        "        return Built(n)\n"
    )
    assert hand_written_protocol({"a": ast.parse(a)}) == [
        ("a", 2, "Step@dataclass"), ("a", 5, "Bare@dataclass"), ("a", 8, "Engine.__slots__"),
        ("a", 9, "Engine.__setattr__"), ("a", 11, "Engine.__delattr__"),
        ("a", 12, "Engine.__reduce__"), ("a", 29, "Built._of"), ("a", 23, "Inner.__getstate__")]


def test_package_classes_declare_their_protocol():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert hand_written_protocol(trees) == []


def object_new_reads(trees: dict) -> list[tuple[str, int]]:
    """(module, line) of each read of ``object.__new__`` in the {module:
    tree} map, a call or an alias: each is an instance built past its
    class's constructors."""
    return sorted((module, node.lineno) for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__new__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_object_new_reads_are_detected():
    a = (
        "_new = object.__new__\n"
        "class Engine:\n    def fork(self):\n        return object.__new__(Engine)\n"
        "def build(cls):\n    return cls.__new__(cls) if cls else super().__new__(cls)\n"
    )
    assert object_new_reads({"a": ast.parse(a)}) == [("a", 1), ("a", 4)]


def test_only_value_type_builds_past_a_constructor():
    # ``field.value_type`` writes each class's trusted ``_of``, the one
    # place an instance is made without its constructor
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module for module, _ in object_new_reads(trees)} == {"field.py"}
