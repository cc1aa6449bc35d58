"""Every name a package module imports is used in the scope that imports it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lambda_forge"


def unused_imports(tree):
    """(line, name) of each import whose bound name is never read in its
    scope: the module for a top-level import, else the enclosing function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if getattr(child, "module", None) == "__future__":
                    continue
                read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
                for alias in child.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        found.append((child.lineno, name))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child if inner else scope)

    visit(tree, tree)
    return found


def test_unused_imports_are_detected():
    source = "import os\nfrom typing import Any\n\ndef f():\n    from json import dumps\n    return Any\n"
    assert unused_imports(ast.parse(source)) == [(1, "os"), (5, "dumps")]


def test_package_imports_are_all_used():
    # __init__ imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: found for p in modules if (found := unused_imports(ast.parse(p.read_text())))
    }
    assert unused == {}


def test_cli_renders_its_document_in_main_alone():
    # commands return (status, payload, diagnostics); main writes it
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    emits, float_reads = set(), set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit":
                emits.add(fn.name)
            if isinstance(node, ast.Attribute) and node.attr == "float":
                float_reads.add(fn.name)
    assert emits == {"main"} and float_reads == {"main"}


def test_cli_main_maps_exactly_the_user_errors():
    # a KeyError or TypeError from a defect must surface, not read as bad input
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "main")
    caught = []
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught += [name.id for name in names]
    assert sorted(caught) == ["OSError", "UsageError", "ValueError"]


#: the dense and complex-product oracles, the state operators, the
#: reduced law and the identity sweeps, which live in tests/helpers.py,
#: and the lifted rule the reduced law once shared with the simulator (a
#: lifted step is written only in ``simulate._cached_branch``)
TOP_ORACLES = {
    "pauli_matrix", "DENSE_ORACLE_BOUND", "state_operator", "reduced_distribution", "_lift_branch",
    "verify_update_rules", "mixture_identities_report", "_qubit_vertex", "averaged_trace_identity",
}
QOPERATOR_ORACLES = {"product", "dense_matrix", "_complex_product", "_complex_coeffs"}


def bound_names(body):
    """(line, name) of each def, class or assigned name in a block."""
    found = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((stmt.lineno, stmt.name))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found += [(stmt.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def oracle_leaks(tree):
    """(line, what) of each numpy import anywhere in a module (top level,
    in a function or under TYPE_CHECKING), each top-level oracle name,
    each import of an oracle name and each oracle method of a
    ``QOperator`` class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "numpy") for alias in node.names
                      if alias.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                found.append((node.lineno, "numpy"))
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in TOP_ORACLES]
    found += [(line, name) for line, name in bound_names(tree.body) if name in TOP_ORACLES]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "QOperator":
            found += [(line, f"QOperator.{name}") for line, name in bound_names(node.body)
                      if name in QOPERATOR_ORACLES]
    return sorted(found)


def test_oracle_leaks_are_detected():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "DENSE_ORACLE_BOUND = 5\n"
        "class QOperator:\n"
        "    def dense_matrix(self):\n"
        "        from numpy.linalg import eigvalsh\n"
        "    def tensor(self):\n"
        "        import os, numpy\n"
        "def pauli_matrix(p):\n"
        "    from .orbit import enumerate_family, verify_update_rules\n"
    )
    assert oracle_leaks(ast.parse(source)) == [
        (3, "numpy"), (4, "DENSE_ORACLE_BOUND"), (6, "QOperator.dense_matrix"),
        (7, "numpy"), (9, "numpy"), (10, "pauli_matrix"), (11, "verify_update_rules"),
    ]
    assert oracle_leaks(ast.parse("import numbers\nclass QOperator:\n    n: int\n")) == []


def test_package_holds_no_oracle_and_imports_no_numpy():
    # the oracles are test code, in tests/helpers.py
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    leaks = {p.name: found for p in modules if (found := oracle_leaks(ast.parse(p.read_text())))}
    assert leaks == {}
