"""Every dotted code name README.md cites still resolves."""

import importlib
import re
from pathlib import Path

import lambda_forge

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "lambda_forge").glob("*.py")} - {"__init__"}


def cited_names(text: str) -> list[str]:
    """The backticked dotted names in text, with a trailing ``()`` dropped."""
    return re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", text)


def resolves(name: str):
    """True or False for a name whose head is a package module or an
    exported class; None for any other name (a variable such as
    ``engine.m``)."""
    head, *rest = name.split(".")
    if head in MODULES:
        obj = importlib.import_module(f"lambda_forge.{head}")
    elif isinstance(getattr(lambda_forge, head, None), type):
        obj = getattr(lambda_forge, head)
    else:
        return None
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_cited_names_are_read_and_checked():
    text = "`gf2.key_form`, `PauliPoint.key()`, `engine.m` and `pauli.no_such`"
    assert cited_names(text) == ["gf2.key_form", "PauliPoint.key", "engine.m", "pauli.no_such"]
    assert [resolves(name) for name in cited_names(text)] == [True, True, None, False]


def test_readme_names_resolve():
    checked = {
        name: ok
        for name in cited_names((ROOT / "README.md").read_text())
        if (ok := resolves(name)) is not None
    }
    assert checked
    assert [name for name, ok in checked.items() if not ok] == []
