"""Every package facade re-exports exactly the names its callers import.

A name is re-exported by a package ``__init__.py`` only when something
other than a test imports it through that package: ``src/`` (a facade is
not a caller), ``examples/``, ``benchmarks/e2e/``, the inline Python of
``.github/workflows/ci.yml`` or README.  Every other name has one import
path, its defining module, and tests import it from there.  A lazy
facade's ``_LAZY`` table (name -> defining module, imported on first
access) counts as its imports.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FACADES = sorted(SRC.rglob("__init__.py"))


def _module(facade: Path) -> str:
    return ".".join(facade.relative_to(SRC).parent.parts)


def _reaches(dotted: str) -> set[tuple[str, str]]:
    """``(package, name)`` for every split of ``a.b.c``: ``(a, b)``, ``(a.b, c)``."""
    parts = dotted.split(".")
    return {(".".join(parts[:i]), parts[i]) for i in range(1, len(parts))}


def _python_reaches(text: str) -> set[tuple[str, str]]:
    """``from P import X`` and ``P.X`` attribute chains (``import P as a`` followed)."""
    tree = ast.parse(text)
    aliases = {
        a.asname: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.asname
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out |= {(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Attribute):
            attrs, base = [], node
            while isinstance(base, ast.Attribute):
                attrs.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                out |= _reaches(".".join([aliases.get(base.id, base.id), *reversed(attrs)]))
    return out


def _text_reaches(text: str) -> set[tuple[str, str]]:
    """The same two forms, found by pattern in README prose and CI scripts."""
    out = set()
    for m in re.finditer(r"from (repro[\w.]*) import ([\w, ]+)", text):
        out |= {(m.group(1), name.strip()) for name in m.group(2).split(",") if name.strip()}
    for m in re.finditer(r"\brepro(?:\.\w+)+", text):
        out |= _reaches(m.group(0))
    return out


@pytest.fixture(scope="module")
def callers() -> set[tuple[str, str]]:
    files = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "examples").glob("*.py"), *(ROOT / "benchmarks" / "e2e").glob("*.py")]
    reached = set()
    for path in files:
        reached |= _python_reaches(path.read_text(encoding="utf-8"))
    for path in (ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml"):
        reached |= _text_reaches(path.read_text(encoding="utf-8"))
    return reached


def _lazy_table(tree: ast.Module) -> dict[str, str]:
    """A lazy facade's ``_LAZY`` literal: public name -> defining module."""
    return next(
        (
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_LAZY"]
        ),
        {},
    )


def _facade_imports(tree: ast.Module) -> list[str]:
    """What a facade re-exports: its ``from repro… import`` names and the
    names its ``_LAZY`` table resolves on first access, less private
    helpers (``_lazy_attributes``)."""
    names = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for a in node.names
    ]
    names += _lazy_table(tree)
    return [n for n in names if not n.startswith("_") or n.startswith("__")]


@pytest.mark.parametrize("facade", FACADES, ids=_module)
def test_facade_exports_only_what_callers_import(facade, callers):
    tree = ast.parse(facade.read_text(encoding="utf-8"))
    imported = _facade_imports(tree)
    exported = next(
        (
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        ),
        [],
    )
    assert sorted(imported) == sorted(exported)
    package = _module(facade)
    unreached = [n for n in exported if n != "__version__" and (package, n) not in callers]
    assert unreached == [], f"{package} re-exports names no caller imports through it"


LAZY_FACADES = [f for f in FACADES if _lazy_table(ast.parse(f.read_text(encoding="utf-8")))]


@pytest.mark.parametrize("facade", LAZY_FACADES, ids=_module)
def test_lazy_names_resolve_in_their_defining_module(facade):
    package = importlib.import_module(_module(facade))
    for name, module in _lazy_table(ast.parse(facade.read_text(encoding="utf-8"))).items():
        value = getattr(package, name)
        assert value is getattr(importlib.import_module(module), name), name
        assert getattr(value, "__module__", module) == module, name
