"""``src/`` holds what its callers run, and each facade re-exports what
they import through it.

The callers are the command-line interface (``repro.cli``), ``examples/``,
``benchmarks/e2e/``, the inline Python of ``.github/workflows/ci.yml`` and
README; tests are not callers.  Every ``src/`` module is reached from
them through imports, function-local ones included, a lazy facade's
``_LAZY`` table or a quoted module name (``CellFamily.engines``, an
``import_module`` argument).  A module only tests import belongs beside
them, as ``tests/small_models.py`` does.

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


def _dotted(path: Path) -> str:
    """The module name of a ``src/`` file (a package's is its ``__init__``'s)."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_dotted(p): p for p in sorted(SRC.rglob("*.py"))}


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


def _named(dotted: str) -> set[str]:
    """The modules importing ``dotted`` runs: each prefix that is a module
    (``repro.sweep.GRIDS`` names ``repro`` and ``repro.sweep``)."""
    parts = dotted.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & MODULES.keys()


def _python_modules(text: str) -> set[str]:
    """Modules a Python file names: ``import`` / ``from … import`` anywhere
    in it (a ``from P import X`` names ``P.X`` too, which may be a module),
    attribute chains and string constants (``_LAZY`` values,
    ``CellFamily.engines``, ``import_module`` arguments)."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names |= {node.module, *(f"{node.module}.{a.name}" for a in node.names)}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    names |= {f"{p}.{n}" for p, n in _python_reaches(text)}
    return set().union(*map(_named, names))


def _text_modules(text: str) -> set[str]:
    """Modules README prose or a CI script names (``python -m repro.cli``)."""
    return set().union(*(_named(m.group(0)) for m in re.finditer(r"\brepro(?:\.\w+)+", text)))


def test_every_src_module_is_reached_from_a_caller():
    reached = {"repro.cli"}
    for path in [*(ROOT / "examples").glob("*.py"), *(ROOT / "benchmarks" / "e2e").glob("*.py")]:
        reached |= _python_modules(path.read_text(encoding="utf-8"))
    for path in (ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml"):
        reached |= _text_modules(path.read_text(encoding="utf-8"))
    frontier = set(reached)
    while frontier:
        module = frontier.pop()
        found = _python_modules(MODULES[module].read_text(encoding="utf-8")) - reached
        reached |= found
        frontier |= found
    unreached = sorted(MODULES.keys() - reached)
    assert unreached == [], f"src/ modules no caller reaches (tests are not callers): {unreached}"
