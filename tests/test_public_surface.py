"""``src/`` holds what its callers run, and each facade re-exports what
they import through it.

The callers are the command-line interface (``repro.cli``), ``examples/``,
``benchmarks/e2e/``, the inline Python of ``.github/workflows/ci.yml`` and
README; tests are not callers.  Every ``src/`` module is reached from
them through imports, function-local ones included, a lazy facade's
``_LAZY`` table or a quoted module name (``CellFamily.engines``, an
``import_module`` argument).  Every top-level function and class is
reached too: named by a caller, by a module-level statement of ``src/``
or by the body of a function or class already reached.  Code only tests
run belongs beside them, as ``tests/small_models.py`` and
``tests/tree_oracles.py`` do.

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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node: ast.AST) -> set[str]:
    """The names a body uses: variables, attributes, the original of an
    aliased import and string constants that are dotted identifiers
    (``TREE_BUILDERS`` values, ``_LAZY`` entries).  A docstring names
    nothing, and a plain import only binds what the body then uses."""
    docstrings = {
        id(n.value)
        for n in ast.walk(node)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias) and n.asname:
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def _is_all(node: ast.AST) -> bool:
    """``__all__ = [...]``: it lists names to export; it uses none."""
    return [getattr(t, "id", None) for t in getattr(node, "targets", [])] == ["__all__"]


def _unreached(used: set[str], sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function or class in ``sources``
    (module -> text) that neither ``used`` nor a counted body names.

    Every module-level statement counts, less ``__all__``; a definition
    counts once a counted body names it.  A class counts with its bases,
    decorators, class body and dunder methods; each other method waits to
    be named like a function."""
    used = set(used)
    waiting = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, DEFINITIONS):
                waiting.append((module, node))
            elif not _is_all(node):
                used |= _uses(node)
    while named := [(owner, node) for owner, node in waiting if node.name in used]:
        for owner, node in named:
            waiting.remove((owner, node))
            counted = [node]
            if isinstance(node, ast.ClassDef):
                methods = [
                    m
                    for m in node.body
                    if isinstance(m, DEFINITIONS) and not re.fullmatch(r"__\w+__", m.name)
                ]
                waiting += [(f"{owner}.{node.name}", m) for m in methods]
                counted = [*node.decorator_list, *node.bases, *node.keywords]
                counted += [s for s in node.body if s not in methods]
            for part in counted:
                used |= _uses(part)
    return sorted(f"{owner}.{node.name}" for owner, node in waiting if owner in sources)


def test_every_src_name_is_reached_from_a_caller():
    used = set()
    for path in [*(ROOT / "examples").glob("*.py"), *(ROOT / "benchmarks" / "e2e").glob("*.py")]:
        used |= _uses(ast.parse(path.read_text(encoding="utf-8")))
    for path in (ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml"):
        used |= {name for _, name in _text_reaches(path.read_text(encoding="utf-8"))}
    sources = {module: path.read_text(encoding="utf-8") for module, path in MODULES.items()}
    unreached = _unreached(used, sources)
    assert unreached == [], f"src/ functions and classes no caller reaches: {unreached}"


# The walk on small made-up modules: each case plants one way a name is
# reached or left unreached, so the check above is seen to bite.


def test_name_walk_flags_a_definition_nothing_names():
    assert _unreached(set(), {"m": "def f():\n    pass\n"}) == ["m.f"]


def test_name_walk_follows_bodies_across_modules_to_a_fixpoint():
    sources = {
        "a": "def entry():\n    return middle()\n",
        "b": "def middle():\n    return leaf\n\ndef orphan():\n    return leaf\n",
        "c": "def leaf():\n    pass\n",
    }
    assert _unreached({"entry"}, sources) == ["b.orphan"]
    assert _unreached(set(), sources) == ["a.entry", "b.middle", "b.orphan", "c.leaf"]


def test_name_walk_counts_module_statements_and_dotted_strings():
    sources = {
        "m": 'BUILDERS = {"bfs": "pkg.trees.bfs_tree"}\n\ndef bfs_tree():\n    pass\n',
        "n": "HOOK = helper\n\ndef helper():\n    pass\n",
    }
    assert _unreached(set(), sources) == []


def test_name_walk_ignores_docstrings_and_all():
    source = '"""f"""\n__all__ = ["f"]\n\ndef f():\n    pass\n\ndef g():\n    """f"""\n'
    assert _unreached({"g"}, {"m": source}) == ["m.f"]


def test_name_walk_counts_an_aliased_import_but_not_a_plain_one():
    sources = {
        "lib": "def f():\n    pass\n\ndef h():\n    pass\n",
        "user": "from lib import f as g\nfrom lib import h\n",
    }
    assert _unreached(set(), sources) == ["lib.h"]


def test_name_walk_counts_dunder_methods_with_their_class_and_waits_on_others():
    source = (
        "class Base:\n    pass\n\n"
        "class K(Base):\n"
        "    def __init__(self):\n        setup()\n"
        "    def method(self):\n        return other()\n\n"
        "def setup():\n    pass\n\n"
        "def other():\n    pass\n"
    )
    assert _unreached({"K"}, {"m": source}) == ["m.other"]
    assert _unreached({"K", "method"}, {"m": source}) == []
