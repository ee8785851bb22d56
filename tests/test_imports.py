"""Every top-level import of a module is referenced in that module,
every module-level private function or class of qtchar is referenced
somewhere in qtchar outside its own definition, and every qtchar name that
the bench's layer trace looks up exists.

qtchar/__init__.py is left out of the import check: it imports names only to
re-export them.  Elsewhere `from m import x as x` marks a deliberate re-export.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qtchar").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.asname != a.name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_sees_unused_and_reexported_names():
    source = "import os\nfrom a import b, c\nfrom d import e as e\nc()\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_defs(sources: dict):
    """Module-level _name functions and classes that nothing outside their own body names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(
                id(n) not in own and name in (
                    getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None)
                )
                for other in trees.values()
                for n in ast.walk(other)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
            ):
                orphans.append(f"{module}:{name}")
    return orphans


def test_guard_sees_orphaned_private_helpers():
    sources = {
        "a": "def _used():\n    pass\n\ndef _self_only():\n    return _self_only()\n"
             "class _Imported:\n    pass\n\ndef __dunder__():\n    pass\n_used()\n",
        "b": "from a import _Imported\nimport a\na._used\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_self_only"]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_defs(sources) == []


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RESOLVED_BY_TRACER = [(module, attr) for module, attr, _ in _bench_tracer().SPANS] + [
    ("qtchar.algebra", "YtAlgebra.a_depth"),
    ("qtchar.cartan", "InvCartanSeries.entry_coeff"),
]


@pytest.mark.parametrize("module,attr", RESOLVED_BY_TRACER, ids=lambda x: x)
def test_bench_tracer_names_resolve(module, attr):
    """Every name that bench/tracer.py wraps exists, so `--trace 1` cannot
    fail with AttributeError."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
