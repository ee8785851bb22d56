"""Every top-level import of a module of qtchar, tests/ or bench/ is
referenced in that module, every module-level private function or class of
qtchar is referenced somewhere in qtchar outside its own definition, every
public function, class and method of qtchar is referenced somewhere in
qtchar, tests/ or bench/ outside its own definition, every qtchar name that
the bench's layer trace looks up exists, the products suite checks the
product workload's inputs, and no module of qtchar but tpoly.py writes into
a TPoly's coefficient map.  `import qtchar` loads neither dataclasses nor inspect.

qtchar/__init__.py is left out of the import check: it imports names only to
re-export them.  Elsewhere `from m import x as x` marks a deliberate re-export.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtchar.suites import PRODUCT_INPUTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qtchar").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


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


def _defs(tree):
    """Module-level functions and classes, with the methods of those classes, as
    (qualified name, node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreferenced_defs(sources: dict, defined, private: bool):
    """The private (_name) or public definitions in the `defined` paths of
    `sources` that nothing in `sources` names outside the definition's own body.

    Dunder names are left out.  An import in an __init__.py only re-exports,
    so it is no reference.
    """
    trees = {path: ast.parse(source) for path, source in sources.items()}
    refs = {}  # name -> ids of the nodes that name it
    for path, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.alias) and Path(path).name == "__init__.py":
                continue
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias)):
                name = getattr(n, "id", None) or getattr(n, "attr", None) or n.name
                refs.setdefault(name, []).append(id(n))
    orphans = []
    for module in defined:
        for qualname, node in _defs(trees[module]):
            name = node.name
            if name.startswith("__") or name.startswith("_") != private:
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(ref in own for ref in refs.get(name, ())):
                orphans.append(f"{Path(module).name}:{qualname}")
    return orphans


def test_guard_sees_orphaned_private_helpers():
    sources = {
        "a": "def _used():\n    pass\n\ndef _self_only():\n    return _self_only()\n"
             "class _Imported:\n    pass\n\ndef __dunder__():\n    pass\n_used()\n",
        "b": "from a import _Imported\nimport a\na._used\n",
    }
    assert unreferenced_defs(sources, sources, private=True) == ["a:_self_only"]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_defs(sources, sources, private=True) == []


def test_guard_sees_orphaned_public_names():
    sources = {
        "pkg/__init__.py": "from .m import exported_only\n",
        "pkg/m.py": "def exported_only():\n    pass\n\ndef used():\n    return used()\n"
                    "class Box:\n    def read(self):\n        return self.read()\n"
                    "    def __eq__(self, other):\n        pass\n",
        "tests/t.py": "from pkg.m import used, Box\nused()\n",
    }
    assert unreferenced_defs(sources, ["pkg/__init__.py", "pkg/m.py"], private=False) == [
        "m.py:exported_only", "m.py:Box.read"
    ]


def test_no_orphaned_public_names():
    """Every public function, class and method of qtchar is named somewhere in
    qtchar, tests/ or bench/ outside its own body."""
    paths = [*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    sources = {p: p.read_text(encoding="utf-8") for p in paths}
    assert unreferenced_defs(sources, PACKAGE, private=False) == []


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RESOLVED_BY_TRACER = [(module, attr) for module, attr, _ in _bench_module("tracer").SPANS] + [
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


def test_products_suite_checks_the_benchmark_inputs():
    """`qtchar verify products` runs the full check on exactly the star
    products that the benchmark's product workload times."""
    jobs = _bench_module("jobs").WORKLOADS["product"].values()
    assert PRODUCT_INPUTS == [(cartan, *texts) for _kind, cartan, *texts in jobs]


# the dict methods that change a dict in place
_DICT_MUTATORS = {"pop", "update", "setdefault", "clear", "popitem"}


def coeffs_writes(source: str):
    """The lines that write into a `.coeffs` map or replace it: an item or
    the map assigned, augmented or deleted, or a mutating dict method."""

    def is_coeffs(node):
        return isinstance(node, ast.Attribute) and node.attr == "coeffs"

    lines = []
    for n in ast.walk(ast.parse(source)):
        # a Store context also marks the target of |=
        if isinstance(getattr(n, "ctx", None), (ast.Store, ast.Del)) and (
                is_coeffs(n) or isinstance(n, ast.Subscript) and is_coeffs(n.value)):
            lines.append(n.lineno)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in _DICT_MUTATORS and is_coeffs(n.func.value)):
            lines.append(n.lineno)
    return sorted(lines)


def test_guard_sees_coeffs_writes():
    source = ("p.coeffs[0] = 1\nq.coeffs[1] += 2\ndel x.y.coeffs[3]\np.coeffs.pop(0)\n"
              "p.coeffs.update({})\np.coeffs.setdefault(1, 0)\np.coeffs.clear()\n"
              "p.coeffs.popitem()\np.coeffs |= {}\np.coeffs = {}\ndel p.coeffs\n"
              "c = p.coeffs[0]\nd = p.coeffs.get(0)\nfor e in p.coeffs.items(): pass\n")
    assert coeffs_writes(source) == list(range(1, 12))


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "tpoly.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_coeffs_writes_outside_tpoly(path):
    """Equal coefficients are shared objects (t_algorithm keeps one TPoly per
    value), which is sound only while no TPoly is edited after it is built;
    tpoly.py alone builds them."""
    assert coeffs_writes(path.read_text(encoding="utf-8")) == []


def test_import_loads_neither_dataclasses_nor_inspect():
    """dataclasses brings inspect, ast and dis, most of the package's import
    time.  Checked in a fresh interpreter, since pytest itself loads inspect."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, qtchar; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
