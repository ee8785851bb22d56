"""Every top-level import of a module is referenced in that module.

qtchar/__init__.py is left out: it imports names only to re-export them.
Elsewhere `from m import x as x` marks a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "qtchar").glob("*.py")) if p.name != "__init__.py"]
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
