"""The source itself: every name a module imports is used in it or exported."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "iqtheta"


def unused_imports(source: str) -> list[str]:
    """The names that source imports (bound by import or from-import, not
    from __future__) that it neither reads nor lists in its __all__, in
    import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("import heapq\n", ["heapq"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c, d\n__all__ = ['d']\n", ["c"]),
    ("from __future__ import annotations\nfrom a import b\ndef f(x: b): pass\n", []),
])
def test_unused_imports_reads_names_and_all(source, unused):
    assert unused_imports(source) == unused
