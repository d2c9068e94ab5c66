"""Source hygiene: every name a program module imports is read there."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibniz_lab"


def unused_imports(source: str) -> list:
    """(line, name) of each name an import in source binds and nothing reads.

    `from __future__` imports and imports marked `# noqa: F401` are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_program_modules_import_only_what_they_use():
    # the check itself sees a dropped use, and honours the two exemptions
    assert unused_imports("from math import gcd, lcm\nx = gcd(2, 4)\n") == [(1, "lcm")]
    assert unused_imports("from __future__ import annotations\n"
                          "import os  # noqa: F401\n") == []
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level function, class or
    constant that no module of sources, {module: source}, reads.

    A name counts as read where it is loaded or named in a `from` import;
    dunder names are skipped.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(hit for hit in defined if hit[2] not in read)


def test_program_modules_read_every_private_name():
    # the check itself sees a private name nothing reads, in any module, and
    # counts a load or a `from` import anywhere as a read
    assert unread_private_names({
        "a.py": "_A = 1\n__all__ = []\ndef _f(): pass\nclass _C: pass\ndef g(): return _A\n",
        "b.py": "from .a import _f as f\n_unused: int = 0\n"}) \
        == [("a.py", 4, "_C"), ("b.py", 2, "_unused")]
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 1
    assert unread_private_names(sources) == []
