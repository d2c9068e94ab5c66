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
