"""canring imports nothing outside the standard library.

Every import in a module under ``src/canring`` must be relative, of
``canring`` itself, or of a module named in ``sys.stdlib_module_names``;
this holds the README's "standard library only" promise.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "canring").rglob("*.py"))


def _foreign_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    allowed = set(sys.stdlib_module_names) | {"canring"}
    return [name for name in names if name.partition(".")[0] not in allowed]


def test_sources_found():
    assert any(path.name == "presentation.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _foreign_imports(tree) == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import json\nfrom . import cli\nimport numpy\nfrom hypothesis import given\n")
    assert _foreign_imports(tree) == ["numpy", "hypothesis"]
