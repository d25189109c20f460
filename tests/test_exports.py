"""The package's export list names exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import hsembed


def test_all_matches_imports_without_duplicates():
    tree = ast.parse(Path(hsembed.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(hsembed.__all__) == len(set(hsembed.__all__))
    assert sorted(hsembed.__all__) == sorted(imported)
