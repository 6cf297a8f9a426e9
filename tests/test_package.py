"""The package's public surface: ``crossing_kit.__all__`` against what
``__init__`` imports."""

import ast
from pathlib import Path

import crossing_kit


def test_all_is_sorted_unique_and_complete():
    names = crossing_kit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(crossing_kit, name) is not None, name
    # every public name that __init__ imports is exported, so a removal
    # that leaves an import or an __all__ entry behind fails here
    tree = ast.parse(Path(crossing_kit.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {n for n in imported if not n.startswith("_")} <= set(names)
