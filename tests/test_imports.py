import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "piercing"

# bindings kept on purpose: perfbench/spans.py patches calls through them
KEPT = {("homothets", "pair_checker"), ("translates", "translate_cluster_cover")}


def _unused_imports(tree):
    """(name, line) of every name a module imports and never uses; a name
    listed in __all__ counts as used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [(name, line) for name, line in _unused_imports(ast.parse(path.read_text()))
              if (path.stem, name) not in KEPT]
    assert not unused, "%s imports but never uses %s" % (
        path.name, ", ".join("%s (line %d)" % u for u in unused))


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert _unused_imports(tree) == [("math", 1), ("path", 2)]
