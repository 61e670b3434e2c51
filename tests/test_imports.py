import ast
import json
from pathlib import Path

import pytest

from piercing import bodies, jsonio
from piercing.bodies import BoxBody, Family
from piercing.generators import random_family, unit_disk, unit_triangle
from piercing.translates import greedy_pierce, grid_pierce

SRC = Path(__file__).parents[1] / "src" / "piercing"

# bindings kept on purpose: perfbench/spans.py patches calls through them
KEPT = {("homothets", "pair_checker"), ("translates", "translate_cluster_cover")}


# top-level names and public methods no module in src/ uses, kept on purpose
UNREFERENCED_OK = {
    # test instance makers: the tests and benchmarks draw bases from them
    ("generators", "random_convex_polygon"), ("generators", "random_cs_hexagon"),
    # library API: the explicit form of a symbolic certificate, which lists
    # its points for a file that any reader can check point by point
    ("certificates", "PierceCertificate.explicit"),
}


def _exported(tree):
    """The names a module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


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
    used |= _exported(tree)
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


def _unreferenced(trees):
    """(module, name) of every top-level function or class of the modules
    {name: tree} that no module refers to, by name, attribute or import,
    and no module exports in __all__, and (module, "Class.method") of every
    public method of a top-level class that no module reads as an
    attribute (x.method): a local variable or an argument of the same name
    does not count."""
    used, attrs = set(), set()
    for tree in trees.values():
        used |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    used |= attrs
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
                out.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(module, "%s.%s" % (node.name, m.name)) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                        and m.name not in attrs]
    return sorted(out)


def test_every_top_level_name_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    dead = [name for name in _unreferenced(trees) if name not in UNREFERENCED_OK]
    assert not dead, "nothing in src/ uses %s" % ", ".join("%s.%s" % d for d in dead)


def test_the_guard_sees_an_unreferenced_name():
    trees = {
        "a": ast.parse("__all__ = ['pub']\ndef pub(): return helper()\ndef helper(): pass\n"
                       "def planted(): pass\nclass Planted: pass\n"),
        "b": ast.parse("from .a import helper\nimport a\na.pub\n"
                       "class Used:\n    def called(self): pass\n    def unused(self): pass\n"
                       "    def local(self): pass\n    def _private(self): pass\n"
                       "Used().called()\nlocal = [m for m in range(3)]\n"),
    }
    assert _unreferenced(trees) == [("a", "Planted"), ("a", "planted"), ("b", "Used.local"),
                                    ("b", "Used.unused")]


def test_points_of_a_read_disk_certificate_build_no_fraction_column(monkeypatch):
    # the symbolic points come from the int keys of the scaled columns
    f = random_family(unit_disk(), 300, box_size=20, seed=4)
    doc = jsonio.certificate_to_json(greedy_pierce(f, verify=False), f)
    cert, g = jsonio.certificate_from_json(json.loads(jsonio.dump(doc)))
    assert cert.symbolic and cert.family is g

    def refuse(self, i):
        raise AssertionError("a member's Fraction translation derived")

    # the one place a member's translation becomes Fractions, for members
    # and realize too
    monkeypatch.setattr(Family, "translation", refuse)
    assert len(cert.points) == cert.point_count()


@pytest.mark.parametrize("base", [unit_triangle, lambda: BoxBody((0, 0, 0), (1, 2, 1))],
                         ids=["triangle", "box"])
def test_grid_pierce_builds_no_fraction_member(monkeypatch, base):
    # centres, lines, order and levels on the scaled int columns of a family
    # read from its file, and verify decides the points on the members'
    # slabs: once the slabs are built, bodies makes no Fraction (a member's
    # translation, scale or realized body would take one)
    f = jsonio.family_from_json(jsonio.family_to_json(random_family(base(), 300, box_size=12,
                                                                    seed=5)))
    f.slabs()

    def refuse(*args):
        raise AssertionError("bodies made a Fraction")

    monkeypatch.setattr(bodies, "Fraction", refuse)
    assert grid_pierce(f, verify=True).points
