"""The standing soundness sweep: single edits of a fixed corpus of files.

The corpus holds one certificate per method and base kind as the writer
puts it out, greedy certificates whose clusters keep masks (triangle
homothets, square translates, 3-d boxes), certificates in both earlier
symbolic layouts and in the
earlier explicit one (tests/fixtures/earlier_layout_*.json and
symbolic_earlier_layout_*.json), and a cover pattern per base kind, the
polygon one in both point forms.  An edit changes one value: an int by
+-1, to 0, negated or doubled; a rational string by +-1/64 or negated; a
list with its first or last entry dropped or its last entry repeated; a
rational point swapped between its bare and its object form.  Each edited
file must exit 1, 2 or 3 through cli.main with no traceback, or hold under
reference.recheck, which reads the file and decides its claim in Fractions
and Radicals with none of the package's int layer.
"""

from fractions import Fraction
import json
from pathlib import Path
import random
import re

from piercing import covers, jsonio
from piercing.bodies import BoxBody, Family, Member
from piercing.cli import auto_pierce, main
from piercing.generators import (hexagon_body, random_family, unit_disk, unit_square,
                                 unit_triangle)
from piercing.geom import Point
from reference import recheck, spelled_out

_FIXTURES = Path(__file__).parent / "fixtures"
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_POINT_KEYS = ("points", "refine_points", "offsets")
# a file with at most _FULL edits gets them all; a larger one every edit of
# its factor and D, which each scale its whole claim, and of its masks,
# each of which picks the points of one cluster, and a fixed sample of
# _PER_FILE of the others
_FULL = 150
_PER_FILE = 40
_HEADER = (("factor",), ("instance", "D"))


def _always(path):
    return path in _HEADER or path[:1] == ("masks",)


def _written(f, method="auto", explicit=False):
    cert = auto_pierce(f, method=method)
    return json.loads(jsonio.dump(jsonio.certificate_to_json(
        cert.explicit() if explicit else cert, f)))


def _corpus():
    disks = random_family(unit_disk(), 10, box_size=4, seed=1)
    # two rows of squares on one line: members tied with their seed's rank
    row = Family(unit_square(), [Member(Point(Fraction(x, 2), 0)) for x in (0, 1, 2, 6, 7, 8)])
    triangles = random_family(unit_triangle(), 8, box_size=3, seed=6)
    docs = {
        "greedy disks": _written(disks),
        "greedy disks, explicit": _written(disks, explicit=True),
        "greedy triangles": _written(triangles),
        "greedy squares": _written(random_family(unit_square(), 8, box_size=3, seed=3)),
        "greedy squares in rows": _written(row),
        "greedy boxes": _written(random_family(BoxBody((0, 0), (1, Fraction(1, 2))), 8,
                                               box_size=3, seed=2)),
        "greedy-homothets triangles": _written(random_family(
            unit_triangle(), 8, box_size=3, kind="homothets", seed=4)),
        "greedy-homothets triangles, masked": _written(random_family(
            unit_triangle(), 14, box_size=5, kind="homothets", seed=9)),
        "greedy squares, masked": _written(random_family(unit_square(), 14, box_size=5, seed=9)),
        "greedy 3-d boxes, masked": _written(random_family(
            BoxBody((0, 0, 0), (1, Fraction(1, 2), 1)), 12, box_size=3, seed=9)),
        "greedy-homothets disks": _written(random_family(
            unit_disk(), 8, box_size=4, kind="homothets", seed=4)),
        "grid squares": _written(random_family(unit_square(), 10, box_size=4, seed=3), "grid"),
        "grid boxes": _written(random_family(BoxBody((0, 0, 0), (1, 1, 1)), 8, box_size=3,
                                             seed=5), "grid"),
        "hexagon": _written(random_family(hexagon_body(), 8, box_size=5, seed=7), "hexagon"),
        "lattice": _written(random_family(hexagon_body(), 7, box_size=5, seed=8), "lattice"),
        "polygon pattern": jsonio.pattern_to_json(covers.translate_cluster_cover(unit_triangle())),
        "disk pattern": jsonio.pattern_to_json(covers.translate_cluster_cover(unit_disk())),
        "box pattern": jsonio.pattern_to_json(covers.box_cover((1, Fraction(1, 2)), half=True)),
    }
    docs["polygon pattern, object points"] = spelled_out(docs["polygon pattern"])
    for name in ("earlier_layout_flat_triangles", "earlier_layout_grid_squares",
                 "earlier_layout_pattern_triangle", "symbolic_earlier_layout_disks"):
        docs[name] = json.loads((_FIXTURES / (name + ".json")).read_text())
    return docs


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _nodes(v, path + (k,))


def _edits(doc):
    """(path, new value) for every single edit of doc, in document order."""
    out = []
    for path, v in _nodes(doc):
        if type(v) is int:
            new = [v + 1, v - 1, 0, -v, 2 * v]
        elif type(v) is str and _RATIONAL.fullmatch(v):
            q = Fraction(v)
            new = [jsonio._num_out(w) for w in (q + Fraction(1, 64), q - Fraction(1, 64), -q)]
        elif isinstance(v, list):
            new = [v[1:], v[:-1], v + v[-1:]] if v else []
        else:
            new = []
        in_slot = len(path) >= 2 and path[-2] in _POINT_KEYS
        if in_slot and isinstance(v, list):
            new.append({"kind": "rational", "xy": v})
        elif in_slot and isinstance(v, dict) and "xy" in v:
            new.append(v["xy"])
        out += [(path, w) for w in dict.fromkeys(map(json.dumps, new)) if w != json.dumps(v)]
    return [(path, json.loads(w)) for path, w in out]


def _chosen(edits, seed):
    if len(edits) <= _FULL:
        return edits
    rest = [e for e in edits if not _always(e[0])]
    return [e for e in edits if _always(e[0])] + random.Random(seed).sample(rest, _PER_FILE)


def _edited(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


def test_every_single_edit_is_refused_or_holds(tmp_path, capsys):
    corpus = _corpus()
    path = tmp_path / "edited.json"
    unsound, tried = [], 0
    for k, (name, doc) in enumerate(corpus.items()):
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 0, name
        assert recheck(doc), name
        for where, value in _chosen(_edits(doc), k):
            edited = _edited(doc, where, value)
            path.write_text(json.dumps(edited))
            code = main(["verify", str(path)])
            err = capsys.readouterr().err
            tried += 1
            if code not in (0, 1, 2, 3) or "Traceback" in err or code == 0 and not recheck(edited):
                unsound.append((name, where, value, code))
    assert not unsound
    assert tried == 1500
