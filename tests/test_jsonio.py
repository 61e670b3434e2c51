from fractions import Fraction
from itertools import chain
import json
from pathlib import Path
import random
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import pytest

from piercing import circles, covers, jsonio, sandwich, translates
from piercing.bodies import BoxBody, DiskBody, Family, Member, PolygonBody
from piercing.cli import auto_pierce, main
from piercing.errors import ConstructionFailed, ParseError, VerificationFailed
from piercing.generators import hexagon_body, random_family, unit_disk, unit_square, unit_triangle
from piercing.geom import Point
from piercing.jsonio import _num_out, _Reader
from piercing.radicals import RadPoint
from reference import (Radical, fraction_columns, members, members_document, pairs_scaled,
                       radical_sum, spelled_out)


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def disk_cert(tmp_path_factory):
    """An explicit 30-disk certificate with radical points, as a parsed document."""
    inst = tmp_path_factory.mktemp("disks") / "disks.json"
    assert run("gen", "random", "--base", "disk", "--n", "30", "--seed", "5",
               "--out", str(inst)) == 0
    f = jsonio.family_from_json(jsonio.load(str(inst)))
    cert = auto_pierce(f, refine=False)
    doc = json.loads(jsonio.dump(jsonio.certificate_to_json(cert.explicit(), f)))
    assert any(isinstance(p, dict) and p["kind"] == "radical" for p in doc["points"])
    return doc


@pytest.fixture(scope="module")
def symbolic_cert(tmp_path_factory):
    """A symbolic 12-disk certificate whose last cluster the oracle re-pierced."""
    d = tmp_path_factory.mktemp("symbolic")
    inst, cert = d / "disks.json", d / "cert.json"
    assert run("gen", "random", "--base", "disk", "--n", "12", "--box-size", "4",
               "--seed", "31", "--out", str(inst)) == 0
    assert run("pierce", str(inst), "--out", str(cert)) == 0
    doc = json.loads(cert.read_text())
    assert "points" not in doc and doc["refine_points"]
    return doc


def verify_doc(tmp_path, doc):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return run("verify", str(path))


def test_unedited_certificate_verifies(tmp_path, disk_cert):
    assert verify_doc(tmp_path, disk_cert) == 0


@pytest.mark.parametrize("index", [999, 30, -1, True, 2.0, "3"])
def test_witness_index_outside_family_is_a_parse_error(tmp_path, disk_cert, index):
    doc = json.loads(json.dumps(disk_cert))
    doc["witness"][0] = index
    assert verify_doc(tmp_path, doc) == 2


@pytest.mark.parametrize("index", [999, -1])
def test_cluster_index_outside_family_is_a_parse_error(tmp_path, disk_cert, index):
    doc = json.loads(json.dumps(disk_cert))
    doc["clusters"][0][1].append(index)
    assert verify_doc(tmp_path, doc) == 2
    doc = json.loads(json.dumps(disk_cert))
    doc["clusters"][0][0] = index
    assert verify_doc(tmp_path, doc) == 2


@pytest.mark.parametrize("key", ["instance", "points", "witness"])
def test_missing_section_is_a_parse_error(tmp_path, disk_cert, key):
    doc = json.loads(json.dumps(disk_cert))
    del doc[key]
    assert verify_doc(tmp_path, doc) == 2


@pytest.mark.parametrize("radicand", [3.7, True, "3", -3, None])
def test_inexact_radicand_is_a_parse_error(tmp_path, disk_cert, radicand):
    doc = json.loads(json.dumps(disk_cert))
    point = next(p for p in doc["points"] if isinstance(p, dict))
    coord = "x" if any(m == 3 for m, _ in point["x"]) else "y"
    point[coord] = [[radicand if m == 3 else m, c] for m, c in point[coord]]
    assert verify_doc(tmp_path, doc) == 2


def test_non_canonical_terms_still_verify(tmp_path, disk_cert):
    # sqrt(3) written as sqrt(12) / 2 and split in two: the same value
    doc = json.loads(json.dumps(disk_cert))
    for p in doc["points"]:
        if isinstance(p, dict):
            for coord in ("x", "y"):
                terms = []
                for m, c in p[coord]:
                    if m == 3:
                        half = Fraction(c) / 4
                        terms += [[12, str(half)], [12, str(half)]]
                    else:
                        terms.append([m, c])
                p[coord] = terms
    assert verify_doc(tmp_path, doc) == 0


# k^2 * m puts many radicands in one square class; 37^2 and 41^2 are past
# the squares of small primes, so 2738 = 37^2 * 2 tests the full reduction
_RADICANDS = st.one_of(
    st.builds(lambda k, m: k * k * m, st.sampled_from([1, 2, 3, 37, 41]),
              st.sampled_from([1, 2, 3, 5, 6])),
    st.integers(0, 3000),
)
_COEFFS = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.fractions(max_denominator=40).map(lambda q: "%d/%d" % (q.numerator, q.denominator)),
)


def _read_sum(rd, terms):
    """The Radical value of [[m, c], ...] as the reader reads it, or None
    when the reader finds two radicands."""
    try:
        m, (a,), b = rd.radical([terms])
    except VerificationFailed:
        return None
    return Radical.of(a) + (Radical.sqrt(m) * b[0] if b else 0)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_RADICANDS, _COEFFS), max_size=5))
def test_radical_reader_matches_radical_arithmetic(terms):
    # the reader's one rule (perfect squares are rational, two radicands
    # merge iff their product is a square) gives the value of Radical
    # arithmetic, and refuses exactly the sums left with two radicands
    got = _read_sum(_Reader(), [list(t) for t in terms])
    want = radical_sum((m, Fraction(c)) for m, c in terms)
    if got is None:
        assert len(want.terms.keys() - {1}) > 1
    else:
        assert got == want


def test_radical_reader_merges_without_factoring():
    rd = _Reader()
    # 2738 = 37^2 * 2 joins 2; 12 - 12 leaves 3 alone; 9 is rational
    assert _read_sum(rd, [[2, 1], [2738, 1]]) == Radical.sqrt(2) * 38
    assert _read_sum(rd, [[3, 1], [12, 1], [12, -1], [2, 0], [9, 2]]) == Radical.sqrt(3) + 6
    assert _read_sum(rd, [[2, 1], [3, 1]]) is None
    # the radicand is the point's, shared by x and y
    p = rd.pierce_point({"kind": "radical", "x": [[8, 1]], "y": [[1, 1], [2, "1/2"]]})
    assert isinstance(p, RadPoint) and p == RadPoint(4, 8, (0, 4), (4, 1))
    with pytest.raises(VerificationFailed, match="more than one radicand"):
        rd.pierce_point({"kind": "radical", "x": [[2, 1]], "y": [[3, 1]]})
    assert rd.pierce_point({"kind": "radical", "x": [[4, 1]], "y": [[2, 1], [2, -1]]}) == \
        RadPoint(1, 1, (2, 0))


_TEXT = st.one_of(
    st.text(alphabet="0123456789-+/. e_ ", max_size=6),
    st.fractions().map(str),
    st.decimals(min_value=-10 ** 9, max_value=10 ** 9, places=6).map(str),
    st.text(max_size=6),
)


def _grammar_or_error(x):
    """The value of x in the number grammar (an optional sign, then digits,
    then optionally "/" and digits, nothing else), or "error"."""
    body = x[1:] if x[:1] in ("+", "-") else x
    parts = body.split("/")
    if len(parts) > 2 or not all(p and all(c in "0123456789" for c in p) for p in parts):
        return "error"
    if len(parts) == 2 and int(parts[1]) == 0:
        return "error"
    value = Fraction(int(parts[0]), int(parts[1]) if len(parts) == 2 else 1)
    return -value if x[:1] == "-" else value


@settings(max_examples=600, deadline=None)
@given(st.lists(_TEXT, max_size=6))
def test_memoised_rationals_match_fraction(texts):
    """rd.num gives the Fraction of every text in the number grammar and
    refuses every other text, which Fraction(text) may still read."""
    rd = _Reader()
    for x in texts + texts:  # the second round reads the memo
        try:
            got = rd.num(x)
        except ParseError:
            got = "error"
        assert got == _grammar_or_error(x)


@pytest.mark.parametrize("text", ["1e100000", "1E5", "0.5", ".5", "1_000", " 1", "1 ",
                                  "\u0661"])
def test_numbers_outside_the_grammar_are_refused(tmp_path, text):
    # Fraction(text) reads every one of these; "1e100000" alone would build
    # a 332,000-bit integer from an 8-byte field
    with pytest.raises(ParseError):
        _Reader().num(text)
    doc = {"base": {"type": "disk", "center": [0, 0], "radius": 1}, "kind": "translates",
           "members": [{"t": [text, 0], "s": 1}]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert run("pierce", str(path)) == 2


def test_memoised_rationals_refuse_bool_and_float():
    rd = _Reader()
    assert rd.num(1) == 1
    for x in (True, False, 1.0, 0.5, None, [1]):
        with pytest.raises(ParseError):
            rd.num(x)


def _fraction_num_out(q):
    """The writer's number form as it was computed through Fraction(q)."""
    q = Fraction(q)
    return int(q) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.integers(), st.fractions(), st.integers().map(Fraction)))
def test_num_out_matches_the_fraction_path(q):
    got = _num_out(q)
    assert got == _fraction_num_out(q)
    if Fraction(q).denominator == 1:
        assert type(got) is int and got == q
    else:
        assert type(got) is str and Fraction(got) == q and "/" in got


def test_dump_writes_one_compact_line(tmp_path, disk_cert, symbolic_cert):
    for doc in (disk_cert, symbolic_cert):
        text = jsonio.dump(doc)
        assert text == json.dumps(doc, separators=(",", ":")) and "\n" not in text
        path = tmp_path / "doc.json"
        jsonio.dump(doc, str(path))
        assert path.read_text() == text + "\n"
        assert json.loads(text) == doc


@pytest.fixture(scope="module")
def written_docs(tmp_path_factory):
    """The documents the commands hand to jsonio.dump: an instance, symbolic,
    explicit and box certificates, a cover pattern and exact output."""
    d = tmp_path_factory.mktemp("written")
    disks, boxes, squares = d / "disks.json", d / "boxes.json", d / "squares.json"
    assert run("gen", "random", "--base", "disk", "--n", "700", "--box-size", "30",
               "--seed", "2", "--out", str(disks)) == 0
    f = random_family(BoxBody((0, 0, 0), (1, 2, 3)), 300, box_size=9, kind="homothets", seed=3)
    jsonio.dump(jsonio.family_to_json(f), str(boxes))
    assert run("gen", "random", "--n", "8", "--box-size", "3", "--seed", "4",
               "--out", str(squares)) == 0
    docs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "dump", lambda doc, path=None: docs.append(doc))
        for argv in (["gen", "random", "--base", "disk", "--n", "700", "--box-size", "30",
                      "--seed", "2"], ["pierce", str(disks)], ["pierce", str(boxes)],
                     ["pattern", "--base", "triangle"], ["exact", str(squares)]):
            assert main(argv) == 0
    f = jsonio.family_from_json(jsonio.load(str(disks)))
    explicit = jsonio.certificate_to_json(auto_pierce(f).explicit(), f)
    return dict(zip(["instance", "symbolic", "box", "pattern", "exact", "explicit"],
                    docs + [explicit]))


@pytest.mark.parametrize("case", ["instance", "symbolic", "explicit", "box", "pattern", "exact"])
@pytest.mark.parametrize("slice_", [3, jsonio._SLICE])
def test_dump_pieces_join_to_the_compact_text(tmp_path, monkeypatch, written_docs, case,
                                              slice_):
    # in slices of 3 every list of more than 3 entries is cut, and every
    # dict and list that holds one is written item by item
    monkeypatch.setattr(jsonio, "_SLICE", slice_)
    doc = written_docs[case]
    want = json.dumps(doc, separators=(",", ":"))
    assert jsonio.dump(doc) == want
    path = tmp_path / "doc.json"
    jsonio.dump(doc, str(path))
    assert path.read_text() == want + "\n"
    assert slice_ > 3 or len(list(jsonio._pieces(doc))) > 10


def test_dump_holds_one_piece_at_a_time(tmp_path):
    # the pieces go to the file as they come, so dump's transient memory is
    # that of its largest json.dumps call, not the text of the whole
    # document and the encoder's chunks of it
    f = random_family(unit_disk(), 4000, box_size=63, seed=2)
    doc = jsonio.certificate_to_json(auto_pierce(f, verify=False).explicit(), f)
    path = str(tmp_path / "doc.json")
    dumps, calls = jsonio._dumps, []

    def measured(obj):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = dumps(obj)
        calls.append(tracemalloc.get_traced_memory()[1] - before)
        return text

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonio, "_dumps", measured)
            jsonio.dump(doc, path)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        jsonio.dump(doc, path)
        transient = tracemalloc.get_traced_memory()[1] - before
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        json.dumps(doc, separators=(",", ":"))
        whole = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(calls) > 10
    # the file's buffers and the slice being dumped come on top of one call
    assert transient <= max(calls) + 64 * 1024 < whole / 2


def test_indented_certificate_verifies_like_the_compact_one(tmp_path, capsys, disk_cert,
                                                          symbolic_cert):
    for doc in (disk_cert, symbolic_cert):
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        jsonio.dump(doc, str(compact))
        indented.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert run("verify", str(compact)) == 0
        line = capsys.readouterr().out
        assert line.startswith("certificate ok: ")
        assert run("verify", str(indented)) == 0
        assert capsys.readouterr().out == line


def test_pattern_size_check_survives_optimisation():
    pat = covers.translate_cluster_cover(unit_square())
    with pytest.raises(ConstructionFailed):
        covers._capped(pat, pat.size - 1)


def test_sandwich_check_is_a_raise(monkeypatch):
    monkeypatch.setattr(sandwich.SandwichPair, "verify", lambda self, c: False)
    with pytest.raises(VerificationFailed):
        sandwich.sandwich_parallelograms(unit_square().polygon)


def test_lattice_witness_lets_real_errors_through(monkeypatch):
    def broken(f, limit=15):
        raise ZeroDivisionError("a bug, not a size limit")

    monkeypatch.setattr(translates, "union_area_exact", broken)
    f = random_family(hexagon_body(), 9, box_size=7, seed=10)
    with pytest.raises(ZeroDivisionError):
        translates.lattice_witness(f)


@pytest.fixture(scope="module")
def pattern_docs():
    """Valid pattern documents, one per base kind."""
    return {
        "disk": jsonio.pattern_to_json(covers.homothet_cover(unit_disk())),
        "polygon": jsonio.pattern_to_json(covers.translate_cluster_cover(unit_triangle())),
        "box": jsonio.pattern_to_json(covers.box_cover((1, Fraction(1, 2)), half=True)),
    }


def _without(key):
    return lambda doc: doc.pop(key)


def _setting(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize("kind", ["disk", "polygon", "box"])
def test_unedited_pattern_verifies(tmp_path, pattern_docs, kind):
    assert verify_doc(tmp_path, pattern_docs[kind]) == 0


@pytest.mark.parametrize("kind, edit", [
    ("disk", _without("radius")),
    ("disk", _setting("radius", [1])),
    ("disk", _setting("radius", -1)),
    ("disk", _without("region_kind")),
    ("disk", _setting("region_kind", 7)),
    ("disk", _setting("region_kind", ["diff"])),
    ("disk", _without("offsets")),
    ("disk", _setting("offsets", 5)),
    ("disk", _setting("offsets", [5])),
    ("polygon", _without("region")),
    ("polygon", _setting("region", 5)),
    ("polygon", _setting("region", [[0, 0], [1]])),
    ("polygon", _without("cover")),
    ("polygon", _setting("cover", "abc")),
    ("polygon", _setting("cover", [[0, 0], [1, 1], [2, 2]])),
    ("polygon", _without("offsets")),
    ("polygon", _setting("offsets", {"xy": [0, 0]})),
    ("polygon", _setting("offsets", [{"kind": "radical", "x": [[3, 1]], "y": []}])),
    ("polygon", _setting("offsets", [{"xy": [0]}])),
    ("polygon", _without("region_kind")),
    ("box", _without("sides")),
    ("box", _setting("sides", "12")),
    ("box", _setting("sides", [])),
    ("box", _setting("sides", [0, 1])),
    ("box", _setting("offsets", [{"xy": [0]}])),
    ("box", _setting("offsets", [{"xy": 0}])),
    ("box", _setting("base_kind", "sphere")),
    ("box", _without("base_kind")),
])
def test_malformed_pattern_is_a_parse_error(tmp_path, pattern_docs, kind, edit):
    doc = json.loads(json.dumps(pattern_docs[kind]))
    edit(doc)
    assert verify_doc(tmp_path, doc) == 2


@pytest.mark.parametrize("half", [False, True])
def test_disk_pattern_is_checked_once_per_radius(monkeypatch, half):
    # verify_pattern_json takes the disk pattern from covers' per-radius
    # cache, so only the first build runs the arrangement check
    monkeypatch.setattr(covers, "_pattern_cache", {})
    calls = []
    check = circles.CoverageCheck.verify
    monkeypatch.setattr(circles.CoverageCheck, "verify", lambda self: calls.append(1) or check(self))
    build = covers.disk_half_cover if half else covers.disk_seven_cover
    doc = jsonio.pattern_to_json(build(Fraction(17, 19)))
    for _ in range(3):
        assert jsonio.verify_pattern_json(json.loads(json.dumps(doc)))
    doc["offsets"] = doc["offsets"][1:]
    with pytest.raises(VerificationFailed, match="differ"):
        jsonio.verify_pattern_json(doc)
    assert len(calls) == 1


@pytest.mark.parametrize("doc", [[1, 2], [], "certificate", 3, None])
def test_non_object_document_is_a_parse_error(tmp_path, doc):
    assert verify_doc(tmp_path, doc) == 2


def test_disk_pattern_offset_with_two_radicands_fails_verification(tmp_path, capsys,
                                                                  pattern_docs):
    doc = json.loads(json.dumps(pattern_docs["disk"]))
    doc["offsets"][0] = {"kind": "radical", "x": [[2, 1]], "y": [[3, 1]]}
    assert verify_doc(tmp_path, doc) == 1
    err = capsys.readouterr().err
    assert "more than one radicand" in err and "Traceback" not in err


def test_polygon_pattern_is_checked_on_the_hull_of_its_region(tmp_path, pattern_docs):
    # the region's vertices in another order, or with one repeated, stand
    # for their convex hull; a vertex out of the covered region fails, in
    # any order (the clip of a chain that is not convex kept none of it)
    doc = json.loads(json.dumps(pattern_docs["polygon"]))
    region = doc["region"]
    assert region == [[-1, 0], [0, -1], [1, -1], [1, 0]]
    for other in (region[::-1], region + region[:1], [region[0], region[2], region[1]]
                  + region[3:]):
        assert verify_doc(tmp_path, {**doc, "region": other}) == 0
    for other in (region[:-1] + [[5, 5]], [[-1, 0], [1, -1], [1, 0], [0, -1], [-3, 2]]):
        assert verify_doc(tmp_path, {**doc, "region": other}) == 1
    assert verify_doc(tmp_path, {**doc, "region": [[0, 0], [1, 1], [2, 2]]}) == 2


def test_pattern_with_a_missing_offset_still_fails_verification(tmp_path, pattern_docs):
    for kind in ("disk", "polygon", "box"):
        doc = json.loads(json.dumps(pattern_docs[kind]))
        doc["offsets"].pop()
        assert verify_doc(tmp_path, doc) == 1


def _box_certificate(points, translations=((0, 0, 0), (0, 0, 5))):
    """Two disjoint unit cubes, one above the other, with the given points."""
    return {
        "instance": {"base": {"type": "box", "dim": 3, "side_lengths": [1, 1, 1]},
                     "kind": "translates",
                     "members": [{"t": list(t), "s": 1} for t in translations]},
        "method": "greedy", "factor": 2, "points": points, "clusters": [], "witness": [0, 1],
    }


def test_box_certificate_with_both_cube_centres_verifies(tmp_path):
    doc = _box_certificate([{"xy": ["1/2", "1/2", "1/2"]}, {"xy": ["1/2", "1/2", "11/2"]}])
    assert verify_doc(tmp_path, doc) == 0


@pytest.mark.parametrize("point", [
    {"xy": ["1/2", "1/2"]},  # one short point would pierce both cubes
    {"xy": ["1/2", "1/2", "1/2", 0]},
    {"xy": "1/2"},
    {"kind": "radical", "x": [[3, 1]], "y": [[1, 1]]},
    ["1/2", "1/2"],
    ["1/2", "1/2", "1/2", 0],
    [0.5, "1/2", "1/2"],
])
def test_box_point_of_the_wrong_shape_is_a_parse_error(tmp_path, point):
    assert verify_doc(tmp_path, _box_certificate([point])) == 2


def test_box_translation_of_the_wrong_length_is_a_parse_error(tmp_path):
    doc = _box_certificate([{"xy": ["1/2", "1/2", "1/2"]}], translations=((0, 0, 0), (0, 0)))
    assert verify_doc(tmp_path, doc) == 2


@pytest.mark.parametrize("xy", [["1/2", "1/2", 7], ["1/2"], "12"])
def test_planar_point_of_the_wrong_shape_is_a_parse_error(tmp_path, disk_cert, xy):
    doc = json.loads(json.dumps(disk_cert))
    doc["points"].append({"kind": "rational", "xy": xy})
    assert verify_doc(tmp_path, doc) == 2


@pytest.mark.parametrize("key", ["points", "refine_points"])
@pytest.mark.parametrize("point", [["1/2"], ["1/2", "1/2", 7], [], [0.5, 0], ["1/2", 1.0],
                                   [True, 0], [None, 0], [["1/2"], 0]])
def test_bare_point_of_the_wrong_shape_is_a_parse_error(tmp_path, capsys, disk_cert,
                                                        symbolic_cert, key, point):
    doc = json.loads(json.dumps(disk_cert if key == "points" else symbolic_cert))
    doc[key].append(point)
    assert verify_doc(tmp_path, doc) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("edit, why", [
    (lambda doc: doc.__setitem__("witness", []), "empty witness"),
    (lambda doc: doc["witness"].append(doc["witness"][0]), "witness repeats a member"),
    (lambda doc: doc["clusters"][0].__setitem__(0, doc["clusters"][1][1][0]),
     "cluster seed outside its cluster"),
])
def test_explicit_certificate_of_the_wrong_shape_fails_verification(tmp_path, capsys, disk_cert,
                                                                    edit, why):
    doc = json.loads(json.dumps(disk_cert))
    edit(doc)
    assert verify_doc(tmp_path, doc) == 1
    err = capsys.readouterr().err
    assert why in err and "Traceback" not in err


def test_unedited_symbolic_certificate_verifies(tmp_path, symbolic_cert):
    assert verify_doc(tmp_path, symbolic_cert) == 0


def test_symbolic_certificate_with_a_moved_refine_point_fails_verification(tmp_path,
                                                                           symbolic_cert):
    doc = json.loads(json.dumps(symbolic_cert))
    doc["refine_points"][0] = {"kind": "rational", "xy": [100, 100]}
    assert verify_doc(tmp_path, doc) == 1
    # without refine points the last cluster falls back on the pattern
    doc["refine_points"] = []
    assert verify_doc(tmp_path, doc) == 0


def _homothet_family(doc):
    doc["instance"]["kind"] = "homothets"


def _pentagon_base(doc):
    doc["instance"]["base"] = {"type": "polygon", "vertices": [[0, 0], [4, 0], [5, 3], [2, 5],
                                                               [-1, 2]]}


@pytest.mark.parametrize("edit", [
    _setting("method", "grid"),
    _setting("method", 7),
    _setting("method", None),
    _without("method"),
    _homothet_family,  # "greedy" names the translates' rule
    _pentagon_base,  # no half-plane pattern for this base
    _without("clusters"),
    _setting("clusters", 5),
    _setting("clusters", [[]]),  # a cluster with no seed
    _setting("clusters", [["0"]]),
    _setting("clusters", [[0, [3]]]),
    _setting("clusters", [[12]]),
    _setting("clusters", [[-1]]),
    _setting("clusters", [0, 1]),
    _setting("clusters", ["0"]),
    _setting("clusters", [{"0": 1}]),
    _setting("clusters", [[0, True]]),
    _setting("clusters", [[0, 1.0]]),
    _setting("clusters", []),  # refine points without a cluster
    _without("refine_points"),
    _setting("refine_points", 5),
    _setting("refine_points", [5]),
    _setting("refine_points", [{"xy": [0]}]),
    _setting("points", []),  # both forms at once
    _without("factor"),
    _setting("factor", "4"),
    _setting("factor", 4.0),
    _setting("factor", True),
])
def test_malformed_symbolic_certificate_is_a_parse_error(tmp_path, symbolic_cert, edit, capsys):
    doc = json.loads(json.dumps(symbolic_cert))
    edit(doc)
    assert verify_doc(tmp_path, doc) == 2
    assert "Traceback" not in capsys.readouterr().err


_FIXTURES = Path(__file__).parent / "fixtures"


def _earlier_layout(name="disks"):
    """A symbolic certificate as the writer put it out before clusters were
    flat: clusters [seed, members] and a witness, the seeds."""
    return json.loads((_FIXTURES / ("symbolic_earlier_layout_%s.json" % name)).read_text())


@pytest.mark.parametrize("edit", [
    _setting("clusters", [[0]]),
    _setting("clusters", [["0", [0]]]),
    _setting("clusters", [[0, 3]]),
    _setting("clusters", [[0, [12]]]),
    _setting("clusters", [[-1, [0]]]),
    _setting("clusters", [[0, 1, 7, 10]]),  # flat, beside a witness
    _setting("witness", 3),
    _setting("witness", [12]),
    _setting("witness", [True]),
    _without("witness"),  # then the clusters must be flat
])
def test_malformed_earlier_layout_certificate_is_a_parse_error(tmp_path, edit, capsys):
    doc = _earlier_layout()
    edit(doc)
    assert verify_doc(tmp_path, doc) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_symbolic_file_has_flat_clusters_and_no_witness():
    for f in (random_family(unit_disk(), 300, box_size=20, seed=4),
              random_family(unit_triangle(), 300, box_size=20, kind="homothets", seed=4)):
        cert = auto_pierce(f, verify=False)
        assert cert.symbolic
        doc = json.loads(jsonio.dump(jsonio.certificate_to_json(cert, f)))
        assert "witness" not in doc and "points" not in doc
        assert [c[0] for c in doc["clusters"]] == cert.witness
        assert [(c[0], tuple(c)) for c in doc["clusters"]] == cert.clusters
        assert all(c[1:] == sorted(c[1:]) and c[0] not in c[1:] for c in doc["clusters"])
        back, _ = jsonio.certificate_from_json(doc)
        assert (back.clusters, back.witness) == (cert.clusters, cert.witness)


@pytest.mark.parametrize("name", ["disks", "homothets"])
def test_earlier_layout_verifies_as_its_flat_twin(tmp_path, capsys, name):
    # the file as the earlier writer put it, and the one the writer puts
    # out now for the same certificate: the same document but for the
    # layout, and the same verdict
    doc = _earlier_layout(name)
    cert, f = jsonio.certificate_from_json(doc)
    twin = json.loads(jsonio.dump(jsonio.certificate_to_json(cert, f)))
    assert spelled_out(twin) == {**{k: v for k, v in doc.items() if k != "witness"},
                                 "clusters": [m for _, m in doc["clusters"]]}
    assert doc["witness"] == [seed for seed, _ in doc["clusters"]]
    lines = []
    for d in (doc, twin):
        assert verify_doc(tmp_path, d) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] and lines[0].startswith("certificate ok: ")


def test_earlier_layout_twin_is_what_pierce_writes(symbolic_cert):
    # the disk fixture is `piercing pierce` on the symbolic_cert instance
    cert, f = jsonio.certificate_from_json(_earlier_layout())
    assert json.loads(jsonio.dump(jsonio.certificate_to_json(cert, f))) == symbolic_cert


def test_earlier_layout_witness_must_be_the_seeds(tmp_path, capsys):
    doc = _earlier_layout()
    doc["witness"].reverse()  # the same members, pairwise disjoint still
    assert verify_doc(tmp_path, doc) == 1
    assert "witness differs from the cluster seeds" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", ["seed", "member"])
def test_flat_cluster_that_repeats_a_member_fails_verification(tmp_path, symbolic_cert, capsys,
                                                               repeat):
    doc = json.loads(json.dumps(symbolic_cert))
    cluster = doc["clusters"][0]
    cluster.append(cluster[0] if repeat == "seed" else cluster[-1])
    assert verify_doc(tmp_path, doc) == 1
    assert "clusters overlap" in capsys.readouterr().err


# --- the columnar family codec -------------------------------------------

_CODEC_BASES = {
    "disk": DiskBody(Point(Fraction(1, 3), Fraction(-2, 7)), Fraction(5, 4)),
    "triangle": unit_triangle(),
    "hexagon": hexagon_body(),
    "box2": BoxBody((0, Fraction(1, 2)), (Fraction(3, 2), Fraction(2, 5))),
    "box3": BoxBody((0, 0, 0), (1, 2, 3)),
}
# two Mersenne primes whose product has 150 bits: a family with both as
# denominators keeps its Fractions (D = 1, bodies.MAX_SCALE_BITS)
_HUGE = (2 ** 61 - 1, 2 ** 89 - 1)


def _spellings(q):
    """Ways a file may write the rational q, the canonical one first."""
    p, d = q.numerator, q.denominator
    out = [_num_out(q), "%d/%d" % (2 * p, 2 * d), "%d/%d" % (3 * p, 3 * d)]
    if d == 1:
        out += [str(p), "%d/1" % p]
    if p > 0:
        out.append("+%d/%d" % (p, d))
    if p == 0:
        out += ["-0", "+0", "-0/5"]
    return out


@st.composite
def _instances(draw):
    """(document, canonical document, the Member-built family)."""
    base = _CODEC_BASES[draw(st.sampled_from(sorted(_CODEC_BASES)))]
    kind = draw(st.sampled_from(["translates", "homothets"]))
    dens = st.sampled_from((1, 2, 6, *_HUGE) if draw(st.booleans()) else (1, 2, 3, 4, 32))
    value = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), dens)
    scale = st.builds(Fraction, st.integers(1, 10 ** 6), dens)
    dim = base.dim if base.kind == "box" else 2
    doc_members, canonical, members = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        t = [draw(value) for _ in range(dim)]
        s = Fraction(1) if kind == "translates" else draw(scale)
        member = {"t": [draw(st.sampled_from(_spellings(v))) for v in t]}
        if kind == "homothets" or draw(st.booleans()):
            member["s"] = draw(st.sampled_from(_spellings(s)))
        doc_members.append(member)
        canonical.append({"t": [_num_out(v) for v in t], "s": _num_out(s)})
        members.append(Member(tuple(t) if base.kind == "box" else Point(*t), s))
    head = {"base": jsonio.body_to_json(base), "kind": kind}
    return ({**head, "members": doc_members}, {**head, "members": canonical},
            Family(base, members, kind))


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_family_round_trip_is_canonical(case):
    doc, canonical, f = case
    g = jsonio.family_from_json(json.loads(json.dumps(doc)))
    written = jsonio.family_to_json(g)
    assert written == jsonio.family_to_json(f)
    assert members_document(written) == canonical
    assert g.scaled_translations() == f.scaled_translations()
    assert [(m.t, m.s) for m in members(g)] == [(m.t, m.s) for m in members(f)]


def test_family_over_the_scale_bits_keeps_its_fractions():
    doc = {"base": jsonio.body_to_json(unit_square()), "kind": "homothets",
           "members": [{"t": ["1/%d" % _HUGE[0], "+2/4"], "s": "3/%d" % _HUGE[1]},
                       {"t": [-7, "-0"], "s": "4/2"}]}
    f = jsonio.family_from_json(doc)
    D, (xs, ys), S = f.scaled_translations()
    assert D == 1 and xs == [Fraction(1, _HUGE[0]), -7] and ys == [Fraction(1, 2), 0]
    assert S == [Fraction(3, _HUGE[1]), 2]
    assert jsonio.family_to_json(f) == {
        "base": doc["base"], "kind": "homothets", "D": 1,
        "t": [["1/%d" % _HUGE[0], -7], ["1/2", 0]], "s": ["3/%d" % _HUGE[1], 2]}
    back = jsonio.family_from_json(json.loads(json.dumps(jsonio.family_to_json(f))))
    assert back.scaled_translations() == (D, [xs, ys], S)


@pytest.mark.parametrize("kind", ["translates", "homothets"])
def test_columns_over_any_common_denominator_read_the_same(kind):
    # D = 64 and even entries, or a mixture of ints and grammar strings over
    # D = 1: the same family as its written form, which is over the lcm
    f = random_family(unit_triangle(), 40, box_size=6, kind=kind, seed=7)
    doc = jsonio.family_to_json(f)
    D, cols, S = f.scaled_translations()
    assert doc["D"] == D > 1 and doc["t"] == cols
    doubled = {**doc, "D": 2 * D, "t": [[2 * v for v in col] for col in cols]}
    spelled = {**doc, "D": 1, "t": [[_num_out(Fraction(v, D)) for v in col] for col in cols]}
    if kind == "homothets":
        doubled["s"] = [2 * v for v in S]
        spelled["s"] = ["%d/%d" % (v, D) for v in S]
    for other in (doubled, spelled, members_document(doc)):
        g = jsonio.family_from_json(other)
        assert g.scaled_translations() == (D, cols, S)
        assert jsonio.family_to_json(g) == doc


def _written(kind, base=unit_triangle, n=40):
    return jsonio.family_to_json(random_family(base(), n, box_size=6, kind=kind, seed=7))


def _shared_factor(doc, g=6):
    out = {**doc, "D": g * doc["D"], "t": [[g * v for v in col] for col in doc["t"]]}
    if "s" in doc:
        out["s"] = [g * v for v in doc["s"]]
    return out


def _mixed(doc):
    # every third entry v as the unreduced string "3v/3", which the file's D
    # divides like an int
    spell = ("%d/3" % (3 * v) if k % 3 == 0 else v for k, v in enumerate(
        chain(*doc["t"], doc.get("s", ()))))
    n = len(doc["t"][0])
    out = {**doc, "t": [[next(spell) for _ in range(n)] for _ in doc["t"]]}
    if "s" in doc:
        out["s"] = [next(spell) for _ in range(n)]
    return out


def _over_the_bits(doc):
    # ints over a D of more than MAX_SCALE_BITS bits, their gcd with D 1
    p = _HUGE[0] * _HUGE[1]
    out = {**doc, "D": p * doc["D"], "t": [[p * v + 1 for v in col] for col in doc["t"]]}
    if "s" in doc:
        out["s"] = [p * v + 1 for v in doc["s"]]
    return out


_READER_CASES = {
    "written": lambda doc: doc,
    "shared factor": _shared_factor,
    "ints and strings": _mixed,
    "members form": members_document,
    "over the scale bits": _over_the_bits,
    "members over the scale bits": lambda doc: members_document(_over_the_bits(doc)),
    "strings over the scale bits": lambda doc: _mixed(_over_the_bits(doc)),
}


@pytest.mark.parametrize("kind", ["translates", "homothets"])
@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_reader_matches_the_per_value_reduction(kind, case):
    # one gcd over the ints gives the D and columns that reducing each
    # distinct value to a pair and rescaling by the lcm gives
    doc = _READER_CASES[case](_written(kind))
    got = jsonio.family_from_json(doc).scaled_translations()
    want = pairs_scaled(doc)
    assert got == want and list(map(type, chain(*got[1], got[2]))) == list(
        map(type, chain(*want[1], want[2])))
    assert (got[0] == 1) == case.endswith("over the scale bits")
    if case in ("shared factor", "ints and strings", "members form"):
        assert got == jsonio.family_from_json(_written(kind)).scaled_translations()


def test_written_columns_are_copied_not_shared():
    # new lists, holding one int object per distinct value: the document's
    # ints, one object per entry, are not kept alive by the family
    doc = json.loads(json.dumps(jsonio.family_to_json(
        random_family(unit_disk(), 300, box_size=100, kind="homothets", seed=7))))
    D, cols, S = jsonio.family_from_json(doc).scaled_translations()
    assert (D, cols, S) == (doc["D"], doc["t"], doc["s"])
    assert not any(a is b for a, b in zip((*cols, S), (*doc["t"], doc["s"])))
    entries = list(chain(*cols, S))
    assert len(set(map(id, entries))) == len(set(entries)) < len(entries)
    assert max(entries) > 256  # past CPython's cached small ints


@pytest.mark.parametrize("base, kind", [("disk", "translates"), ("triangle", "homothets")])
def test_reading_a_written_file_reduces_no_value(tmp_path, monkeypatch, base, kind):
    # the written int columns are read as they are: jsonio._pair runs only
    # for the numbers of a certificate's refine points
    inst, plain, refined = (str(tmp_path / name) for name in ("i.json", "a.json", "b.json"))
    assert run("gen", "random", "--base", base, "--kind", kind, "--n", "300",
               "--box-size", "20", "--seed", "4", "--out", inst) == 0
    assert run("pierce", inst, "--no-refine", "--out", plain) == 0
    assert run("pierce", inst, "--out", refined) == 0
    calls = []
    pair = jsonio._pair

    def counted(*args):
        calls.append(args)
        return pair(*args)

    monkeypatch.setattr(jsonio, "_pair", counted)
    jsonio.family_from_json(jsonio.load(inst))
    jsonio.certificate_from_json(jsonio.load(plain))
    assert calls == []
    doc = jsonio.load(refined)
    numbers = {json.dumps(v) for p in doc["refine_points"]
               for v in (p if isinstance(p, list) else
                         [c for terms in (p["x"], p["y"]) for _, c in terms])}
    jsonio.certificate_from_json(doc)
    assert doc["refine_points"] and 0 < len(calls) <= len(numbers)


def _instance_with(member, kind="translates", base=None):
    return {"base": base or {"type": "disk", "center": [0, 0], "radius": 1}, "kind": kind,
            "members": [{"t": [0, 0], "s": 1}, member]}


@pytest.mark.parametrize("doc", [
    _instance_with({"t": "12"}),
    _instance_with({"t": 5}),
    _instance_with({"t": {"x": 0, "y": 0}}),
    _instance_with({"t": [0]}),
    _instance_with({"t": [0, 0, 0]}),
    _instance_with({"t": [0, 0]}, base={"type": "box", "side_lengths": [1, 1, 1]}),
    _instance_with([0, 0]),
    _instance_with({"s": 1}),
    _instance_with({"t": [0, None]}),
    _instance_with({"t": [0, 0.5]}),
    _instance_with({"t": [True, 0]}),
    _instance_with({"t": [0, 0], "s": 0}, "homothets"),
    _instance_with({"t": [0, 0], "s": -1}, "homothets"),
    _instance_with({"t": [0, 0], "s": "-1/2"}, "homothets"),
    _instance_with({"t": [0, 0], "s": True}, "homothets"),
    _instance_with({"t": [0, 0], "s": 1.0}, "homothets"),
    _instance_with({"t": [0, 0], "s": True}),
    _instance_with({"t": [0, 0], "s": 1.0}),
    _instance_with({"t": [0, 0], "s": 2}),
    _instance_with({"t": [0, 0], "s": "1/2"}),
    _instance_with({"t": [0, 0]}, "triangles"),
    {"base": {"type": "disk", "center": [0, 0], "radius": 1}, "members": []},
    {"base": {"type": "disk", "center": [0, 0], "radius": 1}, "members": 5},
    {"base": {"type": "disk", "center": [0, 0], "radius": 1}},
    _instance_with({"t": [0, 0]}, base={"center": [0, 0], "radius": 1}),
    _instance_with({"t": [0, 0]}, base={"type": "polygon", "vertices": [[0, 0], [1, 0]]}),
    _instance_with({"t": [0, 0, 0]}, base={"type": "box", "dim": 3, "side_lengths": [1, 1]}),
    _instance_with({"t": [0, 0]}, base={"type": "sphere", "radius": 1}),
    _instance_with({"t": [0, 0]}, base={"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]],
                                        "reference_point": [1, 1]}),
    _instance_with({"t": ["1" * 5000 + "/3", 0]}),  # over the interpreter's digit limit
    # a box's dim is a JSON integer
    _instance_with({"t": [0, 0]}, base={"type": "box", "dim": 2.0, "side_lengths": [1, 1]}),
    _instance_with({"t": [0, 0]}, base={"type": "box", "dim": "2", "side_lengths": [1, 1]}),
    _instance_with({"t": [0, 0]}, base={"type": "box", "dim": 2.5, "side_lengths": [1, 1]}),
])
def test_malformed_member_is_a_parse_error(tmp_path, capsys, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert run("pierce", str(path)) == 2
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(ParseError):
        jsonio.family_from_json(doc)


@pytest.fixture(scope="module")
def greedy_certs(tmp_path_factory, symbolic_cert):
    """Symbolic certificates of a translate and a homothet family, by kind."""
    d = tmp_path_factory.mktemp("homothets")
    inst, cert = d / "triangles.json", d / "cert.json"
    assert run("gen", "random", "--base", "triangle", "--kind", "homothets", "--n", "12",
               "--box-size", "4", "--seed", "8", "--out", str(inst)) == 0
    assert run("pierce", str(inst), "--out", str(cert)) == 0
    return {"translates": symbolic_cert, "homothets": json.loads(cert.read_text())}


def _last_entry(value, axis=None):
    """An edit that sets the last entry of column t[axis], or of s."""
    def edit(inst):
        (inst["s"] if axis is None else inst["t"][axis])[-1] = value
    return edit


def _last_two(a, b, axis=0):
    """An edit that sets the last two entries of column t[axis], or of s:
    values that hash alike but only one of which is an int."""
    def edit(inst):
        (inst["s"] if axis is None else inst["t"][axis])[-2:] = [a, b]
    return edit


_COLUMNAR_EDITS = {
    "D zero": ("translates", _setting("D", 0)),
    "D negative": ("translates", _setting("D", -32)),
    "D float": ("translates", _setting("D", 32.0)),
    "D bool": ("translates", _setting("D", True)),
    "D string": ("translates", _setting("D", "32")),
    "D null": ("translates", _setting("D", None)),
    "no D": ("translates", _without("D")),
    "no t": ("translates", _without("t")),
    "t not a list": ("translates", _setting("t", 5)),
    "one column": ("translates", lambda inst: inst["t"].pop()),
    "three columns": ("translates", lambda inst: inst["t"].append(inst["t"][0])),
    "column not a list": ("translates", lambda inst: inst["t"].__setitem__(1, "0")),
    "short column": ("translates", lambda inst: inst["t"][1].pop()),
    "float entry": ("translates", _last_entry(0.5, 0)),
    "bool entry": ("translates", _last_entry(True, 1)),
    "bool next to an equal int": ("translates", _last_two(1, True)),
    "float next to an equal int": ("translates", _last_two(1, 1.0)),
    "homothet s bool next to an equal int": ("homothets", _last_two(1, True, None)),
    "null entry": ("translates", _last_entry(None, 0)),
    "list entry": ("translates", _last_entry([1], 1)),
    "bad string entry": ("translates", _last_entry("0.5", 0)),
    "members and columns": ("translates", _setting("members", [{"t": [0, 0]}])),
    "translate s not D": ("translates",
                          lambda inst: inst.__setitem__("s", [inst["D"]] * 11 + [2 * inst["D"]])),
    "translate s short": ("translates", lambda inst: inst.__setitem__("s", [inst["D"]] * 11)),
    "homothet without s": ("homothets", _without("s")),
    "homothet s zero": ("homothets", _last_entry(0)),
    "homothet s negative": ("homothets", _last_entry(-1)),
    "homothet s float": ("homothets", _last_entry(1.5)),
    "homothet s short": ("homothets", lambda inst: inst["s"].pop()),
    "homothet s not a list": ("homothets", _setting("s", 1)),
    "homothets and members": ("homothets", _setting("members", [{"t": [0, 0], "s": 1}])),
}


@pytest.mark.parametrize("command", ["pierce", "verify"])
@pytest.mark.parametrize("case", sorted(_COLUMNAR_EDITS))
def test_malformed_columns_are_a_parse_error(tmp_path, capsys, greedy_certs, command, case):
    kind, edit = _COLUMNAR_EDITS[case]
    doc = json.loads(json.dumps(greedy_certs[kind]))
    assert len(doc["instance"]["t"][0]) == 12
    edit(doc["instance"])
    with pytest.raises(ParseError):
        jsonio.family_from_json(doc["instance"])
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc if command == "verify" else doc["instance"]))
    capsys.readouterr()
    assert run(command, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize("base, kind", [("disk", "translates"), ("triangle", "homothets")])
def test_cli_round_trip_builds_no_member(tmp_path, monkeypatch, base, kind):
    # pierce, write, read and verify work on the scaled int columns alone:
    # no Member and no member's Fraction translation
    inst, cert = str(tmp_path / "instance.json"), str(tmp_path / "cert.json")
    assert run("gen", "random", "--base", base, "--kind", kind, "--n", "300",
               "--box-size", "20", "--seed", "4", "--out", inst) == 0
    built, derived = [], []
    member_init, translation = Member.__init__, Family.translation

    def counted(self, *args, **kwargs):
        built.append(args)
        member_init(self, *args, **kwargs)

    def counted_translation(self, i):
        derived.append(i)
        return translation(self, i)

    monkeypatch.setattr(Member, "__init__", counted)
    monkeypatch.setattr(Family, "translation", counted_translation)
    assert run("pierce", inst, "--out", cert) == 0
    assert run("verify", cert) == 0
    assert built == [] and derived == []
    assert members(jsonio.family_from_json(jsonio.load(inst))) and built and derived


def _typed(values):
    return [(type(v), v) for v in values]


def _typed_scaled(f):
    D, cols, S = f.scaled_translations()
    return D, [_typed(col) for col in (*cols, S)]


def _typed_columns(f):
    """(columns, scales) of reference.fraction_columns, with their types."""
    cols, ss = fraction_columns(f)
    return [_typed(col) for col in cols], _typed(ss)


def _typed_body(body):
    if body.kind == "disk":
        values = [body.center.x, body.center.y, body.radius]
    elif body.kind == "box":
        values = [*body.mins, *body.sides]
    else:
        values = [c for p in [*body.polygon.vertices, body.reference_point] for c in (p.x, p.y)]
    return _typed(values)


def _member_case(base, kind, ts, ss):
    """(document, None, the Member-built family), as _instances gives."""
    doc = {"base": jsonio.body_to_json(base), "kind": kind,
           "members": [{"t": [_num_out(v) for v in t], "s": _num_out(s)} for t, s in zip(ts, ss)]}
    members = [Member(tuple(t) if base.kind == "box" else Point(*t), s) for t, s in zip(ts, ss)]
    return doc, None, Family(base, members, kind)


@settings(max_examples=200, deadline=None)
@given(_instances(), st.randoms(use_true_random=False))
@example(_member_case(unit_triangle(), "homothets", [(Fraction(3), Fraction(-4)),
                                                    (Fraction(0), Fraction(7))],
                      [Fraction(2), Fraction(5)]), random.Random(0))  # D = 1, all ints
@example(_member_case(unit_square(), "homothets", [(Fraction(1, _HUGE[0]), Fraction(2)),
                                                   (Fraction(-7), Fraction(1, 3))],
                      [Fraction(3, _HUGE[1]), Fraction(2)]), random.Random(0))  # over the bits
def test_derived_columns_equal_the_member_built_ones(case, rng):
    """A family read from a file and the Member-built one hold the same
    scaled columns, and derive the same Fraction translations, scales and
    bodies, by value and by type, in a sub-family too."""
    doc, _, f = case
    g = jsonio.family_from_json(json.loads(json.dumps(doc)))
    assert _typed_scaled(g) == _typed_scaled(f)
    assert _typed_columns(g) == _typed_columns(f)
    assert all(_typed_body(g.realize(i)) == _typed_body(f.realize(i)) for i in range(len(f)))
    picked = [rng.randrange(len(f)) for _ in range(rng.randint(1, 2 * len(f)))]
    cols, ss = _typed_columns(f)
    assert _typed_columns(g.subfamily(picked)) == (
        [[col[i] for i in picked] for col in cols], [ss[i] for i in picked])


_EARLIER_EXPLICIT = ["earlier_layout_flat_triangles", "earlier_layout_grid_squares"]


@pytest.mark.parametrize("name", _EARLIER_EXPLICIT)
def test_earlier_file_spells_out_what_the_writer_leaves_out(tmp_path, capsys, name):
    # a file the earlier writer put out, with object points, "kind",
    # "reference_point" and "info", and the smaller one the writer puts out
    # now for its certificate: the same document once spelled out
    # (reference.spelled_out), and the same verdict
    doc = json.loads((_FIXTURES / (name + ".json")).read_text())
    cert, f = jsonio.certificate_from_json(doc)
    twin = jsonio.dump(jsonio.certificate_to_json(cert, f))
    assert spelled_out(json.loads(twin)) == doc
    assert len(twin) < len(jsonio.dump(doc))
    lines = []
    for d in (doc, json.loads(twin)):
        assert verify_doc(tmp_path, d) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] and lines[0].startswith("certificate ok: ")


def test_object_point_pattern_verifies_as_its_bare_twin(tmp_path, capsys):
    doc = json.loads((_FIXTURES / "earlier_layout_pattern_triangle.json").read_text())
    twin = jsonio.pattern_to_json(covers.homothet_cover(unit_triangle()))
    assert all(isinstance(p, list) for p in twin["offsets"])
    assert spelled_out(twin) == doc
    lines = []
    for d in (doc, twin):
        assert verify_doc(tmp_path, d) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] == "cover pattern ok: 12 offsets\n"


_SQUARE_AT_A_CORNER = PolygonBody(unit_square().polygon, Point(0, 0))


@pytest.mark.parametrize("method, base, kind, n, box, seed", [
    ("auto", unit_disk, "translates", 12, 4, 31),  # radical refine points
    ("auto", unit_triangle, "homothets", 12, 4, 8),
    ("grid", unit_square, "translates", 20, 5, 3),  # info
    ("grid", lambda: BoxBody((0, 0, 0), (1, 2, 3)), "translates", 20, 5, 3),
    ("hexagon", hexagon_body, "translates", 20, 8, 4),
    ("lattice", hexagon_body, "translates", 9, 6, 5),  # info with rationals
    ("auto", lambda: _SQUARE_AT_A_CORNER, "translates", 12, 4, 6),  # reference point kept
    ("explicit", unit_disk, "translates", 12, 4, 31),  # bare and radical points
])
def test_reading_a_written_file_and_writing_it_again_gives_the_same_bytes(method, base, kind, n,
                                                                          box, seed):
    f = random_family(base(), n, box_size=box, kind=kind, seed=seed)
    cert = auto_pierce(f, method="auto" if method == "explicit" else method)
    text = jsonio.dump(jsonio.certificate_to_json(cert.explicit() if method == "explicit" else cert,
                                                  f))
    back, g = jsonio.certificate_from_json(json.loads(text))
    assert jsonio.dump(jsonio.certificate_to_json(back, g)) == text
    assert ("reference_point" in text) == (f.base is _SQUARE_AT_A_CORNER)


def test_writer_leaves_out_what_the_reader_assumes():
    assert jsonio.point_to_json(RadPoint(32, 1, (124, 27))) == ["31/8", "27/32"]
    assert jsonio.point_to_json(RadPoint(2, 1, (1, 0, 6))) == ["1/2", 0, 3]
    assert jsonio.point_to_json(RadPoint(4, 3, (2, 8), (0, 0))) == ["1/2", 2]
    assert jsonio.point_to_json(RadPoint(4, 3, (2, 8), (1, 0))) == {
        "kind": "radical", "x": [[1, "1/2"], [3, "1/4"]], "y": [[1, 2]]}
    f = random_family(unit_triangle(), 5, box_size=4, seed=1)
    doc = jsonio.family_to_json(f)
    assert list(doc) == ["base", "D", "t"] and list(doc["base"]) == ["type", "vertices"]
    g = random_family(unit_triangle(), 5, box_size=4, kind="homothets", seed=1)
    assert list(jsonio.family_to_json(g)) == ["base", "kind", "D", "t", "s"]
    assert jsonio.body_to_json(_SQUARE_AT_A_CORNER)["reference_point"] == [0, 0]
    assert "reference_point" not in jsonio.body_to_json(unit_square())
    cert = json.loads(jsonio.dump(jsonio.certificate_to_json(auto_pierce(f), f)))
    assert "info" not in cert and jsonio.certificate_from_json(cert)[0].info == {}
    cert = json.loads(jsonio.dump(jsonio.certificate_to_json(auto_pierce(f, method="grid"), f)))
    assert cert["info"] and jsonio.certificate_from_json(cert)[0].info == cert["info"]


def test_info_that_is_not_an_object_is_a_parse_error(tmp_path, capsys, symbolic_cert):
    assert verify_doc(tmp_path, {**symbolic_cert, "info": [1]}) == 2
    assert "info must be an object" in capsys.readouterr().err
