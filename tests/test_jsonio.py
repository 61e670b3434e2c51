import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from piercing import covers, jsonio, sandwich, translates
from piercing.cli import auto_pierce, main
from piercing.errors import ConstructionFailed, ParseError, VerificationFailed
from piercing.generators import hexagon_body, random_family, unit_disk, unit_square, unit_triangle
from piercing.jsonio import _radical_sum, _Reader


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
    assert any(p["kind"] == "radical" for p in doc["points"])
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
    point = next(p for p in doc["points"] if p["kind"] == "radical")
    coord = "x" if any(m == 3 for m, _ in point["x"]) else "y"
    point[coord] = [[radicand if m == 3 else m, c] for m, c in point[coord]]
    assert verify_doc(tmp_path, doc) == 2


def test_non_canonical_terms_still_verify(tmp_path, disk_cert):
    # sqrt(3) written as sqrt(12) / 2 and split in two: the same value
    doc = json.loads(json.dumps(disk_cert))
    for p in doc["points"]:
        if p["kind"] == "radical":
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


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_RADICANDS, _COEFFS), max_size=5))
def test_radical_reader_matches_radical_arithmetic(terms):
    got = _Reader().radical([list(t) for t in terms])
    want = _radical_sum((m, Fraction(c)) for m, c in terms)
    assert got.terms == want.terms


def test_radical_reader_memo_keeps_verdicts_apart():
    rd = _Reader()
    for terms in ([[2, 1], [2738, 1]], [[2, 1]], [[2738, 1]], [[2, 1], [2738, 1]]):
        want = _radical_sum((m, Fraction(c)) for m, c in terms)
        assert rd.radical(terms).terms == want.terms
    assert rd.radical([[2, 1], [2738, 1]]).terms == {2: 38}


# short texts keep exponents such as "1e9999" cheap to expand
_TEXT = st.one_of(
    st.text(alphabet="0123456789-+/. e_ ", max_size=6),
    st.fractions().map(str),
    st.decimals(min_value=-10 ** 9, max_value=10 ** 9, places=6).map(str),
    st.text(max_size=6),
)


def _fraction_or_error(x):
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        return "error"


@settings(max_examples=600, deadline=None)
@given(st.lists(_TEXT, max_size=6))
def test_memoised_rationals_match_fraction(texts):
    rd = _Reader()
    for x in texts + texts:  # the second round reads the memo
        try:
            got = rd.num(x)
        except ParseError:
            got = "error"
        assert got == _fraction_or_error(x)


def test_memoised_rationals_refuse_bool_and_float():
    rd = _Reader()
    assert rd.num(1) == 1
    for x in (True, False, 1.0, 0.5, None, [1]):
        with pytest.raises(ParseError):
            rd.num(x)


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


@pytest.mark.parametrize("doc", [[1, 2], [], "certificate", 3, None])
def test_non_object_document_is_a_parse_error(tmp_path, doc):
    assert verify_doc(tmp_path, doc) == 2


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
    _setting("clusters", [[0]]),
    _setting("clusters", [["0", [0]]]),
    _setting("clusters", [[0, 3]]),
    _setting("clusters", [[0, [12]]]),
    _setting("clusters", [[-1, [0]]]),
    _setting("clusters", []),  # refine points without a cluster
    _without("refine_points"),
    _setting("refine_points", 5),
    _setting("refine_points", [5]),
    _setting("refine_points", [{"xy": [0]}]),
    _setting("points", []),  # both forms at once
    _without("witness"),
    _setting("witness", 3),
    _setting("witness", [12]),
    _setting("witness", [True]),
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
