import csv
import io
import json
from pathlib import Path
import shlex
import tracemalloc

import pytest

from piercing import jsonio
from piercing.certificates import PierceCertificate
from piercing.cli import auto_pierce, build_parser, main
from piercing.generators import random_family, unit_disk
from piercing.translates import greedy_pierce


def run(*argv):
    return main(list(argv))


def pierce_explicit(inst, out, refine=True):
    """What `piercing pierce` writes, with a greedy certificate expanded
    to its explicit form (every point listed)."""
    f = jsonio.family_from_json(jsonio.load(str(inst)))
    cert = auto_pierce(f, refine=refine)
    jsonio.dump(jsonio.certificate_to_json(cert.explicit(), f), str(out))


def test_integer_over_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json.load raises ValueError on an int literal of more than 4,300 digits
    cert = tmp_path / "huge.json"
    cert.write_text('{"instance": {"base": {"type": "disk", "center": [0, 0], "radius": 1}, '
                    '"members": [{"t": [%s, 0]}]}}' % ("7" * 5000))
    for command in ("verify", "pierce"):
        assert run(command, str(cert)) == 2
        assert "error:" in capsys.readouterr().err


def test_gen_pierce_verify_roundtrip(tmp_path, capsys):
    inst = tmp_path / "five.json"
    cert = tmp_path / "cert.json"
    assert run("gen", "five-cycle", "--out", str(inst)) == 0
    assert run("pierce", str(inst), "--out", str(cert)) == 0
    capsys.readouterr()
    assert run("verify", str(cert)) == 0
    printed = int(capsys.readouterr().out.split()[2])
    doc = json.loads(cert.read_text())
    assert doc["factor"] == 2
    assert "points" not in doc and printed <= 3
    # the explicit file lists the same points
    pierce_explicit(inst, cert)
    assert run("verify", str(cert)) == 0
    doc = json.loads(cert.read_text())
    assert doc["factor"] == 2
    assert len(doc["points"]) == printed


def test_one_parser_carries_no_option_to_the_next_call(tmp_path):
    # main reuses one parser per process; each call starts from the defaults
    inst = tmp_path / "triangles.json"
    assert run("gen", "random", "--base", "triangle", "--n", "12", "--box-size", "4",
               "--seed", "5", "--out", str(inst)) == 0
    runs = [("--no-refine",), (), ("--method", "grid"), ()]
    docs = []
    for k, flags in enumerate(runs):
        out = tmp_path / ("c%d.json" % k)
        assert run("pierce", str(inst), *flags, "--out", str(out)) == 0
        docs.append(json.loads(out.read_text()))
    assert [d["method"] for d in docs] == ["greedy", "greedy", "grid", "greedy"]
    assert [len(d.get("refine_points", ())) for d in docs] == [0, 2, 0, 2]
    assert build_parser() is build_parser()


def test_pierce_methods(tmp_path):
    inst = tmp_path / "hex.json"
    assert run("gen", "random", "--base", "hexagon", "--n", "15", "--box-size", "14",
               "--seed", "3", "--out", str(inst)) == 0
    for method in ("auto", "greedy", "hexagon", "grid", "lattice"):
        out = tmp_path / ("c_%s.json" % method)
        assert run("pierce", str(inst), "--method", method, "--out", str(out)) == 0
        assert run("verify", str(out)) == 0


def test_exact_command(tmp_path, capsys):
    inst = tmp_path / "nine.json"
    assert run("gen", "nine-triangles", "--out", str(inst)) == 0
    assert run("exact", str(inst)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] == 3
    assert doc["nu"] == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("pierce", str(bad)) == 2
    notjsonable = tmp_path / "float.json"
    notjsonable.write_text(json.dumps({
        "base": {"type": "disk", "center": [0.5, 0], "radius": 1},
        "kind": "translates", "members": [{"t": [0, 0], "s": 1}],
    }))
    assert run("pierce", str(notjsonable)) == 2


_UNREADABLE = {
    "not-utf-8": lambda path: path.write_bytes(b"\xff\xfe"),
    "nested-100000-deep": lambda path: path.write_text("[" * 100000 + "]" * 100000),
    "missing": lambda path: None,
}


@pytest.mark.parametrize("command", ["verify", "pierce"])
@pytest.mark.parametrize("case", sorted(_UNREADABLE))
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, command, case):
    path = tmp_path / "in.json"
    _UNREADABLE[case](path)
    assert run(command, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [("pierce", "--out"), ("pierce", "--svg"),
                                           ("gen", "--out")])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, command, flag):
    inst = tmp_path / "five.json"
    assert run("gen", "five-cycle", "--out", str(inst)) == 0
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "x")
    source = str(inst) if command == "pierce" else "five-cycle"
    assert run(command, source, flag, missing) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and missing in err


@pytest.mark.parametrize("method", ["grid", "hexagon", "lattice"])
def test_homothets_with_another_method_is_a_usage_error(tmp_path, capsys, method):
    # a method the family kind has none of is an error of the call, not a
    # failed verification
    inst = tmp_path / "homothets.json"
    assert run("gen", "random", "--base", "square", "--kind", "homothets", "--n", "10",
               "--out", str(inst)) == 0
    capsys.readouterr()
    assert run("pierce", str(inst), "--method", method) == 1
    err = capsys.readouterr().err
    assert err == "error: homothet families use the greedy method\n"


def test_too_large_exit_code(tmp_path):
    inst = tmp_path / "big.json"
    assert run("gen", "random", "--base", "disk", "--n", "30", "--out", str(inst)) == 0
    assert run("exact", str(inst)) == 3


def test_tampered_certificate_fails_verification(tmp_path):
    inst = tmp_path / "d.json"
    cert = tmp_path / "c.json"
    assert run("gen", "random", "--base", "square", "--n", "8", "--seed", "4",
               "--out", str(inst)) == 0
    pierce_explicit(inst, cert)
    doc = json.loads(cert.read_text())
    doc["points"] = doc["points"][:1]
    cert.write_text(json.dumps(doc))
    assert run("verify", str(cert)) == 1


def test_svg_output(tmp_path):
    inst = tmp_path / "i.json"
    cert = tmp_path / "c.json"
    svg = tmp_path / "o.svg"
    assert run("gen", "five-cycle", "--out", str(inst)) == 0
    assert run("pierce", str(inst), "--out", str(cert), "--svg", str(svg)) == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<polygon" in text and "<path" in text


def test_experiment_csv(tmp_path):
    csv_path = tmp_path / "rows.csv"
    assert run("experiment", "--base", "square", "--trials", "3", "--n-range", "6:9",
               "--csv", str(csv_path)) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("instance,method,n,points,witness,factor,ratio")
    assert len(lines) == 4


@pytest.mark.parametrize("argv", [
    ["experiment", "--n-range", "10"],
    ["experiment", "--n-range", "9:6"],
    ["experiment", "--n-range", "0:4"],
    ["experiment", "--n-range", "a:b"],
    ["experiment", "--n-range", "1:2:3"],
    ["experiment", "--trials", "0"],
    ["experiment", "--trials", "-2"],
    ["experiment", "--trials", "x"],
    ["conjecture", "--trials", "0"],
    ["gen", "random", "--box-size", "-2", "--n", "3"],
    ["gen", "random", "--n", "0"],
    ["gen", "grid", "--n", "0"],
    ["experiment", "--box-size", "-1"],
    ["conjecture", "--box-size", "-1"],
    ["conjecture", "--n", "0"],
    ["gen", "nine-triangles", "--epsilon", "1/5"],
    ["gen", "nine-triangles", "--epsilon", "0"],
])
def test_bad_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        run(*argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err


def test_conjecture_log(tmp_path):
    log = tmp_path / "rec.jsonl"
    assert run("conjecture", "--base", "hexagon", "--n", "5", "--trials", "2",
               "--box-size", "7", "--log", str(log)) == 0
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(rows) == 2
    assert all(r["tau_le_ratio"] and r["nu_ge_quarter_ratio"] for r in rows)


def _readme_cli_lines():
    """The `piercing ...` lines of README's CLI block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("piercing ")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail("README lists a command the parser rejects: %s" % line)


def test_one_unrefined_trial_is_the_greedy(capsys):
    # one experiment trial at box side floor(sqrt(n)), unrefined and with no
    # oracle, times the greedy on the family random_family draws
    assert run("experiment", "--base", "disk", "--n-range", "500:500", "--trials", "1",
               "--box-size", "22", "--no-refine", "--oracle-limit", "0") == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    cert = greedy_pierce(random_family(unit_disk(), 500, box_size=22, seed=0), refine=False)
    assert [row[k] for k in ("method", "n", "points", "witness", "factor")] == [
        cert.method, "500", str(cert.point_count()), str(len(cert.witness)), str(cert.factor)]
    assert float(row["seconds"]) > 0


def test_pattern_emit_and_verify(tmp_path):
    pat = tmp_path / "pat.json"
    for base, variant in (("disk", "half"), ("hexagon", "diff"), ("triangle", "half"),
                          ("square", "diff")):
        assert run("pattern", "--base", base, "--variant", variant, "--out", str(pat)) == 0
        assert run("verify", str(pat)) == 0
    doc = json.loads(pat.read_text())
    doc["offsets"] = doc["offsets"][:1]
    pat.write_text(json.dumps(doc))
    assert run("verify", str(pat)) == 1


def test_instance_roundtrip_lossless(tmp_path):
    from piercing.generators import random_family, unit_disk

    f = random_family(unit_disk(), 9, kind="homothets", seed=11)
    doc = jsonio.family_to_json(f)
    g = jsonio.family_from_json(json.loads(json.dumps(doc)))
    assert jsonio.family_to_json(g) == doc


def test_radical_points_roundtrip(tmp_path):
    inst = tmp_path / "disks.json"
    cert = tmp_path / "cert.json"
    assert run("gen", "random", "--base", "disk", "--n", "12", "--seed", "5",
               "--out", str(inst)) == 0
    pierce_explicit(inst, cert, refine=False)
    doc = json.loads(cert.read_text())
    assert any(isinstance(p, dict) and p["kind"] == "radical" for p in doc["points"])
    assert run("verify", str(cert)) == 0


def test_disk_screen_boundary_certificate_fails_verification():
    # one disk of radius R = 10**8 + 1/7 whose boundary passes through the
    # origin; the point sits 1e-11 outside it, far below the float error of
    # |p - c|^2 - R^2 at this scale
    cert = Path(__file__).parent / "fixtures" / "disk_screen_boundary.json"
    assert run("verify", str(cert)) == 1


@pytest.mark.parametrize("name, why", [
    ("symbolic_member_misses_seed", "member 1 misses its seed 0"),
    ("symbolic_member_above_seed", "member 1 lies above its seed 0"),
    ("symbolic_homothet_smaller_than_seed", "member 1 lies above its seed 0"),
    ("symbolic_seeds_meet", "witness members are not pairwise disjoint"),
    ("symbolic_witness_not_seeds", "witness differs from the cluster seeds"),
])
def test_adversarial_symbolic_certificate_fails_verification(capsys, name, why):
    cert = Path(__file__).parent / "fixtures" / (name + ".json")
    assert run("verify", str(cert)) == 1
    assert why in capsys.readouterr().err


def test_verify_holds_no_document_while_it_checks(tmp_path, monkeypatch, capsys):
    # what verify holds when it starts is the certificate and family read
    # from the file; the parsed document, as large again, is gone by then
    inst, cert = tmp_path / "disks.json", tmp_path / "cert.json"
    assert run("gen", "random", "--base", "disk", "--n", "5000", "--box-size", "70",
               "--seed", "3", "--out", str(inst)) == 0
    assert run("pierce", str(inst), "--out", str(cert)) == 0
    held, verify = [], PierceCertificate.verify

    def entered(self, f):
        held.append(tracemalloc.get_traced_memory()[0])
        return verify(self, f)

    monkeypatch.setattr(PierceCertificate, "verify", entered)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = jsonio.load(str(cert))
        document = tracemalloc.get_traced_memory()[0] - before
        parsed = jsonio.certificate_from_json(doc)
        del doc
        read = tracemalloc.get_traced_memory()[0] - before
        del parsed
        before = tracemalloc.get_traced_memory()[0]
        assert run("verify", str(cert)) == 0
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("certificate ok: ")
    assert held[0] - before < read + document / 2 and read < document


def test_auto_takes_the_grid_for_a_polygon_without_a_greedy_pattern(tmp_path):
    # a pentagon is neither centrally symmetric nor a triangle
    inst, cert = tmp_path / "pentagons.json", tmp_path / "cert.json"
    inst.write_text(json.dumps({
        "base": {"type": "polygon", "vertices": [[0, 0], [4, 0], [5, 3], [2, 5], [-1, 2]]},
        "members": [{"t": [x, y]} for x, y in ((0, 0), (3, 1), (9, 0), (20, 4), (21, 7))]}))
    assert run("pierce", str(inst), "--out", str(cert)) == 0
    assert json.loads(cert.read_text())["method"] == "grid"
    assert run("verify", str(cert)) == 0


@pytest.mark.parametrize("argv, n", [
    (("grid", "--base", "square", "--n", "2"), 16),
    (("pairwise", "--base", "hexagon", "--n", "9", "--seed", "3"), 9),
])
def test_gen_grid_and_pairwise_families_pierce_and_verify(tmp_path, capsys, argv, n):
    inst, cert = tmp_path / "family.json", tmp_path / "cert.json"
    assert run("gen", *argv, "--out", str(inst)) == 0
    assert len(jsonio.family_from_json(jsonio.load(str(inst)))) == n
    assert run("pierce", str(inst), "--out", str(cert)) == 0
    capsys.readouterr()
    assert run("verify", str(cert)) == 0
    assert capsys.readouterr().out.startswith("certificate ok: ")


def test_pattern_for_a_body_file(tmp_path, capsys):
    body, pat = tmp_path / "body.json", tmp_path / "pattern.json"
    body.write_text(json.dumps({"type": "polygon", "vertices": [[0, 0], [2, 0], [3, 1], [1, 1]]}))
    for variant in ("diff", "half"):
        assert run("pattern", "--body", str(body), "--variant", variant, "--out", str(pat)) == 0
        assert json.loads(pat.read_text())["base_kind"] == "polygon"
        assert run("verify", str(pat)) == 0
