import json
from pathlib import Path

import pytest

from piercing import jsonio
from piercing.cli import auto_pierce, main


def run(*argv):
    return main(list(argv))


def pierce_explicit(inst, out, refine=True):
    """What `piercing pierce` writes, with a greedy certificate expanded
    to its explicit form (every point listed)."""
    f = jsonio.family_from_json(jsonio.load(str(inst)))
    cert = auto_pierce(f, refine=refine)
    jsonio.dump(jsonio.certificate_to_json(cert.explicit(), f), str(out))


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


def test_conjecture_log(tmp_path):
    log = tmp_path / "rec.jsonl"
    assert run("conjecture", "--base", "hexagon", "--n", "5", "--trials", "2",
               "--box-size", "7", "--log", str(log)) == 0
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(rows) == 2
    assert all(r["tau_le_ratio"] and r["nu_ge_quarter_ratio"] for r in rows)


def test_bench_smoke(capsys):
    assert run("bench", "--n", "500", "--base", "disk") == 0
    out = capsys.readouterr().out
    assert "n=500" in out and "points/s" in out


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
    assert any(p["kind"] == "radical" for p in doc["points"])
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
