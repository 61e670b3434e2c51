"""Acceptance suite: one test per criterion, one pass line per criterion.

Every bound here is an exact integer or rational inequality; tolerances are
pinned in the assertions themselves.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

from fractions import Fraction as F
import math
import random
import time

import pytest

from piercing.covers import halfplane_four_cover, seven_cover
from piercing.generators import (
    five_square_cycle,
    grid_family,
    hexagon_body,
    nine_triangles,
    pairwise_intersecting_family,
    random_centrally_symmetric_polygon,
    random_convex_polygon,
    random_cs_hexagon,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.homothets import greedy_pierce_homothets
from piercing.oracle import exact_nu, exact_tau, solve
from piercing.sandwich import sandwich_parallelograms
from piercing.translates import (
    greedy_pierce,
    grid_pierce,
    hexagon_pierce,
    lattice_pierce,
    lattice_witness,
    union_area_exact,
)
from reference import AffineMap, normalize_affine

PASS = "ACCEPTANCE %d PASS: %s"


def test_criterion_1_paper_instances_exact():
    t0 = time.perf_counter()
    res = solve(five_square_cycle())
    t1 = time.perf_counter()
    assert (res.tau, res.nu) == (3, 2)
    assert t1 - t0 < 1.0
    t0 = time.perf_counter()
    res = solve(nine_triangles(F(1, 100)))
    t1 = time.perf_counter()
    assert (res.tau, res.nu) == (3, 1)
    assert t1 - t0 < 1.0
    print(PASS % (1, "five-square cycle (3,2); nine triangles (3,1); each < 1 s"))


def test_criterion_2_translate_factor_bounds():
    t_start = time.perf_counter()
    shapes = [
        ("square", lambda rng: unit_square(), 2, 1),
        ("triangle", lambda rng: unit_triangle(), 5, 3),
        ("disk", lambda rng: unit_disk(), 4, 3),
        ("csym", lambda rng: random_centrally_symmetric_polygon(rng), 4, 3),
    ]
    rng = random.Random(20240)
    for name, make, k, alpha1 in shapes:
        for trial in range(200):
            small = trial < 40
            n = 4 + trial % 9 if small else 13 + trial % 48
            base = make(rng)
            box = max(3, int(math.sqrt(n) * 2))
            f = random_family(base, n, box_size=box, seed=1000 + trial)
            cert = greedy_pierce(f)
            assert cert.factor <= k
            assert len(cert.points) <= k * len(cert.witness)
            if small and name in ("square", "triangle", "disk"):
                nu, _ = exact_nu(f)
                assert len(cert.points) <= k * nu - (k - alpha1), (name, trial)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    print(PASS % (2, "800 greedy translate certificates within k=2/5/4/4 and refined "
                     "2v-1 / 5v-2 / 4v-1 on small instances, %.1f s" % elapsed))


def test_criterion_3_homothet_factor_bounds():
    pentagon = random_convex_polygon(random.Random(5), max_vertices=7)
    shapes = [
        ("square", lambda rng: unit_square(), 4, 1),
        ("triangle", lambda rng: unit_triangle(), 12, 3),
        ("disk", lambda rng: unit_disk(), 7, 4),
        ("csym", lambda rng: random_centrally_symmetric_polygon(rng), 7, None),
        ("general", lambda rng: pentagon, 16, None),
    ]
    rng = random.Random(555)
    for name, make, k, beta1 in shapes:
        for trial in range(200):
            small = trial < 30
            n = 4 + trial % 9 if small else 13 + trial % 40
            base = make(rng)
            box = max(4, int(math.sqrt(n) * 3))
            f = random_family(base, n, box_size=box, kind="homothets",
                              scale_range=(1, 2), seed=3000 + trial)
            cert = greedy_pierce_homothets(f)
            assert cert.factor <= k
            assert len(cert.points) <= cert.factor * len(cert.witness)
            if small and beta1 is not None:
                nu, _ = exact_nu(f)
                assert len(cert.points) <= k * nu - (k - beta1), (name, trial)
    print(PASS % (3, "1000 homothet certificates within k=4/12/7/7/16 and refined "
                     "4v-3 / 12v-9 / 7v-3 on small instances"))


def test_criterion_4_gamma_and_grid():
    rng = random.Random(777)
    for trial in range(100):
        poly = random_convex_polygon(rng, max_vertices=12).polygon
        pair = sandwich_parallelograms(poly)
        assert pair.gamma <= 6
        assert pair.verify(poly)
    for trial in range(10):
        pgram = random_centrally_symmetric_polygon(rng, half_vertices=2).polygon
        assert sandwich_parallelograms(pgram).gamma == 2
    for trial in range(25):
        base = random_convex_polygon(rng, max_vertices=9)
        n = 10 + trial * 2
        f = random_family(base, n, box_size=4 * int(math.sqrt(n)) + 15, seed=4000 + trial)
        cert = grid_pierce(f)  # verifies exactly on construction
        assert len(cert.points) <= cert.info["gamma"] * len(cert.witness)
    print(PASS % (4, "gamma <= 6 on 100 random polygons, gamma = 2 on parallelograms, "
                     "25 grid certificates verified with |points| <= gamma*|witness|"))


def test_criterion_5_hexagon_theorem():
    rng = random.Random(888)
    for trial in range(50):
        base = hexagon_body() if trial % 2 else random_cs_hexagon(rng)
        f = pairwise_intersecting_family(base, 8 + trial % 20, seed=5000 + trial)
        cert = hexagon_pierce(f)
        assert len(cert.points) <= 2
    for trial in range(100):
        base = hexagon_body() if trial % 2 else random_cs_hexagon(rng)
        n = 10 + trial % 40
        bx, _ = base.polygon.bounding_box()
        box = max(6, int(float(bx.length()) * math.sqrt(n) / 2))
        f = random_family(base, n, box_size=box, seed=6000 + trial)
        cert = hexagon_pierce(f)
        assert len(cert.points) <= 3 * len(cert.witness)
    print(PASS % (5, "50 pairwise-intersecting hexagon families pierced by <= 2 points; "
                     "100 general hexagon families within 3*|witness|"))


def test_criterion_6_seven_and_four_covers():
    rng = random.Random(999)
    for trial in range(50):
        half = 4 + trial % 5  # 8 to 16 vertices
        s = random_centrally_symmetric_polygon(rng, half_vertices=half).polygon
        pat7 = seven_cover(s)  # exact empty-residue check on construction
        assert pat7.size <= 7
        pat4 = halfplane_four_cover(s)
        assert pat4.size <= 4
    print(PASS % (6, "seven-translate and half-plane four-translate covers verified "
                     "exactly on 50 random centrally symmetric polygons"))


def test_criterion_7_lattice_lemmas():
    rng = random.Random(1111)
    eps = F(1, 64)
    worst = F(0)
    for trial in range(50):
        base = hexagon_body() if trial % 2 else random_cs_hexagon(rng)
        n = 4 + trial % 9
        bx, _ = base.polygon.bounding_box()
        box = max(4, int(float(bx.length()) * 1.5))
        f = random_family(base, n, box_size=box, seed=7000 + trial)
        area = union_area_exact(f)
        cert = lattice_pierce(f)
        assert cert.info["count"] <= math.floor(area / cert.info["cover_cell_area"])
        wit, spec = lattice_witness(f)
        from piercing.sandwich import hexagon_sandwich

        sw = hexagon_sandwich(base.polygon)
        h_out_area = sw.h_out.area()
        assert spec.cell_area == 4 * h_out_area * (1 + eps) ** 2
        assert len(wit) >= math.ceil(area / (4 * h_out_area * (1 + eps) ** 2))
        ratio = F(cert.info["count"], max(1, len(cert.witness)))
        worst = max(worst, ratio)
        assert ratio <= 6
    print(PASS % (7, "lattice pierce within floor(area/|H_in|), witness within "
                     "ceil(area/(4|H_out|(1+eps)^2)); worst combined ratio %s <= 6" % worst))


def test_criterion_8_oracle_consistency_chain():
    rng = random.Random(2222)
    bases = [unit_square(), unit_triangle(), unit_disk(), hexagon_body()]
    for trial in range(24):
        base = bases[trial % 4]
        f = random_family(base, 6 + trial % 7, box_size=5, seed=8000 + trial)
        cert = greedy_pierce(f)
        nu, _ = exact_nu(f)
        tau, _ = exact_tau(f)
        assert len(cert.witness) <= nu <= tau <= len(cert.points)
    m = AffineMap(2, 1, F(1, 3), 1, 11, -5)
    for trial in range(20):
        base = unit_triangle() if trial % 2 else random_centrally_symmetric_polygon(rng)
        f = random_family(base, 7 + trial % 4, box_size=5, seed=8500 + trial)
        g = normalize_affine(f, m)
        assert exact_tau(f)[0] == exact_tau(g)[0]
        assert exact_nu(f)[0] == exact_nu(g)[0]
    print(PASS % (8, "witness <= nu <= tau <= points on 24 dual-run instances; "
                     "oracle affinely invariant on 20 mapped instances"))


def test_criterion_9_grid_family_companion():
    f = grid_family(2, unit_disk())
    res = solve(f)
    ratio = F(res.tau, res.nu)
    assert ratio >= 1
    # the report pipeline emits the ratio
    cert = greedy_pierce(f)
    row = {
        "instance": "grid-n2-disk",
        "n": len(f),
        "points": len(cert.points),
        "witness": len(cert.witness),
        "tau": res.tau,
        "nu": res.nu,
        "ratio": "%d/%d" % (ratio.numerator, ratio.denominator),
    }
    assert row["ratio"] == "1/1" or ratio > 1
    print(PASS % (9, "grid family n=2 disk: oracle tau/nu = %s >= 1, report row emitted "
                     "(asymptotic densities out of scope)" % row["ratio"]))


def test_criterion_10_performance():
    base = unit_disk()
    f4 = random_family(base, 10_000, box_size=100, seed=0)
    t0 = time.perf_counter()
    cert4 = greedy_pierce(f4, refine=False, verify=True)
    t4 = time.perf_counter() - t0
    f5 = random_family(base, 100_000, box_size=316, seed=0)
    t0 = time.perf_counter()
    cert5 = greedy_pierce(f5, refine=False, verify=True)
    t5 = time.perf_counter() - t0
    assert t5 < 5.0, "100k disks took %.2f s" % t5
    assert t5 / t4 < 15.0, "growth %.1fx" % (t5 / t4)
    assert len(cert5.points) <= 4 * len(cert5.witness)
    print(PASS % (10, "100k disks pierced in %.2f s (10k in %.2f s, growth %.1fx < 15x)"
                  % (t5, t4, t5 / t4)))
