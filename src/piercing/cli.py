"""Command-line surface: instance I/O, piercing, oracle, verification,
experiments, conjecture search, benchmarks.

Exit codes: 0 ok, 1 verification failure or an output file that cannot be
written, 2 parse or usage error, 3 size limit.
"""

import argparse
from functools import cache
import json
import math
import sys
import time

from . import generators, jsonio, svg
from .bodies import Family
from .certificates import greedy_supported
from .errors import ParseError, PiercingError, TooLarge, UnsupportedBase, VerificationFailed
from .homothets import greedy_pierce_homothets
from .oracle import solve as oracle_solve
from .translates import (
    greedy_pierce,
    grid_pierce,
    hexagon_pierce,
    lattice_pierce,
    union_area_exact,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3

_BASES = {
    "square": generators.unit_square,
    "triangle": generators.unit_triangle,
    "disk": generators.unit_disk,
    "hexagon": generators.hexagon_body,
}


def _trials(text) -> int:
    """An argparse type: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return int(text)


def _n_range(text):
    """An argparse type: lo:hi with 1 <= lo <= hi, as the pair (lo, hi)."""
    lo, hi = map(_trials, text.split(":")) if text.count(":") == 1 else (1, 0)
    if lo > hi:
        raise argparse.ArgumentTypeError("expected lo:hi with 1 <= lo <= hi, got %r" % text)
    return lo, hi


def _load_family(path) -> Family:
    return jsonio.family_from_json(jsonio.load(path))


def _write(doc, path):
    """Write doc to path, or print it when no path is given."""
    text = jsonio.dump(doc, path)
    if text:
        print(text)


def _is_cs_hexagon(f: Family) -> bool:
    return (
        f.base.kind == "polygon"
        and len(f.base.polygon.vertices) == 6
        and f.base.polygon.is_centrally_symmetric() is not None
    )


def auto_pierce(f: Family, method="auto", refine=True, seed=0, verify=True):
    """Dispatch to the most specific applicable algorithm."""
    if method == "auto":
        if f.kind == "homothets":
            method = "greedy"
        elif _is_cs_hexagon(f):
            method = "hexagon"
        elif greedy_supported(f.base):
            method = "greedy"
        else:
            method = "grid"
    if f.kind == "homothets":
        if method != "greedy":
            raise UnsupportedBase("homothet families use the greedy method")
        return greedy_pierce_homothets(f, refine=refine, verify=verify)
    if method == "greedy":
        return greedy_pierce(f, refine=refine, verify=verify)
    if method == "grid":
        return grid_pierce(f, verify=verify)
    if method == "hexagon":
        return hexagon_pierce(f, verify=verify)
    if method == "lattice":
        return lattice_pierce(f, seed=seed, verify=verify)
    raise ParseError("unknown method %r" % method)


def cmd_gen(args) -> int:
    if args.instance == "five-cycle":
        f = generators.five_square_cycle()
    elif args.instance == "nine-triangles":
        f = generators.nine_triangles(jsonio._Reader().num(args.epsilon))
    elif args.instance == "grid":
        f = generators.grid_family(args.n, _BASES[args.base]())
    elif args.instance == "random":
        f = generators.random_family(
            _BASES[args.base](),
            args.n,
            box_size=args.box_size,
            kind=args.kind,
            seed=args.seed,
        )
    elif args.instance == "pairwise":
        f = generators.pairwise_intersecting_family(_BASES[args.base](), args.n, seed=args.seed)
    else:
        raise ParseError("unknown instance %r" % args.instance)
    _write(jsonio.family_to_json(f), args.out)
    return EXIT_OK


def cmd_pierce(args) -> int:
    f = _load_family(args.input)
    cert = auto_pierce(f, method=args.method, refine=args.refine, seed=args.seed)
    _write(jsonio.certificate_to_json(cert, f), args.out)
    if args.svg:
        svg.render(f, cert.points, cert.witness, path=args.svg)
    return EXIT_OK


def cmd_exact(args) -> int:
    f = _load_family(args.input)
    res = oracle_solve(f)
    doc = {
        "tau": res.tau,
        "tau_points": [jsonio.point_to_json(p) for p in res.tau_points],
        "nu": res.nu,
        "nu_members": res.nu_members,
        "candidates_used": res.candidates_used,
    }
    _write(doc, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = jsonio.load(args.input)
    if not isinstance(doc, dict):
        raise ParseError("a certificate or cover pattern must be a JSON object")
    if doc.get("type") == "cover_pattern":
        jsonio.verify_pattern_json(doc)
        print("cover pattern ok: %d offsets" % len(doc["offsets"]))
        return EXIT_OK
    cert, f = jsonio.certificate_from_json(doc)
    del doc  # the certificate and family hold what verify reads
    cert.verify(f)
    print("certificate ok: %d points, witness %d, factor %d" % (
        cert.point_count(), len(cert.witness), cert.factor))
    return EXIT_OK


def cmd_pattern(args) -> int:
    from .covers import homothet_cover, translate_cluster_cover

    if args.body:
        base = jsonio.body_from_json(jsonio.load(args.body))
    else:
        base = _BASES[args.base]()
    pat = translate_cluster_cover(base) if args.variant == "half" else homothet_cover(base)
    _write(jsonio.pattern_to_json(pat), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    import csv

    lo, hi = args.n_range
    base = _BASES[args.base]()
    rows = []
    max_ratio = 0.0
    for trial in range(args.trials):
        n = lo + trial % (hi - lo + 1)
        f = generators.random_family(
            base, n, box_size=args.box_size, kind=args.kind, seed=args.seed + trial
        )
        t0 = time.perf_counter()
        cert = auto_pierce(f, refine=args.refine)
        dt = time.perf_counter() - t0
        ratio = cert.ratio
        if ratio > cert.factor:
            raise VerificationFailed("certified ratio exceeds the factor")
        max_ratio = max(max_ratio, float(ratio))
        tau = nu = ""
        if n <= args.oracle_limit:
            res = oracle_solve(f)
            tau, nu = res.tau, res.nu
        rows.append(
            {
                "instance": "%s-%s-n%d-seed%d" % (args.base, args.kind, n, args.seed + trial),
                "method": cert.method,
                "n": n,
                "points": cert.point_count(),
                "witness": len(cert.witness),
                "factor": cert.factor,
                "ratio": "%d/%d" % (ratio.numerator, ratio.denominator),
                "tau": tau,
                "nu": nu,
                "seconds": "%.4f" % dt,
            }
        )
    fields = list(rows[0].keys())
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fields)
            w.writeheader()
            w.writerows(rows)
    else:
        w = csv.DictWriter(sys.stdout, fields)
        w.writeheader()
        w.writerows(rows)
    print("max certified ratio: %.4f" % max_ratio, file=sys.stderr)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    if args.body:
        base = jsonio.body_from_json(jsonio.load(args.body))
    else:
        base = _BASES[args.base]()
    if base.kind != "polygon" or base.polygon.is_centrally_symmetric() is None:
        raise ParseError("conjecture search needs a centrally symmetric polygon base")
    area_s = base.polygon.area()
    worst_tau = None
    worst_nu = None
    records = []
    for trial in range(args.trials):
        f = generators.random_family(
            base, args.n, box_size=args.box_size, seed=args.seed + trial
        )
        area_u = union_area_exact(f)
        res = oracle_solve(f)
        m = area_u / area_s
        tau_ok = res.tau <= m
        nu_ok = res.nu >= m / 4
        rec = {
            "seed": args.seed + trial,
            "n": args.n,
            "union_over_body": "%d/%d" % (m.numerator, m.denominator),
            "tau": res.tau,
            "nu": res.nu,
            "tau_le_ratio": bool(tau_ok),
            "nu_ge_quarter_ratio": bool(nu_ok),
        }
        records.append(rec)
        if worst_tau is None or res.tau - m > worst_tau[0]:
            worst_tau = (res.tau - m, rec)
        if worst_nu is None or m / 4 - res.nu > worst_nu[0]:
            worst_nu = (m / 4 - res.nu, rec)
        if not tau_ok or not nu_ok:
            print("counterexample candidate: %s" % json.dumps(rec))
    if args.log:
        with open(args.log, "a") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    print(
        "trials=%d worst tau-slack=%s worst nu-slack=%s"
        % (args.trials, float(worst_tau[0]), float(worst_nu[0]))
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    base = _BASES[args.base]()
    side = max(1, int(math.sqrt(args.n)))
    f = generators.random_family(base, args.n, box_size=side, seed=args.seed)
    t0 = time.perf_counter()
    cert = auto_pierce(f, method="greedy", refine=False)
    dt = time.perf_counter() - t0
    points = cert.point_count()
    print(
        "n=%d method=%s points=%d witness=%d factor=%d wall=%.3fs "
        "rate=%.0f members/s points_rate=%.0f points/s"
        % (args.n, cert.method, points, len(cert.witness), cert.factor,
           dt, args.n / dt, points / dt)
    )
    return EXIT_OK


@cache  # once per process: each parse starts from a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="piercing")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write an instance JSON file")
    g.add_argument("instance", choices=["five-cycle", "nine-triangles", "grid", "random", "pairwise"])
    g.add_argument("--base", default="square", choices=sorted(_BASES))
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--epsilon", default="1/100")
    g.add_argument("--kind", default="translates", choices=["translates", "homothets"])
    g.add_argument("--box-size", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("pierce", help="run a piercing algorithm, emit a certificate")
    p.add_argument("input")
    p.add_argument("--method", default="auto",
                   choices=["auto", "greedy", "grid", "lattice", "hexagon"])
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pierce)

    e = sub.add_parser("exact", help="exact tau and nu via the oracle")
    e.add_argument("input")
    e.add_argument("--out")
    e.set_defaults(func=cmd_exact)

    v = sub.add_parser("verify", help="re-verify a certificate or cover-pattern JSON file")
    v.add_argument("input")
    v.set_defaults(func=cmd_verify)

    pa = sub.add_parser("pattern", help="emit a verified cover pattern as JSON")
    pa.add_argument("--base", default="disk", choices=sorted(_BASES))
    pa.add_argument("--body", help="JSON file with a body description")
    pa.add_argument("--variant", default="diff", choices=["diff", "half"])
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_pattern)

    x = sub.add_parser("experiment", help="batch random instances to CSV")
    x.add_argument("--base", default="disk", choices=sorted(_BASES))
    x.add_argument("--kind", default="translates", choices=["translates", "homothets"])
    x.add_argument("--n-range", type=_n_range, default="10:40")
    x.add_argument("--trials", type=_trials, default=20)
    x.add_argument("--box-size", type=int, default=10)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True)
    x.add_argument("--oracle-limit", type=int, default=12)
    x.add_argument("--csv")
    x.set_defaults(func=cmd_experiment)

    c = sub.add_parser("conjecture", help="ratio search for the union-area conjectures")
    c.add_argument("--body", help="JSON file with a centrally symmetric polygon body")
    c.add_argument("--base", default="hexagon", choices=["hexagon", "square"])
    c.add_argument("--n", type=int, default=8)
    c.add_argument("--trials", type=_trials, default=20)
    c.add_argument("--box-size", type=int, default=6)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--log", help="append-only JSONL record file")
    c.set_defaults(func=cmd_conjecture)

    b = sub.add_parser("bench", help="greedy throughput benchmark")
    b.add_argument("--n", type=int, default=10000)
    b.add_argument("--base", default="disk", choices=["disk", "square"])
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except TooLarge as e:
        print("instance too large: %s" % e, file=sys.stderr)
        return EXIT_TOO_LARGE
    except VerificationFailed as e:
        print("verification failed: %s" % e, file=sys.stderr)
        return EXIT_VERIFY
    except (PiercingError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
