"""Certified-piercing benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1]

Run from a checkout: the package is imported from its ``src/`` directory,
never from an installed copy.  One run sets up one workload in this fresh
process, does the work that ``--seconds`` asks for and checks every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it is a JSON record of the run: seed, interpreter, nproc,
commit, source digest, calibration samples, every op's start, end and scaled
time, digests of the outputs and the metrics that are information only.

Times are scaled to a reference machine speed by a calibration loop timed
between ops (speed.py); the record keeps the wall times too.

``--workload all`` runs each workload in a child process and prints a table
of its end-to-end metrics; with ``--trace 1`` it also runs each traced and
prints the tracing overhead.  See perfbench/README.md.
"""

import time

from speed import SpeedLog

SPEED = SpeedLog()
SPEED.sample()
T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of 1 + these
CHILD_TIMEOUT = 170


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def _import_package():
    """Import the package from the checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "piercing", "__init__.py")):
        sys.exit("perfbench: no src/piercing in %s; run from a checkout" % ROOT)
    sys.path.insert(0, SRC)
    import piercing

    if os.path.dirname(os.path.dirname(os.path.abspath(piercing.__file__))) != SRC:
        sys.exit("perfbench: imported piercing from %s, not %s" % (piercing.__file__, SRC))


def _commit():
    """The checkout's git commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "piercing")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _child(args):
    cmd = [sys.executable, os.path.abspath(__file__)] + args
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(args), proc.returncode,
                                                 proc.stderr.strip()[-2000:]))
    return proc.stdout


def _setup(args, workdir):
    """Import the package and set up the workload; returns (workload, units, state)."""
    _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    units = workload.units(args.seconds)
    os.makedirs(workdir, exist_ok=True)
    return workload, units, workload.setup(args.seed, workdir, units)


def run_one(args, e2e, per_layer):
    workdir = os.path.join(WORK, "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    try:
        workload, units, state = _setup(args, workdir)
        ready = time.perf_counter()
        SPEED.sample()
        setups = [SPEED.scale(T0, ready)]
        setups_wall = [ready - T0]
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[0], "setup_wall_s": setups_wall[0]}))
            return 0
        for _ in range(SETUP_PROBES):
            probe = json.loads(_child(["--setup-probe", "--workload", args.workload,
                                       "--seed", str(args.seed), "--seconds", str(args.seconds)]))
            setups.append(probe["setup_s"])
            setups_wall.append(probe["setup_wall_s"])

        from spans import Tracer
        from workloads import OpLog

        tracer = Tracer() if args.trace else None
        log = OpLog(SPEED, tracer)
        if tracer:
            tracer.install()
        try:
            metrics, info = workload.run(state, units, log, workdir, bool(tracer))
        finally:
            if tracer:
                tracer.uninstall()
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "units": units,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(),
            "source_sha256": _source_sha256(),
            "calibration_s": [[b - T0, c] for b, c in zip(SPEED.begins, SPEED.seconds)],
            "setup_samples_s": setups,
            "setup_wall_s": setups_wall,
            "ops_s": [[k, a - T0, b - T0, log.speed.scale(a, b)] for k, a, b in log.spans],
            "failed_frac": log.failed / max(1, log.attempted),
            "failures": log.failures,
            "end_to_end": {k: {"value": metrics[k], "unit": e2e[k]} for k in e2e},
            "info": info,
        }
        if tracer:
            os.makedirs(WORK, exist_ok=True)
            trace_path = os.path.join(WORK, "trace-%s-seed%d.txt" % (args.workload, args.seed))
            aggregate = tracer.aggregate()
            tracer.write(trace_path, aggregate)
            layer = _layer_metrics(tracer, aggregate)
            record["trace_file"] = os.path.relpath(trace_path, ROOT)
            record["trace_residue_frac"] = layer["trace.residue_s"] / layer["trace.ops_s"]
            # a layer that never ran reads 0
            out_metrics = {k: {"value": layer.get(k, 0), "unit": per_layer[k]} for k in per_layer}
        else:
            out_metrics = record["end_to_end"]
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                          "failed": log.failed, "metrics": out_metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(tracer, aggregate):
    """Per-layer values named <module>.<function>.<field>, plus trace.* totals."""
    ops_s, residue_s = tracer.root_residue()
    values = {"trace.ops_s": ops_s, "trace.residue_s": residue_s,
              "trace.spans": len(tracer.span_start)}
    for label, row in aggregate.items():
        for field, v in row.items():
            values["%s.%s" % (label, field)] = v
    values.update(tracer.counters)
    # the pair test's time is the checker's construction plus every check
    values["bodies.pair_checker.s"] = (values.get("bodies.pair_checker.s", 0.0)
                                       + values.get("bodies.pair_checker.check.s", 0.0))
    return values


def run_all(args, e2e, names):
    rows = []
    ok = True
    for name in names:
        base = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        plain = _child(base + ["--trace", "0"]).splitlines()
        record, result = json.loads(plain[-2])["record"], json.loads(plain[-1])
        ok = ok and result["correct"]
        for k, m in result["metrics"].items():
            rows.append((name, k, m["value"], m["unit"]))
        rows.append((name, "failed_frac", record["failed_frac"], "fraction"))
        for k in ("exact_s", "points_over_tau"):
            if k in record["info"]:
                rows.append((name, k, record["info"][k], "s" if k.endswith("_s") else "ratio"))
        if args.trace:
            traced = _child(base + ["--trace", "1"]).splitlines()
            result = json.loads(traced[-1])
            ok = ok and result["correct"]
            traced_record = json.loads(traced[-2])["record"]
            scaled = [sum(op[3] for op in r["ops_s"]) for r in (record, traced_record)]
            rows.append((name, "trace_overhead", scaled[1] / scaled[0] - 1, "fraction"))
            rows.append((name, "trace_residue", traced_record["trace_residue_frac"], "fraction"))
    width = max(len(r[0]) for r in rows)
    for name, k, v, unit in rows:
        print("%-*s  %-20s %14.6g %s" % (width, name, k, v, unit))
    return 0 if ok else 1


def main(argv=None):
    e2e, per_layer, names = _spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("perfbench: run without -O; the package checks with assert")
    if args.workload == "all":
        return run_all(args, e2e, names)
    return run_one(args, e2e, per_layer)


if __name__ == "__main__":
    sys.exit(main())
