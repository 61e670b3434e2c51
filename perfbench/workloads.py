"""The benchmark's workloads: seeded inputs, timed ops, output checks.

Ops go through the package's public entry points only: ``cli.main`` in
process, ``cli.auto_pierce``, ``oracle.solve`` and ``jsonio``.  Every op's
output is checked; an op that raises or fails its check counts as failed.
"""

import contextlib
import gc
import hashlib
import io
import os
import random
import re
import statistics
import sys
import time
import traceback

from piercing import cli, covers, generators, jsonio, oracle

VERIFY_LINE = re.compile(r"^certificate ok: (\d+) points, witness (\d+), factor (\d+)$", re.M)


class OpLog:
    """Times ops and counts failures; in a traced run each op is a root span.

    ``spans`` holds (kind, start, end) of every op; ``scaled`` gives the
    ops of one kind in seconds at reference machine speed (see speed.py).
    """

    def __init__(self, speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, kind, fn, *args, **kwargs):
        """Run one op after a full collection; return its value, or None if it raised."""
        self.attempted += 1
        gc.collect()
        self.speed.maybe_sample()
        tracer = self.tracer
        span = tracer.begin(tracer.label_id("op." + kind)) if tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed op is counted; the batch goes on
            self.fail(kind, traceback.format_exc())
            return None
        finally:
            self.spans.append((kind, t0, time.perf_counter()))
            if tracer:
                tracer.end(span)

    def fail(self, kind, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append("%s: %s" % (kind, why.strip()))
        print("op failed: %s: %s" % (kind, why.strip()), file=sys.stderr)

    def scaled(self, kind):
        """Reference-speed seconds of each op of this kind; call after the last op."""
        if not self.speed.ends or self.speed.ends[-1] < self.spans[-1][2]:
            self.speed.sample()
        return [self.speed.scale(start, end) for k, start, end in self.spans if k == kind] or [0.0]


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _cli(argv):
    """``piercing ARGV`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class CliWorkload:
    """A large family in an instance file; ops are ``piercing pierce`` then ``piercing verify``.

    One unit of work is a pierce op and a verify op of its certificate;
    ``pair_seconds`` is how long a unit took at the baseline, so that a run
    of ``--seconds S`` does round(S / pair_seconds) units, at least one.
    """

    def __init__(self, name, make_family, make_pattern, pair_seconds):
        self.name = name
        self.make_family = make_family
        self.make_pattern = make_pattern
        self.pair_seconds = pair_seconds

    def units(self, seconds):
        return max(1, round(seconds / self.pair_seconds))

    def setup(self, seed, workdir, units):
        f = self.make_family(seed)
        path = os.path.join(workdir, "instance.json")
        jsonio.dump(jsonio.family_to_json(f), path)
        self.make_pattern(f.base)
        return path

    def run(self, instance, units, log, workdir, traced):
        cert = os.path.join(workdir, "certificate.json")
        digests, counts = [], None
        for _ in range(units):
            if os.path.exists(cert):
                os.remove(cert)
            res = log.run("pierce", _cli, ["pierce", instance, "--out", cert])
            if res is None:
                continue
            if res[0] != 0 or not os.path.exists(cert):
                log.fail("pierce", "exit %d, stderr %r" % (res[0], res[2]))
                continue
            digest = _sha256_file(cert)
            if digests and digest != digests[0]:
                log.fail("pierce", "certificate differs from the run's first one")
            digests.append(digest)
            res = log.run("verify", _cli, ["verify", cert])
            if res is None:
                continue
            found = VERIFY_LINE.search(res[1])
            if res[0] != 0 or not found:
                log.fail("verify", "exit %d, stdout %r, stderr %r" % res)
                continue
            points, witness, factor = (int(g) for g in found.groups())
            if points > factor * witness:
                log.fail("verify", "%d points > factor %d * witness %d" % (points, factor, witness))
                continue
            counts = (points, witness, factor)
        points, witness, factor = counts or (0, 1, 0)
        pierce, verify = log.scaled("pierce"), log.scaled("verify")
        metrics = {
            "pierce_s": statistics.median(pierce),
            "verify_s": statistics.median(verify),
            "cert_bytes": os.path.getsize(cert) if os.path.exists(cert) else 0,
            "points_per_witness": points / witness,
        }
        info = {
            "pierce_samples": len(pierce),
            "verify_samples": len(verify),
            "points": points,
            "witness": witness,
            "factor": factor,
            "certificate_sha256": digests[0] if digests else None,
        }
        return metrics, info


def _disk_family(seed):
    return generators.random_family(generators.unit_disk(), 10000, box_size=100, seed=seed)


def _triangle_family(seed):
    return generators.random_family(generators.unit_triangle(), 2500, box_size=100,
                                    kind="homothets", scale_range=(1, 2), seed=seed)


SMALL_BASES = ("square", "triangle", "disk", "cs8", "hexagon")
SMALL_SIZES = range(4, 13)


class SmallExactWorkload:
    """Batches of small families; ops are ``auto_pierce(refine=True)`` then ``oracle.solve``.

    One unit of work is a block with one family per base, kind and size
    (5 x 2 x 9 = 90 families); ``block_seconds`` is how long a block took at
    the baseline.  Hexagon translate families of odd size use the lattice
    method.  The centrally symmetric 8-gon is drawn afresh for every family,
    so its cover searches miss the pattern cache.
    """

    name = "small-exact"

    def __init__(self, block_seconds):
        self.block_seconds = block_seconds

    def units(self, seconds):
        return max(1, round(seconds / self.block_seconds))

    def setup(self, seed, workdir, units):
        rng = random.Random(seed)
        families = []
        for _ in range(units):
            for n in SMALL_SIZES:
                for kind in ("translates", "homothets"):
                    for base_name in SMALL_BASES:
                        base, box = self._base(base_name, rng)
                        f = generators.random_family(base, n, box_size=box, kind=kind,
                                                     scale_range=(1, 2),
                                                     seed=rng.randrange(1 << 30))
                        lattice = base_name == "hexagon" and kind == "translates" and n % 2
                        families.append((f, "lattice" if lattice else "auto"))
        return families

    @staticmethod
    def _base(name, rng):
        if name == "square":
            return generators.unit_square(), 4
        if name == "triangle":
            return generators.unit_triangle(), 4
        if name == "disk":
            return generators.unit_disk(), 5
        if name == "cs8":
            return generators.random_centrally_symmetric_polygon(rng, 4, spread=2), 8
        return generators.hexagon_body(), 8

    def run(self, families, units, log, workdir, traced):
        digest = hashlib.sha256()
        sum_points = sum_witness = sum_tau = cert_bytes = 0
        for index, (f, method) in enumerate(families):
            cert = log.run("pierce", cli.auto_pierce, f, method=method, refine=True)
            res = log.run("exact", oracle.solve, f)
            if cert is None or res is None:
                continue
            points, witness = len(cert.points), len(cert.witness)
            if not witness <= res.nu <= res.tau <= points:
                log.fail("exact", "family %d: witness %d, nu %d, tau %d, points %d"
                         % (index, witness, res.nu, res.tau, points))
                continue
            sum_points += points
            sum_witness += witness
            sum_tau += res.tau
            digest.update(("%d %s %r %r %d %d\n" % (index, cert.method, cert.points,
                                                    cert.witness, res.tau, res.nu)).encode())
            if not traced:
                # the size `piercing pierce --out` would write; untraced so that
                # jsonio stays idle in the traced run
                cert_bytes += len(jsonio.dump(jsonio.certificate_to_json(cert, f)).encode()) + 1
        pierce, exact = log.scaled("pierce"), log.scaled("exact")
        metrics = {
            "pierce_s": statistics.mean(pierce),
            "verify_s": statistics.mean(exact),
            "cert_bytes": cert_bytes,
            "points_per_witness": sum_points / max(1, sum_witness),
        }
        info = {
            "families": len(families),
            "exact_s": statistics.mean(exact),
            "points_over_tau": sum_points / max(1, sum_tau),
            "pierce_p50_s": _percentile(pierce, 0.5),
            "pierce_p90_s": _percentile(pierce, 0.9),
            "exact_p50_s": _percentile(exact, 0.5),
            "exact_p90_s": _percentile(exact, 0.9),
            "families_sha256": digest.hexdigest(),
        }
        return metrics, info


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("disk-translates-10k", _disk_family, covers.translate_cluster_cover, 3.0),
        CliWorkload("triangle-homothets-2.5k", _triangle_family, covers.homothet_cover, 3.6),
        SmallExactWorkload(13.0),
    )
}
