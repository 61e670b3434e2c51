"""JSON schemas for instances and certificates.

Rationals travel as "p/q" strings or plain integers; floats are rejected so
files stay exact.  Certificates embed the instance, which makes them
re-verifiable from the file alone.
"""

from fractions import Fraction
import json

from .bodies import BoxBody, DiskBody, Family, Member, PolygonBody
from .certificates import PierceCertificate, greedy_rule
from .errors import DegenerateInput, ParseError
from .geom import ConvexPolygon, Point
from .radicals import RadPoint, Radical, canonical_radicands


def _num(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ParseError("exact rational expected, got %r" % (x,))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError("bad rational %r" % x) from e
    raise ParseError("exact rational expected, got %r" % (x,))


def _num_out(q: Fraction):
    q = Fraction(q)
    return int(q) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _point_out(p: Point):
    return [_num_out(p.x), _num_out(p.y)]


def _radical_sum(terms) -> Radical:
    """The sum of c * sqrt(m) over (m, c) pairs, through Radical's own
    arithmetic: the one canonicaliser."""
    out = Radical()
    for m, c in terms:
        out = out + Radical.sqrt(m) * c
    return out


class _Reader:
    """Reads one document.  Rationals are memoised by their JSON value and
    the canonical-form verdict by radicand tuple; both memos live only as
    long as the document, so no work carries over from one file to the
    next."""

    def __init__(self):
        self._nums = {}
        self._canonical = {}

    def num(self, x) -> Fraction:
        # exact type test: True and 1.0 hash like 1 and must not hit the memo
        if type(x) is str or type(x) is int:
            q = self._nums.get(x)
            if q is None:
                q = self._nums[x] = _num(x)
            return q
        return _num(x)

    def point(self, obj) -> Point:
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ParseError("point must be a pair")
        return Point(self.num(obj[0]), self.num(obj[1]))

    def radical(self, obj) -> Radical:
        """A Radical from [[m, c], ...] terms.  Canonical terms are taken as
        they are; any other list goes through Radical's own arithmetic, the
        one canonicaliser."""
        terms = []
        for m, c in obj:
            if type(m) is not int or m < 0:
                raise ParseError("radicand must be a nonnegative integer, got %r" % (m,))
            terms.append((m, self.num(c)))
        ms = tuple(m for m, _ in terms)
        canonical = self._canonical.get(ms)
        if canonical is None:
            canonical = self._canonical[ms] = canonical_radicands(ms)
        if canonical:
            return Radical({m: c for m, c in terms if c})
        return _radical_sum(terms)

    def pierce_point(self, obj, box_dim=None):
        """A planar point (rational or radical), or a rational box point
        with exactly box_dim coordinates."""
        kind = obj.get("kind", "rational")
        if kind == "radical":
            if box_dim is not None:
                raise ParseError("box points must be rational")
            return RadPoint(self.radical(obj["x"]), self.radical(obj["y"]))
        xy = obj["xy"]
        if type(xy) is not list or len(xy) != (box_dim or 2):
            raise ParseError("a point needs a list of %d coordinates" % (box_dim or 2))
        if box_dim is not None:
            return tuple(self.num(v) for v in xy)
        return Point(self.num(xy[0]), self.num(xy[1]))

    def body(self, obj):
        try:
            kind = obj["type"]
        except (TypeError, KeyError) as e:
            raise ParseError("body needs a type") from e
        if kind == "polygon":
            verts = [self.point(v) for v in obj.get("vertices", [])]
            if len(verts) < 3:
                raise ParseError("polygon needs at least 3 vertices")
            ref = obj.get("reference_point")
            return PolygonBody(ConvexPolygon(verts), self.point(ref) if ref else None)
        if kind == "disk":
            return DiskBody(self.point(obj["center"]), self.num(obj["radius"]))
        if kind == "box":
            sides = [self.num(v) for v in obj["side_lengths"]]
            dim = int(obj.get("dim", len(sides)))
            if dim != len(sides):
                raise ParseError("box dim mismatch")
            mins = obj.get("min_corner")
            mins = [self.num(v) for v in mins] if mins else [0] * dim
            return BoxBody(mins, sides)
        raise ParseError("unknown body type %r" % kind)

    def family(self, obj) -> Family:
        try:
            base = self.body(obj["base"])
            kind = obj.get("kind", "translates")
            members = []
            for m in obj["members"]:
                t = m["t"]
                if base.kind == "box":
                    if len(t) != base.dim:
                        raise ParseError("a translation needs %d coordinates" % base.dim)
                    tv = tuple(self.num(v) for v in t)
                else:
                    tv = self.point(t)
                members.append(Member(tv, self.num(m.get("s", 1))))
        except ParseError:
            raise
        except Exception as e:
            raise ParseError("bad instance: %s" % e) from e
        try:
            return Family(base, members, kind)
        except DegenerateInput as e:
            raise ParseError(str(e)) from e


def body_to_json(body):
    if isinstance(body, PolygonBody):
        return {
            "type": "polygon",
            "vertices": [_point_out(v) for v in body.polygon.vertices],
            "reference_point": _point_out(body.reference_point),
        }
    if isinstance(body, DiskBody):
        return {
            "type": "disk",
            "center": _point_out(body.center),
            "radius": _num_out(body.radius),
        }
    if isinstance(body, BoxBody):
        return {
            "type": "box",
            "dim": body.dim,
            "min_corner": [_num_out(v) for v in body.mins],
            "side_lengths": [_num_out(v) for v in body.sides],
        }
    raise ParseError("unknown body")


def body_from_json(obj):
    return _Reader().body(obj)


def family_to_json(f: Family) -> dict:
    return {
        "base": body_to_json(f.base),
        "kind": f.kind,
        "members": [
            {
                "t": [_num_out(v) for v in (m.t if isinstance(m.t, tuple) else (m.t.x, m.t.y))],
                "s": _num_out(m.s),
            }
            for m in f.members
        ],
    }


def family_from_json(obj) -> Family:
    return _Reader().family(obj)


def _radical_out(r: Radical):
    return [[m, _num_out(c)] for m, c in sorted(r.terms.items())]


def point_to_json(p):
    if isinstance(p, Point):
        return {"kind": "rational", "xy": _point_out(p)}
    if isinstance(p, RadPoint):
        if p.is_rational():
            return {"kind": "rational", "xy": [_num_out(p.x.as_fraction()), _num_out(p.y.as_fraction())]}
        return {"kind": "radical", "x": _radical_out(p.x), "y": _radical_out(p.y)}
    return {"kind": "rational", "xy": [_num_out(v) for v in p]}  # box tuple


def certificate_to_json(cert: PierceCertificate, f: Family) -> dict:
    """The certificate document.  An explicit certificate lists its points;
    a symbolic one lists only its refine_points, and verify rebuilds its
    pattern from the method and the instance's base."""
    info = {}
    for k, v in cert.info.items():
        info[k] = _num_out(v) if isinstance(v, Fraction) else v
    doc = {"instance": family_to_json(f), "method": cert.method, "factor": cert.factor}
    if not cert.symbolic:
        doc["points"] = [point_to_json(p) for p in cert.points]
    doc["clusters"] = [[s, list(m)] for s, m in cert.clusters]
    doc["witness"] = list(cert.witness)
    if cert.symbolic:
        doc["refine_points"] = [point_to_json(p) for p in cert.extra]
    doc["info"] = info
    return doc


def _index(i, n: int) -> int:
    """A member index: an int in [0, n)."""
    if type(i) is not int or not 0 <= i < n:
        raise ParseError("member index %r outside 0..%d" % (i, n - 1))
    return i


def _list(doc, key):
    value = doc[key]
    if not isinstance(value, list):
        raise ParseError("%s must be a list" % key)
    return value


def certificate_from_json(obj):
    """(certificate, family) from a document.  One with "points" is
    explicit; one with "refine_points" instead is symbolic, and its method
    must name a greedy rule (certificates.greedy_rule) for its instance."""
    rd = _Reader()
    try:
        f = rd.family(obj["instance"])
        n = len(f)
        box_dim = f.base.dim if f.base.kind == "box" else None
        factor = obj["factor"]
        if type(factor) is not int:
            raise ParseError("factor must be an integer, got %r" % (factor,))
        method = obj.get("method", "unknown")
        symbolic = "points" not in obj
        if symbolic:
            greedy_rule(f, method)
        elif "refine_points" in obj:
            raise ParseError("a certificate has points or refine_points, not both")
        clusters = _list(obj, "clusters") if symbolic else obj.get("clusters", [])
        clusters = [(_index(s, n), [_index(i, n) for i in m]) for s, m in clusters]
        witness = [_index(i, n) for i in _list(obj, "witness")]
        points = [rd.pierce_point(p, box_dim)
                  for p in _list(obj, "refine_points" if symbolic else "points")]
        if not symbolic:
            cert = PierceCertificate(method, factor, points, clusters, witness)
        elif points and not clusters:
            raise ParseError("refine_points without a cluster")
        else:
            cert = PierceCertificate(method, factor, None, clusters, witness, family=f,
                                     extra=points)
    except ParseError:
        raise
    except Exception as e:
        raise ParseError("bad certificate: %s" % e) from e
    return cert, f


def pattern_to_json(pat) -> dict:
    """Serialize a CoverPattern so the CLI can re-verify it standalone."""
    doc = {
        "type": "cover_pattern",
        "base_kind": pat.base_kind,
        "region_kind": pat.region_kind,
        "offsets": [point_to_json(p) for p in pat.offsets],
    }
    if pat.base_kind == "polygon":
        doc["region"] = [_point_out(p) for p in pat.data["region"]]
        doc["cover"] = [_point_out(p) for p in pat.data["body"].vertices]
    elif pat.base_kind == "disk":
        doc["radius"] = _num_out(pat.data["radius"])
    else:
        doc["sides"] = [_num_out(s) for s in pat.data["sides"]]
    return doc


def verify_pattern_json(doc) -> bool:
    """Exact re-verification of a serialized cover pattern.

    Every field is read and checked for type first, so a malformed file is
    a ParseError; a pattern that does not cover its region is
    VerificationFailed.
    """
    from .covers import (
        _verify_box_pattern,
        _verify_disk_half,
        _verify_disk_seven,
        disk_half_offsets,
        disk_seven_offsets,
    )
    from .errors import VerificationFailed
    from .geom import ConvexPolygon, covers_region

    rd = _Reader()
    try:
        kind = doc["base_kind"]
        half = {"diff": False, "diff_half": True}.get(doc["region_kind"])
        if half is None:
            raise ParseError("unknown region kind %r" % (doc["region_kind"],))
        offsets = _list(doc, "offsets")
        if kind == "polygon":
            region = [rd.point(p) for p in _list(doc, "region")]
            cover = ConvexPolygon([rd.point(p) for p in _list(doc, "cover")])
            offsets = [rd.pierce_point(p) for p in offsets]
            if not all(isinstance(o, Point) for o in offsets):
                raise ParseError("polygon pattern offsets must be rational")
        elif kind == "disk":
            r = rd.num(doc["radius"])
            if r <= 0:
                raise ParseError("radius must be positive")
            offsets = [rd.pierce_point(p) for p in offsets]
        elif kind == "box":
            sides = tuple(rd.num(v) for v in _list(doc, "sides"))
            if not sides or min(sides) <= 0:
                raise ParseError("box sides must be positive")
            offsets = [rd.pierce_point(p, len(sides)) for p in offsets]
        else:
            raise ParseError("unknown pattern kind %r" % (kind,))
    except ParseError:
        raise
    except (AttributeError, DegenerateInput, IndexError, KeyError, TypeError, ValueError) as e:
        raise ParseError("bad cover pattern: %r" % (e,)) from e
    if kind == "polygon":
        if not covers_region(region, [cover.translate(o) for o in offsets]):
            raise VerificationFailed("pattern residue is nonempty")
    elif kind == "disk":
        offsets = [RadPoint.of(p) if isinstance(p, Point) else p for p in offsets]
        if half:
            canonical = disk_half_offsets(r)
            _verify_disk_half(r)
        else:
            canonical = disk_seven_offsets(r)
            _verify_disk_seven(r)
        got = {p.key() for p in offsets}
        want = {RadPoint.of(p).key() for p in canonical}
        if got != want:
            raise VerificationFailed("disk offsets differ from the verified pattern")
    else:
        _verify_box_pattern(sides, offsets, half)
    return True


def dump(obj, path=None):
    text = json.dumps(obj, indent=2)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return None


def load(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e) from e
