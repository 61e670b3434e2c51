"""JSON schemas for instances and certificates.

Rationals travel as JSON ints or as strings of the grammar
[+-]digits[/digits]; floats, decimal points and exponents are rejected, so
files stay exact and no short field expands to a huge integer.
Certificates embed the instance, which makes them re-verifiable from the
file alone.  An instance is written as its scaled int columns "D", "t" (D t
per axis) and, for homothets, "s" (D s) (bodies.Family.scaled_translations),
and read back as written (_rescaled); the hand-written "members" form too.
Every point is a radicals.RadPoint: a rational one is written as its
coordinate list, a radical one as its terms, read with one rule that needs
no factoring (_Reader.radical).  The writer leaves out what the reader
assumes: a translate family's "kind", a polygon's anchor "reference_point"
(bodies.Frame.anchor) and an empty "info"; files that spell them
out, or a point as {"kind": "rational", "xy": [...]}, read the same.
"""

from fractions import Fraction
from itertools import chain
import json
import math
from operator import itemgetter
import re

from .bodies import (MAX_SCALE_BITS, BoxBody, DiskBody, Family, PolygonBody, collector_paused,
                     scale_table)
from .certificates import PierceCertificate, greedy_pattern
from .errors import DegenerateInput, ParseError, VerificationFailed
from .geom import ConvexPolygon, Point
from .radicals import RadPoint, is_square


# the number grammar of every file: an optional sign, digits, and an
# optional "/" with digits; exponents, decimal points, spaces and
# underscores are refused, so a short field cannot expand to a huge int
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _pair(x, d=1):
    """(p, q), reduced with q > 0, for the exact rational p / q = x / d of a
    JSON int or a string x of the grammar and an int d > 0."""
    p, q = x, d
    if type(x) is not int:
        if type(x) is not str:
            raise ParseError("exact rational expected, got %r" % (x,))
        if not _RATIONAL.fullmatch(x):
            raise ParseError("bad rational %r" % x)
        p, _, q = x.partition("/")
        try:
            p, q = int(p), int(q or 1) * d
        except ValueError as e:  # over the digit limit
            raise ParseError("bad rational %r" % x) from e
        if not q:
            raise ParseError("bad rational %r" % x)
    g = math.gcd(p, q)
    return p // g, q // g


def _num_out(q):
    # ints and Fractions both carry numerator and denominator
    return q.numerator if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _point_out(p: Point):
    return [_num_out(p.x), _num_out(p.y)]


def _rescaled(D0, cols, strings):
    """(D, cols): columns of JSON ints x / D0 and, if strings, grammar
    strings, over their least common denominator D (bodies.scale_table).
    For the ints that is D0 / gcd(D0, x_1, ..., x_n), so a written family's
    entries are taken as they are; each distinct string is parsed once.
    The columns hold one int object per distinct value, not the document's
    one per entry, which would outlive the document."""
    distinct = set(chain(*cols)) if strings else ()
    pairs = {x: _pair(x, D0) for x in distinct if type(x) is str}
    g = math.gcd(D0, *([x for x in distinct if type(x) is int] if strings else chain(*cols)))
    if g == 1 and not pairs and D0.bit_length() <= MAX_SCALE_BITS:
        table = {}
        return D0, [list(map(table.setdefault, col, col)) for col in cols]
    pairs.update((x, (x // g, D0 // g)) for x in distinct or set(chain(*cols)) if type(x) is int)
    D, table = scale_table(pairs)
    return D, [list(map(table.__getitem__, col)) for col in cols]


class _Reader:
    """Reads one document.  Rationals are memoised by their JSON value; the
    memo lives only as long as the document, so no work carries over from
    one file to the next."""

    def __init__(self):
        self._nums = {}

    def num(self, x) -> Fraction:
        """An exact rational from a JSON int or a string of the grammar."""
        # exact type test: True and 1.0 hash like 1 and must not hit the memo
        if type(x) is str or type(x) is int:
            q = self._nums.get(x)
            if q is None:
                q = self._nums[x] = Fraction(x) if type(x) is int else Fraction(*_pair(x))
            return q
        return Fraction(*_pair(x))

    def point(self, obj) -> Point:
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ParseError("point must be a pair")
        return Point(self.num(obj[0]), self.num(obj[1]))

    def radical(self, coords):
        """(m, a, b): coordinate k sums c sqrt(m') over the [[m', c], ...]
        terms coords[k], and is a[k] + b[k] sqrt(m) with rationals a[k] and
        b[k] (b is None and m is 1 when the sum is rational).  A term whose
        m' is a perfect square is rational, and two radicands merge iff
        their product is a perfect square, with no factoring; a sum left
        with two radicands raises VerificationFailed."""
        a, roots = [Fraction(0)] * len(coords), {}  # radicand -> coefficients
        for k, terms in enumerate(coords):
            for m, c in terms:
                if type(m) is not int or m < 0:
                    raise ParseError("radicand must be a nonnegative integer, got %r" % (m,))
                c = self.num(c)
                if is_square(m):
                    a[k] += c * math.isqrt(m)
                    continue
                for r, b in roots.items():
                    if is_square(r * m):  # sqrt(m) = isqrt(r m) / r sqrt(r)
                        b[k] += c * math.isqrt(r * m) / r
                        break
                else:
                    b = roots[m] = [Fraction(0)] * len(coords)
                    b[k] = c
        roots = [(m, b) for m, b in roots.items() if any(b)]
        if len(roots) > 1:
            raise VerificationFailed("a point has more than one radicand")
        (m, b), = roots or [(1, None)]
        return m, a, b

    def pierce_point(self, obj, box_dim=None):
        """The RadPoint of a planar point, or of a rational box point with
        exactly box_dim coordinates.  A rational point is its coordinate
        list, or the object {"kind": "rational", "xy": list} of files
        written earlier."""
        xy = obj
        if type(obj) is not list:
            if obj.get("kind", "rational") == "radical":
                if box_dim is not None:
                    raise ParseError("box points must be rational")
                return RadPoint.of_fractions(*self.radical([obj["x"], obj["y"]]))
            xy = obj["xy"]
        if type(xy) is not list or len(xy) != (box_dim or 2):
            raise ParseError("a point needs a list of %d coordinates" % (box_dim or 2))
        return RadPoint.of_fractions(1, list(map(self.num, xy)))

    def pierce_points(self, objs, box_dim=None):
        """(points, mixed): pierce_point of each entry, None for one with
        more than one radicand, and the VerificationFailed of the first
        such (None if there is none).  The caller raises it once the whole
        document has parsed, so a malformed file is a ParseError whatever
        its points."""
        points, mixed = [], None
        for obj in objs:
            try:
                points.append(self.pierce_point(obj, box_dim))
            except VerificationFailed as e:
                points.append(None)
                mixed = mixed or e
        return points, mixed

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
            dim = obj.get("dim", len(sides))
            if type(dim) is not int or dim != len(sides):
                raise ParseError("box dim must be the integer %d, got %r" % (len(sides), dim))
            mins = obj.get("min_corner")
            mins = [self.num(v) for v in mins] if mins else [0] * dim
            return BoxBody(mins, sides)
        raise ParseError("unknown body type %r" % kind)

    def family(self, obj) -> Family:
        """The instance's Family, built from scaled ints (Family.from_scaled).
        The members form becomes columns over D = 1, and the columns go to
        their least common denominator (_rescaled) with no object per member
        and no Fraction."""
        try:
            base = self.body(obj["base"])
            kind = obj.get("kind", "translates")
            dim = base.dim if base.kind == "box" else 2
            if "members" in obj:
                if obj.keys() & {"D", "t", "s"}:
                    raise ParseError("an instance has members or columns, not both")
                ts = [m["t"] for m in obj["members"]]
                if set(map(type, ts)) - {list} or set(map(len, ts)) - {dim}:
                    raise ParseError("a translation needs a list of %d coordinates" % dim)
                # per axis, not zip(*ts): that takes one iterator object per member
                obj = {"D": 1, "t": [list(map(itemgetter(k), ts)) for k in range(dim)],
                       "s": [m.get("s", 1) for m in obj["members"]]}
            D0, raw, n = obj["D"], obj["t"], len(obj["t"][0])
            # a translate file may leave out s, the scales D0 of its members
            has_s = "s" in obj or kind != "translates"
            ss = obj.get("s") if has_s else []
            if type(D0) is not int or D0 <= 0:
                raise ParseError("D must be a positive integer, got %r" % (D0,))
            if type(raw) is not list or len(raw) != dim or set(map(type, raw)) - {list} \
                    or set(map(len, raw)) != {n} \
                    or has_s and (type(ss) is not list or len(ss) != n):
                raise ParseError("an instance needs %d lists t and a list s of equal length" % dim)
        except ParseError:
            raise
        except Exception as e:
            raise ParseError("bad instance: %s" % e) from e
        # exact type test first: True hashes like 1 and 1.0 equals it
        types = set(map(type, chain(ss, *raw)))
        if types - {int, str}:
            x = next(x for x in chain(ss, *raw) if type(x) not in (int, str))
            raise ParseError("exact rational expected, got %r" % (x,))
        D, cols = _rescaled(D0, raw + [ss] if has_s else raw, str in types)
        S = cols.pop() if has_s else [D] * n
        if S and min(S) <= 0:
            raise ParseError("scale must be positive")
        if kind == "translates" and set(S) - {D}:
            raise ParseError("translate families require scale 1")
        S = S if kind == "homothets" else [D] * n
        try:
            return Family.from_scaled(base, (D, cols, S), kind)
        except DegenerateInput as e:
            raise ParseError(str(e)) from e


def body_to_json(body):
    if isinstance(body, PolygonBody):
        doc = {"type": "polygon", "vertices": [_point_out(v) for v in body.polygon.vertices]}
        # the reader takes the anchor when the field is left out
        if body.reference_point != body.frame.anchor:
            doc["reference_point"] = _point_out(body.reference_point)
        return doc
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
    """The instance document: the scaled columns (Family.scaled_translations)
    as they are, D and D * t per axis, and D * s for homothets only.  Over
    MAX_SCALE_BITS D is 1 and the entries are the rationals themselves.
    "kind" is written for homothets only; the reader takes translates."""
    D, cols, S = f.scaled_translations()
    if D == 1:
        cols, S = [list(map(_num_out, col)) for col in cols], list(map(_num_out, S))
    doc = {"base": body_to_json(f.base), "kind": f.kind, "D": D, "t": cols, "s": S}
    if f.kind == "translates":
        del doc["kind"], doc["s"]
    return doc


@collector_paused()
def family_from_json(obj) -> Family:
    return _Reader().family(obj)


def point_to_json(p: RadPoint):
    """A rational point's coordinate list, else its terms [[1, A/q], [m, B/q]]
    per coordinate with zero terms dropped."""
    q, m, A, B = p.q, p.m, p.A, p.B
    if B is None:
        return [_num_out(Fraction(a, q)) for a in A]
    x, y = ([[r, _num_out(Fraction(c, q))] for r, c in ((1, a), (m, b)) if c]
            for a, b in zip(A, B))
    return {"kind": "radical", "x": x, "y": y}


@collector_paused()
def certificate_to_json(cert: PierceCertificate, f: Family) -> dict:
    """The certificate document.  An explicit certificate lists its points,
    its clusters as [seed, members] and its witness.  A symbolic one lists
    only its refine_points, and verify rebuilds its pattern from the method
    and the instance's base; each cluster is its member list, seed first,
    and the witness, the seeds, is not written.  Its masks, one int per
    pattern cluster, are written when it has them (certificates.offset_masks
    leaves them out when every mask is full).  An empty info is left out."""
    info = {}
    for k, v in cert.info.items():
        info[k] = _num_out(v) if isinstance(v, Fraction) else v
    doc = {"instance": family_to_json(f), "method": cert.method, "factor": cert.factor}
    if cert.symbolic:
        doc["clusters"] = [members for _, members in cert.clusters]  # tuples, written as arrays
        if cert.masks is not None:
            doc["masks"] = cert.masks
        doc["refine_points"] = [point_to_json(p) for p in cert.extra]
    else:
        doc["points"] = [point_to_json(p) for p in cert.points]
        doc["clusters"] = cert.clusters  # (seed, members) tuples, written as arrays
        doc["witness"] = list(cert.witness)
    if info:
        doc["info"] = info
    return doc


def _indices(values, n: int):
    """values, a list of member indices: ints in [0, n), checked in one
    pass over their types and one over their range."""
    if set(map(type, values)) - {int} or values and not (min(values) >= 0 and max(values) < n):
        i = next(i for i in values if type(i) is not int or not 0 <= i < n)
        raise ParseError("member index %r outside 0..%d" % (i, n - 1))
    return values


def _list(doc, key):
    value = doc[key]
    if not isinstance(value, list):
        raise ParseError("%s must be a list" % key)
    return value


def _masks(doc, size, count):
    """A symbolic document's masks: None when it has none, else a list of
    count ints in [1, 2^size), one per pattern cluster."""
    if "masks" not in doc:
        return None
    masks = _list(doc, "masks")
    if len(masks) != count or set(map(type, masks)) - {int} \
            or masks and not (min(masks) > 0 and max(masks) >> size == 0):
        raise ParseError("masks must be %d integers in 1..%d" % (count, (1 << size) - 1))
    return masks


@collector_paused()
def certificate_from_json(obj):
    """(certificate, family) from a document.  One with "points" is
    explicit; one with "refine_points" instead is symbolic, and its method
    must name a greedy rule (certificates.greedy_pattern) for its instance.
    A symbolic document without "witness" has flat clusters, seed first,
    and its seeds are the witness; one with "witness" (the earlier layout)
    has clusters [seed, members], as an explicit one has.  Without "masks"
    every pattern cluster keeps the whole pattern (_masks)."""
    rd = _Reader()
    try:
        f = rd.family(obj["instance"])
        n = len(f)
        box_dim = f.base.dim if f.base.kind == "box" else None
        factor = obj["factor"]
        if type(factor) is not int:
            raise ParseError("factor must be an integer, got %r" % (factor,))
        method = obj.get("method", "unknown")
        info = obj.get("info", {})
        if type(info) is not dict:
            raise ParseError("info must be an object")
        symbolic = "points" not in obj
        if symbolic:
            greedy_pattern(f, method)
        elif "refine_points" in obj:
            raise ParseError("a certificate has points or refine_points, not both")
        clusters = _list(obj, "clusters") if symbolic else obj.get("clusters", [])
        if symbolic and "witness" not in obj:
            if set(map(type, clusters)) - {list} or not all(clusters):
                raise ParseError("a cluster must be a nonempty list of member indices")
            _indices(list(chain.from_iterable(clusters)), n)
            clusters = [(m[0], m) for m in clusters]
            witness = [s for s, _ in clusters]
        else:
            clusters = [(s, m) for s, m in clusters]
            _indices([s for s, _ in clusters], n)
            _indices(list(chain.from_iterable(m for _, m in clusters)), n)
            witness = _indices(_list(obj, "witness"), n)
        points, mixed = rd.pierce_points(_list(obj, "refine_points" if symbolic else "points"),
                                         box_dim)
        if not symbolic:
            cert = PierceCertificate(method, factor, points, clusters, witness, info)
        elif points and not clusters:
            raise ParseError("refine_points without a cluster")
        else:
            cert = PierceCertificate(method, factor, None, clusters, witness, info, family=f,
                                     extra=points)
            cert.masks = _masks(obj, greedy_pattern(f, method).size, len(cert.pattern_clusters))
    except ParseError:
        raise
    except Exception as e:
        raise ParseError("bad certificate: %s" % e) from e
    if mixed:
        raise mixed
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


def _rational(p):
    """The Fraction coordinates of a RadPoint p, for the geometry that
    checks a polygon or box pattern; a point with a radicand, or None (more
    than one, _Reader.pierce_points), is a ParseError."""
    if p is None or p.B is not None:
        raise ParseError("polygon and box pattern offsets must be rational")
    return tuple(Fraction(a, p.q) for a in p.A)


def verify_pattern_json(doc) -> bool:
    """Exact re-verification of a serialized cover pattern.

    Every field is read and checked for type first, so a malformed file is
    a ParseError; a pattern that does not cover its region is
    VerificationFailed.
    """
    from .covers import _verify_box_pattern, disk_half_cover, disk_seven_cover
    from .geom import covers_region

    rd = _Reader()
    try:
        kind = doc["base_kind"]
        half = {"diff": False, "diff_half": True}.get(doc["region_kind"])
        if half is None:
            raise ParseError("unknown region kind %r" % (doc["region_kind"],))
        offsets = _list(doc, "offsets")
        if kind == "polygon":
            # the hull of the region's vertices, which holds the region
            # whatever their order
            region = ConvexPolygon([rd.point(p) for p in _list(doc, "region")])
            cover = ConvexPolygon([rd.point(p) for p in _list(doc, "cover")])
            offsets = [Point(*_rational(o)) for o in rd.pierce_points(offsets)[0]]
        elif kind == "disk":
            r = rd.num(doc["radius"])
            if r <= 0:
                raise ParseError("radius must be positive")
            offsets, mixed = rd.pierce_points(offsets)
        elif kind == "box":
            sides = tuple(rd.num(v) for v in _list(doc, "sides"))
            if not sides or min(sides) <= 0:
                raise ParseError("box sides must be positive")
            offsets = [_rational(rd.pierce_point(p, len(sides))) for p in offsets]
        else:
            raise ParseError("unknown pattern kind %r" % (kind,))
    except ParseError:
        raise
    except (AttributeError, DegenerateInput, IndexError, KeyError, TypeError, ValueError) as e:
        raise ParseError("bad cover pattern: %r" % (e,)) from e
    if kind == "polygon":
        if not covers_region(region, [cover], offsets):
            raise VerificationFailed("pattern residue is nonempty")
    elif kind == "disk":
        if mixed:
            raise mixed
        if set(offsets) != set((disk_half_cover if half else disk_seven_cover)(r).offsets):
            raise VerificationFailed("disk offsets differ from the verified pattern")
    else:
        _verify_box_pattern(sides, offsets, half)
    return True


# entries per piece of a long list that dump writes
_SLICE = 512


def _long(x):
    return isinstance(x, (list, tuple)) and len(x) > _SLICE


def _pieces(obj):
    """json.dumps(obj, separators=(",", ":")) as consecutive pieces, each
    from one json.dumps call: a dict item by item, a list longer than
    _SLICE in slices of _SLICE entries, a list holding such a list item by
    item, and any other value whole.  Only one piece is built at a time."""
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        sep = "{"
        for k, v in obj.items():
            yield sep + _dumps(k) + ":"
            yield from _pieces(v)
            sep = ","
        yield "}"
    elif _long(obj):
        for a in range(0, len(obj), _SLICE):
            yield ("[" if a == 0 else ",") + _dumps(obj[a:a + _SLICE])[1:-1]
        yield "]"
    elif isinstance(obj, (list, tuple)) and any(map(_long, obj)):
        sep = "["
        for v in obj:
            yield sep
            yield from _pieces(v)
            sep = ","
        yield "]"
    else:
        yield _dumps(obj)


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def dump(obj, path=None):
    """obj as compact JSON, json.dumps(obj, separators=(",", ":")): written
    to path with a newline, piece by piece (_pieces), so that the whole text
    never exists at once; with no path, returned."""
    if path is None:
        return "".join(_pieces(obj))
    with open(path, "w") as fh:
        fh.writelines(_pieces(obj))
        fh.write("\n")
    return None


@collector_paused()
def load(path) -> dict:
    """Any JSON layout.  An unreadable, undecodable or too deeply nested
    file, or one with an integer literal over the interpreter's digit
    limit, is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # UnicodeDecodeError and JSONDecodeError too
        raise ParseError("cannot read %s: %s" % (path, e)) from e
    except RecursionError as e:
        raise ParseError("%s is nested too deeply" % path) from e
