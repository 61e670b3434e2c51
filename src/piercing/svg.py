"""Static SVG rendering of families and certificates.

Bodies draw at 40% opacity, piercing points as crosses, witness members with
a heavy outline.  Coordinates are floats here; rendering is not part of any
exact check.
"""

import math

from .radicals import RadPoint

HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'viewBox="%.3f %.3f %.3f %.3f">\n'
)

BODY_STYLE = 'fill="#4477aa" fill-opacity="0.4" stroke="#223355" stroke-width="%.4f"'
WITNESS_STYLE = 'fill="none" stroke="#cc3311" stroke-width="%.4f"'


def _fxy(p):
    if isinstance(p, RadPoint):
        q, root = p.q, math.sqrt(p.m)
        return tuple(a / q + b / q * root for a, b in zip(p.A, p.B or (0, 0)))
    if isinstance(p, tuple):
        return float(p[0]), float(p[1])
    return float(p.x), float(p.y)


def _body_bounds(body):
    box = body.bbox()
    return float(box[0].lo), float(box[0].hi), float(box[1].lo), float(box[1].hi)


def _emit_body(out, body, style):
    if body.kind == "disk":
        cx, cy = _fxy(body.center)
        out.append(
            '<circle cx="%.5f" cy="%.5f" r="%.5f" %s/>' % (cx, cy, float(body.radius), style)
        )
    elif body.kind == "polygon":
        pts = " ".join("%.5f,%.5f" % _fxy(v) for v in body.polygon.vertices)
        out.append('<polygon points="%s" %s/>' % (pts, style))
    else:  # box, first two axes
        x, y = float(body.mins[0]), float(body.mins[1])
        w, h = float(body.sides[0]), float(body.sides[1])
        out.append('<rect x="%.5f" y="%.5f" width="%.5f" height="%.5f" %s/>' % (x, y, w, h, style))


def render(f, points=(), witness=(), path=None):
    """SVG for a family with optional piercing points and witness members."""
    bounds = [_body_bounds(f.realize(i)) for i in range(len(f))]
    xlo = min(b[0] for b in bounds)
    xhi = max(b[1] for b in bounds)
    ylo = min(b[2] for b in bounds)
    yhi = max(b[3] for b in bounds)
    pad = 0.05 * max(xhi - xlo, yhi - ylo, 1.0)
    xlo, xhi = xlo - pad, xhi + pad
    ylo, yhi = ylo - pad, yhi + pad
    stroke = max(xhi - xlo, yhi - ylo) / 400.0
    out = [HEADER % (xlo, ylo, xhi - xlo, yhi - ylo)]
    # flip y so the mathematical "up" points up on screen
    out.append('<g transform="translate(0 %.5f) scale(1 -1)">' % (yhi + ylo))
    for i in range(len(f)):
        _emit_body(out, f.realize(i), BODY_STYLE % stroke)
    for i in witness:
        _emit_body(out, f.realize(i), WITNESS_STYLE % (3 * stroke))
    r = 4 * stroke
    for p in points:
        x, y = _fxy(p)
        out.append(
            '<path d="M %.5f %.5f L %.5f %.5f M %.5f %.5f L %.5f %.5f" '
            'stroke="#000000" stroke-width="%.4f"/>'
            % (x - r, y - r, x + r, y + r, x - r, y + r, x + r, y - r, stroke * 1.5)
        )
    out.append("</g>")
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return None
