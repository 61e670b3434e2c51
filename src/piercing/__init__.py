"""Certified piercing of translates and homothets of convex bodies."""

from .geom import ConvexPolygon, Interval, Point, convex_hull, minkowski_sum, reflect
from .bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    intersection_graph,
)
from .radicals import RadPoint

__all__ = [
    "BoxBody",
    "ConvexPolygon",
    "DiskBody",
    "Family",
    "Interval",
    "Member",
    "Point",
    "PolygonBody",
    "RadPoint",
    "convex_hull",
    "intersection_graph",
    "minkowski_sum",
    "reflect",
]
