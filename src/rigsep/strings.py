"""String graphs from planar polyline arrangements.

Intersections are decided in exact rational arithmetic so that touching
endpoints and tangential contacts are honest intersections rather than
floating-point accidents.  The induced base graph puts a vertex at every
crossing point and at the first point of each string, joined by edges in
arc-length order along each string; the string graph itself is then the
rig of the per-string vertex sets over that base.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .rig import RegionAssignment, build_rig

__all__ = [
    "PolylineArrangement",
    "string_graph_from_polylines",
    "segments_intersect",
    "arrangement_points",
    "polylines_to_json",
    "polylines_from_json",
]


def _as_point(p):
    x, y = p
    return (Fraction(x), Fraction(y))


@dataclass(frozen=True)
class PolylineArrangement:
    """A finite family of polylines with exact rational vertices."""

    strings: tuple

    def __post_init__(self):
        norm = []
        for i, line in enumerate(self.strings):
            pts = [_as_point(p) for p in line]
            if not pts:
                raise ValueError(f"string {i} has no points")
            dedup = [pts[0]]
            for p in pts[1:]:
                if p != dedup[-1]:
                    dedup.append(p)
            norm.append(tuple(dedup))
        object.__setattr__(self, "strings", tuple(norm))

    @property
    def k(self) -> int:
        return len(self.strings)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _within(p, a, b):
    # bounding-box membership; only meaningful once collinearity is known
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _param(p, a, b):
    """Parameter t in [0,1] of p on the segment a-b (p assumed on it)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx != 0:
        return Fraction(p[0] - a[0], dx)
    if dy != 0:
        return Fraction(p[1] - a[1], dy)
    return Fraction(0)


def _segment_hit(a, b, c, d):
    """Intersection of closed segments a-b and c-d.

    Returns ("none", None), ("point", p), or ("overlap", None) when the
    intersection is a nondegenerate collinear sub-segment.
    """
    if a == b and c == d:
        return ("point", a) if a == c else ("none", None)
    if a == b:
        if _cross(c, d, a) == 0 and _within(a, c, d):
            return ("point", a)
        return ("none", None)
    if c == d:
        if _cross(a, b, c) == 0 and _within(c, a, b):
            return ("point", c)
        return ("none", None)

    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (d[0] - c[0], d[1] - c[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom != 0:
        # generic position: a unique line crossing, inside both boxes or not
        acx, acy = c[0] - a[0], c[1] - a[1]
        t = Fraction(acx * d2[1] - acy * d2[0], denom)
        s = Fraction(acx * d1[1] - acy * d1[0], denom)
        if 0 <= t <= 1 and 0 <= s <= 1:
            return ("point", (a[0] + t * d1[0], a[1] + t * d1[1]))
        return ("none", None)
    if _cross(a, b, c) != 0:
        return ("none", None)
    # collinear: compare the two parameter intervals along a-b
    t0, t1 = Fraction(0), Fraction(1)
    s0 = _param(c, a, b)
    s1 = _param(d, a, b)
    if s0 > s1:
        s0, s1 = s1, s0
    lo, hi = max(t0, s0), min(t1, s1)
    if lo > hi:
        return ("none", None)
    if lo == hi:
        p = (a[0] + lo * d1[0], a[1] + lo * d1[1])
        return ("point", p)
    return ("overlap", None)


def _segments(line):
    if len(line) == 1:
        return [(line[0], line[0])]
    return [(line[i], line[i + 1]) for i in range(len(line) - 1)]


def segments_intersect(line_a, line_b) -> bool:
    """Exact predicate: do two polylines share at least one point?

    Raises on collinear overlap, mirroring the arrangement builder.
    """
    la = [_as_point(p) for p in line_a]
    lb = [_as_point(p) for p in line_b]
    for a, b in _segments(tuple(la)):
        for c, d in _segments(tuple(lb)):
            kind, _ = _segment_hit(a, b, c, d)
            if kind == "overlap":
                raise ValueError("polylines overlap along a segment")
            if kind == "point":
                return True
    return False


def _crossing_events(strings):
    """The one pass over all segment pairs.

    ``events[i]`` lists (segment index, parameter on that segment, point)
    for the first point of string i and every point where it meets
    another string.  Collinear overlap is rejected.
    """
    k = len(strings)
    events = [[(0, Fraction(0), line[0])] for line in strings]
    for i in range(k):
        segs_i = _segments(strings[i])
        for j in range(i + 1, k):
            segs_j = _segments(strings[j])
            for ki, (a, b) in enumerate(segs_i):
                for kj, (c, d) in enumerate(segs_j):
                    kind, p = _segment_hit(a, b, c, d)
                    if kind == "overlap":
                        raise ValueError(
                            f"strings {i} and {j} overlap along a segment"
                        )
                    if kind == "point":
                        events[i].append((ki, _param(p, a, b), p))
                        events[j].append((kj, _param(p, c, d), p))
    return events


def string_graph_from_polylines(arr: PolylineArrangement):
    """Build (rig, base, assign) for a polyline arrangement.

    Base vertices are the pairwise intersection points plus one anchor at
    the first point of every string; base edges join consecutive points
    along each string.  Collinear overlap between distinct strings has
    infinitely many intersection points and is rejected.
    """
    events = _crossing_events(arr.strings)
    points = sorted({p for ev in events for (_, _, p) in ev})
    index = {p: idx for idx, p in enumerate(points)}

    edges = set()
    regions = []
    for ev in events:
        ordered = sorted(ev, key=lambda e: (e[0], e[1]))
        walk = []
        for _, _, p in ordered:
            if not walk or walk[-1] != p:
                walk.append(p)
        regions.append(tuple(sorted({index[p] for p in walk})))
        for a, b in zip(walk, walk[1:]):
            u, v = index[a], index[b]
            if u != v:
                edges.add((min(u, v), max(u, v)))

    base = Graph(len(points), sorted(edges))
    assign = RegionAssignment(base, tuple(regions))
    rig = build_rig(assign)
    return rig, base, assign


def arrangement_points(arr: PolylineArrangement):
    """Sorted base-vertex coordinates, index-aligned with the built base."""
    return sorted({p for ev in _crossing_events(arr.strings)
                   for (_, _, p) in ev})


def polylines_to_json(strings) -> list:
    """Exact JSON form: each point as [x_num, x_den, y_num, y_den]."""
    out = []
    for line in strings:
        row = []
        for p in line:
            x, y = Fraction(p[0]), Fraction(p[1])
            row.append(
                [x.numerator, x.denominator, y.numerator, y.denominator]
            )
        out.append(row)
    return out


def polylines_from_json(obj) -> PolylineArrangement:
    """Accepts [xn,xd,yn,yd] rational points or [x,y] decimal shorthand."""
    strings = []
    for line in obj:
        pts = []
        for entry in line:
            if len(entry) == 4:
                xn, xd, yn, yd = entry
                pts.append((Fraction(int(xn), int(xd)), Fraction(int(yn), int(yd))))
            elif len(entry) == 2:
                x, y = entry
                pts.append((Fraction(x), Fraction(y)))
            else:
                raise ValueError("polyline point must have 2 or 4 entries")
        strings.append(tuple(pts))
    return PolylineArrangement(tuple(strings))
