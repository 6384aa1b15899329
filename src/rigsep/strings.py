"""String graphs from planar polyline arrangements.

Intersections are decided exactly, so that touching endpoints and
tangential contacts are honest intersections rather than floating-point
accidents.  Every coordinate is scaled by the least common multiple of
the arrangement's denominators, and the orientation and parameter tests
run on the resulting Python ints.  Only segment pairs whose bounding
boxes overlap are tested: the boxes are compared in floats, and rounding
to the nearest float is monotone, so no pair that touches is dropped.
Where two strings meet, the point is keyed by its reduced integer triple
``(x, y, w)``, the point ``(x/w, y/w)``, and its parameter along each
segment is an integer ratio.  Points and parameters are sorted by their
correctly rounded floats; a ``Fraction`` is built only to order a run of
equal floats, and for the coordinates ``arrangement_points`` returns.

The induced base graph puts a vertex at every crossing point and at the
first point of each string, joined by edges in arc-length order along
each string; the string graph itself is then the rig of the per-string
vertex sets over that base.
"""
from __future__ import annotations

import math
from itertools import groupby
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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

_ZERO, _ONE = (0, 1), (1, 1)  # parameters as (numerator, denominator > 0)
_OVERLAP = "overlap"


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


def _scaled(strings):
    """``(lines, scale)``: the strings with every coordinate multiplied by
    ``scale``, the least common multiple of their denominators, as ints."""
    scale = math.lcm(*{c.denominator for line in strings
                       for p in line for c in p})
    lines = [
        tuple((x.numerator * (scale // x.denominator),
               y.numerator * (scale // y.denominator)) for x, y in line)
        for line in strings
    ]
    return lines, scale


def _on_segment(p, a, b):
    """Parameter ``(num, den)`` of p on the segment a-b (a != b), or None
    when p is off it."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    if dx * py - dy * px:
        return None
    num, den = (px, dx) if dx else (py, dy)
    if den < 0:
        num, den = -num, -den
    return (num, den) if 0 <= num <= den else None


def _segment_hit(a, b, c, d):
    """Intersection of the closed segments a-b and c-d on integer points.

    Returns None when they are disjoint, ``_OVERLAP`` when they share a
    nondegenerate collinear sub-segment, and otherwise ``(x, y, w, t, s)``:
    the common point (x/w, y/w) with w > 0, and its parameters t on a-b
    and s on c-d as ``(num, den)`` pairs (0 on a one-point segment).
    """
    if a == b:
        if c == d:
            return (a[0], a[1], 1, _ZERO, _ZERO) if a == c else None
        s = _on_segment(a, c, d)
        return None if s is None else (a[0], a[1], 1, _ZERO, s)
    if c == d:
        t = _on_segment(c, a, b)
        return None if t is None else (c[0], c[1], 1, t, _ZERO)

    d1x, d1y = b[0] - a[0], b[1] - a[1]
    d2x, d2y = d[0] - c[0], d[1] - c[1]
    acx, acy = c[0] - a[0], c[1] - a[1]
    denom = d1x * d2y - d1y * d2x
    if denom:
        # generic position: a unique line crossing, inside both segments or not
        tn = acx * d2y - acy * d2x
        sn = acx * d1y - acy * d1x
        if denom < 0:
            denom, tn, sn = -denom, -tn, -sn
        if 0 <= tn <= denom and 0 <= sn <= denom:
            return (a[0] * denom + tn * d1x, a[1] * denom + tn * d1y, denom,
                    (tn, denom), (sn, denom))
        return None
    if acx * d1y - acy * d1x:
        return None
    # collinear: positions of c and d along a-b, where a is at 0 and b at full
    pc = acx * d1x + acy * d1y
    pd = (d[0] - a[0]) * d1x + (d[1] - a[1]) * d1y
    full = d1x * d1x + d1y * d1y
    lo, hi = max(0, min(pc, pd)), min(full, max(pc, pd))
    if lo > hi:
        return None
    if lo < hi:
        return _OVERLAP
    # a single shared point, an endpoint of both segments
    p, t = (a, _ZERO) if lo == 0 else (b, _ONE)
    return (p[0], p[1], 1, t, _ZERO if p == c else _ONE)


def _segments(line):
    if len(line) == 1:
        return [(line[0], line[0])]
    return [(line[i], line[i + 1]) for i in range(len(line) - 1)]


def segments_intersect(line_a, line_b) -> bool:
    """Exact predicate: do two polylines share at least one point?

    Raises on collinear overlap, mirroring the arrangement builder.
    """
    (la, lb), _ = _scaled([[_as_point(p) for p in line_a],
                           [_as_point(p) for p in line_b]])
    for a, b in _segments(la):
        for c, d in _segments(lb):
            hit = _segment_hit(a, b, c, d)
            if hit is _OVERLAP:
                raise ValueError("polylines overlap along a segment")
            if hit is not None:
                return True
    return False


def _box_pairs(box, owner):
    """Segment index pairs ``(p, q)`` from distinct strings whose bounding
    boxes overlap, ordered by (string of p, string of q, p, q).

    Segments are numbered string by string: row p of ``box`` holds the
    endpoints ``(x0, y0, x1, y1)`` of segment p and ``owner[p]`` its
    string.  A sort on the left edges finds the pairs that overlap in x
    (sweep and prune), and the y test keeps those that overlap in both.
    """
    xlo, xhi = np.minimum(box[:, 0], box[:, 2]), np.maximum(box[:, 0], box[:, 2])
    ylo, yhi = np.minimum(box[:, 1], box[:, 3]), np.maximum(box[:, 1], box[:, 3])
    n = len(box)
    order = np.argsort(xlo, kind="stable")
    # candidates of the r-th segment by left edge: the next ones up to stop[r]
    stop = np.searchsorted(xlo[order], xhi[order], side="right")
    count = stop - np.arange(n) - 1
    rows = np.repeat(np.arange(n), count)
    cols = rows + 1 + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    p, q = order[rows], order[cols]
    keep = (owner[p] != owner[q]) & (ylo[p] <= yhi[q]) & (ylo[q] <= yhi[p])
    p, q = np.minimum(p[keep], q[keep]), np.maximum(p[keep], q[keep])
    pick = np.lexsort((q, p, owner[q], owner[p]))
    return p[pick].tolist(), q[pick].tolist()


def _key(x, y, w):
    """The point (x/w, y/w), w > 0, as its reduced integer triple."""
    g = math.gcd(x, y, w)
    return (x // g, y // g, w // g)


def _crossing_events(strings):
    """The one pass over the segment pairs that can meet.

    ``events[i]`` lists (segment index, parameter on that segment, point
    key) for the first point of string i and every point where it meets
    another string; a key is the reduced ``(x, y, w)`` of (x/w, y/w).
    Collinear overlap is rejected.
    """
    lines, scale = _scaled(strings)
    events = [[(0, _ZERO, _key(*line[0], scale))] for line in lines]
    segs = [(i, k, a, b) for i, line in enumerate(lines)
            for k, (a, b) in enumerate(_segments(line))]
    owner = np.array([s[0] for s in segs], dtype=np.intp)
    # x / scale is the correctly rounded float of the exact coordinate
    box = np.array([(a[0] / scale, a[1] / scale, b[0] / scale, b[1] / scale)
                    for _, _, a, b in segs], dtype=float).reshape(-1, 4)
    for p, q in zip(*_box_pairs(box, owner)):
        i, ki, a, b = segs[p]
        j, kj, c, d = segs[q]
        hit = _segment_hit(a, b, c, d)
        if hit is None:
            continue
        if hit is _OVERLAP:
            raise ValueError(f"strings {i} and {j} overlap along a segment")
        x, y, w, t, s = hit
        key = _key(x, y, w * scale)
        events[i].append((ki, t, key))
        events[j].append((kj, s, key))
    return events


def _sorted_exact(items, rough, exact):
    """``sorted(items, key=exact)`` for a ``rough`` key that never orders
    two items against ``exact``, such as correctly rounded floats: only
    the runs of equal rough keys need exact comparisons."""
    out = []
    for _, run in groupby(sorted(items, key=rough), key=rough):
        run = list(run)
        out.extend(sorted(run, key=exact) if len(run) > 1 else run)
    return out


def _point(key):
    x, y, w = key
    return (Fraction(x, w), Fraction(y, w))


def _sorted_keys(events):
    """The distinct event point keys, sorted by exact coordinates."""
    keys = {key for ev in events for (_, _, key) in ev}
    return _sorted_exact(keys, rough=lambda k: k[0] / k[2], exact=_point)


def string_graph_from_polylines(arr: PolylineArrangement):
    """Build (rig, base, assign) for a polyline arrangement.

    Base vertices are the pairwise intersection points plus one anchor at
    the first point of every string; base edges join consecutive points
    along each string.  Collinear overlap between distinct strings has
    infinitely many intersection points and is rejected.
    """
    events = _crossing_events(arr.strings)
    keys = _sorted_keys(events)
    index = {key: idx for idx, key in enumerate(keys)}

    edges = set()
    regions = []
    for ev in events:
        ordered = _sorted_exact(ev, rough=lambda e: (e[0], e[1][0] / e[1][1]),
                                exact=lambda e: (e[0], Fraction(*e[1])))
        walk = []
        for _, _, p in ordered:
            if not walk or walk[-1] != p:
                walk.append(p)
        regions.append(tuple(sorted({index[p] for p in walk})))
        for a, b in zip(walk, walk[1:]):
            u, v = index[a], index[b]
            if u != v:
                edges.add((min(u, v), max(u, v)))

    base = Graph(len(keys), edges)
    assign = RegionAssignment(base, tuple(regions))
    rig = build_rig(assign)
    return rig, base, assign


def arrangement_points(arr: PolylineArrangement):
    """Sorted base-vertex coordinates, index-aligned with the built base."""
    return [_point(key) for key in _sorted_keys(_crossing_events(arr.strings))]


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
