from fractions import Fraction

import numpy as np
import pytest

from rigsep.graph import complete_graph
from rigsep.strings import (
    PolylineArrangement,
    arrangement_points,
    polylines_from_json,
    polylines_to_json,
    segments_intersect,
    string_graph_from_polylines,
)
from rigsep.strings import _crossing_events, _point


def seg(x1, y1, x2, y2):
    return ((Fraction(x1), Fraction(y1)), (Fraction(x2), Fraction(y2)))


class TestPredicate:
    def test_crossing(self):
        assert segments_intersect(seg(0, 0, 1, 1), seg(0, 1, 1, 0))

    def test_disjoint_parallel(self):
        assert not segments_intersect(seg(0, 0, 1, 0), seg(0, 1, 1, 1))

    def test_shared_endpoint_counts(self):
        # closed segments: touching at an endpoint is an intersection
        assert segments_intersect(seg(0, 0, 1, 0), seg(1, 0, 1, 1))

    def test_t_touch(self):
        assert segments_intersect(seg(0, 0, 2, 0), seg(1, 0, 1, 1))

    def test_collinear_single_point_ok(self):
        assert segments_intersect(seg(0, 0, 1, 0), seg(1, 0, 2, 0))

    def test_collinear_overlap_raises(self):
        with pytest.raises(ValueError):
            segments_intersect(seg(0, 0, 2, 0), seg(1, 0, 3, 0))

    def test_near_miss_is_exact(self):
        a = seg(0, 0, 1, 1)
        b = ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**12)))
        assert not segments_intersect(a, b)

    def test_polyline_bend_hit(self):
        bent = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))
        assert segments_intersect(bent, seg(0, 0, 2, 0))


class TestArrangement:
    def test_dedups_consecutive_points(self):
        arr = PolylineArrangement((((0, 0), (0, 0), (1, 0)),))
        assert arr.strings[0] == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
        assert arr.k == 1

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            PolylineArrangement(((),))

    def test_two_crossing_segments(self):
        arr = PolylineArrangement((seg(0, 0, 1, 1), seg(0, 1, 1, 0)))
        rig, base, assign = string_graph_from_polylines(arr)
        # base: both anchors plus the crossing point
        assert base.n == 3 and base.m == 2
        assert rig == complete_graph(2)
        pts = arrangement_points(arr)
        cross = (Fraction(1, 2), Fraction(1, 2))
        assert cross in pts
        ci = pts.index(cross)
        # the crossing point lies in both regions
        assert all(ci in region for region in assign.regions)

    def test_three_by_three_grid_is_bipartite_complete(self):
        horiz = [seg(0, Fraction(i + 1, 4), 1, Fraction(i + 1, 4)) for i in range(3)]
        vert = [seg(Fraction(j + 1, 4), 0, Fraction(j + 1, 4), 1) for j in range(3)]
        arr = PolylineArrangement(tuple(horiz + vert))
        rig, base, _ = string_graph_from_polylines(arr)
        assert rig.n == 6 and rig.m == 9
        # no edge inside either side of the bipartition
        for u in range(3):
            for v in range(u + 1, 3):
                assert not rig.has_edge(u, v)
                assert not rig.has_edge(3 + u, 3 + v)
        # 9 crossings + 6 anchors
        assert base.n == 15

    def test_overlap_rejected(self):
        arr = PolylineArrangement((seg(0, 0, 2, 0), seg(1, 0, 3, 0)))
        with pytest.raises(ValueError):
            string_graph_from_polylines(arr)

    def test_disjoint_strings_give_isolated_vertices(self):
        arr = PolylineArrangement((seg(0, 0, 1, 0), seg(0, 1, 1, 1)))
        rig, base, _ = string_graph_from_polylines(arr)
        assert rig.n == 2 and rig.m == 0
        assert base.n == 2 and base.m == 0

    def test_base_walk_edges_follow_each_string(self):
        # one long segment crossed twice: its region is a 3-point path
        arr = PolylineArrangement((
            seg(0, 0, 4, 0),
            seg(1, -1, 1, 1),
            seg(3, -1, 3, 1),
        ))
        rig, base, assign = string_graph_from_polylines(arr)
        assert rig.edges == ((0, 1), (0, 2))
        pts = arrangement_points(arr)
        p1 = pts.index((Fraction(1), Fraction(0)))
        p3 = pts.index((Fraction(3), Fraction(0)))
        region0 = assign.regions[0]
        assert p1 in region0 and p3 in region0
        # consecutive hits along string 0 are joined in the base
        assert base.has_edge(p1, p3)


class TestJson:
    def test_round_trip_preserves_fractions(self):
        arr = PolylineArrangement((seg(0, 0, 1, 1), (((Fraction(1, 3), Fraction(2, 7))), (1, 0))))
        back = polylines_from_json(polylines_to_json(arr.strings))
        assert back.strings == arr.strings
        assert back.strings[1][0] == (Fraction(1, 3), Fraction(2, 7))


# ---------------------------------------------------------------------------
# the integer crossing pass against a rational reference

def _ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ref_within(p, a, b):
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _ref_param(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx != 0:
        return Fraction(p[0] - a[0], dx)
    if dy != 0:
        return Fraction(p[1] - a[1], dy)
    return Fraction(0)


def _ref_hit(a, b, c, d):
    """Closed-segment intersection in Fraction arithmetic:
    ("none", None), ("point", p) or ("overlap", None)."""
    if a == b and c == d:
        return ("point", a) if a == c else ("none", None)
    if a == b or c == d:
        p, (e, f) = (a, (c, d)) if a == b else (c, (a, b))
        on = _ref_cross(e, f, p) == 0 and _ref_within(p, e, f)
        return ("point", p) if on else ("none", None)
    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (d[0] - c[0], d[1] - c[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom != 0:
        acx, acy = c[0] - a[0], c[1] - a[1]
        t = Fraction(acx * d2[1] - acy * d2[0], denom)
        s = Fraction(acx * d1[1] - acy * d1[0], denom)
        if 0 <= t <= 1 and 0 <= s <= 1:
            return ("point", (a[0] + t * d1[0], a[1] + t * d1[1]))
        return ("none", None)
    if _ref_cross(a, b, c) != 0:
        return ("none", None)
    s0, s1 = sorted((_ref_param(c, a, b), _ref_param(d, a, b)))
    lo, hi = max(Fraction(0), s0), min(Fraction(1), s1)
    if lo > hi:
        return ("none", None)
    if lo == hi:
        return ("point", (a[0] + lo * d1[0], a[1] + lo * d1[1]))
    return ("overlap", None)


def _ref_segments(line):
    return [(line[0], line[0])] if len(line) == 1 else list(zip(line, line[1:]))


def _ref_events(strings):
    """Every segment pair of every string pair, in order."""
    events = [[(0, Fraction(0), line[0])] for line in strings]
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            for ki, (a, b) in enumerate(_ref_segments(strings[i])):
                for kj, (c, d) in enumerate(_ref_segments(strings[j])):
                    kind, p = _ref_hit(a, b, c, d)
                    if kind == "overlap":
                        raise ValueError(
                            f"strings {i} and {j} overlap along a segment")
                    if kind == "point":
                        events[i].append((ki, _ref_param(p, a, b), p))
                        events[j].append((kj, _ref_param(p, c, d), p))
    return events


def _ref_build(strings):
    """(rig edges, base n, base edges, regions, points) from the reference."""
    events = _ref_events(strings)
    points = sorted({p for ev in events for (_, _, p) in ev})
    index = {p: idx for idx, p in enumerate(points)}
    edges, regions = set(), []
    for ev in events:
        walk = []
        for _, _, p in sorted(ev, key=lambda e: (e[0], e[1])):
            if not walk or walk[-1] != p:
                walk.append(p)
        regions.append(tuple(sorted({index[p] for p in walk})))
        edges |= {tuple(sorted((index[a], index[b])))
                  for a, b in zip(walk, walk[1:]) if a != b}
    rig_edges = tuple((u, v) for u in range(len(regions))
                      for v in range(u + 1, len(regions))
                      if set(regions[u]) & set(regions[v]))
    return rig_edges, len(points), tuple(sorted(edges)), tuple(regions), points


def _ref_intersect(line_a, line_b):
    for u in _ref_segments(line_a):
        for v in _ref_segments(line_b):
            kind, _ = _ref_hit(*u, *v)
            if kind == "overlap":
                raise ValueError("polylines overlap along a segment")
            if kind == "point":
                return True
    return False


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _integer_build(strings):
    arr = PolylineArrangement(strings)
    rig, base, assign = string_graph_from_polylines(arr)
    return (rig.edges, base.n, base.edges, assign.regions,
            arrangement_points(arr))


def _integer_events(strings):
    return [[(k, Fraction(*t), _point(key)) for k, t, key in ev]
            for ev in _crossing_events(strings)]


def _assert_matches_reference(strings):
    strings = PolylineArrangement(strings).strings
    assert _outcome(_integer_events, strings) == _outcome(_ref_events, strings)
    assert _outcome(_integer_build, strings) == _outcome(_ref_build, strings)
    for a in strings[:2]:
        for b in strings[-2:]:
            assert (_outcome(segments_intersect, a, b)
                    == _outcome(_ref_intersect, a, b))


def _random_strings(rng):
    """A few polylines on a coarse grid, so that touches, T-junctions and
    collinear contacts are common; the grid step mixes denominators."""
    def coord():
        den = int(rng.choice([1, 2, 3, 4, 6, 7, 10**6]))
        return Fraction(int(rng.integers(0, 3 * den + 1)), den)

    return tuple(
        tuple((coord(), coord()) for _ in range(int(rng.integers(1, 5))))
        for _ in range(int(rng.integers(1, 7))))


class TestIntegerPass:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rational_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            _assert_matches_reference(_random_strings(rng))

    @pytest.mark.parametrize("strings", [
        # single-point strings: alone, coinciding, and on a segment
        (((0, 0),), ((0, 0),), ((1, 1),), seg(0, 0, 2, 2)),
        # vertical and horizontal segments crossing and touching
        (seg(1, 0, 1, 3), seg(0, 1, 3, 1), seg(0, 3, 1, 3), seg(2, 0, 2, 1)),
        # endpoint touches and a T-junction
        (seg(0, 0, 1, 1), seg(1, 1, 2, 0), seg(Fraction(1, 2), Fraction(1, 2), 3, 0)),
        # a crossing through another string's bend
        (((0, 0), (1, 1), (2, 0)), seg(1, 0, 1, 2), seg(0, 1, 2, 1)),
        # collinear strings meeting in a single point
        (seg(0, 0, 1, 1), seg(1, 1, 3, 3), ((3, 3), (4, 0))),
        # mixed denominators along one line
        (seg(0, 0, 1, Fraction(1, 3)), seg(Fraction(1, 2), 0, Fraction(1, 2), 1),
         ((Fraction(3, 7), Fraction(1, 7)), (Fraction(6, 7), Fraction(2, 7)))),
    ])
    def test_degenerate_contacts(self, strings):
        _assert_matches_reference(strings)

    def test_collinear_overlap_raises(self):
        strings = (seg(0, 0, 1, 1), ((2, 0), (Fraction(1, 2), Fraction(1, 2)),
                                     (Fraction(3, 2), Fraction(3, 2))))
        with pytest.raises(ValueError, match="strings 0 and 1 overlap"):
            string_graph_from_polylines(PolylineArrangement(strings))
        _assert_matches_reference(strings)
