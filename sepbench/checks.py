"""Output checks made apart from rigsep.

Every check takes plain data (vertex counts, edge lists, integer
coordinates, weight vectors) and recomputes what it needs with its own
CSR matrices, ``scipy.sparse.csgraph``, exact integer geometry or plain
arithmetic.  None imports rigsep.  A check returns nothing when the
output is right and raises ``CheckError`` when it is not.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


class CheckError(Exception):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _csr(n: int, edges, lengths=None) -> csr_matrix:
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    data = np.ones(len(e)) if lengths is None else np.asarray(lengths, float)
    return csr_matrix((np.concatenate([data, data]),
                       (np.concatenate([e[:, 0], e[:, 1]]),
                        np.concatenate([e[:, 1], e[:, 0]]))), shape=(n, n))


def _simple_edges(n: int, edges) -> set:
    seen = set()
    for u, v in edges:
        _require(0 <= u < v < n, f"edge ({u}, {v}) is not an ordered pair in range")
        _require((u, v) not in seen, f"edge ({u}, {v}) repeated")
        seen.add((u, v))
    return seen


def _components(n: int, edges, removed) -> list[set]:
    """Components of the graph minus ``removed`` (own CSR and csgraph)."""
    keep = np.ones(n, dtype=bool)
    keep[list(removed)] = False
    idx = np.flatnonzero(keep)
    local = np.full(n, -1)
    local[idx] = np.arange(idx.size)
    sub = [(local[u], local[v]) for u, v in edges if keep[u] and keep[v]]
    _, labels = connected_components(_csr(idx.size, sub), directed=False)
    comps: dict[int, set] = {}
    for i, lab in enumerate(labels):
        comps.setdefault(int(lab), set()).add(int(idx[i]))
    return list(comps.values())


def _conformal_distances(n: int, edges, omega, sources) -> np.ndarray:
    """Rows of shortest-path distances with edge length (w_u + w_v) / 2."""
    w = np.asarray(omega, dtype=float)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lengths = 0.5 * (w[e[:, 0]] + w[e[:, 1]])
    # csgraph drops stored zeros, so zero-length edges get a length far
    # below any tolerance used here instead
    lengths = np.maximum(lengths, 1e-300)
    return dijkstra(_csr(n, edges, lengths), directed=False,
                    indices=list(sources))


# ---------------------------------------------------------------------------
# separators and generated graphs

def check_separator(n: int, edges, sep):
    """No repeated or out-of-range vertex; every component of G - S has
    at most 2n/3 vertices."""
    s = [int(v) for v in sep]
    _require(len(set(s)) == len(s), "separator repeats a vertex")
    _require(all(0 <= v < n for v in s), "separator vertex out of range")
    for comp in _components(n, edges, s):
        _require(3 * len(comp) <= 2 * n,
                 f"component of {len(comp)} of {n} vertices breaks 2/3 balance")


def check_connected_simple(n: int, edges, *, size: int, planar: bool = False):
    """A generated graph: the asked-for size, simple, connected, and for
    a triangulation of points in general position between 2n - 3 and
    3n - 6 edges."""
    _require(n == size, f"{n} vertices, asked for {size}")
    _simple_edges(n, edges)
    if planar:
        _require(2 * n - 3 <= len(edges) <= 3 * n - 6,
                 f"{len(edges)} edges cannot triangulate {n} points")
    _require(len(_components(n, edges, ())) == 1, "graph is not connected")


def check_grid(n: int, edges, *, side: int):
    k = side + 1
    want = set()
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                want.add((v, v + 1))
            if r + 1 < k:
                want.add((v, v + k))
    _require(n == k * k and _simple_edges(n, edges) == want,
             "grid graph differs from the lattice")


# ---------------------------------------------------------------------------
# string graphs

def _orient(ax, ay, bx, by, cx, cy) -> int:
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def _on_box(ax, ay, bx, by, cx, cy) -> bool:
    return min(ax, bx) <= cx <= max(ax, bx) and min(ay, by) <= cy <= max(ay, by)


def segments_meet(s, t) -> bool:
    """Closed integer segments share a point (exact orientation tests)."""
    ax, ay, bx, by = s
    cx, cy, dx, dy = t
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4:
        return True
    return ((o1 == 0 and _on_box(ax, ay, bx, by, cx, cy))
            or (o2 == 0 and _on_box(ax, ay, bx, by, dx, dy))
            or (o3 == 0 and _on_box(cx, cy, dx, dy, ax, ay))
            or (o4 == 0 and _on_box(cx, cy, dx, dy, bx, by)))


def check_string_graph(n: int, edges, segments, *, size: int):
    """The graph equals the intersection graph of the integer segments
    (endpoints on the 1e-6 grid, scaled to integers)."""
    _require(n == size == len(segments), "one vertex per segment expected")
    want = {(i, j) for i in range(n) for j in range(i + 1, n)
            if segments_meet(segments[i], segments[j])}
    got = _simple_edges(n, edges)
    _require(got == want,
             f"string graph differs from the segment intersections: "
             f"{len(got - want)} extra, {len(want - got)} missing edges")


# ---------------------------------------------------------------------------
# random separator

def check_random_separator(n: int, edges, *, delta: float, h: int, s,
                           components, spaced: bool):
    """S is a set of vertices, the components are those of G - S, and
    each has diameter in G (unit weights) within (42h + 2) * delta unless
    a spacing event was recorded.  The scale must cut something: S is
    nonempty and G - S has more than one component."""
    s = [int(v) for v in s]
    _require(len(set(s)) == len(s) and all(0 <= v < n for v in s),
             "separator repeats a vertex or leaves the range")
    _require(s and len(components) > 1,
             "the sample cuts nothing at this scale")
    want = sorted(tuple(sorted(c)) for c in _components(n, edges, s))
    got = sorted(tuple(sorted(int(v) for v in c)) for c in components)
    _require(got == want, "components differ from those of G - S")
    bound = (42.0 * h + 2.0) * delta
    for comp in got:
        if len(comp) < 2:
            continue
        d = _conformal_distances(n, edges, np.ones(n), comp)[:, list(comp)]
        diam = float(np.max(d))
        _require(diam <= bound + 1e-9 or spaced,
                 f"component diameter {diam} exceeds {bound}")


# ---------------------------------------------------------------------------
# duality and extremal spread

def _flow_congestion(n: int, edges, flow) -> np.ndarray:
    """Vertex congestion of an all-pairs flow {(a, b): {path: weight}},
    after checking that each pair routes weight 1 along graph edges."""
    es = {(min(u, v), max(u, v)) for u, v in edges}
    c = np.zeros(n)
    for a in range(n):
        for b in range(a + 1, n):
            bundle = flow.get((a, b), {})
            _require(abs(sum(bundle.values()) - 1.0) <= 1e-9,
                     f"pair ({a}, {b}) does not route unit demand")
            for path, w in bundle.items():
                _require({path[0], path[-1]} == {a, b},
                         f"path for ({a}, {b}) has wrong ends")
                _require(all((min(x, y), max(x, y)) in es
                             for x, y in zip(path, path[1:])),
                         "path steps off the graph")
                for v in set(path):
                    c[v] += w
    return c


def _spread(n: int, edges, omega) -> float:
    d = _conformal_distances(n, edges, omega, range(n))
    _require(bool(np.all(np.isfinite(d))), "graph is not connected")
    return float(np.mean(d))


def check_duality_inf(n: int, edges, *, vcong: float, cspread: float,
                      flow, omega):
    """vcong_inf from the flow's paths and cspread_1 from omega meet the
    corrected identity vcong = (n * cspread + n - 1) / 2 within 1e-4, and
    both agree with the reported values."""
    w = np.asarray(omega, dtype=float)
    _require(bool(np.all(w >= 0)) and float(w.mean()) <= 1.0 + 1e-6,
             "omega is not a unit-L1 weight")
    vc = float(np.max(_flow_congestion(n, edges, flow)))
    cs = _spread(n, edges, w)
    _require(abs(vc - vcong) <= 1e-6 * max(1.0, vc),
             f"reported vcong {vcong} but the flow congests {vc}")
    _require(abs(cs - cspread) <= 1e-6 * max(1.0, cs),
             f"reported cspread {cspread} but omega spreads {cs}")
    rhs = (n * cs + (n - 1)) / 2.0
    _require(abs(vc - rhs) <= 1e-4 * max(1.0, vc),
             f"duality gap: vcong {vc} vs corrected {rhs}")


def check_duality_l2(*, vcong: float, corrected: float):
    """A p = 2 report that did not raise: its sides meet within 1e-4."""
    _require(abs(vcong - corrected) <= 1e-4 * max(1.0, abs(vcong)),
             f"p=2 duality gap: vcong {vcong} vs corrected {corrected}")


def check_cspread_l2(n: int, edges, *, omega, value: float):
    """Realized spread equals the value, omega has unit normalized L2
    norm, and the value is at least the uniform-weight spread."""
    w = np.asarray(omega, dtype=float)
    _require(bool(np.all(w >= 0)), "omega has a negative entry")
    norm = math.sqrt(float(np.mean(w * w)))
    _require(abs(norm - 1.0) <= 1e-9, f"omega has L2 norm {norm}, not 1")
    real = _spread(n, edges, w)
    _require(abs(real - value) <= 1e-9 * max(1.0, real),
             f"reported spread {value} but omega spreads {real}")
    uniform = _spread(n, edges, np.ones(n))
    _require(value >= uniform - 1e-9,
             f"spread {value} is below the uniform weight's {uniform}")
