"""Core graph type and the conformal-metric primitives built on it.

Everything downstream (region graphs, chopping trees, flow LPs) works over a
finite simple undirected ``Graph`` together with a vector of nonnegative
vertex weights ``omega``.  A weighting turns the graph into a metric space:
the edge {u, v} gets length ``(omega[u] + omega[v]) / 2`` and distances are
shortest paths under those lengths.  Balls come in two flavours around a
center c at radius R:

* skinny: ``dist(c, v) <  R - omega[v] / 2`` (strict),
* fat:    ``dist(c, v) <= R + omega[v] / 2`` (non-strict),

and the fat sphere is their difference.  The strict/non-strict choices are
part of the contract; several partition routines rely on them exactly.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph as _csgraph


class Graph:
    """Immutable simple undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : iterable of (int, int), or an (m, 2) integer array
        Edge list.  Loops and duplicate edges are rejected.
    """

    __slots__ = ("_n", "_edges", "_adj", "_adj_masks", "_arrays")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {n!r}")
        n = int(n)
        pairs = _edge_pairs(edges)
        a, b = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        fault = (lo < 0) | (hi >= n) | (a == b)
        bad = int(np.argmax(fault)) if fault.any() else len(pairs)
        # the valid rows before the first fault, ordered by packed key; a
        # stable sort puts each repeat after the row it repeats
        key = lo[:bad] * n + hi[:bad]
        order = np.argsort(key, kind="stable")
        repeat = order[1:][np.diff(key[order]) == 0]
        if repeat.size:
            r = int(repeat.min())
            raise ValueError(f"duplicate edge ({int(lo[r])}, {int(hi[r])})")
        if bad < len(pairs):
            u, v = int(a[bad]), int(b[bad])
            if u == v and 0 <= u < n:
                raise ValueError(f"loop at vertex {u} not allowed")
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        eu, ev = lo[order], hi[order]
        eu.flags.writeable = ev.flags.writeable = False
        # row v of the symmetric matrix lists its smaller neighbours (the
        # edges ending at v, ascending) before its larger ones, so a
        # stable sort by row puts every entry in row-major order
        rows, cols = np.concatenate([ev, eu]), np.concatenate([eu, ev])
        by_row = np.argsort(rows, kind="stable")
        adj = _csr(n, rows[by_row], cols[by_row], np.ones(rows.size))
        ptr, nbrs = adj.indptr.tolist(), adj.indices.tolist()
        self._n = n
        self._edges = tuple(zip(eu.tolist(), ev.tolist()))
        self._adj = tuple(tuple(nbrs[i:j]) for i, j in zip(ptr, ptr[1:]))
        self._adj_masks = None
        self._arrays = (eu, ev, adj)

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return v in self._adj[u] if 0 <= u < self._n else False

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks; used by the exhaustive oracles."""
        if self._adj_masks is None:
            self._adj_masks = tuple(sum(1 << w for w in nb) for nb in self._adj)
        return self._adj_masks

    def _structure(self):
        """``(eu, ev, adj)``: the endpoint arrays of the sorted edge list
        (``eu < ev``) and the symmetric 0/1 adjacency CSR.  Subgraph
        primitives slice the endpoint arrays by position mask; whole-graph
        components and the Laplacian read ``adj``.
        """
        return self._arrays

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self._n == other._n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def _edge_pairs(edges) -> np.ndarray:
    """The edges as an (m, 2) index array, one row per input edge.  A row
    that is not a pair of vertex ids raises ``ValueError`` naming it."""
    if not isinstance(edges, (np.ndarray, list, tuple)):
        edges = list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.intp)
    except (TypeError, ValueError, OverflowError) as exc:
        pairs, error = None, exc
    if pairs is not None and pairs.ndim == 2 and pairs.shape[1] == 2:
        return pairs
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.intp)
    for i, e in enumerate(edges):
        if np.ndim(e) != 1 or len(e) != 2:
            raise ValueError(f"edge {i} is {e!r}, not a pair of vertices")
    raise ValueError(f"edges must be pairs of integer vertex ids: {error}")


def _csr(k: int, rows, cols, data) -> csr_matrix:
    """k x k CSR matrix of entries given in row-major order (rows
    ascending, columns ascending within a row).  Every entry is stored,
    explicit zeros included: csgraph reads a stored zero as an edge of
    length zero.  The index arrays are handed over as the int32 scipy
    would pick, which spares its per-call scan of their contents."""
    indptr = np.searchsorted(rows, np.arange(k + 1)).astype(np.int32)
    return csr_matrix((data, cols.astype(np.int32), indptr), shape=(k, k))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(side: int, d: int = 2) -> Graph:
    """Integer lattice graph with ``side`` subdivisions per axis.

    Vertices are the (side+1)^d lattice points, adjacent when they differ by
    one step along a single axis.  ``side=4, d=2`` is the 25-vertex grid.
    """
    if side < 1 or d < 1:
        raise ValueError("side and d must be positive")
    k = side + 1
    n = k**d
    idx = np.arange(n)
    steps = []
    for axis in range(d):
        stride = k**axis
        low = idx[idx // stride % k < side]  # not on the axis's top face
        steps.append(np.column_stack([low, low + stride]))
    return Graph(n, np.concatenate(steps))


# ---------------------------------------------------------------------------
# weights


def check_weights(graph: Graph, omega, *, positive: bool = False) -> np.ndarray:
    """Validate a weight vector against a graph and return it as float array.

    Negative entries are an error; ``positive=True`` additionally rejects
    zeros (a few facts about spheres only hold for strictly positive
    weights).
    """
    w = np.asarray(omega, dtype=float)
    if w.shape != (graph.n,):
        raise ValueError(f"omega has shape {w.shape}, expected ({graph.n},)")
    if not np.all(np.isfinite(w)):
        raise ValueError("omega must be finite")
    if np.any(w < 0):
        raise ValueError("omega must be nonnegative")
    if positive and np.any(w == 0):
        raise ValueError("omega must be strictly positive here")
    return w


def l1_weight(omega) -> float:
    """Normalized L1 size of a weight vector: mean of the entries."""
    w = np.asarray(omega, dtype=float)
    return float(np.mean(w)) if w.size else 0.0

def lp_weight(omega, p: float) -> float:
    """Normalized Lp size: ((1/n) * sum omega^p)^(1/p)."""
    w = np.asarray(omega, dtype=float)
    if w.size == 0:
        return 0.0
    if p == np.inf:
        return float(np.max(w))
    return float(np.mean(w**p) ** (1.0 / p))


def l2_vector_norm(omega) -> float:
    """Unnormalized Euclidean norm (the small-ell norm, no 1/n)."""
    return float(np.linalg.norm(np.asarray(omega, dtype=float)))


# ---------------------------------------------------------------------------
# subgraphs and components


@dataclass(frozen=True)
class SubgraphView:
    """Induced subgraph relabeled to ``0..k-1`` plus the id maps.

    ``vertices[i]`` is the parent id of local vertex ``i``; the relabeling is
    ascending, so local-id order agrees with parent-id order and every
    smallest-id tie-break gives the same answer in either labeling.
    """

    graph: Graph
    vertices: tuple[int, ...]

    def to_local(self, parent_id: int) -> int:
        i = int(np.searchsorted(self.vertices, parent_id))
        if i >= len(self.vertices) or self.vertices[i] != parent_id:
            raise KeyError(f"vertex {parent_id} not in subgraph")
        return i

    def to_parent(self, local_id: int) -> int:
        return self.vertices[local_id]


def _vertex_array(graph: Graph, vertices) -> np.ndarray:
    """Sorted distinct vertex ids as an index array; all of them for None."""
    if vertices is None:
        return np.arange(graph.n)
    vs = np.asarray(sorted({int(v) for v in vertices}), dtype=np.intp)
    if vs.size and (vs[0] < 0 or vs[-1] >= graph.n):
        raise ValueError("subset out of range")
    return vs


def _induced_edges(graph: Graph, vs: np.ndarray):
    """Local endpoint arrays of the edges induced on the sorted vertex
    array ``vs``, still in sorted edge order.  Each edge appears once;
    csgraph's ``directed=False`` reads it both ways."""
    eu, ev, _ = graph._structure()
    pos = np.full(graph.n, -1, dtype=np.intp)
    pos[vs] = np.arange(vs.size)
    lu, lv = pos[eu], pos[ev]
    keep = (lu >= 0) & (lv >= 0)
    return lu[keep], lv[keep]


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> SubgraphView:
    vs = _vertex_array(graph, vertices)
    lu, lv = _induced_edges(graph, vs)
    return SubgraphView(Graph(vs.size, np.column_stack([lu, lv])),
                        tuple(vs.tolist()))


def connected_components(
    graph: Graph, subset: Iterable[int] | None = None
) -> list[tuple[int, ...]]:
    """Components of ``graph`` (or of the subgraph induced on ``subset``).

    Returned as sorted vertex tuples, ordered by smallest contained id.
    An empty subset gives an empty list.
    """
    vs = _vertex_array(graph, subset)
    if vs.size == 0:
        return []
    if vs.size == graph.n:
        mat = graph._structure()[2]
    else:
        lu, lv = _induced_edges(graph, vs)
        mat = _csr(vs.size, lu, lv, np.ones(lu.size))
    ncomp, labels = _csgraph.connected_components(mat, directed=False)
    # vertices grouped by label, ascending within each group
    flat = vs[np.argsort(labels, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(labels, minlength=ncomp)).tolist()
    out = [tuple(flat[i:j]) for i, j in zip([0] + ends, ends)]
    out.sort(key=lambda c: c[0])
    return out


# ---------------------------------------------------------------------------
# conformal metric


class MetricView:
    """Shortest-path distances from a set of source vertices.

    Rows are sources, columns are the vertices of the (sub)graph the view was
    computed on; ids are always the parent graph's.  Unreachable pairs hold
    ``inf``.
    """

    def __init__(self, vertices: Sequence[int], sources: Sequence[int], dist: np.ndarray):
        self.vertices = tuple(int(v) for v in vertices)
        self.sources = tuple(int(s) for s in sources)
        d = np.asarray(dist, dtype=float)
        if d.shape != (len(self.sources), len(self.vertices)):
            raise ValueError("distance array shape mismatch")
        d.flags.writeable = False
        self.dist = d
        self._vpos = {v: i for i, v in enumerate(self.vertices)}
        self._spos = {s: i for i, s in enumerate(self.sources)}

    @property
    def all_pairs(self) -> bool:
        return self.sources == self.vertices

    def d(self, u: int, v: int) -> float:
        return float(self.dist[self._spos[u], self._vpos[v]])

    def row(self, u: int) -> np.ndarray:
        return self.dist[self._spos[u]]

    def matrix(self) -> np.ndarray:
        if not self.all_pairs:
            raise ValueError("not an all-pairs view")
        return self.dist


def _length_matrix(graph: Graph, w: np.ndarray, vs: np.ndarray):
    """Conformal edge lengths (w[u] + w[v]) / 2 of the subgraph induced
    on the sorted vertex array ``vs``, as a CSR matrix on local ids with
    each edge once, for csgraph's ``directed=False``."""
    lu, lv = _induced_edges(graph, vs)
    wl = w[vs]
    length = 0.5 * (wl[lu] + wl[lv])
    return _csr(vs.size, lu, lv, length)


def dist_omega(
    graph: Graph,
    omega,
    sources: Iterable[int] | None = None,
    *,
    subset: Iterable[int] | None = None,
) -> MetricView:
    """Conformal shortest-path distances.

    Parameters
    ----------
    graph, omega
        The weighted graph; edge {u, v} has length (omega[u] + omega[v]) / 2.
    sources
        Vertices to compute rows for; all vertices of the view by default.
    subset
        Optional vertex set; distances are then taken inside the induced
        subgraph (ids stay the parent's).  Useful because most partition
        routines chop subgraphs of one fixed ambient graph.
    """
    w = check_weights(graph, omega)
    vs = _vertex_array(graph, subset)
    pos = {v: i for i, v in enumerate(vs.tolist())}
    if sources is None:
        src = vs.tolist()
    else:
        src = [int(s) for s in sources]
        for s in src:
            if s not in pos:
                raise ValueError(f"source {s} not in the (sub)graph")
    if vs.size == 0:
        return MetricView((), tuple(src), np.empty((len(src), 0)))
    dist = _csgraph.dijkstra(_length_matrix(graph, w, vs), directed=False,
                             indices=[pos[s] for s in src])
    if dist.ndim == 1:
        dist = dist[None, :]
    return MetricView(vs.tolist(), src, dist)


def shortest_path_tree(
    graph: Graph,
    omega,
    source: int,
    *,
    subset: Iterable[int] | None = None,
) -> tuple[dict[int, float], dict[int, int | None]]:
    """Single-source Dijkstra keeping predecessors for path extraction.

    Among equal-length shortest paths each vertex records, of the
    neighbours that attain its distance, the smallest-id neighbour settled
    before it.  A tight neighbour settled later (over a zero-length edge)
    is ignored, which keeps the tree acyclic, pins down one canonical
    tree and makes every extracted path replayable.
    """
    w = check_weights(graph, omega)
    if subset is None:
        allowed = None
    else:
        allowed = {int(v) for v in subset}
        if int(source) not in allowed:
            raise ValueError("source outside subset")
    dist: dict[int, float] = {int(source): 0.0}
    pred: dict[int, int | None] = {int(source): None}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, int(source))]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for nb in graph.neighbors(v):
            if allowed is not None and nb not in allowed:
                continue
            nd = d + 0.5 * (w[v] + w[nb])
            if nb not in dist or nd < dist[nb]:
                dist[nb] = nd
                pred[nb] = v
                heapq.heappush(heap, (nd, nb))
            elif (
                nd == dist[nb]
                and nb not in done
                and pred[nb] is not None
                and v < pred[nb]
            ):
                pred[nb] = v
    return dist, pred


def extract_path(pred: Mapping[int, int | None], target: int) -> tuple[int, ...]:
    """Walk predecessors back to the source; returns source..target."""
    if target not in pred:
        raise ValueError(f"vertex {target} unreachable")
    out = [int(target)]
    v = pred[target]
    while v is not None:
        out.append(int(v))
        v = pred[v]
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class BallSphere:
    """Skinny ball, fat ball and the fat sphere between them."""

    skinny: tuple[int, ...]
    fat: tuple[int, ...]
    sphere: tuple[int, ...]


def balls_and_sphere(
    graph: Graph,
    omega,
    center: int,
    radius: float,
    *,
    subset: Iterable[int] | None = None,
    metric: MetricView | None = None,
) -> BallSphere:
    """Skinny/fat balls around ``center`` at ``radius``.

    The skinny ball compares strictly (`dist < R - omega/2`), the fat ball
    non-strictly (`dist <= R + omega/2`); the sphere is fat minus skinny,
    i.e. the vertices whose closed interval [dist - omega/2, dist + omega/2]
    contains R.  A precomputed ``metric`` row for ``center`` may be supplied
    to skip the Dijkstra.  ``radius`` must be nonnegative and finite.
    """
    w = check_weights(graph, omega)
    if not (np.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be nonnegative and finite, got {radius}")
    if metric is None:
        metric = dist_omega(graph, omega, [center], subset=subset)
    row = metric.row(center)
    vs = np.asarray(metric.vertices, dtype=np.intp)
    half = 0.5 * w[vs]
    skinny = row < radius - half
    fat = row <= radius + half
    sphere = fat & ~skinny
    return BallSphere(
        tuple(int(v) for v in vs[skinny]),
        tuple(int(v) for v in vs[fat]),
        tuple(int(v) for v in vs[sphere]),
    )


# ---------------------------------------------------------------------------
# spread functionals


def spread(metric: MetricView) -> float:
    """Average pairwise distance (1/n^2) * sum_{u,v} d(u, v).

    Ordered pairs including the diagonal, so a single vertex gives 0.
    Requires an all-pairs view of a connected (sub)graph; an infinite entry
    is an error rather than a sentinel.
    """
    if not metric.all_pairs:
        raise ValueError("spread needs an all-pairs MetricView")
    m = metric.matrix()
    if m.size == 0:
        raise ValueError("spread of an empty vertex set is undefined")
    if not np.all(np.isfinite(m)):
        raise ValueError("spread undefined on a disconnected (sub)graph")
    return float(np.mean(m))


LIPSCHITZ_TOL = 1e-9


def observed_spread(metric: MetricView, f) -> float:
    """Average |f(u) - f(v)| for a 1-Lipschitz vertex map.

    ``f`` is a mapping or array over ``metric.vertices``.  The Lipschitz
    property |f(u)-f(v)| <= d(u,v) is checked on all pairs with a 1e-9
    additive tolerance; violations are an error, not a clamp.
    """
    if not metric.all_pairs:
        raise ValueError("observed_spread needs an all-pairs MetricView")
    vs = metric.vertices
    if isinstance(f, Mapping):
        vals = np.asarray([float(f[v]) for v in vs])
    else:
        arr = np.asarray(f, dtype=float)
        if arr.shape != (len(vs),):
            raise ValueError("f must assign a value to every view vertex")
        vals = arr
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite")
    diff = np.abs(vals[:, None] - vals[None, :])
    m = metric.matrix()
    bad = diff > m + LIPSCHITZ_TOL
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"map is not 1-Lipschitz: |f({vs[i]}) - f({vs[j]})| = {diff[i, j]:.12g}"
            f" > d = {m[i, j]:.12g}"
        )
    return float(np.mean(diff))


# ---------------------------------------------------------------------------
# subdivision


def subdivision(graph: Graph) -> Graph:
    """Replace every edge by a path of length two.

    Original vertices keep their ids; the midpoint of the k-th edge (in the
    graph's sorted edge order) gets id ``n + k``.
    """
    eu, ev, _ = graph._structure()
    mid = graph.n + np.arange(graph.m)
    return Graph(graph.n + graph.m, np.column_stack(
        [np.concatenate([eu, mid]), np.concatenate([mid, ev])]))


# ---------------------------------------------------------------------------
# JSON interchange


def graph_to_json_dict(graph: Graph, weights=None, **extras) -> dict:
    d = {"n": graph.n, "edges": [[u, v] for u, v in graph.edges]}
    if weights is not None:
        w = check_weights(graph, weights)
        d["weights"] = [float(x) for x in w]
    for k, v in extras.items():
        d[k] = v
    return d


def graph_from_json_dict(d: Mapping) -> tuple[Graph, np.ndarray | None, dict]:
    if "n" not in d or "edges" not in d:
        raise ValueError("graph JSON needs 'n' and 'edges'")
    n, edges = d["n"], d["edges"]
    if not _is_int(n):
        raise ValueError(f"graph JSON 'n' must be an integer, got {n!r}")
    if not isinstance(edges, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))
        for e in edges
    ):
        raise ValueError("graph JSON 'edges' must be a list of integer pairs")
    g = Graph(n, edges)
    weights = None
    if d.get("weights") is not None:
        weights = check_weights(g, [float(x) for x in d["weights"]])
    extras = {k: v for k, v in d.items() if k not in ("n", "edges", "weights")}
    return g, weights, extras


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def dump_graph_json(path, graph: Graph, weights=None, **extras) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json_dict(graph, weights, **extras), fh, sort_keys=True)
        fh.write("\n")


def load_graph_json(path) -> tuple[Graph, np.ndarray | None, dict]:
    with open(path) as fh:
        # parse_float=Fraction keeps decimal coordinates exact if the file
        # carries polylines next to the graph; plain floats elsewhere are
        # converted back on use.
        d = json.load(fh, parse_float=Fraction)
    d = _defraction(d)
    return graph_from_json_dict(d)


def _defraction(obj):
    """Turn Fractions from exact parsing back into floats except under
    'polylines', whose coordinates must stay rational."""
    if isinstance(obj, dict):
        return {
            k: (obj[k] if k == "polylines" else _defraction(obj[k])) for k in obj
        }
    if isinstance(obj, list):
        return [_defraction(x) for x in obj]
    if isinstance(obj, Fraction):
        return float(obj)
    return obj
