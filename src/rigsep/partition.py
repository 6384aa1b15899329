"""Randomized low-diameter decomposition and separator machinery.

The pieces fit together in one pipeline: annular cuts at radii tau + k*delta
around well-spread centers (cut/chop), a recursive chopping tree whose
level-j nodes partition the surviving vertices, single-radius sphere unions
in the ambient metric (shatter), and their composition into a random
separator whose surviving components have certified diameter.  Padded
partitions, the two rounding maps, the threshold sweep and the expansion
witnesses turn those samples into one-dimensional maps and vertex cuts;
``balanced_separator`` drives any of the cut strategies to 2/3 balance.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph as _csgraph
from scipy.sparse import csr_matrix

from ._rng import substream
from .graph import (
    LIPSCHITZ_TOL,
    Graph,
    MetricView,
    _check_mu,
    _length_matrix,
    _vertex_array,
    check_weights,
    connected_components,
    dist_omega,
    induced_subgraph,
    observed_spread,
    spread,
)

__all__ = [
    "cut_delta",
    "chop_delta",
    "ChopNode",
    "ChoppingTree",
    "build_chopping_tree",
    "shatter",
    "RandomSeparatorSample",
    "random_separator",
    "PaddedPartitionSample",
    "padded_partition",
    "rounding_map_ball",
    "rounding_map_coloring",
    "sweep_cut",
    "vertex_expansion_witnesses",
    "balanced_separator",
]


# ---------------------------------------------------------------------------
# cut / chop

def _check_metric(graph: Graph, metric):
    """Reject a ``metric=`` argument that is not an all-pairs view over
    every vertex of ``graph``: its rows are read by vertex id."""
    if metric is not None and not (
            metric.all_pairs and metric.vertices == tuple(range(graph.n))):
        raise ValueError("metric must be the all-pairs view over all "
                         "vertices of the graph")


def _check_delta(delta) -> None:
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _check_h(h) -> int:
    try:
        h = operator.index(h)
    except TypeError:
        raise ValueError(f"h must be an integer, got {h!r}") from None
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    return h


def _interval_data(graph: Graph, omega, center, *, subset=None, metric=None):
    w = check_weights(graph, omega)
    if metric is None:
        metric = dist_omega(graph, w, [center], subset=subset)
    row = metric.row(center)
    vs = np.asarray(metric.vertices, dtype=np.intp)
    half = 0.5 * w[vs]
    return vs, row - half, row + half


def cut_delta(graph: Graph, omega, center: int, tau: float, delta: float,
              *, subset=None, metric=None):
    """Vertices whose sphere interval [d - w/2, d + w/2] contains some
    radius tau + k*delta, k = 0, 1, ...; distances are taken inside the
    (sub)graph the cut is applied to.
    """
    _check_delta(delta)
    if not 0 <= tau <= delta:
        raise ValueError("tau must lie in [0, delta]")
    vs, lo, hi = _interval_data(graph, omega, center, subset=subset,
                                metric=metric)
    with np.errstate(invalid="ignore"):
        kmin = np.maximum(np.ceil((lo - tau) / delta), 0.0)
        member = tau + kmin * delta <= hi
    member &= np.isfinite(lo)
    return tuple(int(v) for v in vs[member])


def chop_delta(graph: Graph, omega, center: int, tau: float, delta: float,
               *, subset=None, metric=None):
    """Connected components left after removing the cut, by smallest id."""
    if subset is None:
        subset = range(graph.n)
    vs = sorted({int(v) for v in subset})
    cut = set(cut_delta(graph, omega, center, tau, delta, subset=vs,
                        metric=metric))
    rest = [v for v in vs if v not in cut]
    return connected_components(graph, subset=rest)


# ---------------------------------------------------------------------------
# chopping tree

class ChopNode:
    """One tree node: a vertex set with its center, depth and offset."""

    __slots__ = ("vertices", "center", "depth", "path", "spacing", "parent",
                 "tau", "children")

    def __init__(self, vertices, center, depth, path, spacing, parent):
        self.vertices = tuple(vertices)
        self.center = int(center)
        self.depth = int(depth)
        self.path = tuple(path)
        self.spacing = float(spacing)
        self.parent = parent
        self.tau = None
        self.children = ()

    def __repr__(self):
        return (f"ChopNode(depth={self.depth}, center={self.center}, "
                f"|V|={len(self.vertices)})")


@dataclass
class ChoppingTree:
    nodes: list
    delta: float
    depth: int
    ambient: tuple
    rows: dict = field(repr=False)

    def nodes_at_depth(self, j: int):
        return [i for i, nd in enumerate(self.nodes) if nd.depth == j]

    def ancestors(self, idx: int):
        """Node indices from the root down to ``idx`` inclusive."""
        chain = []
        while idx is not None:
            chain.append(idx)
            idx = self.nodes[idx].parent
        chain.reverse()
        return chain


def build_chopping_tree(graph: Graph, omega, delta: float, *, depth: int,
                        sigma=None, seed: int | None = None, subset=None,
                        stream=(), metric: MetricView | None = None
                        ) -> ChoppingTree:
    """Recursive chop decomposition with farthest-point child centers.

    The root covers the whole (sub)graph with the smallest vertex as
    center.  Chopping a node uses its offset tau from ``sigma`` (a
    constant, a callable on the node path, or uniform draws from the
    seeded substream); each child's center maximizes the ambient
    distance to all centers on the path above it, ties to the smallest
    id, and records that distance as its spacing.

    ``metric``, if given, must be the all-pairs ``dist_omega(graph,
    omega)``.  When the tree covers the whole graph, the root row, the
    root's chop and the level-center rows are read from it instead of
    recomputed; deeper chops still measure inside their own nodes.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_delta(delta)
    w = check_weights(graph, omega)
    _check_metric(graph, metric)
    if subset is None:
        vs = tuple(range(graph.n))
    else:
        vs = tuple(sorted({int(v) for v in subset}))
    if not vs:
        raise ValueError("cannot build a chopping tree on an empty set")
    if len(connected_components(graph, subset=vs)) != 1:
        raise ValueError("chopping tree needs a connected (sub)graph")
    if len(vs) != graph.n:
        metric = None  # the rows of a subset tree come from its subgraph

    def draw_tau(path):
        if callable(sigma):
            t = float(sigma(path))
        elif sigma is not None:
            t = float(sigma)
        elif seed is not None:
            t = float(substream(seed, *stream, "tau", path).uniform(0.0, delta))
        else:
            raise ValueError("need sigma or seed to draw offsets")
        if not 0 <= t <= delta:
            raise ValueError(f"offset {t} outside [0, {delta}]")
        return t

    pos = {v: i for i, v in enumerate(vs)}
    root = ChopNode(vs, vs[0], 0, (), math.inf, None)
    if metric is None:
        root_row = dist_omega(graph, w, [root.center], subset=vs).row(root.center)
    else:
        root_row = metric.row(root.center)
    nodes = [root]
    rows = {0: root_row}
    mindist = {0: root_row.copy()}
    level = [0]
    for j in range(depth):
        pending = []
        for ni in level:
            node = nodes[ni]
            tau = draw_tau(node.path)
            node.tau = tau
            comps = chop_delta(graph, w, node.center, tau, delta,
                               subset=node.vertices,
                               metric=metric if ni == 0 else None)
            kids = []
            for ci, comp in enumerate(comps):
                md = mindist[ni]
                comp_pos = [pos[v] for v in comp]
                local = md[comp_pos]
                arg = int(np.argmax(local))
                child = ChopNode(comp, comp[arg], j + 1,
                                 node.path + (ci,), float(local[arg]), ni)
                nodes.append(child)
                idx = len(nodes) - 1
                kids.append(idx)
                pending.append(idx)
            node.children = tuple(kids)
        if not pending:
            break
        centers = [nodes[i].center for i in pending]
        if metric is None:
            mat = dist_omega(graph, w, centers, subset=vs).dist
        else:
            mat = metric.dist[centers]
        for r, idx in enumerate(pending):
            rows[idx] = mat[r]
            mindist[idx] = np.minimum(mindist[nodes[idx].parent], mat[r])
        level = pending
    return ChoppingTree(nodes=nodes, delta=delta, depth=depth, ambient=vs,
                        rows=rows)


# ---------------------------------------------------------------------------
# shatter

def shatter(graph: Graph, omega, centers, taus, delta: float, *,
            subset=None, ambient=None, rows=None):
    """Single-radius sphere union in the ambient metric.

    Removes, from the vertex set ``subset``, every vertex lying on the
    sphere of radius delta + tau_i around center_i, where distances are
    measured in the ambient (sub)graph ``ambient`` (the whole graph by
    default), not inside ``subset``.  Returns (shards, components).  If
    every vertex of ``subset`` is within ambient distance delta of some
    center, each returned component has ambient diameter at most
    2 * (delta + max tau); this is asserted whenever the precondition
    holds and ``rows`` carries the needed ambient distances.  Each
    component's diameter is exact, from the few ambient Dijkstra rows
    its eccentricity bounds call for (``_set_diameter``).
    """
    centers = [int(c) for c in centers]
    taus = [float(t) for t in taus]
    if len(centers) != len(taus):
        raise ValueError("need one tau per center")
    _check_delta(delta)
    if not all(math.isfinite(t) and t >= 0 for t in taus):
        raise ValueError(f"taus must be nonnegative and finite, got {taus}")
    if subset is None:
        subset = range(graph.n)
    vs = tuple(sorted({int(v) for v in subset}))
    if not centers:
        return (), connected_components(graph, subset=vs)
    w = check_weights(graph, omega)
    if rows is None:
        mv = dist_omega(graph, w, centers, subset=ambient)
        rows = {c: mv.row(c) for c in centers}
        vpos = {v: i for i, v in enumerate(mv.vertices)}
    else:
        amb = tuple(sorted({int(v) for v in ambient})) if ambient is not None \
            else tuple(range(graph.n))
        vpos = {v: i for i, v in enumerate(amb)}
    if not vpos.keys() >= set(vs):
        raise ValueError("subset must lie inside ambient")
    idx = np.asarray([vpos[v] for v in vs], dtype=np.intp)
    varr = np.asarray(vs, dtype=np.intp)
    shard, mind = _sphere_shards(
        w, varr, (np.asarray(rows[c], dtype=float)[idx] for c in centers),
        [delta + tau for tau in taus])
    shards = tuple(int(v) for v in varr[shard])
    comps = connected_components(graph, subset=[int(v) for v in varr[~shard]])
    if np.all(mind <= delta):
        bound = 2.0 * (delta + max(taus)) + 1e-9
        _assert_component_diameters(graph, w, comps, bound, ambient=ambient)
    return shards, comps


def _sphere_shards(w, varr, dists, radii):
    """Sphere shards among the vertices ``varr``: those whose interval
    [d - w/2, d + w/2] holds the radius paired with some distance row d.
    Returns the shard mask and each vertex's least distance.
    """
    half = 0.5 * w[varr]
    shard = np.zeros(len(varr), dtype=bool)
    mind = np.full(len(varr), np.inf)
    for d, radius in zip(dists, radii):
        shard |= (d - half <= radius) & (radius <= d + half)
        mind = np.minimum(mind, d)
    return shard, mind


def _assert_component_diameters(graph, w, comps, bound, *, ambient=None):
    vs = _vertex_array(graph, ambient)
    lengths = _length_matrix(graph, w, vs)
    for comp in comps:
        diam = _set_diameter(lengths, np.searchsorted(vs, comp))
        if diam > bound:
            raise RuntimeError(
                f"component diameter {diam:.6g} exceeds certified bound "
                f"{bound:.6g}"
            )


# sources per Dijkstra call of _set_diameter: each csgraph call checks and
# transposes the matrix afresh, and a batch shares that cost
_DIAMETER_BATCH = 8


def _exact_sums(lengths) -> bool:
    """Whether every path length over these edge lengths, and the sum or
    difference of two, is exact in floating point: all lengths lie on the
    2^-20 grid and they total less than 2^30, so each such number needs
    at most 51 bits."""
    scaled = lengths.data * 2.0**20
    return bool(np.all(scaled == np.floor(scaled))) and \
        float(lengths.data.sum()) < 2.0**30


def _set_diameter(lengths, cols) -> float:
    """Ambient diameter of a vertex set: the largest entry of the ``cols``
    rows of the all-pairs distances of the length CSR ``lengths``,
    restricted to the ``cols`` columns, from as few of those rows as the
    eccentricity bounds of Takes & Kosters (2011) allow.

    A row u read so far, with eccentricity e_u within the set, bounds
    every v's by max(d(u,v), e_u - d(u,v)) <= e_v <= e_u + d(u,v).  Rows
    are read in batches, half by highest upper bound (peripheral
    vertices, to raise the best) and half by lowest lower bound (central
    ones, to tighten the upper bounds), each search stopped past the
    batch's largest upper bound.  A row whose upper bound is below the
    best by more than a rounding margin cannot hold the maximum and is
    never read, so the result is the all-rows maximum bit for bit.  When
    every sum is exact (``_exact_sums``: unit or dyadic weights) the
    bounds are exact too, so the lower bounds count towards the best and
    ties are not read; otherwise d(u,v) and d(v,u) may differ in the last
    place and only rows read count.
    """
    cols = np.asarray(cols, dtype=np.intp)
    k = cols.size
    if k < 2:
        return 0.0
    exact = _exact_sums(lengths)
    lo = np.zeros(k)
    hi = np.full(k, np.inf)
    todo = np.ones(k, dtype=bool)
    best = 0.0
    half = _DIAMETER_BATCH // 2
    while True:
        cand = np.flatnonzero(todo)
        if cand.size == 0:
            return best
        if cand.size <= _DIAMETER_BATCH:
            pick = cand
        else:
            # stable sorts: ties go to the lowest position
            far = cand[np.argsort(-hi[cand], kind="stable")[:half]]
            rest = cand[~np.isin(cand, far)]
            near = rest[np.argsort(lo[rest], kind="stable")[:half]]
            pick = np.concatenate([far, near])
        # every in-set entry of row u is at most e_u <= hi[u]
        top = float(hi[pick].max())
        rows = _csgraph.dijkstra(lengths, directed=False, indices=cols[pick],
                                 limit=top + 1e-9 * max(1.0, top))[:, cols]
        ecc = rows.max(axis=1)
        best = max(best, float(ecc.max()))
        if best == math.inf:
            return best
        todo[pick] = False
        lo = np.maximum(lo, np.maximum(rows, ecc[:, None] - rows).max(axis=0))
        hi = np.minimum(hi, (ecc[:, None] + rows).min(axis=0))
        if exact:
            best = max(best, float(lo.max()))
            todo &= hi > best
        else:
            todo &= hi >= best - 1e-9 * max(1.0, best)


# ---------------------------------------------------------------------------
# random separator

@dataclass(frozen=True)
class RandomSeparatorSample:
    """One draw of the two-stage separator with its certificates."""

    s: tuple
    components: tuple
    delta: float
    h: int
    seed: int
    diameter_bound: float
    max_component_diameter: float
    certificate_holds: bool
    alpha_raw: float
    alpha: float
    q_vertices: tuple
    q_doubled: bool
    spaced_leaves: tuple
    s1: tuple
    s2: tuple


def random_separator(graph: Graph, omega, delta: float, h: int, seed: int,
                     *, metric: MetricView | None = None) -> RandomSeparatorSample:
    """Sample the annular-cut separator at scale (delta, h).

    Stage Q forces every vertex heavier than delta into the separator.
    On each remaining component: a depth-(h-1) chopping tree with
    uniform offsets contributes the vertices cut on the way down (S1),
    and every depth-(h-1) node is shattered by ambient spheres of radius
    21*h*delta + tau_i around its h path centers, one uniform tau vector
    in [0, delta]^h per component (S2).  Components of the complement
    carry the diameter certificate (42h + 2) * delta; leaves that are
    not even covered by radius 21*h*delta around their centers are
    recorded as spacing events, the one case where the certificate is
    not guaranteed.

    The certificate's ``max_component_diameter`` is exact: with
    ``metric`` it is the largest entry of each component's block of the
    matrix; without, each component's diameter comes from the few
    whole-graph Dijkstra rows its eccentricity bounds call for
    (``_set_diameter``), over one length matrix per call.

    ``metric``, if given, must be the all-pairs ``dist_omega(graph,
    omega)``; the chopping trees and the diameter certificate then read
    its rows instead of recomputing them.
    """
    h = _check_h(h)
    _check_delta(delta)
    w = check_weights(graph, omega)
    _check_metric(graph, metric)
    n = graph.n
    big_delta = 21.0 * h * delta
    q = tuple(int(v) for v in np.flatnonzero(w > delta))
    s: set[int] = set(q)
    s1_all: list[int] = []
    s2_all: list[int] = []
    spaced: list[tuple] = []

    rest = [v for v in range(n) if v not in s]
    for comp in connected_components(graph, subset=rest):
        tree = build_chopping_tree(
            graph, w, delta, depth=h - 1, seed=seed,
            subset=comp, stream=("comp", comp[0]), metric=metric,
        )
        leaves = tree.nodes_at_depth(h - 1)
        in_leaves: set[int] = set()
        for li in leaves:
            in_leaves.update(tree.nodes[li].vertices)
        s1 = [v for v in comp if v not in in_leaves]
        s1_all.extend(s1)
        s.update(s1)

        taus = substream(seed, "comp", comp[0], "shards").uniform(
            0.0, delta, size=h)
        amb_pos = {v: i for i, v in enumerate(tree.ambient)}
        for li in leaves:
            node = tree.nodes[li]
            chain = tree.ancestors(li)
            idx = np.asarray([amb_pos[v] for v in node.vertices],
                             dtype=np.intp)
            varr = np.asarray(node.vertices, dtype=np.intp)
            shard, mind = _sphere_shards(
                w, varr, (tree.rows[anc][idx] for anc in chain),
                big_delta + taus)
            if np.any(mind > big_delta):
                spaced.append(("comp", comp[0]) + node.path)
            s2 = [int(v) for v in varr[shard]]
            s2_all.extend(s2)
            s.update(s2)

    components = tuple(connected_components(
        graph, subset=[v for v in range(n) if v not in s]))
    bound = (42.0 * h + 2.0) * delta
    if metric is None:
        lengths = _length_matrix(graph, w, np.arange(n))
    max_diam = 0.0
    for comp in components:
        if len(comp) == 1:
            continue
        cols = np.asarray(comp, dtype=np.intp)
        if metric is not None:
            diam = float(np.max(metric.matrix()[np.ix_(cols, cols)]))
        else:
            diam = _set_diameter(lengths, cols)
        max_diam = max(max_diam, diam)
    holds = max_diam <= bound + 1e-9
    if not holds and not spaced:
        raise RuntimeError(
            f"diameter certificate violated without a spacing event: "
            f"{max_diam:.6g} > {bound:.6g}"
        )
    alpha_raw = 4.0 * h * (42.0 * h + 2.0)
    doubled = bool(q)
    return RandomSeparatorSample(
        s=tuple(sorted(s)),
        components=components,
        delta=float(delta),
        h=int(h),
        seed=int(seed),
        diameter_bound=bound,
        max_component_diameter=max_diam,
        certificate_holds=holds,
        alpha_raw=alpha_raw,
        alpha=alpha_raw * (2.0 if doubled else 1.0),
        q_vertices=q,
        q_doubled=doubled,
        spaced_leaves=tuple(spaced),
        s1=tuple(sorted(s1_all)),
        s2=tuple(sorted(set(s2_all))),
    )


# ---------------------------------------------------------------------------
# padded partition

@dataclass(frozen=True)
class PaddedPartitionSample:
    blocks: tuple
    alpha: float
    delta: float


def padded_partition(graph: Graph, omega, sample: RandomSeparatorSample
                     ) -> PaddedPartitionSample:
    """Blocks = surviving components plus singletons of the separator.

    Inherits the sample's diameter bound as the partition's delta and
    records the padding parameter 8 * alpha.
    """
    blocks = list(sample.components)
    blocks.extend((v,) for v in sample.s)
    return PaddedPartitionSample(
        blocks=tuple(blocks),
        alpha=8.0 * sample.alpha,
        delta=sample.diameter_bound,
    )


# ---------------------------------------------------------------------------
# rounding maps

def _edge_lipschitz_check(graph: Graph, w, f):
    # Lipschitz along every edge implies Lipschitz for the whole
    # shortest-path metric, so an O(m) scan suffices.
    eu, ev, _ = graph._structure()
    if eu.size == 0:
        return
    f = np.asarray(f, dtype=float)
    excess = np.abs(f[eu] - f[ev]) - 0.5 * (w[eu] + w[ev])
    worst = int(np.argmax(excess))
    if excess[worst] > 1e-9:
        u, v = int(eu[worst]), int(ev[worst])
        raise RuntimeError(
            f"map not 1-Lipschitz on edge ({u}, {v}): "
            f"|{f[u]:.6g} - {f[v]:.6g}| > {(w[u] + w[v]) / 2:.6g}"
        )


def _distance_to_set(graph: Graph, w, targets, metric=None):
    """Distance from every vertex to its nearest target: the minimum of
    the targets' rows of an all-pairs ``metric``, else one multi-source
    Dijkstra.  Both give the same floats."""
    idx = np.asarray(targets, dtype=np.intp)
    if idx.size == 0 or idx.min() < 0 or idx.max() >= graph.n:
        raise ValueError("targets must be a nonempty set of vertices")
    if metric is not None:
        return metric.dist[idx].min(axis=0)
    return _csgraph.dijkstra(_length_matrix(graph, w, np.arange(graph.n)),
                             directed=False, indices=idx, min_only=True)


def rounding_map_ball(graph: Graph, omega, x0: int, radius: float, *,
                      metric: MetricView | None = None) -> np.ndarray:
    """f = distance to the closed ball around x0; 1-Lipschitz by
    construction and checked.  When the ball holds at least half the
    vertices and the radius is a quarter of the spread, the observed
    spread of f is at least spread/4; asserted whenever detected.

    ``metric``, if given, must be the all-pairs ``dist_omega(graph,
    omega)``; f is then the minimum of its ball rows, and a caller that
    builds many maps on one graph computes the metric once.
    """
    w = check_weights(graph, omega)
    _check_metric(graph, metric)
    if not (isinstance(x0, numbers.Integral) and 0 <= x0 < graph.n):
        raise ValueError(f"x0 must be a vertex of the graph, got {x0!r}")
    mv = dist_omega(graph, w) if metric is None else metric
    ball = np.flatnonzero(mv.row(x0) <= radius)
    if not ball.size:
        raise ValueError("ball is empty")
    f = _distance_to_set(graph, w, ball, mv)
    _edge_lipschitz_check(graph, w, f)
    sp = spread(mv)
    if ball.size * 2 >= graph.n and abs(radius - sp / 4.0) <= 1e-12:
        sobs = observed_spread(mv, f)
        if sobs < sp / 4.0 - 1e-9:
            raise RuntimeError(
                f"half-ball distance map fell short: {sobs:.6g} < {sp / 4:.6g}"
            )
    return f


def rounding_map_coloring(graph: Graph, omega, partition: PaddedPartitionSample,
                          seed: int | None = None, *, colors=None,
                          metric: MetricView | None = None) -> np.ndarray:
    """f = distance to the union of blocks colored 1.

    Colors are independent fair bits per block; an all-zero draw has no
    set to measure distance to and is rejected and redrawn.  Explicit
    ``colors`` override the draw (all-zero is then an error).
    ``metric``, if given, must be the all-pairs ``dist_omega(graph,
    omega)``; f is then the minimum of its target rows instead of a
    multi-source search.
    """
    w = check_weights(graph, omega)
    _check_metric(graph, metric)
    blocks = getattr(partition, "blocks", partition)
    blocks = tuple(tuple(int(v) for v in block) for block in blocks)
    if not blocks:
        raise ValueError("partition has no blocks")
    if colors is not None:
        bits = [int(b) for b in colors]
        if len(bits) != len(blocks):
            raise ValueError("need one color per block")
        if not any(bits):
            raise ValueError("explicit coloring selects no block")
    else:
        if seed is None:
            raise ValueError("need a seed when colors are not given")
        for attempt in range(64):
            bits = list(substream(seed, "coloring", attempt)
                        .integers(0, 2, size=len(blocks)))
            if any(bits):
                break
        else:  # pragma: no cover - probability 2^-64 per attempt chain
            raise RuntimeError("rejection sampling failed to find a color")
    targets = [v for block, b in zip(blocks, bits) if b for v in block]
    f = _distance_to_set(graph, w, targets, metric)
    _edge_lipschitz_check(graph, w, f)
    return f


# ---------------------------------------------------------------------------
# sweep cut

# threshold-by-vertex cells per array pass of the sweep
_SWEEP_CELLS = 1 << 18


def sweep_cut(graph: Graph, omega, f):
    """Threshold sweep of a 1-Lipschitz map.

    At each critical threshold theta in {f(v) +- omega(v)/2} the vertex
    set splits into A = {f <= theta}, B = {f > theta} and the slab
    S = {|f - theta| <= omega/2}; no edge joins A minus S to B minus S
    (the checked Lipschitz bound of f implies it).  Both U = A union S
    and U = B union S are scored by boundary-over-size whenever the
    interior covers at most half the vertices; the best feasible
    candidate, by ascending theta with the A side first, is returned as
    (U, ratio), or ((), inf) when no threshold separates.  Thresholds
    are scored in blocks of array passes of at most ``_SWEEP_CELLS``
    vertex-threshold cells.
    """
    w = check_weights(graph, omega)
    vals = np.asarray(f, dtype=float)
    if vals.shape != (graph.n,):
        raise ValueError("f must assign a value to every vertex")
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite")
    _edge_lipschitz_check(graph, w, vals)

    n = graph.n
    # for a boolean X, (adj @ X)[v, j] says whether v has a neighbour in
    # column j's vertex set
    adj = graph._structure()[2]
    adj = csr_matrix((np.ones(adj.nnz, dtype=bool), adj.indices, adj.indptr),
                     shape=adj.shape)
    thresholds = np.unique(np.concatenate([vals - w / 2.0, vals + w / 2.0]))
    # widened by the Lipschitz tolerance so float-tight maps cannot leak an
    # edge past the slab
    reach = w / 2.0 + LIPSCHITZ_TOL

    def sides(theta):
        # vertex-by-threshold masks: A, and the slab around each threshold
        return (vals[:, None] <= theta[None, :],
                np.abs(vals[:, None] - theta[None, :]) <= reach[:, None])

    best_k = -1
    best_ratio = math.inf
    step = max(1, _SWEEP_CELLS // max(n, 1))
    for lo in range(0, thresholds.size, step):
        theta = thresholds[lo:lo + step]
        a, slab = sides(theta)
        a_clean = a & ~slab
        b_clean = ~a & ~slab
        t = theta.size
        # A u S loses its boundary to B minus S, B u S to A minus S.  No
        # edge joins A minus S to B minus S: that needs a Lipschitz excess
        # above 2 * LIPSCHITZ_TOL, and the edge check allows at most 1e-9.
        hits = adj @ np.concatenate([b_clean, a_clean], axis=1)
        side = np.concatenate([a | slab, ~a | slab], axis=1)
        size = side.sum(axis=0)
        n_boundary = (side & hits).sum(axis=0)
        # candidate order: threshold ascending, the A side before the B side
        size = size.reshape(2, t).T.ravel()
        n_boundary = n_boundary.reshape(2, t).T.ravel()
        feasible = np.flatnonzero((size > 0) & (2 * (size - n_boundary) <= n))
        ratios = n_boundary[feasible] / size[feasible]
        for k, ratio in zip(feasible.tolist(), ratios.tolist()):
            if ratio < best_ratio - 1e-15:
                best_ratio = ratio
                best_k = 2 * lo + k
    if best_k < 0:
        return (), best_ratio
    a, slab = sides(thresholds[best_k // 2:best_k // 2 + 1])
    best = (a | slab) if best_k % 2 == 0 else (~a | slab)
    return tuple(int(v) for v in np.flatnonzero(best[:, 0])), best_ratio


def vertex_expansion_witnesses(graph: Graph, u_set):
    """The two step maps certifying 1/phi <= 3 * observed spread.

    Returns (f1, f2, omega) where omega is the indicator of the
    boundary of U, f1 steps -1/2, 0, +1/2 on interior, boundary and
    complement, and f2 splits the boundary into two balanced halves at
    -1/2 and +1/2 with 0 elsewhere.  Both maps are checked 1-Lipschitz
    under dist_omega; when U is feasible for the expansion minimum the
    larger observed spread is checked against |U| / (3n).
    """
    u = sorted({int(v) for v in u_set})
    if not u:
        raise ValueError("U must be nonempty")
    boundary = _boundary(graph, u)
    if not boundary:
        raise ValueError("U has no boundary (is it the whole graph?)")
    n = graph.n
    omega = np.zeros(n)
    omega[boundary] = 1.0

    f1 = np.full(n, 0.5)
    f1[u] = -0.5
    f1[boundary] = 0.0

    f2 = np.zeros(n)
    half = (len(boundary) + 1) // 2
    f2[boundary[:half]] = -0.5
    f2[boundary[half:]] = 0.5

    mv = dist_omega(graph, omega)
    sobs1 = observed_spread(mv, f1)
    sobs2 = observed_spread(mv, f2)
    interior = len(u) - len(boundary)
    if interior * 2 <= n:
        want = len(u) / (3.0 * n)
        if max(sobs1, sobs2) < want - 1e-9:
            raise RuntimeError(
                f"witness spread {max(sobs1, sobs2):.6g} below {want:.6g}"
            )
    return f1, f2, omega


# ---------------------------------------------------------------------------
# balanced separator driver

def _boundary(graph: Graph, u_set) -> list:
    """The vertices of U with a neighbour outside U, ascending."""
    inside = set(u_set)
    return sorted(v for v in inside
                  if any(nb not in inside for nb in graph.neighbors(v)))


def _cut_lp_round(view, seed, omega, h, delta):
    from .flows import _P1_MAX_N, cspread_lp

    local = view.graph
    # beyond the joint (omega, distance) LP's size bound the spectral cut
    # stands in
    if local.n > _P1_MAX_N:
        return None
    # the first cut of bench.separate is on the graph whose LP it has just
    # solved, and cspread_lp keeps that one result
    w = cspread_lp(local, 1).omega
    mv = dist_omega(local, w)
    sp = spread(mv)
    if sp <= 0:
        return None
    if local.n <= 40:
        centers = list(range(local.n))
    else:
        rng = substream(seed, "lp-centers", view.vertices[0])
        centers = sorted(rng.choice(local.n, size=16, replace=False))
    best = None
    swept = set()
    for c in centers:
        f = rounding_map_ball(local, w, int(c), sp / 4.0, metric=mv)
        # a map equal to an earlier one sweeps to the same (U, ratio),
        # which the strict comparison would not keep
        key = f.tobytes()
        if key in swept:
            continue
        swept.add(key)
        u_set, ratio = sweep_cut(local, w, f)
        if u_set and (best is None or ratio < best[0]):
            best = (ratio, u_set)
    return None if best is None else _boundary(local, best[1])


# scales tried per chop cut, each half the one before
_CHOP_ROUNDS = 4


def _cut_chop(view, seed, omega, h, delta):
    """Random-chopping cut: sphere shards at random radii plus, when the
    scale supports it, the full random-separator / coloring-map sweep.
    The scales run down from ``delta`` (else half the diameter).
    Candidates are ranked balanced-first, then by size."""
    local = view.graph
    nloc = local.n
    w = np.ones(nloc) if omega is None else omega[list(view.vertices)]
    mv = dist_omega(local, w)
    diam = float(np.max(mv.matrix()))
    if diam <= 0:
        return None

    candidates: list = []

    def consider(svals):
        s = {int(v) for v in svals}
        if not s or len(s) == nloc:
            return
        rest = [v for v in range(nloc) if v not in s]
        pieces = connected_components(local, subset=rest)
        biggest = max((len(p) for p in pieces), default=0)
        balanced = 0 if biggest * 3 <= 2 * nloc else 1
        candidates.append((balanced, len(s), len(candidates),
                           tuple(sorted(s))))

    top = diam / 2.0 if delta is None else delta
    for t in range(_CHOP_ROUNDS):
        scale = top / 2.0 ** t
        if scale <= 0:
            break
        rng = substream(seed, "chop", view.vertices[0], t)
        for _ in range(4):
            center = int(rng.integers(nloc))
            tau = float(rng.uniform(0.0, scale))
            consider(cut_delta(local, w, center, tau, scale, metric=mv))
        # the deep pipeline only bites when the scale clears every weight
        if scale <= float(np.max(w)):
            continue
        sample = random_separator(local, w, scale, h,
                                  int(rng.integers(1 << 62)), metric=mv)
        padded = padded_partition(local, w, sample)
        if len(padded.blocks) == 1:
            continue
        f = rounding_map_coloring(local, w, padded,
                                  int(rng.integers(1 << 62)), metric=mv)
        u_set, _ratio = sweep_cut(local, w, f)
        if u_set:
            consider(_boundary(local, u_set))

    return min(candidates)[3] if candidates else None


def _prune_separator(graph: Graph, mass, limit: float, s: set) -> set:
    """Hand separator vertices back to the components they touch when
    that keeps the separation and the balance cap; repeats to fixpoint."""
    s = set(s)
    changed = True
    while changed:
        changed = False
        rest = [v for v in range(graph.n) if v not in s]
        comp_id: dict[int, int] = {}
        weights: list[float] = []
        for i, comp in enumerate(connected_components(graph, subset=rest)):
            for v in comp:
                comp_id[v] = i
            weights.append(float(mass[list(comp)].sum()))
        for v in sorted(s):
            touched = {comp_id[nb] for nb in graph.neighbors(v)
                       if nb in comp_id}
            if len(touched) > 1:
                continue
            if touched:
                i = touched.pop()
                if weights[i] + mass[v] > limit:
                    continue
                weights[i] += mass[v]
            else:
                if mass[v] > limit:
                    continue
                i = len(weights)
                weights.append(float(mass[v]))
            comp_id[v] = i
            s.remove(v)
            changed = True
    return s


# a cut maps (view, seed, omega, h, delta) to local ids of view.graph, or
# None for the spectral stand-in; spectral is that stand-in alone
_STRATEGIES = {
    "spectral": None,
    "lp-round": _cut_lp_round,
    "chop": _cut_chop,
}


def balanced_separator(graph: Graph, strategy: str = "spectral", mu=None, *,
                       omega=None, seed: int = 0, h: int = 2,
                       delta: float | None = None) -> tuple:
    """Vertex set whose removal leaves every component with at most 2/3
    of the total measure.

    Repeatedly cuts the heaviest offending component with the chosen
    strategy (spectral sweep, extremal-weight LP plus ball-map rounding,
    or random chopping plus coloring-map rounding) and accumulates the
    cut vertices.  The balance of the final result is verified before
    returning.  ``mu`` must be finite and nonnegative.  Chop reads
    ``omega`` (vertex weights, unit by default), ``h`` (an integer, at
    least 1) and ``delta`` (positive and finite, or None for a schedule
    from the component's diameter); the other strategies ignore them.

    Every cut sees one ``view = induced_subgraph(graph, comp)`` and
    returns ids local to ``view.graph``, which the driver maps back with
    ``view.to_parent``.  When a strategy returns None or an empty cut,
    the driver takes ``spectral_bisection(view.graph)`` instead, and the
    view's first vertex when that is empty too (a single vertex).
    """
    from .spectral import spectral_bisection

    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {sorted(_STRATEGIES)}")
    cut_fn = _STRATEGIES[strategy]
    if strategy == "chop":
        # checked up front: a bad value would otherwise surface as a
        # failure on the first component cut, or not at all
        _check_h(h)
        if delta is not None:
            _check_delta(delta)
        if omega is not None:
            omega = check_weights(graph, omega)
    n = graph.n
    mass = _check_mu(graph, mu)
    total = float(mass.sum())
    limit = 2.0 * total / 3.0 + 1e-12

    def weight(c):
        return float(mass[list(c)].sum())

    s: set[int] = set()
    work = [c for c in connected_components(graph) if weight(c) > limit]
    while work:
        work.sort(key=weight)
        comp = work.pop()
        try:
            view = induced_subgraph(graph, comp)
            cut = cut_fn(view, seed, omega, h, delta) if cut_fn else None
            cut = cut or spectral_bisection(view.graph) or (0,)
        except Exception as exc:
            raise RuntimeError(
                f"strategy {strategy!r} failed on component {comp}"
            ) from exc
        cut = {view.to_parent(v) for v in cut}
        s.update(cut)
        rest = [v for v in comp if v not in cut]
        for piece in connected_components(graph, subset=rest):
            if weight(piece) > limit:
                work.append(piece)
    s = _prune_separator(graph, mass, limit, s)
    final = [v for v in range(n) if v not in s]
    for piece in connected_components(graph, subset=final):
        if weight(piece) > limit:
            raise RuntimeError("balance verification failed")
    return tuple(sorted(s))
