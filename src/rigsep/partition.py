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
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph as _csgraph

from ._rng import substream
from .graph import (
    LIPSCHITZ_TOL,
    Graph,
    MetricView,
    _length_matrix,
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
    if delta <= 0:
        raise ValueError("delta must be positive")
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
                        stream=()) -> ChoppingTree:
    """Recursive chop decomposition with farthest-point child centers.

    The root covers the whole (sub)graph with the smallest vertex as
    center.  Chopping a node uses its offset tau from ``sigma`` (a
    constant, a callable on the node path, or uniform draws from the
    seeded substream); each child's center maximizes the ambient
    distance to all centers on the path above it, ties to the smallest
    id, and records that distance as its spacing.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if delta <= 0:
        raise ValueError("delta must be positive")
    w = check_weights(graph, omega)
    if subset is None:
        vs = tuple(range(graph.n))
    else:
        vs = tuple(sorted({int(v) for v in subset}))
    if not vs:
        raise ValueError("cannot build a chopping tree on an empty set")
    if len(connected_components(graph, subset=vs)) != 1:
        raise ValueError("chopping tree needs a connected (sub)graph")

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
    root_row = dist_omega(graph, w, [root.center], subset=vs).row(root.center)
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
                               subset=node.vertices)
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
        mat = dist_omega(graph, w, centers, subset=vs).dist
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
    holds and ``rows`` carries the needed ambient distances.
    """
    centers = [int(c) for c in centers]
    taus = [float(t) for t in taus]
    if len(centers) != len(taus):
        raise ValueError("need one tau per center")
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
    for comp in comps:
        mv = dist_omega(graph, w, comp, subset=ambient)
        cols = [i for i, v in enumerate(mv.vertices) if v in set(comp)]
        diam = float(np.max(mv.dist[:, cols])) if cols else 0.0
        if diam > bound:
            raise RuntimeError(
                f"component diameter {diam:.6g} exceeds certified bound "
                f"{bound:.6g}"
            )


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
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    w = check_weights(graph, omega)
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
            subset=comp, stream=("comp", comp[0]),
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
    max_diam = 0.0
    for comp in components:
        if len(comp) == 1:
            continue
        cols = np.asarray(comp, dtype=np.intp)
        if metric is not None:
            sub = metric.matrix()[np.ix_(cols, cols)]
        else:
            sub = dist_omega(graph, w, comp).dist[:, cols]
        max_diam = max(max_diam, float(np.max(sub)))
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


def _distance_to_set(graph: Graph, w, targets):
    """Distance from every vertex to its nearest target, by one
    multi-source Dijkstra."""
    idx = np.asarray(targets, dtype=np.intp)
    if idx.size == 0 or idx.min() < 0 or idx.max() >= graph.n:
        raise ValueError("targets must be a nonempty set of vertices")
    return _csgraph.dijkstra(_length_matrix(graph, w, np.arange(graph.n)),
                             directed=False, indices=idx, min_only=True)


def rounding_map_ball(graph: Graph, omega, x0: int, radius: float) -> np.ndarray:
    """f = distance to the closed ball around x0; 1-Lipschitz by
    construction and checked.  When the ball holds at least half the
    vertices and the radius is a quarter of the spread, the observed
    spread of f is at least spread/4; asserted whenever detected.
    """
    w = check_weights(graph, omega)
    mv = dist_omega(graph, w)
    row = mv.row(x0)
    ball = [int(v) for i, v in enumerate(mv.vertices) if row[i] <= radius]
    if not ball:
        raise ValueError("ball is empty")
    f = _distance_to_set(graph, w, ball)
    _edge_lipschitz_check(graph, w, f)
    sp = spread(mv)
    if len(ball) * 2 >= graph.n and abs(radius - sp / 4.0) <= 1e-12:
        sobs = observed_spread(mv, f)
        if sobs < sp / 4.0 - 1e-9:
            raise RuntimeError(
                f"half-ball distance map fell short: {sobs:.6g} < {sp / 4:.6g}"
            )
    return f


def rounding_map_coloring(graph: Graph, omega, partition: PaddedPartitionSample,
                          seed: int | None = None, *, colors=None) -> np.ndarray:
    """f = distance to the union of blocks colored 1.

    Colors are independent fair bits per block; an all-zero draw has no
    set to measure distance to and is rejected and redrawn.  Explicit
    ``colors`` override the draw (all-zero is then an error).
    """
    w = check_weights(graph, omega)
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
    f = _distance_to_set(graph, w, targets)
    _edge_lipschitz_check(graph, w, f)
    return f


# ---------------------------------------------------------------------------
# sweep cut

def sweep_cut(graph: Graph, omega, f):
    """Threshold sweep of a 1-Lipschitz map.

    At each critical threshold theta in {f(v) +- omega(v)/2} the vertex
    set splits into A = {f <= theta}, B = {f > theta} and the slab
    S = {|f - theta| <= omega/2}; no edge joins A minus S to B minus S
    (checked).  Both U = A union S and U = B union S are scored by
    boundary-over-size whenever the interior covers at most half the
    vertices; the best feasible candidate is returned as (U, ratio),
    or ((), inf) when no threshold separates.
    """
    w = check_weights(graph, omega)
    vals = np.asarray(f, dtype=float)
    if vals.shape != (graph.n,):
        raise ValueError("f must assign a value to every vertex")
    _edge_lipschitz_check(graph, w, vals)

    n = graph.n
    eu, ev, _ = graph._structure()
    thresholds = np.unique(np.concatenate([vals - w / 2.0, vals + w / 2.0]))
    best_u: tuple = ()
    best_ratio = math.inf
    for theta in thresholds:
        a = vals <= theta
        # widened by the Lipschitz tolerance so float-tight maps cannot
        # leak an edge past the slab
        slab = np.abs(vals - theta) <= w / 2.0 + LIPSCHITZ_TOL
        a_clean = a & ~slab
        b_clean = ~a & ~slab
        if eu.size and np.any((a_clean[eu] & b_clean[ev]) |
                              (a_clean[ev] & b_clean[eu])):
            raise RuntimeError(
                f"threshold {theta}: an edge crosses the slab"
            )
        for side in (a | slab, ~a | slab):
            size = int(side.sum())
            if size == 0:
                continue
            cross = np.concatenate([eu[side[eu] & ~side[ev]],
                                    ev[side[ev] & ~side[eu]]])
            n_boundary = int(np.unique(cross).size)
            interior = size - n_boundary
            if interior * 2 > n:
                continue
            ratio = n_boundary / size
            if ratio < best_ratio - 1e-15:
                best_ratio = ratio
                best_u = tuple(int(v) for v in np.flatnonzero(side))
    return best_u, best_ratio


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
    inside = set(u)
    boundary = [v for v in u if any(nb not in inside for nb in graph.neighbors(v))]
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

def _cut_spectral(graph: Graph, comp, seed):
    from .spectral import spectral_bisection

    if len(comp) == 1:
        return set(comp)
    view = induced_subgraph(graph, comp)
    sep = spectral_bisection(view.graph)
    if not sep:
        return {comp[0]}
    return {view.to_parent(v) for v in sep}


# (graph, cspread_lp(graph, 1)) while a caller that already solved it runs
_SOLVED_LP: ContextVar = ContextVar("_SOLVED_LP", default=None)


@contextmanager
def _reusing_lp(graph: Graph, result):
    """Inside the block, an lp-round cut of a component equal to ``graph``
    takes ``result`` instead of solving ``cspread_lp(graph, 1)`` again."""
    token = _SOLVED_LP.set((graph, result))
    try:
        yield
    finally:
        _SOLVED_LP.reset(token)


def _cut_lp_round(graph: Graph, comp, seed):
    from .flows import _P1_MAX_N, cspread_lp

    # beyond the joint (omega, distance) LP's size bound the spectral cut
    # stands in
    if len(comp) > _P1_MAX_N:
        return _cut_spectral(graph, comp, seed)
    view = induced_subgraph(graph, comp)
    local = view.graph
    solved = _SOLVED_LP.get()
    if solved is not None and solved[0] == local:
        res = solved[1]
    else:
        res = cspread_lp(local, 1)
    w = res.omega
    mv = dist_omega(local, w)
    sp = spread(mv)
    if sp <= 0:
        return _cut_spectral(graph, comp, seed)
    if local.n <= 40:
        centers = list(range(local.n))
    else:
        rng = substream(seed, "lp-centers", comp[0])
        centers = sorted(rng.choice(local.n, size=16, replace=False))
    best = None
    for c in centers:
        f = rounding_map_ball(local, w, int(c), sp / 4.0)
        u_set, ratio = sweep_cut(local, w, f)
        if u_set and (best is None or ratio < best[0]):
            best = (ratio, u_set)
    if best is None:
        return _cut_spectral(graph, comp, seed)
    _, u_set = best
    inside = set(u_set)
    boundary = {v for v in u_set
                if any(nb not in inside for nb in local.neighbors(v))}
    if not boundary:
        return _cut_spectral(graph, comp, seed)
    return {view.to_parent(v) for v in boundary}


def _cut_chop(graph: Graph, comp, seed, *, omega=None, h=2, rounds=4,
              delta0=None):
    """Random-chopping cut: sphere shards at random radii plus, when the
    scale supports it, the full random-separator / coloring-map sweep.
    Candidates are ranked balanced-first, then by size."""
    view = induced_subgraph(graph, comp)
    local = view.graph
    nloc = local.n
    w = np.ones(nloc) if omega is None else np.asarray(
        [omega[v] for v in view.vertices], dtype=float)
    mv = dist_omega(local, w)
    diam = float(np.max(mv.matrix()))
    if diam <= 0:
        return _cut_spectral(graph, comp, seed)

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

    for t in range(rounds):
        if delta0 is not None:
            delta = delta0 / 2.0 ** t
        else:
            delta = diam / 2.0 ** (t + 1)
        if delta <= 0:
            break
        rng = substream(seed, "chop", comp[0], t)
        for _ in range(4):
            center = int(rng.integers(nloc))
            tau = float(rng.uniform(0.0, delta))
            consider(cut_delta(local, w, center, tau, delta, metric=mv))
        # the deep pipeline only bites when delta clears every weight
        if delta <= float(np.max(w)):
            continue
        sample = random_separator(local, w, delta, h,
                                  int(rng.integers(1 << 62)), metric=mv)
        padded = padded_partition(local, w, sample)
        if len(padded.blocks) == 1:
            continue
        f = rounding_map_coloring(local, w, padded,
                                  int(rng.integers(1 << 62)))
        u_set, _ratio = sweep_cut(local, w, f)
        if u_set:
            inside = set(u_set)
            consider(v for v in u_set
                     if any(nb not in inside for nb in local.neighbors(v)))

    if not candidates:
        return _cut_spectral(graph, comp, seed)
    _, _, _, s = min(candidates)
    return {view.to_parent(v) for v in s}


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


_STRATEGIES = {
    "spectral": _cut_spectral,
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
    returning.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {sorted(_STRATEGIES)}")
    n = graph.n
    if mu is None:
        mass = np.ones(n)
    else:
        mass = np.asarray(mu, dtype=float)
        if mass.shape != (n,) or np.any(mass < 0):
            raise ValueError("mu must be a nonnegative vector of length n")
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
            if strategy == "chop":
                cut = _cut_chop(graph, comp, seed, omega=omega, h=h,
                                delta0=delta)
            else:
                cut = _STRATEGIES[strategy](graph, comp, seed)
        except Exception as exc:
            raise RuntimeError(
                f"strategy {strategy!r} failed on component {comp}"
            ) from exc
        if not cut:
            raise RuntimeError(
                f"strategy {strategy!r} returned an empty cut on {comp}"
            )
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
