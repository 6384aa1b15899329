"""Multicommodity vertex congestion, extremal spread and their duality.

Routings are path-based: a flow assigns weighted vertex paths to each
demand pair, congestion charges every vertex on a path its full weight
(a zero-length path charges its single vertex), and the all-pairs
vertex congestion vcong_p minimizes the l_p norm of the congestion
vector.  The extremal spread cspread_q maximizes the average pairwise
distance over conformal weights with unit L^q norm.  The two are tied
by LP duality; ``check_duality`` evaluates both sides and reports the
literal textbook form next to the convention-corrected one.

Optimal routings come from one column generation: each pair's pool
starts at its fewest-vertex path, and each round a master solves over
the pooled columns (the min-t LP at p = inf, least squares at p = 2)
and one pricing pass adds the cheapest paths that undercut it.  At
p = 2 it serves both sides: vcong_2 = min |c|_2 and
cspread_2 = (2 sqrt(n) / n^2) * min |c - (n - 1)/2|_2 over routing
congestions c (see ``cspread_lp``).  The extremal weights come from the
optimal routing, and their realized spread must meet its bound.  The
corrected side of the p = 2 duality is the weak-duality bound at the
primal's own normalized congestion, so its gap certifies the routing.
At p = inf one column generation gives both sides of the duality:
the last master's vertex prices, normalized to mean one, are an
extremal cspread_1 weight.  The p = 2 programs refuse graphs above 93
vertices, and the p = 1 spread LP and the p = inf duality check graphs
above 54, rather than start solves of many minutes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
# minimize is no longer called here; it stays bound because the
# benchmark's tracer wraps flows.minimize by name (and counts no calls)
from scipy.optimize import linprog, minimize  # noqa: F401

from ._rng import substream
from .graph import (
    Graph,
    complete_graph,
    connected_components,
    dist_omega,
    extract_path,
    induced_subgraph,
    shortest_path_tree,
    spread,
)
from .rig import RegionAssignment, distinguished_vertices

__all__ = [
    "MultiFlow",
    "congestion_map",
    "HFlow",
    "CrossingReport",
    "crossing_congestion",
    "integral_rounding",
    "SpreadLPResult",
    "cspread_lp",
    "CongestionResult",
    "vcong_lp",
    "DualityReport",
    "check_duality",
    "rig_flow_transfer",
]

_PRICE_TOL = 1e-9
# largest n the p = 1 spread LP (n + n^2 variables, 2mn + 1 rows;
# lp-round cuts spectrally above it) and check_duality at p = inf accept.
# On a 2-vCPU host with one BLAS thread the LP's slowest solves took 9 s
# at 54 vertices and 10-17 s at 55-60.  check_duality(., inf) runs only
# the p = inf column generation, which sets its cap: 1.5-3.5 s at 54
# vertices, and vcong_lp(., inf) took 7-9 s on the 64-vertex grid
_P1_MAX_N = 54
# largest n the p = 2 solvers accept: with one BLAS thread on a 2-vCPU
# host, certified check_duality(g, 2) took at most 3.5 s on G(93, p) and
# 8.0 s on 93-vertex triangulations (seeds 0-3), and 11.9 s on one at 94
_P2_MAX_N = 93


# ---------------------------------------------------------------------------
# flows

def _check_path(graph: Graph, path) -> tuple:
    p = tuple(int(v) for v in path)
    if not p:
        raise ValueError("a flow path must contain at least one vertex")
    for v in p:
        if not 0 <= v < graph.n:
            raise ValueError(f"path vertex {v} out of range")
    for a, b in zip(p, p[1:]):
        if not graph.has_edge(a, b):
            raise ValueError(f"path step ({a}, {b}) is not an edge")
    return p


@dataclass(frozen=True)
class MultiFlow:
    """Weighted vertex paths in one host graph.

    Paths are vertex sequences; consecutive entries must be edges and a
    single vertex is a legal zero-length path.
    """

    graph: Graph
    paths: tuple
    weights: tuple

    def __post_init__(self):
        paths = tuple(_check_path(self.graph, p) for p in self.paths)
        weights = tuple(float(w) for w in self.weights)
        if len(paths) != len(weights):
            raise ValueError("need one weight per path")
        if any(w < 0 for w in weights):
            raise ValueError("path weights must be nonnegative")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", weights)

    @property
    def total_weight(self) -> float:
        return float(sum(self.weights))


def congestion_map(flow: MultiFlow) -> np.ndarray:
    """Vertex congestion: every vertex a path visits collects the path's
    full weight, once per path."""
    c = np.zeros(flow.graph.n)
    for path, w in zip(flow.paths, flow.weights):
        for v in set(path):
            c[v] += w
    return c


@dataclass(frozen=True)
class HFlow:
    """A demand graph H routed inside a host graph.

    ``host_map`` places each H-vertex at a host vertex (not necessarily
    injectively); each H-edge carries a weighted bundle of host paths
    joining its mapped endpoints, summing to that edge's demand
    (1 unless ``demand_weights`` says otherwise).
    """

    host: Graph
    demand: Graph
    host_map: tuple
    edge_paths: dict = field(repr=False)
    demand_weights: dict | None = None

    def __post_init__(self):
        fmap = tuple(int(v) for v in self.host_map)
        if len(fmap) != self.demand.n:
            raise ValueError("host_map must place every demand vertex")
        for v in fmap:
            if not 0 <= v < self.host.n:
                raise ValueError(f"host_map value {v} out of range")
        object.__setattr__(self, "host_map", fmap)
        paths: dict = {}
        for e, bundle in self.edge_paths.items():
            a, b = sorted(int(x) for x in e)
            if not self.demand.has_edge(a, b):
                raise ValueError(f"({a}, {b}) is not a demand edge")
            tgt = paths.setdefault((a, b), {})
            for p, w in bundle.items():
                p = _check_path(self.host, p)
                w = float(w)
                if w < 0:
                    raise ValueError("path weights must be nonnegative")
                if {p[0], p[-1]} != {fmap[a], fmap[b]}:
                    raise ValueError(
                        f"path for demand ({a}, {b}) must join "
                        f"{fmap[a]} and {fmap[b]}"
                    )
                if w > 0:
                    tgt[p] = tgt.get(p, 0.0) + w
        for e in self.demand.edges:
            want = self.demand_weight(e)
            got = sum(paths.get(e, {}).values())
            if abs(got - want) > 1e-9:
                raise ValueError(
                    f"demand edge {e} routes weight {got:.6g}, wants {want:.6g}"
                )
        object.__setattr__(self, "edge_paths", paths)

    def demand_weight(self, e) -> float:
        a, b = sorted(int(x) for x in e)
        if self.demand_weights is None:
            return 1.0
        return float(self.demand_weights.get((a, b), 1.0))

    @property
    def proper(self) -> bool:
        return len(set(self.host_map)) == self.demand.n

    def aggregate(self) -> MultiFlow:
        paths, weights = [], []
        for e in sorted(self.edge_paths):
            for p, w in sorted(self.edge_paths[e].items()):
                paths.append(p)
                weights.append(w)
        return MultiFlow(self.host, tuple(paths), tuple(weights))


class CrossingReport(NamedTuple):
    cross: float
    congestion_l2_sq: float


def crossing_congestion(hflow: HFlow) -> CrossingReport:
    """Expected crossings between demand edges with four distinct
    endpoints: weight mass of path pairs that share a host vertex.
    The l2 congestion bound cross <= sum c(v)^2 is checked.
    """
    edges = sorted(hflow.edge_paths)
    cross = 0.0
    sets = {
        e: [(frozenset(p), w) for p, w in hflow.edge_paths[e].items()]
        for e in edges
    }
    for i, e in enumerate(edges):
        for e2 in edges[i + 1:]:
            if len({e[0], e[1], e2[0], e2[1]}) != 4:
                continue
            for s1, w1 in sets[e]:
                for s2, w2 in sets[e2]:
                    if s1 & s2:
                        cross += w1 * w2
    c = congestion_map(hflow.aggregate())
    csq = float(np.dot(c, c))
    if cross > csq + 1e-9:
        raise RuntimeError(
            f"crossing mass {cross:.6g} exceeds l2 congestion {csq:.6g}"
        )
    return CrossingReport(cross=cross, congestion_l2_sq=csq)


def integral_rounding(hflow: HFlow, seed: int) -> HFlow:
    """Per demand edge, keep a single path drawn with probability
    proportional to its weight, at the full demand weight."""
    rounded = {}
    for e in sorted(hflow.edge_paths):
        bundle = hflow.edge_paths[e]
        paths = sorted(bundle)
        if not paths:
            rounded[e] = {}
            continue
        w = np.asarray([bundle[p] for p in paths])
        rng = substream(seed, "round", e[0], e[1])
        pick = int(rng.choice(len(paths), p=w / w.sum()))
        rounded[e] = {paths[pick]: hflow.demand_weight(e)}
    return HFlow(hflow.host, hflow.demand, hflow.host_map, rounded,
                 hflow.demand_weights)


# ---------------------------------------------------------------------------
# extremal spread

@dataclass(frozen=True)
class SpreadLPResult:
    omega: np.ndarray
    value: float
    p: float
    diagnostics: dict


def _require_connected(graph: Graph, what: str):
    if graph.n == 0:
        raise ValueError(f"{what} needs a nonempty graph")
    if len(connected_components(graph)) != 1:
        raise ValueError(f"{what} needs a connected graph")


def _require_small(graph: Graph, limit: float, what: str):
    if graph.n > limit:
        raise ValueError(f"refusing {what} for n={graph.n} > {limit}")


# one entry: an lp-round separation asks for its whole graph's LP twice,
# for its lp_value and for its first cut
@functools.lru_cache(maxsize=1)
def _cspread_lp_exact(graph: Graph) -> SpreadLPResult:
    # variables: omega (n) then d[u, v] for ordered pairs, row-major.
    # Maximizing the mean of d subject to per-source edge relaxations is
    # the exact LP for the p = 1 extremal metric: every d is pushed up
    # to the true conformal distance at the optimum.
    n = graph.n
    nvar = n + n * n
    eu, ev, _ = graph._structure()
    # a row per source u and direction (a, b) of every sorted edge,
    # forward then backward: d_u(b) - d_u(a) - (omega_a + omega_b)/2 <= 0
    a = np.tile(np.column_stack([eu, ev]).ravel(), n)
    b = np.tile(np.column_stack([ev, eu]).ravel(), n)
    nrel = a.size
    du = n + n * np.repeat(np.arange(n), nrel // n)
    # and a last row: the mean of omega is at most 1
    rows = np.concatenate([np.repeat(np.arange(nrel), 4), np.full(n, nrel)])
    cols = np.concatenate([np.column_stack([du + b, du + a, a, b]).ravel(),
                           np.arange(n)])
    vals = np.concatenate([np.tile([1.0, -1.0, -0.5, -0.5], nrel),
                           np.full(n, 1.0 / n)])
    a_ub = sp.csr_matrix((vals, (rows, cols)), shape=(nrel + 1, nvar))
    b_ub = np.zeros(nrel + 1)
    b_ub[-1] = 1.0

    c = np.zeros(nvar)
    c[n:] = -1.0 / (n * n)
    # d[u, u] is pinned at 0
    upper = np.full(nvar, np.inf)
    upper[n + np.arange(n) * (n + 1)] = 0.0
    bounds = np.column_stack([np.zeros(nvar), upper])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"extremal spread LP failed: {res.message}")
    omega = np.maximum(res.x[:n], 0.0)
    value = -res.fun
    realized = spread(dist_omega(graph, omega))
    diag = {
        "status": int(res.status),
        "lp_objective": float(value),
        "realized_spread": float(realized),
        "norm": float(omega.sum() / n),
    }
    if abs(realized - value) > 1e-6 * max(1.0, abs(value)):
        raise RuntimeError(
            f"LP value {value:.9g} disagrees with realized spread "
            f"{realized:.9g}"
        )
    omega.flags.writeable = False  # the cached result is shared
    return SpreadLPResult(omega=omega, value=float(realized), p=1.0,
                          diagnostics=diag)


def _cspread_l2(graph: Graph) -> SpreadLPResult:
    # every vertex ends n - 1 pairs, so c > shift and omega > 0
    n = graph.n
    shift = 0.5 * (n - 1)
    flow, diag = _min_norm_routing(graph, shift)
    excess = congestion_map(flow.aggregate()) - shift
    norm = float(np.linalg.norm(excess))
    omega = math.sqrt(n) * excess / norm
    realized = spread(dist_omega(graph, omega))
    upper = 2.0 * math.sqrt(n) * norm / (n * n)
    diag.update(upper_bound=upper, realized_spread=float(realized),
                norm=float(np.sqrt(np.dot(omega, omega) / n)))
    if abs(upper - realized) > 1e-6 * max(1.0, upper):
        raise RuntimeError(
            f"routing bound {upper:.9g} disagrees with realized spread "
            f"{realized:.9g}"
        )
    return SpreadLPResult(omega=omega, value=float(realized), p=2.0,
                          diagnostics=diag)


def cspread_lp(graph: Graph, p: float) -> SpreadLPResult:
    """Extremal conformal spread over weights with unit L^p norm.

    p = 1 solves the exact LP over joint (omega, distance) variables and
    raises ValueError for graphs with more than 54 vertices.  It keeps
    its last result: a second call on an equal graph returns the same
    object, whose ``omega`` is read-only.

    p = 2 is a min-norm routing problem.  A routing's cheapest path
    between u and v has d(u, v) = sum of omega over the path minus half
    of each endpoint weight, so n^2 * spread(omega) is the minimum over
    all-pairs routings of <omega, 2c - (n - 1)>, with c the congestion
    of the unordered pairs.  Exchanging max and min over the L^2 ball
    gives cspread_2 = (2 sqrt(n) / n^2) * min |c - (n - 1)/2|_2, found
    by the least-squares column generation of ``vcong_lp(graph, 2)``
    with its target shifted by (n - 1)/2.  The weights are
    omega = sqrt(n) * (c - (n - 1)/2) / |c - (n - 1)/2|_2, positive
    because every vertex ends n - 1 pairs.  ``value`` is their realized
    spread, a lower bound; ``diagnostics["upper_bound"]`` is the
    routing's bound, and RuntimeError is raised when the two differ by
    more than 1e-6 relative.  p = 2 raises ValueError for graphs with
    more than 93 vertices.
    """
    _require_connected(graph, "cspread_lp")
    _require_small(graph, {1: _P1_MAX_N, 2: _P2_MAX_N}.get(p, math.inf),
                   f"cspread_lp at p={p}")
    if graph.n == 1:
        return SpreadLPResult(omega=np.zeros(1), value=0.0, p=float(p),
                              diagnostics={"trivial": True})
    if p == 1:
        return _cspread_lp_exact(graph)
    if p == 2:
        return _cspread_l2(graph)
    raise ValueError("cspread_lp supports p in {1, 2}")


# ---------------------------------------------------------------------------
# vertex congestion

@dataclass(frozen=True)
class CongestionResult:
    value: float
    flow: HFlow
    p: float
    diagnostics: dict


def _seed_pool(graph: Graph) -> dict:
    """One-path pools per sorted demand (u, v), u < v: the fewest-vertex
    paths the pricing pass finds at unit prices with no threshold."""
    n = graph.n
    pool = {(u, v): [] for u in range(n) for v in range(u + 1, n)}
    _price_columns(graph, np.ones(n), np.full(len(pool), np.inf), pool)
    return pool


def _vcong_exact_l1(graph: Graph) -> CongestionResult:
    # separable objective: each demand independently takes a path with
    # the fewest vertices, so min-hop routing is exact for p = 1.
    hop_paths = {e: paths[0] for e, paths in _seed_pool(graph).items()}
    value = float(sum(len(p) for p in hop_paths.values()))
    flow = HFlow(graph, complete_graph(graph.n), tuple(range(graph.n)),
                 {e: {p: 1.0} for e, p in hop_paths.items()})
    return CongestionResult(value=value, flow=flow, p=1.0,
                            diagnostics={"routing": "min-hop"})


def _pool_matrices(graph: Graph, demands, pool):
    """Coverage (demand x column) and vertex incidence (vertex x column)
    as CSR matrices.  Columns run through the demands in order and each
    demand's pool in order; a column covers its demand once and each
    distinct vertex of its path once."""
    cols = [(e, p) for e in demands for p in pool[e]]
    k = len(cols)
    rows = np.repeat(np.arange(len(demands)), [len(pool[e]) for e in demands])
    cov = sp.csr_matrix((np.ones(k), (rows, np.arange(k))),
                        shape=(len(demands), k))
    lengths = [len(p) for _, p in cols]
    verts = np.fromiter((v for _, p in cols for v in p), dtype=np.intp,
                        count=sum(lengths))
    # one key per distinct (vertex, column), sorted row-major
    keys = np.unique(verts * k + np.repeat(np.arange(k), lengths))
    inc = sp.csr_matrix((np.ones(keys.size), (keys // k, keys % k)),
                        shape=(graph.n, k))
    return cols, cov, inc


def _repair_bundles(demands, pool, cols, weights, floor):
    """Collect positive column weights per demand and renormalize away
    the solver's last-digit slack so each bundle sums to one."""
    edge_paths: dict = {e: {} for e in demands}
    for (e, p), w in zip(cols, weights):
        if w > floor:
            edge_paths[e][p] = edge_paths[e].get(p, 0.0) + float(w)
    for e in demands:
        tot = sum(edge_paths[e].values())
        if not edge_paths[e]:
            edge_paths[e] = {pool[e][0]: 1.0}
        elif abs(tot - 1.0) > 1e-12:
            edge_paths[e] = {p: w / tot for p, w in edge_paths[e].items()}
    return edge_paths


def _price_columns(graph: Graph, z: np.ndarray, thresholds, pool) -> int:
    """Add to the pool every pair's cheapest path under vertex prices z
    whose cost, its conformal length plus half of each endpoint price,
    falls below the pair's threshold; returns how many paths were new.
    ``thresholds`` follows the sorted demands (u, v), u < v."""
    n = graph.n
    added = 0
    i = 0
    for u in range(n - 1):
        dist, pred = shortest_path_tree(graph, z, u)
        for v in range(u + 1, n):
            if float(dist[v]) + 0.5 * (z[u] + z[v]) < thresholds[i]:
                p = extract_path(pred, v)
                if p not in pool[(u, v)]:
                    pool[(u, v)].append(p)
                    added += 1
            i += 1
    return added


def _min_congestion_master(cols, cov, inc) -> tuple:
    """min t: every demand routes one unit over its columns and every
    vertex carries at most t.  Prices are the vertex duals, thresholds
    the demand duals less a tolerance."""
    n, k = inc.shape
    d = cov.shape[0]
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_eq = sp.hstack([cov, sp.csr_matrix((d, 1))], format="csr")
    a_ub = sp.hstack([inc, sp.csr_matrix(-np.ones((n, 1)))], format="csr")
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq,
                  b_eq=np.ones(d), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"congestion master LP failed: {res.message}")
    y = np.asarray(res.eqlin.marginals)
    z = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0)
    return res.x[:k], z, y - _PRICE_TOL, float(res.x[-1]), {}


def _passive_least_squares(inc, at, shift, demand, passive) -> np.ndarray:
    """Column weights minimizing |inc x - shift|_2 over the passive
    columns, each demand's summing to exactly one but of free sign.
    ``at`` is ``inc`` transposed and dense (a row per column).  The
    first passive column of each demand takes one minus the others, so
    the rest solve an unconstrained least squares in their differences
    from it: n rows, at most n independent columns."""
    idx = np.flatnonzero(passive)
    first = np.ones(idx.size, dtype=bool)
    first[1:] = demand[idx[1:]] != demand[idx[:-1]]
    refs, free = idx[first], idx[~first]
    group = np.cumsum(first)[~first] - 1
    w = np.zeros(at.shape[0])
    w[refs] = 1.0
    y = np.linalg.lstsq((at[free] - at[refs[group]]).T, shift - inc @ w,
                        rcond=None)[0]
    w[free] = y
    w[refs] -= np.bincount(group, weights=y, minlength=refs.size)
    return w


def _least_squares_master(shift: float):
    """min |inc x - shift|_2^2 over per-demand convex combinations, by the
    Lawson-Hanson (1974) primal active set with one simplex per demand.
    From the last round's weights (each demand's first pooled column in
    the first round) it adds the column of most negative reduced
    gradient (its gradient 2 a_j.(inc x - shift) less the least over the
    demand's passive columns), solves least squares on the passive set
    with the demand sums exact, and steps back to the first weight that
    would turn negative, dropping it.  It stops when no reduced gradient
    falls below -1e-9 of the largest gradient, so the column generation
    is fully corrective Frank-Wolfe over routings.
    Prices z = 2(inc x - shift), thresholds each demand's cheapest pooled
    column under z less a tolerance; ``master_iterations`` counts the
    least-squares solves of every call so far."""
    total_steps = 0
    last: dict = {}

    def master(cols, cov, inc) -> tuple:
        nonlocal total_steps, last
        at = inc.T.toarray()
        k = len(cols)
        # a demand's columns are one contiguous run: row i of cov
        starts = cov.indptr[:-1]
        demand = np.repeat(np.arange(starts.size), np.diff(cov.indptr))
        # pools only grow, so the last round's weights stay feasible
        x = np.array([last.get(col, 0.0) for col in cols])
        if not last:
            x[starts] = 1.0
        passive = x > 0
        steps = 0
        while True:
            g = 2.0 * (inc.T @ (inc @ x - shift))
            least = np.minimum.reduceat(np.where(passive, g, np.inf), starts)
            reduced = np.where(passive, 0.0, g - least[demand])
            j = int(np.argmin(reduced))
            if reduced[j] >= -_PRICE_TOL * max(1.0, float(np.abs(g).max())):
                break
            passive[j] = True
            while True:
                # Lawson and Hanson's iteration cap of three per variable
                steps += 1
                if steps > 3 * k:
                    raise RuntimeError(
                        f"least-squares master took over {3 * k} steps")
                w = _passive_least_squares(inc, at, shift, demand,
                                           passive)
                blocked = np.flatnonzero(passive & (w <= 0.0))
                if blocked.size == 0:
                    x = w
                    break
                ratios = np.divide(x[blocked], x[blocked] - w[blocked],
                                   out=np.zeros(blocked.size),
                                   where=x[blocked] > 0.0)
                x += ratios.min() * (w - x)
                x[blocked[np.argmin(ratios)]] = 0.0
                passive &= x > 0.0
                x[~passive] = 0.0
        total_steps += steps
        last = {col: weight for col, weight in zip(cols, x) if weight > 0}
        viol = float(np.max(np.abs(cov @ x - 1.0)))
        if viol > 1e-6:
            raise RuntimeError(
                f"congestion QP master infeasible by {viol:.3g}"
            )
        residual = inc @ x - shift
        z = 2.0 * residual
        # summed in set order, as congestion_map charges a path
        costs = np.array([float(sum(z[v] for v in set(p))) for _, p in cols])
        kappa = np.minimum.reduceat(costs, starts)
        return (x, z, kappa - 1e-7 * np.maximum(1.0, kappa),
                float(np.dot(residual, residual)),
                {"master_iterations": total_steps})
    return master


def _column_generation(graph: Graph, master, max_rounds: int,
                       floor: float) -> tuple:
    """(flow, diagnostics, last objective, last prices) of an all-pairs
    routing by column generation from the seed pool.  Each round
    ``master(cols, cov, inc)`` returns column weights, vertex prices,
    per-demand thresholds, its objective and its diagnostics; pricing
    adds every pair's cheapest path under its threshold, until none or
    ``max_rounds`` rounds.  Weights at or below ``floor`` are dropped."""
    n = graph.n
    pool = _seed_pool(graph)
    demands = list(pool)
    diag = {"rounds": 0, "columns": 0}
    while True:
        diag["rounds"] += 1
        cols, cov, inc = _pool_matrices(graph, demands, pool)
        x, z, thresholds, objective, report = master(cols, cov, inc)
        if (diag["rounds"] >= max_rounds
                or _price_columns(graph, z, thresholds, pool) == 0):
            diag.update(columns=len(cols), **report)
            flow = HFlow(graph, complete_graph(n), tuple(range(n)),
                         _repair_bundles(demands, pool, cols, x, floor))
            return flow, diag, objective, z


def _min_norm_routing(graph: Graph, shift: float) -> tuple:
    """Flow and diagnostics of the all-pairs routing whose congestion c
    minimizes |c - shift|_2: vcong_2 at shift 0, cspread_2 at (n-1)/2."""
    flow, diag, _, _ = _column_generation(
        graph, _least_squares_master(shift), max_rounds=60, floor=1e-9)
    return flow, diag


def _vcong_inf(graph: Graph) -> tuple:
    """The p = inf branch of ``vcong_lp`` on a connected graph of two or
    more vertices, with the vertex prices of the last min-t master."""
    flow, diag, value, z = _column_generation(
        graph, _min_congestion_master, max_rounds=200, floor=1e-12)
    return CongestionResult(value=value, flow=flow, p=math.inf,
                            diagnostics=diag), z


def vcong_lp(graph: Graph, p: float) -> CongestionResult:
    """All-pairs vertex congestion minimizing the l_p congestion norm.

    All p seed each pair with a fewest-vertex path, which p = 1 keeps
    (the separable exact optimum).  p = inf and p = 2 run one column
    generation from that seed pool with one master each, the min-t LP
    and least squares; the shared pricing pass adds every pair's
    cheapest path under the master's vertex prices (the LP duals at
    p = inf, 2c at p = 2) that undercuts the pair's threshold (its
    demand dual, its cheapest pooled path).  The p = 2 master is the one
    ``cspread_lp(graph, 2)`` runs with its target shifted.  p = 2 raises
    ValueError for graphs with more than 93 vertices.
    """
    _require_connected(graph, "vcong_lp")
    if p == 2:
        _require_small(graph, _P2_MAX_N, "vcong_lp at p=2")
    if graph.n == 1:
        flow = HFlow(graph, complete_graph(1), (0,), {})
        return CongestionResult(value=0.0, flow=flow, p=float(p),
                                diagnostics={"trivial": True})
    if p == 1:
        return _vcong_exact_l1(graph)
    if p == math.inf:
        return _vcong_inf(graph)[0]
    if p != 2:
        raise ValueError("vcong_lp supports p in {1, 2, inf}")
    flow, diag = _min_norm_routing(graph, 0.0)
    value = float(np.linalg.norm(congestion_map(flow.aggregate())))
    return CongestionResult(value=value, flow=flow, p=2.0, diagnostics=diag)


# ---------------------------------------------------------------------------
# duality

@dataclass(frozen=True)
class DualityReport:
    p: float
    q: float
    vcong: float
    cspread: float
    literal_rhs: float
    corrected_rhs: float
    literal_rel_gap: float
    corrected_rel_gap: float
    ok: bool
    note: str


_CONVENTION_NOTE = (
    "The identity vcong_p = n^(2-1/q) * cspread_q does not hold verbatim "
    "under this module's conventions (endpoints congest at full weight, "
    "the pair average includes both orders and the diagonal): the LP "
    "dual of the congestion program prices a path at its conformal "
    "length plus half of each endpoint weight.  The corrected right-hand "
    "side keeps that endpoint term; the literal form coincides with it "
    "on complete graphs."
)


def _l2_dual_bound(graph: Graph, congestion: np.ndarray) -> float:
    """The dual objective of min |c|_2 at z = c / |c|_2: the total cost
    of cheapest paths, one per unordered pair, where a path costs its
    conformal length plus half of each endpoint weight.  Every such z is
    dual feasible, so this is a lower bound on vcong_2 by weak duality,
    tight exactly when the routing with congestion c is optimal."""
    norm = float(np.linalg.norm(congestion))
    if norm == 0:
        return 0.0
    z = congestion / norm
    total = float(dist_omega(graph, z).matrix().sum())
    return 0.5 * total + 0.5 * (graph.n - 1) * float(z.sum())


def _cspread1_from_prices(graph: Graph, congestion: float,
                          z: np.ndarray) -> float:
    """cspread_1 from the vertex prices z of the last p = inf master.
    Once pricing stops, no pair has a path cheaper than its demand dual,
    so the mean-one weight omega = n z / sum(z) is extremal.  Its
    realized spread is a lower bound on cspread_1 and the routing's
    (2C - n + 1) / n an upper bound, C its congestion; RuntimeError when
    the prices sum to zero or the lower bound passes the upper beyond
    1e-9 relative, which weak duality forbids."""
    n = graph.n
    total = float(z.sum())
    if not total > 0.0:
        raise RuntimeError(f"p=inf master prices sum to {total:.3g}")
    realized = spread(dist_omega(graph, n * z / total))
    upper = (2.0 * congestion - n + 1) / n
    if realized > upper + 1e-9 * max(1.0, abs(upper)):
        raise RuntimeError(
            f"realized spread {realized:.9g} exceeds the routing bound "
            f"{upper:.9g}"
        )
    return float(realized)


def check_duality(graph: Graph, p: float,
                  q: float | None = None) -> DualityReport:
    """Evaluate both sides of the congestion / extremal-spread duality.

    q defaults to the conjugate exponent of p and must equal it when
    given.  For p = inf the corrected identity is
    vcong = (n * cspread_1 + (n - 1)) / 2, exact by LP duality, and one
    column generation gives both sides: vcong is its min-t routing and
    cspread_1 the realized spread of the last master's vertex prices,
    normalized to mean one and checked against the routing's bound
    (graphs above 54 vertices raise ValueError, which keeps that column
    generation to seconds).  p = 1 uses the same correction at q = inf,
    where the extremal weight is uniform and everything is in closed
    form.  For p = 2 the corrected value is the dual objective at
    z = c / |c|_2, where c is the congestion of the routing
    ``vcong_lp(graph, 2)`` returns: a lower bound on vcong_2 by weak
    duality, tight exactly when that routing is optimal, so a suboptimal
    routing shows up as a gap (and graphs above 93 vertices raise
    ValueError, as in ``vcong_lp``).
    ``ok`` compares vcong against the corrected value.
    """
    _require_connected(graph, "check_duality")
    conjugate = {math.inf: 1.0, 1: math.inf, 2: 2.0}
    if p not in conjugate:
        raise ValueError("check_duality supports p in {1, 2, inf}")
    if q is not None and q != conjugate[p]:
        raise ValueError(f"q must be the conjugate exponent of p={p}")
    n = graph.n
    if p == math.inf:
        q = 1.0
        # the column generation's time sets the cap: refuse before it
        _require_small(graph, _P1_MAX_N, "check_duality at p=inf")
        if n == 1:
            vres, cs = vcong_lp(graph, math.inf), 0.0
        else:
            vres, z = _vcong_inf(graph)
            cs = _cspread1_from_prices(graph, vres.value, z)
        literal = n ** (2.0 - 1.0 / q) * cs
        corrected = (n * cs + (n - 1)) / 2.0
        tol = 1e-4
    elif p == 1:
        q = math.inf
        vres = vcong_lp(graph, 1)
        # the L^inf unit ball caps omega at 1 pointwise and spread is
        # monotone in omega, so the extremal weight is uniform
        cs = spread(dist_omega(graph, np.ones(n))) if n > 1 else 0.0
        literal = n ** 2.0 * cs
        corrected = (n * n * cs + n * (n - 1)) / 2.0
        tol = 1e-6
    else:
        q = 2.0
        vres = vcong_lp(graph, 2)
        cs = cspread_lp(graph, 2).value
        literal = n ** 1.5 * cs
        corrected = _l2_dual_bound(
            graph, congestion_map(vres.flow.aggregate()))
        tol = 1e-4
    vc = vres.value
    scale = max(1.0, abs(vc))
    literal_gap = abs(vc - literal) / scale
    corrected_gap = abs(vc - corrected) / scale
    return DualityReport(
        p=float(p), q=q, vcong=float(vc), cspread=float(cs),
        literal_rhs=float(literal), corrected_rhs=float(corrected),
        literal_rel_gap=float(literal_gap),
        corrected_rel_gap=float(corrected_gap),
        ok=bool(corrected_gap <= tol),
        note=_CONVENTION_NOTE,
    )


# ---------------------------------------------------------------------------
# transfer to the base graph

def _hop_subpath(graph: Graph, inside, a: int, b: int) -> tuple:
    """Fewest-hop path from a to b staying inside the given region."""
    view = induced_subgraph(graph, inside)
    local = view.graph
    dist, pred = shortest_path_tree(local, np.ones(local.n),
                                    view.to_local(a))
    lb = view.to_local(b)
    if lb not in dist:
        raise ValueError(f"no path from {a} to {b} inside the region")
    return tuple(view.to_parent(v) for v in extract_path(pred, lb))


def _collapse(seq) -> tuple:
    out: list = []
    for v in seq:
        if not out or out[-1] != v:
            out.append(v)
    return tuple(out)


def rig_flow_transfer(rig: Graph, assign: RegionAssignment,
                      flow: HFlow) -> HFlow:
    """Push a flow on the intersection graph down to its base graph.

    Each region vertex lands on its smallest base vertex; a step
    between adjacent regions routes through the smallest shared base
    vertex, with fewest-hop subpaths inside each region.  The crossing
    number of the transferred flow is checked against the chain
    cross <= sum_u c(u)^2 + sum over intersection-graph edges
    (c_u + c_v)^2 <= (4m + n) * max c^2, where c is the congestion of
    the *original* flow and m, n count the intersection graph.
    """
    if rig.n != assign.k:
        raise ValueError("graph does not match the region count")
    if flow.host is not rig and (flow.host.n != rig.n
                                 or flow.host.edges != rig.edges):
        raise ValueError("flow host differs from the given graph")
    base = assign.base
    anchors = distinguished_vertices(assign)
    masks = [set(r) for r in assign.regions]

    sub_cache: dict = {}

    def region_walk(r: int, a: int, b: int) -> tuple:
        key = (r, a, b)
        if key not in sub_cache:
            sub_cache[key] = _hop_subpath(base, assign.regions[r], a, b)
        return sub_cache[key]

    new_paths = {}
    for e in sorted(flow.edge_paths):
        bundle: dict = {}
        for path, w in flow.edge_paths[e].items():
            pieces = [(anchors[path[0]],)]
            for v, nxt in zip(path, path[1:]):
                shared = masks[v] & masks[nxt]
                if not shared:
                    raise ValueError(f"regions {v} and {nxt} do not intersect")
                contact = min(shared)
                pieces.append(region_walk(v, anchors[v], contact))
                pieces.append(region_walk(nxt, contact, anchors[nxt]))
            flat = _collapse(x for piece in pieces for x in piece)
            bundle[flat] = bundle.get(flat, 0.0) + w
        new_paths[e] = bundle
    host_map = tuple(anchors[v] for v in flow.host_map)
    out = HFlow(base, flow.demand, host_map, new_paths, flow.demand_weights)

    report = crossing_congestion(out)
    c = congestion_map(flow.aggregate())
    edge_term = float(sum((c[u] + c[v]) ** 2 for u, v in rig.edges))
    middle = float(np.dot(c, c)) + edge_term
    top = (4.0 * rig.m + rig.n) * float(np.max(c, initial=0.0)) ** 2
    if report.cross > middle + 1e-9 or middle > top + 1e-9:
        raise RuntimeError(
            f"transfer congestion chain violated: {report.cross:.6g} "
            f"<= {middle:.6g} <= {top:.6g}"
        )
    return out
