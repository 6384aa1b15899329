"""Multicommodity vertex congestion, extremal spread and their duality.

Routings are path-based: a flow assigns weighted vertex paths to each
demand pair, congestion charges every vertex on a path its full weight
(a zero-length path charges its single vertex), and the all-pairs
vertex congestion vcong_p minimizes the l_p norm of the congestion
vector.  The extremal spread cspread_q maximizes the average pairwise
distance over conformal weights with unit L^q norm.  The two are tied
by LP duality; ``check_duality`` evaluates both sides and reports the
literal textbook form next to the convention-corrected one.

At p = 2 both sides are one least-squares column generation over the
all-pairs routings: vcong_2 = min |c|_2 and
cspread_2 = (2 sqrt(n) / n^2) * min |c - (n - 1)/2|_2 over routing
congestions c (see ``cspread_lp``).  The extremal weights come from the
optimal routing, and their realized spread must meet its bound.  The
corrected side of the p = 2 duality is the weak-duality bound at the
primal's own normalized congestion, so its gap certifies the routing.
The p = 2 programs refuse graphs above 24 vertices and the p = 1
spread LP graphs above 200, rather than start solves of many minutes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, minimize

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
# largest n the p = 1 spread LP accepts: it has n + n^2 variables and
# 2mn + 1 rows, and lp-round falls back to a spectral cut above it
_P1_MAX_N = 200
# largest n the p = 2 solvers accept: on a 2-vCPU host G(24, p) takes
# 3-9 s for vcong_2 and 3-15 s for cspread_2, G(30, p) over a minute
_P2_MAX_N = 24


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


def _cspread_lp_exact(graph: Graph) -> SpreadLPResult:
    # variables: omega (n) then d[u, v] for ordered pairs, row-major.
    # Maximizing the mean of d subject to per-source edge relaxations is
    # the exact LP for the p = 1 extremal metric: every d is pushed up
    # to the true conformal distance at the optimum.
    n = graph.n
    nvar = n + n * n
    rows_i: list = []
    cols_i: list = []
    vals: list = []
    nrows = 0

    def dvar(u, v):
        return n + u * n + v

    for u in range(n):
        for a0, b0 in graph.edges:
            for a, b in ((a0, b0), (b0, a0)):
                # d_u(b) - d_u(a) - (omega_a + omega_b)/2 <= 0
                rows_i += [nrows, nrows, nrows, nrows]
                cols_i += [dvar(u, b), dvar(u, a), a, b]
                vals += [1.0, -1.0, -0.5, -0.5]
                nrows += 1
    norm_row = nrows
    for v in range(n):
        rows_i.append(norm_row)
        cols_i.append(v)
        vals.append(1.0 / n)
    nrows += 1
    a_ub = sp.csr_matrix((vals, (rows_i, cols_i)), shape=(nrows, nvar))
    b_ub = np.zeros(nrows)
    b_ub[norm_row] = 1.0

    c = np.zeros(nvar)
    c[n:] = -1.0 / (n * n)
    bounds = [(0, None)] * nvar
    for u in range(n):
        bounds[dvar(u, u)] = (0, 0)
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
    raises ValueError for graphs with more than 200 vertices.

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
    more than 24 vertices.
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


def _min_hop_paths(graph: Graph):
    ones = np.ones(graph.n)
    paths = {}
    for u in range(graph.n):
        _, pred = shortest_path_tree(graph, ones, u)
        for v in range(u + 1, graph.n):
            paths[(u, v)] = extract_path(pred, v)
    return paths


def _vcong_exact_l1(graph: Graph) -> CongestionResult:
    # separable objective: each demand independently takes a path with
    # the fewest vertices, so min-hop routing is exact for p = 1.
    hop_paths = _min_hop_paths(graph)
    value = float(sum(len(p) for p in hop_paths.values()))
    flow = HFlow(graph, complete_graph(graph.n), tuple(range(graph.n)),
                 {e: {p: 1.0} for e, p in hop_paths.items()})
    return CongestionResult(value=value, flow=flow, p=1.0,
                            diagnostics={"routing": "min-hop"})


def _pool_matrices(graph: Graph, demands, pool):
    """Coverage (demand x column) and vertex incidence (vertex x column)."""
    cols = []
    for e in demands:
        for p in pool[e]:
            cols.append((e, p))
    cov = sp.lil_matrix((len(demands), len(cols)))
    inc = sp.lil_matrix((graph.n, len(cols)))
    dindex = {e: i for i, e in enumerate(demands)}
    for j, (e, p) in enumerate(cols):
        cov[dindex[e], j] = 1.0
        for v in set(p):
            inc[v, j] = 1.0
    return cols, cov.tocsr(), inc.tocsr()


def _repair_bundles(demands, pool, cols, weights, floor=1e-12):
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


def _vcong_cg_linf(graph: Graph, max_rounds: int = 200) -> CongestionResult:
    n = graph.n
    base = _min_hop_paths(graph)
    demands = sorted(base)
    pool = {e: [p] for e, p in base.items()}
    diag = {"rounds": 0, "columns": 0}
    while True:
        diag["rounds"] += 1
        cols, cov, inc = _pool_matrices(graph, demands, pool)
        k = len(cols)
        c = np.zeros(k + 1)
        c[-1] = 1.0
        a_eq = sp.hstack([cov, sp.csr_matrix((len(demands), 1))],
                         format="csr")
        a_ub = sp.hstack([inc, sp.csr_matrix(-np.ones((n, 1)))],
                         format="csr")
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq,
                      b_eq=np.ones(len(demands)), bounds=(0, None),
                      method="highs")
        if not res.success:
            raise RuntimeError(f"congestion master LP failed: {res.message}")
        y = np.asarray(res.eqlin.marginals)
        z = np.maximum(-np.asarray(res.ineqlin.marginals), 0.0)
        added = 0
        if diag["rounds"] < max_rounds:
            added = _price_columns(graph, z, y - _PRICE_TOL, pool)
        if added == 0:
            diag["columns"] = k
            edge_paths = _repair_bundles(demands, pool, cols, res.x[:k])
            flow = HFlow(graph, complete_graph(n), tuple(range(n)),
                         edge_paths)
            return CongestionResult(value=float(res.x[-1]), flow=flow,
                                    p=math.inf, diagnostics=diag)


def _min_norm_routing(graph: Graph, shift: float,
                      max_rounds: int = 60) -> tuple:
    """All-pairs routing whose congestion c minimizes |c - shift|_2, by
    column generation against a least-squares master; returns the flow
    and the diagnostics.  Shift 0 is vcong_2, shift (n - 1)/2 cspread_2."""
    n = graph.n
    base = _min_hop_paths(graph)
    demands = sorted(base)
    pool = {e: [p] for e, p in base.items()}
    diag = {"rounds": 0, "columns": 0}
    while True:
        diag["rounds"] += 1
        cols, cov, inc = _pool_matrices(graph, demands, pool)
        k = len(cols)
        inc_d = inc.toarray()
        cov_d = cov.toarray()

        def objective(x):
            c = inc_d @ x - shift
            return float(np.dot(c, c))

        def gradient(x):
            return 2.0 * (inc_d.T @ (inc_d @ x - shift))

        x0 = np.empty(k)
        for j, (e, _) in enumerate(cols):
            x0[j] = 1.0 / len(pool[e])
        res = minimize(objective, x0, jac=gradient, method="SLSQP",
                       bounds=[(0, None)] * k,
                       constraints=[{"type": "eq",
                                     "fun": lambda x: cov_d @ x - 1.0,
                                     "jac": lambda x: cov_d}],
                       options={"maxiter": 400, "ftol": 1e-12})
        x = np.maximum(res.x, 0.0)
        viol = float(np.max(np.abs(cov_d @ x - 1.0)))
        if viol > 1e-6:
            raise RuntimeError(
                f"congestion QP master infeasible by {viol:.3g}"
            )
        z = 2.0 * (inc_d @ x - shift)
        added = 0
        if diag["rounds"] < max_rounds:
            kappa: dict = {}
            for (e, p) in cols:
                cost = float(sum(z[v] for v in set(p)))
                if e not in kappa or cost < kappa[e]:
                    kappa[e] = cost
            thresholds = [kappa[e] - 1e-7 * max(1.0, kappa[e])
                          for e in demands]
            added = _price_columns(graph, z, thresholds, pool)
        if added == 0:
            diag["columns"] = k
            diag["master_status"] = int(res.status)
            edge_paths = _repair_bundles(demands, pool, cols, x, floor=1e-9)
            flow = HFlow(graph, complete_graph(n), tuple(range(n)),
                         edge_paths)
            return flow, diag


def vcong_lp(graph: Graph, p: float) -> CongestionResult:
    """All-pairs vertex congestion minimizing the l_p congestion norm.

    p = 1 routes every pair along a fewest-vertex path (the separable
    exact optimum).  p = inf and p = 2 run column generation against
    the min-t LP and the least-squares master: each round adds every
    pair's cheapest path under the master's vertex prices (the LP duals
    at p = inf, 2c at p = 2) that undercuts the pair's current price
    (its demand dual at p = inf, its cheapest pooled path at p = 2).
    The p = 2 master is the one ``cspread_lp(graph, 2)`` runs with its
    target shifted.  p = 2 raises ValueError for graphs with more than
    24 vertices.
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
        return _vcong_cg_linf(graph)
    if p == 2:
        flow, diag = _min_norm_routing(graph, 0.0)
        value = float(np.linalg.norm(congestion_map(flow.aggregate())))
        return CongestionResult(value=value, flow=flow, p=2.0,
                                diagnostics=diag)
    raise ValueError("vcong_lp supports p in {1, 2, inf}")


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


def check_duality(graph: Graph, p: float,
                  q: float | None = None) -> DualityReport:
    """Evaluate both sides of the congestion / extremal-spread duality.

    q defaults to the conjugate exponent of p and must equal it when
    given.  For p = inf the corrected identity is
    vcong = (n * cspread_1 + (n - 1)) / 2, exact by LP duality (graphs
    above 200 vertices raise ValueError, as in ``cspread_lp``); p = 1
    uses the same correction at q = inf, where the extremal weight is
    uniform and everything is in closed form.  For p = 2 the corrected
    value is the dual objective at z = c / |c|_2, where c is the
    congestion of the routing ``vcong_lp(graph, 2)`` returns: a lower
    bound on vcong_2 by weak duality, tight exactly when that routing is
    optimal, so a suboptimal routing shows up as a gap (and graphs above
    24 vertices raise ValueError, as in ``vcong_lp``).
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
        # the p = 1 spread LP is the side that cannot scale: refuse first
        _require_small(graph, _P1_MAX_N, "check_duality at p=inf")
        vres = vcong_lp(graph, math.inf)
        cs = cspread_lp(graph, 1).value
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
