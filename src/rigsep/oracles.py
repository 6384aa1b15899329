"""Brute-force ground truth on small instances.

Everything here is exhaustive or grid-certified and deliberately
independent of the LP / randomized machinery it is used to check:
vertex expansion and balanced separators by subset enumeration, minor
and exact-adjacency minor search over branch sets, and extremal spread
by simplex grid plus local refinement.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _check_mu, dist_omega, spread, subdivision

__all__ = [
    "MinorWitness",
    "vertex_expansion_exact",
    "min_balanced_separator_exact",
    "has_minor_exact",
    "has_strict_minor_exact",
    "has_careful_minor_exact",
    "careful_witness_violations",
    "validate_careful_witness",
    "cspread_exact_small",
]


# ---------------------------------------------------------------------------
# vertex expansion

def vertex_expansion_exact(graph: Graph, mu=None, *, max_n: int = 20):
    """Minimum boundary-to-size ratio over sets with small interior.

    Feasible sets are nonempty U whose interior (vertices of U with no
    neighbor outside) carries at most half the total measure.  Returns
    (phi, witness U); (inf, ()) when no set is feasible (single vertex).
    """
    n = graph.n
    if n > max_n:
        raise ValueError(f"refusing exhaustive enumeration for n={n} > {max_n}")
    w = _check_mu(graph, mu)
    half = w.sum() / 2.0

    adj = np.array(graph.adjacency_masks(), dtype=np.uint64)
    full = np.uint64((1 << n) - 1)
    best = math.inf
    best_mask = 0
    chunk = 1 << 18
    for start in range(1, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        masks = np.arange(start, stop, dtype=np.uint64)
        mu_u = np.zeros(masks.shape)
        mu_b = np.zeros(masks.shape)
        for v in range(n):
            in_u = (masks >> np.uint64(v)) & np.uint64(1)
            has_out = (adj[v] & (masks ^ full)) != 0
            on_boundary = in_u.astype(bool) & has_out
            mu_u += w[v] * in_u
            mu_b += w[v] * on_boundary
        feasible = (mu_u - mu_b) <= half
        feasible &= mu_u > 0
        if not feasible.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(feasible, mu_b / mu_u, np.inf)
        k = int(np.argmin(ratio))
        if ratio[k] < best:
            best = float(ratio[k])
            best_mask = int(masks[k])
    witness = tuple(v for v in range(n) if best_mask >> v & 1)
    return best, witness


def _components_mask(adj, mask):
    comps = []
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        seen = 1 << v
        frontier = seen
        while frontier:
            grow = 0
            f = frontier
            while f:
                u = (f & -f).bit_length() - 1
                f &= f - 1
                grow |= adj[u] & rest
            frontier = grow & ~seen
            seen |= grow
        comps.append(seen & rest)
        rest &= ~seen
    return comps


def min_balanced_separator_exact(graph: Graph, mu=None, *, max_n: int = 18):
    """Smallest S leaving every component at most 2/3 of the total measure."""
    n = graph.n
    if n > max_n:
        raise ValueError(f"refusing exhaustive search for n={n} > {max_n}")
    w = _check_mu(graph, mu).tolist()
    total = sum(w)
    adj = [int(m) for m in graph.adjacency_masks()]

    def mass(mask):
        s = 0.0
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            s += w[v]
        return s

    limit = 2.0 * total / 3.0 + 1e-12
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            smask = 0
            for v in combo:
                smask |= 1 << v
            rest = ((1 << n) - 1) & ~smask
            if all(mass(c) <= limit for c in _components_mask(adj, rest)):
                return size, combo
    raise RuntimeError("unreachable: removing all vertices is always balanced")


# ---------------------------------------------------------------------------
# minors

@dataclass(frozen=True)
class MinorWitness:
    """Branch sets certifying a (possibly exact-adjacency) minor."""

    supernodes: tuple  # minor vertex -> tuple of host vertices
    strict: bool = False


def _connected_submasks(adj, universe):
    out = []
    sub = universe
    while True:
        if sub and len(_components_mask(adj, sub)) == 1:
            out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & universe
    return out


def _neighbor_mask(adj, mask):
    out = 0
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        out |= adj[v]
    return out


def _search_minor(host: Graph, minor: Graph, strict: bool):
    nh, nm = host.n, minor.n
    if nm == 0:
        return MinorWitness((), strict)
    if nh < nm or (not strict and host.m < minor.m):
        return None
    adj = [int(m) for m in host.adjacency_masks()]
    full = (1 << nh) - 1
    order = sorted(range(nm), key=lambda v: (-minor.degree(v), v))
    # candidate branch sets, small first so witnesses surface early
    all_conn = sorted(_connected_submasks(adj, full), key=lambda m: m.bit_count())
    nbr_of = {cand: _neighbor_mask(adj, cand) for cand in all_conn}
    outdeg = {cand: (nbr_of[cand] & ~cand).bit_count() for cand in all_conn}

    assigned_masks = [0] * nm
    assigned_nbrs = [0] * nm

    def place(idx, used):
        if idx == nm:
            return True
        hv = order[idx]
        needed = nm - idx - 1
        deg_hv = minor.degree(hv)
        for cand in all_conn:
            if cand & used:
                continue
            # each minor edge at hv needs a host edge into a disjoint set
            if outdeg[cand] < deg_hv:
                continue
            if nh - (used | cand).bit_count() < needed:
                continue
            ok = True
            for j in range(idx):
                hu = order[j]
                touches = bool(assigned_nbrs[hu] & cand)
                if minor.has_edge(hu, hv):
                    if not touches:
                        ok = False
                        break
                elif strict and touches:
                    ok = False
                    break
            if not ok:
                continue
            assigned_masks[hv] = cand
            assigned_nbrs[hv] = nbr_of[cand]
            if place(idx + 1, used | cand):
                return True
        assigned_masks[hv] = 0
        assigned_nbrs[hv] = 0
        return False

    if place(0, 0):
        supernodes = tuple(
            tuple(v for v in range(nh) if assigned_masks[u] >> v & 1)
            for u in range(nm)
        )
        return MinorWitness(supernodes, strict)
    return None


def _minor_query(host: Graph, minor: Graph, strict: bool,
                 max_host: int, max_minor: int):
    if host.n > max_host or minor.n > max_minor:
        raise ValueError(
            f"minor search limited to hosts with {max_host} and minors with "
            f"{max_minor} vertices (got {host.n}, {minor.n})"
        )
    return _search_minor(host, minor, strict)


def has_minor_exact(graph: Graph, minor: Graph, *,
                    max_host: int = 10, max_minor: int = 5):
    """Witness branch sets for ``minor`` inside ``graph``, or None."""
    return _minor_query(graph, minor, False, max_host, max_minor)


def has_strict_minor_exact(graph: Graph, minor: Graph, *,
                           max_host: int = 12, max_minor: int = 12):
    """Branch-set witness with exact adjacency (edges and non-edges)."""
    return _minor_query(graph, minor, True, max_host, max_minor)


def has_careful_minor_exact(graph: Graph, minor: Graph, *,
                            max_host: int = 12):
    """H is carefully contained iff its subdivision is an exact minor."""
    dot = subdivision(minor)
    return has_strict_minor_exact(
        graph, dot, max_host=max_host, max_minor=max(dot.n, 1)
    )


# ---------------------------------------------------------------------------
# careful-minor witness validation

def careful_witness_violations(graph: Graph, minor: Graph, b_sets, w_map):
    """List every violated condition of a careful-minor witness.

    ``b_sets`` maps minor vertices to host vertex sets; ``w_map`` maps
    minor edges (u,v) to a single host vertex.  Conditions: the B_u are
    disjoint, connected, and pairwise non-adjacent; the w vertices are
    distinct, disjoint from the B's, and independent; and each w_{uv}
    has host edges exactly into B_u and B_v.
    """
    from .graph import connected_components

    out = []
    b = {u: tuple(sorted(set(vs))) for u, vs in b_sets.items()}
    if set(b) != set(range(minor.n)):
        out.append("B sets must cover exactly the minor's vertices")
        return out
    flat = [v for vs in b.values() for v in vs]
    if len(flat) != len(set(flat)):
        out.append("B sets are not pairwise disjoint")
    for u, vs in b.items():
        if not vs:
            out.append(f"B_{u} is empty")
        elif len(connected_components(graph, subset=vs)) != 1:
            out.append(f"B_{u} is not connected")
    bsets = {u: set(vs) for u, vs in b.items()}
    for u in range(minor.n):
        for v in range(u + 1, minor.n):
            if any(
                graph.has_edge(x, y) for x in bsets[u] for y in bsets[v]
            ):
                out.append(f"B_{u} and B_{v} are adjacent in the host")

    edges = {tuple(sorted(e)): w for e, w in w_map.items()}
    if set(edges) != set(minor.edges):
        out.append("w vertices must cover exactly the minor's edges")
        return out
    wvals = list(edges.values())
    if len(wvals) != len(set(wvals)):
        out.append("w vertices are not distinct")
    used = set(flat)
    for e, wv in edges.items():
        if wv in used:
            out.append(f"w_{e} lies inside a B set")
    for (e1, w1), (e2, w2) in itertools.combinations(edges.items(), 2):
        if graph.has_edge(w1, w2):
            out.append(f"w_{e1} and w_{e2} are adjacent (W not independent)")
    for e, wv in edges.items():
        for u in range(minor.n):
            touches = any(graph.has_edge(wv, x) for x in bsets[u])
            if u in e and not touches:
                out.append(f"w_{e} has no edge into B_{u}")
            if u not in e and touches:
                out.append(f"w_{e} touches B_{u} but {u} is not an endpoint")
    return out


def validate_careful_witness(graph: Graph, minor: Graph, b_sets, w_map) -> bool:
    return not careful_witness_violations(graph, minor, b_sets, w_map)


# ---------------------------------------------------------------------------
# extremal spread by grid + refinement

def _norm_scale(omega, p, n):
    if p == 1:
        norm = float(np.sum(omega)) / n
    elif p == 2:
        norm = math.sqrt(float(np.sum(omega ** 2)) / n)
    else:
        raise ValueError("p must be 1 or 2")
    return norm


def cspread_exact_small(graph: Graph, p: int = 1, *, max_n: int = 6,
                        grid: int = 8) -> float:
    """Certified maximum average pairwise distance at unit weight norm.

    Grid search over weight profiles followed by pairwise mass-transfer
    hill climbing; the objective is concave, so local refinement of the
    best grid point converges to the optimum.
    """
    n = graph.n
    if n > max_n:
        raise ValueError(f"refusing grid certification for n={n} > {max_n}")
    if n == 1:
        return 0.0

    def value(omega):
        norm = _norm_scale(omega, p, n)
        if norm <= 0:
            return 0.0
        return spread(dist_omega(graph, omega / norm))

    best_val = -1.0
    best_omega = None
    for bars in itertools.combinations(range(grid + n - 1), n - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(grid + n - 2 - prev)
        omega = np.array(parts, dtype=float)
        if omega.sum() == 0:
            continue
        val = value(omega)
        if val > best_val:
            best_val = val
            best_omega = omega

    omega = best_omega / max(_norm_scale(best_omega, p, n), 1e-300)
    step = float(n) / grid
    while step > 1e-7:
        improved = True
        while improved:
            improved = False
            for i in range(n):
                for j in range(n):
                    if i == j or omega[i] <= 0:
                        continue
                    trial = omega.copy()
                    d = min(step, trial[i])
                    trial[i] -= d
                    trial[j] += d
                    val = value(trial)
                    if val > best_val + 1e-13:
                        best_val = val
                        norm = _norm_scale(trial, p, n)
                        omega = trial / norm
                        improved = True
        step /= 2.0
    return best_val
