"""Region intersection graphs.

A region assignment pins one connected subset of a base graph to every
rig vertex; two rig vertices are adjacent exactly when their regions
share a base vertex.  Every graph is such an intersection graph over its
own subdivision, which gives a canonical round-trip used heavily in
tests and in the flow transfer.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import csgraph as _csgraph

from .graph import (
    Graph,
    _csr,
    graph_from_json_dict,
    graph_to_json_dict,
    subdivision,
)

__all__ = [
    "RegionAssignment",
    "build_rig",
    "rig_over_subdivision",
    "distinguished_vertices",
    "assignment_to_json_dict",
    "assignment_from_json_dict",
]


@dataclass(frozen=True)
class RegionAssignment:
    """Base graph plus one nonempty connected region per rig vertex."""

    base: Graph
    regions: tuple

    def __post_init__(self):
        norm = []
        for i, region in enumerate(self.regions):
            vs = tuple(sorted({int(v) for v in region}))
            if not vs:
                raise ValueError(f"region {i} is empty")
            if vs[0] < 0 or vs[-1] >= self.base.n:
                raise ValueError(f"region {i} leaves the base vertex range")
            norm.append(vs)
        object.__setattr__(self, "regions", tuple(norm))
        bad = _disconnected_regions(self.base, self.regions)
        if bad.size:
            raise ValueError(
                f"region {bad[0]} is not connected in the base graph")

    @property
    def k(self) -> int:
        return len(self.regions)

    def masks(self):
        """Region bitmasks over base vertices, for fast intersection tests."""
        out = []
        for vs in self.regions:
            m = 0
            for v in vs:
                m |= 1 << v
            out.append(m)
        return out


def _disconnected_regions(base: Graph, regions) -> np.ndarray:
    """Indices, ascending, of the regions that are not connected in ``base``.

    One labelled components pass over the block-diagonal union of the
    regions' induced subgraphs.  Slot s of the union holds vertex
    ``verts[s]`` of region ``owner[s]``; each base edge (u, v), u < v,
    joins the slots of u and v in every region that holds both.
    """
    k = len(regions)
    if not k:
        return np.empty(0, dtype=np.intp)
    sizes = np.fromiter(map(len, regions), dtype=np.intp, count=k)
    verts = np.fromiter(chain.from_iterable(regions), dtype=np.intp,
                        count=int(sizes.sum()))
    owner = np.repeat(np.arange(k), sizes)
    code = owner * base.n + verts  # ascending: each region is sorted
    # the edges leaving each slot's vertex upward, a run of the sorted eu
    eu, ev, _ = base._structure()
    first = np.searchsorted(eu, verts)
    count = np.searchsorted(eu, verts, side="right") - first
    src = np.repeat(np.arange(verts.size), count)
    edge = (np.repeat(first - np.cumsum(count) + count, count)
            + np.arange(count.sum()))
    want = owner[src] * base.n + ev[edge]
    dst = np.minimum(np.searchsorted(code, want), code.size - 1)
    hit = code[dst] == want
    # rows ascend with the slot, columns with the edge run
    union = _csr(verts.size, src[hit], dst[hit], np.ones(int(hit.sum())))
    ncomp, labels = _csgraph.connected_components(union, directed=False)
    comp_owner = np.empty(ncomp, dtype=np.intp)
    comp_owner[labels] = owner
    return np.flatnonzero(np.bincount(comp_owner, minlength=k) > 1)


def build_rig(assign: RegionAssignment) -> Graph:
    """Intersection graph of the regions: edge iff two regions overlap."""
    masks = assign.masks()
    k = len(masks)
    edges = [
        (i, j) for i in range(k) for j in range(i + 1, k) if masks[i] & masks[j]
    ]
    return Graph(k, edges)


def rig_over_subdivision(graph: Graph) -> RegionAssignment:
    """Present ``graph`` as a rig over its subdivision.

    The region of vertex v is v itself together with the midpoints of
    its incident edges; two regions meet exactly at the midpoint of the
    shared edge, so ``build_rig`` returns ``graph`` back.
    """
    n = graph.n
    regions = [[v] for v in range(n)]
    for k, (u, v) in enumerate(graph.edges):
        regions[u].append(n + k)
        regions[v].append(n + k)
    return RegionAssignment(subdivision(graph), tuple(map(tuple, regions)))


def distinguished_vertices(assign: RegionAssignment) -> tuple:
    """Smallest base vertex of each region (the region's representative)."""
    return tuple(region[0] for region in assign.regions)


def assignment_to_json_dict(assign: RegionAssignment, **extras) -> dict:
    d = {
        "base": graph_to_json_dict(assign.base),
        "regions": [list(r) for r in assign.regions],
    }
    d.update(extras)
    return d


def assignment_from_json_dict(d: dict) -> RegionAssignment:
    base, _, _ = graph_from_json_dict(d["base"])
    return RegionAssignment(base, tuple(tuple(r) for r in d["regions"]))
