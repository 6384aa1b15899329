"""Instance generators for the separator experiments.

Five families: square grids, random segment arrangements (dense string
graphs whose edge count grows roughly quadratically in the number of
segments), Delaunay triangulations of random points, complete graphs
realized as segment stars, and connected G(n, p).  Every generator is
deterministic in its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import Delaunay

from ._rng import substream
from .graph import (
    Graph,
    connected_components,
    graph_from_json_dict,
    graph_to_json_dict,
    grid_graph,
)
from .rig import RegionAssignment
from .strings import (
    PolylineArrangement,
    polylines_from_json,
    polylines_to_json,
    string_graph_from_polylines,
)

__all__ = ["Instance", "generate", "instance_regions", "GENERATOR_KINDS"]

SNAP = 10 ** 6  # segment endpoints land on this rational grid

_BOUNDS = {
    "grid": (1, 64),
    "random-segments": (2, 400),
    "planar-triangulation": (3, 5000),
    "clique-rig": (2, 30),
    "gnp": (2, 500),
}

GENERATOR_KINDS = tuple(sorted(_BOUNDS))


@dataclass(frozen=True)
class Instance:
    """One generated experiment input.

    ``graph`` is what separator methods run on (the intersection graph
    for string kinds); string kinds also carry their polylines so the
    geometric pipeline can be replayed exactly.
    """

    kind: str
    size: int
    seed: int
    graph: Graph
    polylines: PolylineArrangement | None = None

    def to_json_dict(self) -> dict:
        extras = {"kind": self.kind, "size": self.size, "seed": self.seed}
        if self.polylines is not None:
            extras["polylines"] = polylines_to_json(self.polylines.strings)
        return graph_to_json_dict(self.graph, **extras)

    @classmethod
    def from_json_dict(cls, d) -> "Instance":
        graph, _, extras = (d if isinstance(d, tuple) else
                            graph_from_json_dict(d))
        polys = extras.get("polylines")
        return cls(
            kind=str(extras.get("kind", "unknown")),
            size=int(extras.get("size", graph.n)),
            seed=int(extras.get("seed", 0)),
            graph=graph,
            polylines=polylines_from_json(polys) if polys else None,
        )


def _check_size(kind: str, size: int):
    lo, hi = _BOUNDS[kind]
    if not lo <= size <= hi:
        raise ValueError(f"{kind} size must be in [{lo}, {hi}], got {size}")


def _random_segments(n: int, seed: int):
    """A clean arrangement of n random segments and its (rig, base,
    assign); redraws batches with a repeated endpoint or an overlap."""
    for attempt in range(64):
        rng = substream(seed, "segments", attempt)
        coords = rng.integers(0, SNAP + 1, size=(n, 4))
        if np.any(np.all(coords[:, :2] == coords[:, 2:], axis=1)):
            continue  # a segment whose endpoints coincide
        arr = PolylineArrangement(tuple(
            ((Fraction(x1, SNAP), Fraction(y1, SNAP)),
             (Fraction(x2, SNAP), Fraction(y2, SNAP)))
            for x1, y1, x2, y2 in coords.tolist()))
        try:
            built = string_graph_from_polylines(arr)
        except ValueError:
            continue  # collinear overlap; redraw the batch
        return arr, built
    raise RuntimeError("could not draw a clean segment arrangement")


def _clique_star(n: int) -> PolylineArrangement:
    # n segments between the lines y=0 and y=1 whose x-orders reverse,
    # so every pair crosses and the intersection graph is complete
    strings = tuple(
        (
            (Fraction(i + 1, n + 1), Fraction(0)),
            (Fraction(n - i, n + 1), Fraction(1)),
        )
        for i in range(n)
    )
    return PolylineArrangement(strings)


def _delaunay_graph(n: int, seed: int) -> Graph:
    rng = substream(seed, "delaunay")
    pts = rng.random((n, 2))
    s = Delaunay(pts).simplices.astype(np.intp)
    a, b = s.ravel(), np.roll(s, -1, axis=1).ravel()  # the triangles' sides
    key = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return Graph(n, np.column_stack(np.divmod(key, n)))


def _gnp_connected(n: int, seed: int) -> Graph:
    p = min(1.0, (math.log(n) + 1.0) / n)
    pairs = np.column_stack(np.triu_indices(n, 1))  # (i, j), i < j, row-major
    for attempt in range(256):
        rng = substream(seed, "gnp", attempt)
        g = Graph(n, pairs[rng.random(len(pairs)) < p])
        if len(connected_components(g)) == 1:
            return g
    raise RuntimeError("could not draw a connected G(n, p)")


def generate(kind: str, size: int, seed: int = 0) -> Instance:
    """Build one instance of the requested family.

    grid: size is the subdivision count per axis, (size+1)^2 vertices.
    random-segments: size segments, endpoints uniform on the 1e-6
    rational grid in the unit square; the instance graph is the string
    graph.  planar-triangulation: Delaunay graph of size random points.
    clique-rig: K_size realized by a segment star.  gnp: connected
    G(size, p) at the connectivity threshold.
    """
    if kind not in _BOUNDS:
        raise ValueError(
            f"unknown kind {kind!r}; choose from {GENERATOR_KINDS}"
        )
    _check_size(kind, size)
    if kind == "grid":
        return Instance(kind, size, seed, grid_graph(size, 2))
    if kind == "random-segments":
        arr, (rig, _, _) = _random_segments(size, seed)
        return Instance(kind, size, seed, rig, polylines=arr)
    if kind == "planar-triangulation":
        return Instance(kind, size, seed, _delaunay_graph(size, seed))
    if kind == "clique-rig":
        arr = _clique_star(size)
        rig, _, assign = string_graph_from_polylines(arr)
        if rig.m != size * (size - 1) // 2:
            raise RuntimeError("segment star failed to produce a clique")
        return Instance(kind, size, seed, rig, polylines=arr)
    return Instance(kind, size, seed, _gnp_connected(size, seed))


def instance_regions(instance: Instance) -> RegionAssignment | None:
    """Replay the geometric pipeline for string instances."""
    if instance.polylines is None:
        return None
    _, _, assign = string_graph_from_polylines(instance.polylines)
    return assign
