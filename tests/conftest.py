"""Shared fixtures and graph helpers for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from rigsep._rng import substream
from rigsep.graph import Graph

# Under CI, property tests draw the same examples on every run and print
# a failure's reproduction blob, so a failure in the log replays locally
# with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# connected graphs per vertex count in the small-graph catalog
CATALOG_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def nx_to_graph(g) -> Graph:
    nodes = sorted(g.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(idx[u], idx[v]) for u, v in g.edges()])


def random_connected_graph(n: int, seed: int, extra_edges: int = 0) -> Graph:
    """Uniform random labelled tree plus ``extra_edges`` random chords."""
    rng = substream(seed, "testgraph", n, extra_edges)
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in edges]
    take = min(extra_edges, len(non_edges))
    if take:
        for i in rng.choice(len(non_edges), size=take, replace=False):
            edges.add(non_edges[int(i)])
    return Graph(n, sorted(edges))


def _atlas_by_size():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    by_n: dict = {n: [] for n in CATALOG_COUNTS}
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if n in by_n and n >= 1 and nx.is_connected(g):
            by_n[n].append(nx_to_graph(g))
    return by_n


@pytest.fixture(scope="session")
def catalog():
    """All connected graphs on 2..6 vertices, keyed by vertex count."""
    by_n = _atlas_by_size()
    counts = {n: len(gs) for n, gs in by_n.items()}
    assert counts == CATALOG_COUNTS, counts
    return by_n


@pytest.fixture(scope="session")
def catalog_flat(catalog):
    return [g for n in sorted(catalog) for g in catalog[n]]


def mc_margin(phat: float, trials: int) -> float:
    """Three binomial standard errors around an empirical frequency."""
    return 3.0 * np.sqrt(max(phat * (1.0 - phat), 0.0) / trials)
