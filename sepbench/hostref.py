"""Fixed reference computation that measures how fast the host runs now.

The host's speed drifts by tens of percent between stretches of a minute
or so, and every operation of a process drifts together.  Timing this
fixed computation in the same process, between the measured operations,
gives the factor by which stage times are divided.  It mixes the kinds of
work rigsep spends its time in: exact ``Fraction`` arithmetic, a heap
Dijkstra in pure Python, ``scipy.sparse.csgraph.dijkstra`` and a small
dense ``eigh`` (one BLAS thread).  It never imports rigsep, so a change to
the program cannot change the yardstick.
"""
from __future__ import annotations

import heapq
import time
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# Best-of-run time of ``Reference.run`` on the host the README's figures
# come from (2-vCPU KVM Xeon, one BLAS thread).  Stage times are reported
# as seconds on a host where the reference takes this long.
NOMINAL_S = 0.025


class Reference:
    """Inputs are built once; ``run`` repeats the same work every call."""

    def __init__(self):
        rng = np.random.default_rng(20160806)
        # exact arithmetic on 1e-6 grid coordinates, as in segment tests
        self.fracs = [
            tuple(Fraction(int(v), 10 ** 6) for v in row)
            for row in rng.integers(0, 10 ** 6 + 1, size=(600, 4))
        ]
        # sparse weighted graph: a ring plus random chords
        n = 1500
        u = np.concatenate([np.arange(n), rng.integers(0, n, 3 * n)])
        v = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, 3 * n)])
        keep = u != v
        u, v = u[keep], v[keep]
        w = rng.random(u.size) + 0.5
        self.csr = csr_matrix((np.concatenate([w, w]),
                               (np.concatenate([u, v]), np.concatenate([v, u]))),
                              shape=(n, n))
        self.sources = np.arange(0, n, 60)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(400)]
        for a, b, x in zip(u % 400, v % 400, w):
            if a != b:
                adj[a].append((int(b), float(x)))
                adj[b].append((int(a), float(x)))
        self.adj = adj
        a = rng.standard_normal((220, 220))
        self.sym = a + a.T

    def _fractions(self) -> Fraction:
        acc = Fraction(0)
        pts = self.fracs
        for i in range(0, len(pts) - 1):
            x1, y1, x2, y2 = pts[i]
            x3, y3, _, _ = pts[i + 1]
            acc += (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        return acc

    def _heap_dijkstra(self, source: int) -> float:
        dist = {source: 0.0}
        done = set()
        heap = [(0.0, source)]
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            done.add(x)
            for y, w in self.adj[x]:
                nd = d + w
                if y not in dist or nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        return sum(dist.values())

    def run(self) -> float:
        """Do the fixed work once and return its elapsed seconds."""
        t0 = time.perf_counter()
        self._fractions()
        for s in (0, 97, 211, 307):
            self._heap_dijkstra(s)
        dijkstra(self.csr, directed=False, indices=self.sources)
        scipy.linalg.eigh(self.sym)
        return time.perf_counter() - t0
