"""Graph Laplacian spectra, Fiedler sweep bisection, and the
minimum-subset spreading functional.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph
import scipy.sparse.linalg

from ._rng import substream
from .graph import Graph, connected_components, dist_omega, l2_vector_norm

__all__ = [
    "LaplacianSpectrum",
    "laplacian_matrix",
    "laplacian_spectrum",
    "spectral_bisection",
    "spreading_constant",
]

# a full dense eigh and a shift-inverted two-pair eigsh cost the same near
# 100 vertices on bounded-degree graphs and near 150 on dense string
# graphs; above, the dense solve grows as n^3 and the sparse one near n
DENSE_LIMIT = 128


@dataclass(frozen=True)
class LaplacianSpectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def laplacian_matrix(graph: Graph, sparse: bool = False):
    lap = scipy.sparse.csgraph.laplacian(graph._structure()[2]).tocsr()
    if not sparse:
        return lap.toarray()
    lap.eliminate_zeros()  # an isolated vertex stores no diagonal entry
    return lap


def laplacian_spectrum(graph: Graph, k: int | None = None,
                       *, return_vectors: bool = False) -> LaplacianSpectrum:
    """Smallest k Laplacian eigenvalues (all by default), ascending.

    Dense solve up to ``DENSE_LIMIT`` vertices or for k >= n - 1,
    shift-inverted Lanczos iteration from a fixed start vector otherwise.
    """
    n = graph.n
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    # eigsh refuses k = n on a sparse matrix, and k = n - 1 fills its whole
    # Krylov space: such requests are whole spectra, a dense job
    if n <= DENSE_LIMIT or k >= n - 1:
        lap = laplacian_matrix(graph)
        if return_vectors:
            vals, vecs = scipy.linalg.eigh(lap)
            return LaplacianSpectrum(vals[:k], vecs[:, :k])
        vals = scipy.linalg.eigvalsh(lap)
        return LaplacianSpectrum(vals[:k])
    lap = laplacian_matrix(graph, sparse=True).tocsc()
    # a start vector fixed by n makes repeated solves bit-identical;
    # ones(n) would not do, it is the null vector
    v0 = np.random.default_rng(n).standard_normal(n)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            lap, k=k, sigma=-1e-2, which="LM", v0=v0
        )
    except Exception as exc:  # pragma: no cover - iterative failure path
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    return LaplacianSpectrum(vals, vecs if return_vectors else None)


def _fiedler_vector(graph: Graph) -> np.ndarray:
    spec = laplacian_spectrum(graph, min(graph.n, 2), return_vectors=True)
    vec = spec.eigenvectors[:, 1].copy()
    if vec[np.argmax(np.abs(vec) > 1e-12)] < 0:  # first clearly nonzero entry
        vec = -vec
    return vec


def spectral_bisection(graph: Graph):
    """Vertex separator from the best Fiedler sweep cut.

    Sorts vertices by Fiedler value, scans prefix edge cuts, picks the
    sweep minimizing cut edges over the smaller side, and returns the
    smaller-side endpoints of the cut edges.  One shot; balance to 2/3
    is the job of the recursive driver.
    """
    n = graph.n
    if n < 2:
        return ()
    if len(connected_components(graph)) != 1:
        raise ValueError("spectral bisection needs a connected graph")
    vec = _fiedler_vector(graph)
    order = sorted(range(n), key=lambda v: (vec[v], v))
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    eu, ev, _ = graph._structure()
    lo = np.minimum(pos[eu], pos[ev])
    hi = np.maximum(pos[eu], pos[ev])
    # edge {u, v} crosses every cut lo < cut_at <= hi: a difference array
    # counts the crossing edges of all n - 1 cuts at once
    crossing = np.cumsum(np.bincount(lo + 1, minlength=n + 1)
                         - np.bincount(hi + 1, minlength=n + 1))
    cut_at = np.arange(1, n)
    scores = crossing[1:n] / np.minimum(cut_at, n - cut_at)
    cut_at = int(np.argmin(scores)) + 1  # first minimum, as the scan took

    cross = (lo < cut_at) & (cut_at <= hi)
    # lo is the prefix endpoint; keep the endpoint on the smaller side
    small = lo if cut_at <= n - cut_at else hi
    return tuple(int(i) for i in np.unique(np.asarray(order)[small[cross]]))


def spreading_constant(graph: Graph, omega, r: int, mode: str = "exact",
                       *, seed: int = 0, samples: int = 10000) -> float:
    """Minimum over r-subsets of the mean pairwise distance, normalized
    by the unnormalized Euclidean weight norm.
    """
    n = graph.n
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}")
    w = np.asarray(omega, dtype=float)
    norm = l2_vector_norm(w)
    if norm <= 0:
        raise ValueError("omega must not be identically zero")
    if r == 1:
        return 0.0
    dist = dist_omega(graph, w).matrix()

    def subset_value(idx):
        sub = dist[np.ix_(idx, idx)]
        return float(sub.sum()) / (r * r)

    if mode == "exact":
        if math.comb(n, r) > 10 ** 6:
            raise ValueError("exact mode limited to C(n,r) <= 1e6 subsets")
        best = min(subset_value(list(c))
                   for c in itertools.combinations(range(n), r))
        return best / norm
    if mode == "sampled":
        rng = substream(seed, "spreading", r)
        best = math.inf
        for _ in range(samples):
            idx = rng.choice(n, size=r, replace=False)
            best = min(best, subset_value(idx))
        return best / norm
    raise ValueError("mode must be 'exact' or 'sampled'")
