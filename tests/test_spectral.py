import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph
from rigsep import spectral
from rigsep.generators import generate
from rigsep.graph import Graph, complete_graph, cycle_graph, path_graph
from rigsep.spectral import (
    DENSE_LIMIT,
    _fiedler_vector,
    laplacian_matrix,
    laplacian_spectrum,
    spectral_bisection,
    spreading_constant,
)

STAR5 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


class TestSpectrum:
    def test_frozen_spectra(self):
        cases = (
            (complete_graph(2), [0.0, 2.0]),
            (cycle_graph(4), [0.0, 2.0, 2.0, 4.0]),
            (complete_graph(5), [0.0, 5.0, 5.0, 5.0, 5.0]),
            (path_graph(3), [0.0, 1.0, 3.0]),
            (STAR5, [0.0, 1.0, 1.0, 1.0, 5.0]),
        )
        for g, want in cases:
            got = laplacian_spectrum(g).eigenvalues
            assert np.allclose(got, want, atol=1e-9), g

    def test_path_algebraic_connectivity(self):
        got = laplacian_spectrum(path_graph(10), 2).eigenvalues[1]
        assert got == pytest.approx(4.0 * math.sin(math.pi / 20.0) ** 2,
                                    abs=1e-12)

    def test_k_validation_and_vector_residual(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            laplacian_spectrum(g, 0)
        with pytest.raises(ValueError):
            laplacian_spectrum(g, 6)
        spec = laplacian_spectrum(g, 3, return_vectors=True)
        lap = laplacian_matrix(g)
        for j in range(3):
            res = lap @ spec.eigenvectors[:, j] \
                - spec.eigenvalues[j] * spec.eigenvectors[:, j]
            assert np.linalg.norm(res) < 1e-9

    def test_sparse_branch_matches_closed_form(self):
        # above the dense limit the shift-inverted solver takes over;
        # the path spectrum 4 sin^2(k pi / 2n) certifies it
        n = 2100
        got = laplacian_spectrum(path_graph(n), 5).eigenvalues
        want = [4.0 * math.sin(k * math.pi / (2.0 * n)) ** 2
                for k in range(5)]
        assert np.max(np.abs(got - np.asarray(want))) < 1e-8

    def test_full_spectrum_above_dense_limit(self):
        # ARPACK cannot return n - 1 or n pairs; those requests go dense
        n = DENSE_LIMIT + 2
        want = np.array([4.0 * math.sin(k * math.pi / (2.0 * n)) ** 2
                         for k in range(n)])
        for k in (None, n, n - 1):
            got = laplacian_spectrum(path_graph(n), k).eigenvalues
            assert np.max(np.abs(got - want[:len(got)])) < 1e-9
            assert len(got) == (k or n)

    def test_sparse_matrix_agrees_with_dense(self):
        g = random_connected_graph(30, 5, extra_edges=20)
        dense = laplacian_matrix(g)
        assert np.allclose(laplacian_matrix(g, sparse=True).toarray(), dense)

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(1, 40),
            seed=st.integers(0, 10**6),
            extra_edges=st.integers(0, 200),
        ),
        isolated=st.integers(0, 3),
    )
    def test_dense_matrix_is_csgraphs(self, g, isolated):
        # written from the edge arrays, the dense matrix must equal the
        # csgraph Laplacian exactly, isolated vertices included
        g = Graph(g.n + isolated, g.edges)
        want = scipy.sparse.csgraph.laplacian(g._structure()[2]).toarray()
        got = laplacian_matrix(g)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("g", [Graph(0), Graph(1), Graph(3)])
    def test_dense_matrix_edgeless(self, g):
        assert np.array_equal(laplacian_matrix(g), np.zeros((g.n, g.n)))

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(2, 30),
            seed=st.integers(0, 10**6),
            extra_edges=st.integers(0, 20),
        )
    )
    def test_eigenvalue_range(self, g):
        vals = laplacian_spectrum(g).eigenvalues
        dmax = max(len(g.neighbors(v)) for v in range(g.n))
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(vals >= -1e-9)
        assert vals[-1] <= 2.0 * dmax + 1e-9
        assert np.all(np.diff(vals) >= -1e-9)


class TestBisection:
    def test_frozen_cuts(self):
        assert spectral_bisection(path_graph(10)) == (5,)
        assert spectral_bisection(complete_graph(4)) == (2, 3)
        assert spectral_bisection(cycle_graph(6)) == (2, 4)

    def test_two_cliques_one_bridge(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
        edges.append((4, 5))
        assert spectral_bisection(Graph(10, edges)) == (5,)

    def test_trivial_and_disconnected(self):
        assert spectral_bisection(Graph(1, [])) == ()
        assert spectral_bisection(Graph(0, [])) == ()
        with pytest.raises(ValueError):
            spectral_bisection(Graph(4, [(0, 1), (2, 3)]))

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(2, 25),
            seed=st.integers(0, 10**6),
            extra_edges=st.integers(0, 8),
        )
    )
    def test_separator_is_nonempty_and_within_graph(self, g):
        sep = spectral_bisection(g)
        assert sep
        assert all(0 <= v < g.n for v in sep)
        assert len(sep) < g.n

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(2, 16),
            seed=st.integers(0, 10**6),
            extra_edges=st.integers(0, 10),
        )
    )
    def test_sweep_takes_first_minimum_by_brute_force(self, g):
        vec = _fiedler_vector(g)
        n = g.n
        order = sorted(range(n), key=lambda v: (vec[v], v))
        pos = {v: i for i, v in enumerate(order)}
        best = None
        for cut_at in range(1, n):
            crossing = [(u, v) for u, v in g.edges
                        if (pos[u] < cut_at) != (pos[v] < cut_at)]
            score = len(crossing) / min(cut_at, n - cut_at)
            if best is None or score < best[0]:
                best = (score, cut_at, crossing)
        _, cut_at, crossing = best
        prefix_small = cut_at <= n - cut_at
        want = {u if (pos[u] < cut_at) == prefix_small else v
                for u, v in crossing}
        assert spectral_bisection(g) == tuple(sorted(want))


def _sign_normalized(vec):
    lead = np.flatnonzero(np.abs(vec) > 1e-12)
    return -vec if vec[lead[0]] < 0 else vec


class TestSparseFiedler:
    """Above ``DENSE_LIMIT`` the Fiedler vector comes from shift-inverted
    Lanczos; it must reproduce itself and the dense route."""

    def test_repeat_solves_are_bit_identical(self):
        g = generate("planar-triangulation", DENSE_LIMIT + 72, 5).graph
        first = _fiedler_vector(g)
        assert np.array_equal(first, _fiedler_vector(g))
        assert spectral_bisection(g) == spectral_bisection(g)

    @pytest.mark.parametrize("n, seed", [(DENSE_LIMIT + 12, 1),
                                         (DENSE_LIMIT + 12, 2), (1900, 1)])
    def test_sparse_solve_matches_dense(self, n, seed, monkeypatch):
        g = generate("planar-triangulation", n, seed).graph
        assert g.n > DENSE_LIMIT
        spec = laplacian_spectrum(g, 2, return_vectors=True)
        vec = _fiedler_vector(g)
        lap = laplacian_matrix(g, sparse=True)
        assert np.linalg.norm(lap @ vec - spec.eigenvalues[1] * vec) < 1e-9
        _, vecs = scipy.linalg.eigh(laplacian_matrix(g))
        assert np.max(np.abs(vec - _sign_normalized(vecs[:, 1]))) < 1e-9
        sep = spectral_bisection(g)
        monkeypatch.setattr(spectral, "DENSE_LIMIT", g.n)
        assert spectral_bisection(g) == sep


class TestSpreadingConstant:
    def test_frozen_values(self):
        w3 = np.ones(3)
        assert spreading_constant(complete_graph(3), w3, 2) == \
            pytest.approx(0.5 / math.sqrt(3.0))
        assert spreading_constant(complete_graph(3), w3, 1) == 0.0
        w4 = np.ones(4)
        assert spreading_constant(path_graph(4), w4, 2) == pytest.approx(0.25)
        # r = n degenerates to the full spread over the l2 weight norm
        assert spreading_constant(path_graph(4), w4, 4) == pytest.approx(0.625)

    def test_sampled_upper_bounds_exact(self):
        g = random_connected_graph(9, 2, extra_edges=4)
        w = np.ones(9)
        exact = spreading_constant(g, w, 3)
        sampled = spreading_constant(g, w, 3, "sampled", seed=0, samples=500)
        assert sampled >= exact - 1e-12
        again = spreading_constant(g, w, 3, "sampled", seed=0, samples=500)
        assert sampled == again
        assert spreading_constant(g, w, 3, "sampled", seed=0,
                                  samples=5000) == pytest.approx(exact)

    def test_validation(self):
        g = path_graph(4)
        w = np.ones(4)
        with pytest.raises(ValueError):
            spreading_constant(g, w, 0)
        with pytest.raises(ValueError):
            spreading_constant(g, w, 5)
        with pytest.raises(ValueError):
            spreading_constant(g, np.zeros(4), 2)
        with pytest.raises(ValueError):
            spreading_constant(g, w, 2, "guess")
        big = path_graph(60)
        with pytest.raises(ValueError):
            spreading_constant(big, np.ones(60), 20)
