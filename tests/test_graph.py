import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from conftest import random_connected_graph
from rigsep.graph import (
    LIPSCHITZ_TOL,
    Graph,
    _length_matrix,
    balls_and_sphere,
    check_weights,
    complete_graph,
    connected_components,
    cycle_graph,
    dist_omega,
    dump_graph_json,
    extract_path,
    graph_from_json_dict,
    graph_to_json_dict,
    grid_graph,
    induced_subgraph,
    l1_weight,
    l2_vector_norm,
    load_graph_json,
    lp_weight,
    observed_spread,
    path_graph,
    shortest_path_tree,
    spread,
    subdivision,
)


small_graphs = st.builds(
    random_connected_graph,
    n=st.integers(2, 9),
    seed=st.integers(0, 10**6),
    extra_edges=st.integers(0, 6),
)


class TestConstruction:
    def test_basic_counts(self):
        g = path_graph(4)
        assert (g.n, g.m) == (4, 3)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.neighbors(1) == (0, 2)
        assert g.degree(0) == 1 and g.max_degree() == 2

    def test_has_edge_symmetric(self):
        g = cycle_graph(5)
        assert g.has_edge(4, 0) and g.has_edge(0, 4)
        assert not g.has_edge(0, 2)

    def test_rejects_loops_duplicates_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(-1)

    def test_grid_counts(self):
        # side=4 is the 25-vertex grid with 40 edges
        g = grid_graph(4)
        assert (g.n, g.m) == (25, 40)
        assert grid_graph(1, 3).n == 8

    def test_equality_and_hash(self):
        a = path_graph(3)
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != cycle_graph(3)

    def test_adjacency_masks(self):
        g = path_graph(3)
        assert g.adjacency_masks() == (0b010, 0b101, 0b010)


def _loop_reference(n, edges):
    """The per-edge loop the numpy constructor replaced: the sorted edge
    tuple, the sorted neighbour tuples and the endpoint arrays and
    adjacency CSR built from them by scipy's COO path."""
    seen = set()
    adj = [[] for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        adj[u].append(v)
        adj[v].append(u)
    edge_tuple = tuple(sorted(seen))
    ends = np.asarray(edge_tuple, dtype=np.intp).reshape(-1, 2)
    eu, ev = ends[:, 0].copy(), ends[:, 1].copy()
    mat = csr_matrix((np.ones(2 * eu.size), (np.concatenate([eu, ev]),
                                             np.concatenate([ev, eu]))),
                     shape=(n, n))
    return edge_tuple, tuple(tuple(sorted(nb)) for nb in adj), (eu, ev, mat)


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _assert_matches_reference(n, rows, form):
    """Build from ``rows`` handed over as ``form``; the graph, or the
    ValueError message, must equal the reference loop's."""
    inputs = {
        "list": lambda: [tuple(r) for r in rows],
        "tuple": lambda: tuple(list(r) for r in rows),
        "generator": lambda: (tuple(r) for r in rows),
        "numpy": lambda: np.asarray(rows, dtype=np.int64).reshape(len(rows), 2),
    }
    try:
        want = _loop_reference(n, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Graph(n, inputs[form]())
        assert str(got.value) == str(exc)
        return
    g = Graph(n, inputs[form]())
    edge_tuple, nbrs, (eu, ev, mat) = want
    assert g.edges == edge_tuple and g.m == len(edge_tuple)
    assert all(type(x) is int for e in g.edges for x in e)
    assert tuple(g.neighbors(v) for v in range(n)) == nbrs
    geu, gev, gmat = g._structure()
    _assert_same_arrays(geu, eu)
    _assert_same_arrays(gev, ev)
    for attr in ("indptr", "indices", "data"):
        _assert_same_arrays(getattr(gmat, attr), getattr(mat, attr))
    assert gmat.shape == (n, n)


@st.composite
def edge_inputs(draw):
    """Vertex count and edge rows: distinct valid pairs in random order
    and orientation, then maybe duplicates, loops and out-of-range rows
    spliced in anywhere."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = [(v, u) if draw(st.booleans()) else (u, v) for u, v in rows]
    faults = st.one_of(
        st.integers(-3, n + 3).map(lambda u: (u, u)),
        st.tuples(st.integers(-3, n + 3), st.integers(-3, n + 3)),
        st.sampled_from(rows).map(lambda e: e[::-1]) if rows
        else st.just((0, 0)),
    )
    for fault in draw(st.lists(faults, max_size=draw(st.integers(0, 3)))):
        rows.insert(draw(st.integers(0, len(rows))), fault)
    return n, rows


class TestConstructorMatchesLoop:
    @settings(max_examples=400, deadline=None)
    @given(case=edge_inputs(),
           form=st.sampled_from(["list", "tuple", "generator", "numpy"]))
    def test_random_edge_lists(self, case, form):
        n, rows = case
        _assert_matches_reference(n, rows, form)

    @pytest.mark.parametrize("form", ["list", "tuple", "generator", "numpy"])
    def test_fixed_inputs(self, form):
        cases = [
            (0, []), (4, []), (3, [(2, 1), (0, 2)]),
            (3, [(0, 1), (1, 0)]), (3, [(1, 1)]), (3, [(0, 3)]),
            (3, [(-1, 2)]), (3, [(3, 3)]), (4, [(0, 1), (3, 3), (1, 0)]),
            (4, [(0, 1), (1, 0), (2, 2)]), (4, [(2, 3), (2, 2), (3, 2)]),
        ]
        for n, rows in cases:
            _assert_matches_reference(n, rows, form)

    def test_catalog_graphs(self, catalog_flat):
        for g in catalog_flat:
            for rows in (list(g.edges), [e[::-1] for e in reversed(g.edges)]):
                _assert_matches_reference(g.n, rows, "numpy")
                assert Graph(g.n, rows) == g

    @pytest.mark.parametrize("edges, row", [
        ([[0, 1, 2], [3, 4, 5]], 0),
        (np.array([[0, 1, 2], [3, 4, 5]]), 0),
        ([[0, 1], [2]], 1),
        ([[0], [1]], 0),
        (np.array([[0], [1]]), 0),
        ([(0, 1), (1, 2), (2, 3, 4)], 2),
        ([0, 1], 0),
    ])
    def test_rows_that_are_not_pairs_raise(self, edges, row):
        with pytest.raises(ValueError, match=f"edge {row} is .*not a pair"):
            Graph(6, edges)

    def test_length_matrix_keeps_zero_length_edges(self):
        g = path_graph(3)
        w = np.array([0.0, 0.0, 1.0])
        mat = _length_matrix(g, w, np.arange(3))
        assert mat.nnz == 2
        np.testing.assert_array_equal(mat.indptr, [0, 1, 2, 2])
        np.testing.assert_array_equal(mat.indices, [1, 2])
        np.testing.assert_array_equal(mat.data, [0.0, 0.5])
        assert dist_omega(g, w).d(0, 1) == 0.0
        assert dist_omega(g, w, subset=[0, 1]).d(1, 0) == 0.0


class TestWeights:
    def test_check_weights_errors(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            check_weights(g, [1.0, 1.0])
        with pytest.raises(ValueError):
            check_weights(g, [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            check_weights(g, [1.0, np.inf, 1.0])
        with pytest.raises(ValueError):
            check_weights(g, [1.0, 0.0, 1.0], positive=True)
        w = check_weights(g, [1, 0, 2])
        assert w.dtype == float and w.tolist() == [1.0, 0.0, 2.0]

    def test_norms(self):
        assert l1_weight([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert lp_weight([1.0, 2.0, 3.0], np.inf) == 3.0
        assert lp_weight([3.0, 4.0], 2) == pytest.approx(math.sqrt(12.5))
        assert l2_vector_norm([3.0, 4.0]) == 5.0


class TestDistances:
    def test_conformal_edge_lengths(self):
        g = path_graph(3)
        mv = dist_omega(g, [1.0, 2.0, 3.0])
        assert mv.d(0, 1) == pytest.approx(1.5)
        assert mv.d(1, 2) == pytest.approx(2.5)
        assert mv.d(0, 2) == pytest.approx(4.0)

    def test_subset_distances_stay_inside(self):
        g = cycle_graph(6)
        mv = dist_omega(g, np.ones(6), subset=[0, 1, 2, 3])
        # the cycle shortcut through 4, 5 is outside the subset
        assert mv.d(0, 3) == pytest.approx(3.0)

    def test_zero_weight_edges(self):
        g = path_graph(3)
        mv = dist_omega(g, [0.0, 0.0, 2.0])
        assert mv.d(0, 1) == 0.0
        assert mv.d(0, 2) == pytest.approx(1.0)

    def test_source_outside_subset_raises(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            dist_omega(g, np.ones(4), [3], subset=[0, 1])

    def test_shortest_path_tree_min_id_ties(self):
        g = cycle_graph(4)
        dist, pred = shortest_path_tree(g, np.ones(4), 0)
        assert dist[2] == pytest.approx(2.0)
        # 1 and 3 both attain d(0,2)=2; the smaller predecessor wins
        assert pred[2] == 1
        assert extract_path(pred, 2) == (0, 1, 2)

    def test_shortest_path_tree_ignores_later_tight_neighbours(self):
        g = Graph(6, [(0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
                      (2, 4), (3, 4), (4, 5)])
        dist, pred = shortest_path_tree(g, [1, 1, 0, 0, 1, 0], 0)
        # 3 is tight for 2 over a zero-length edge, but is settled after
        # it: the predecessor is the smallest-id neighbour settled before
        assert dist[2] == dist[3] == 1.5
        assert pred == {0: None, 4: 0, 1: 2, 2: 4, 3: 2, 5: 4}

    def test_extract_path_unreachable(self):
        g = Graph(3, [(0, 1)])
        _, pred = shortest_path_tree(g, np.ones(3), 0)
        with pytest.raises(ValueError):
            extract_path(pred, 2)


class TestComponentsSubgraphs:
    def test_components_sorted_by_min_id(self):
        g = Graph(6, [(4, 5), (0, 1), (2, 3)])
        assert connected_components(g) == [(0, 1), (2, 3), (4, 5)]
        assert connected_components(g, subset=[5, 4, 1]) == [(1,), (4, 5)]
        assert connected_components(g, subset=[]) == []

    def test_induced_subgraph_relabels(self):
        g = cycle_graph(5)
        view = induced_subgraph(g, [1, 2, 4])
        assert view.graph.n == 3
        assert view.graph.edges == ((0, 1),)  # only (1, 2) survives
        assert view.to_parent(view.to_local(4)) == 4


class TestBallsAndSpread:
    def test_balls_and_sphere_path(self):
        g = path_graph(5)
        bs = balls_and_sphere(g, np.ones(5), 2, 1.5)
        assert bs.skinny == (2,)
        assert bs.fat == (0, 1, 2, 3, 4)
        assert bs.sphere == (0, 1, 3, 4)

    @pytest.mark.parametrize("radius", [math.nan, -1.0, math.inf])
    def test_balls_and_sphere_radius_checked(self, radius):
        with pytest.raises(ValueError, match="radius must be nonnegative "
                                             "and finite"):
            balls_and_sphere(path_graph(5), np.ones(5), 2, radius)

    def test_sphere_interval_semantics(self):
        # vertex is on the sphere iff [d - w/2, d + w/2] contains R
        g = path_graph(3)
        w = [1.0, 1.0, 3.0]
        bs = balls_and_sphere(g, w, 0, 2.0)
        # d(0,2) = 3 and the interval [1.5, 4.5] contains 2,
        # while vertex 1 sits strictly inside (d=1 < 2 - 1/2)
        assert bs.sphere == (2,)
        assert bs.skinny == (0, 1)

    def test_spread_values(self):
        assert spread(dist_omega(path_graph(3), np.ones(3))) == pytest.approx(8 / 9)
        assert spread(dist_omega(complete_graph(3), np.ones(3))) == pytest.approx(2 / 3)
        assert spread(dist_omega(cycle_graph(4), np.ones(4))) == pytest.approx(1.0)

    def test_spread_needs_connected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            spread(dist_omega(g, np.ones(3)))

    def test_observed_spread_checks_lipschitz(self):
        g = path_graph(3)
        mv = dist_omega(g, np.ones(3))
        with pytest.raises(ValueError):
            observed_spread(mv, [0.0, 5.0, 0.0])
        f = mv.row(0)
        assert observed_spread(mv, f) <= spread(mv) + LIPSCHITZ_TOL

    def test_observed_spread_mapping_input(self):
        g = path_graph(3)
        mv = dist_omega(g, np.ones(3))
        val = observed_spread(mv, {0: 0.0, 1: 1.0, 2: 2.0})
        assert val == pytest.approx(8 / 9)

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs, src=st.integers(0, 8), scale=st.floats(0.1, 3.0))
    def test_distance_maps_are_lipschitz_witnesses(self, g, src, scale):
        src = src % g.n
        w = np.full(g.n, scale)
        mv = dist_omega(g, w)
        sobs = observed_spread(mv, mv.row(src))
        assert 0.0 <= sobs <= spread(mv) + LIPSCHITZ_TOL

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs, center=st.integers(0, 8), r=st.floats(0.0, 5.0))
    def test_ball_nesting(self, g, center, r):
        center = center % g.n
        bs = balls_and_sphere(g, np.ones(g.n), center, r)
        assert set(bs.skinny) <= set(bs.fat)
        assert set(bs.sphere) == set(bs.fat) - set(bs.skinny)


class TestSubdivision:
    def test_path_subdivision_ids(self):
        # midpoint of the k-th sorted edge gets id n + k
        g = subdivision(path_graph(3))
        assert g.n == 5
        assert g.edges == ((0, 3), (1, 3), (1, 4), (2, 4))

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs)
    def test_subdivision_counts(self, g):
        s = subdivision(g)
        assert s.n == g.n + g.m
        assert s.m == 2 * g.m
        assert len(connected_components(s)) == len(connected_components(g))
        # midpoints have degree two
        for k in range(g.m):
            assert s.degree(g.n + k) == 2


@st.composite
def weighted_subgraph_cases(draw):
    """A graph, a vertex subset, sources in it and weights, some zero."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    sources = draw(st.lists(st.sampled_from(subset), min_size=1, unique=True))
    w = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                      min_size=n, max_size=n))
    return Graph(n, edges), subset, sources, np.asarray(w)


class TestAgainstNetworkx:
    @settings(max_examples=120, deadline=None)
    @given(case=weighted_subgraph_cases())
    def test_subgraph_primitives(self, case):
        nx = pytest.importorskip("networkx")
        g, subset, sources, w = case
        ref = nx.Graph()
        ref.add_nodes_from(subset)
        ref.add_weighted_edges_from(
            (u, v, 0.5 * (w[u] + w[v])) for u, v in g.edges
            if u in subset and v in subset
        )
        mv = dist_omega(g, w, sources, subset=subset)
        assert mv.vertices == tuple(sorted(subset))
        for s in sources:
            lengths = nx.single_source_dijkstra_path_length(ref, s)
            want = [lengths.get(v, math.inf) for v in mv.vertices]
            assert np.allclose(mv.row(s), want, rtol=1e-12, atol=0.0)
        want_comps = sorted(tuple(sorted(c)) for c in nx.connected_components(ref))
        assert connected_components(g, subset=subset) == want_comps
        view = induced_subgraph(g, subset)
        assert view.vertices == tuple(sorted(subset))
        got_edges = sorted(
            (view.to_parent(a), view.to_parent(b)) for a, b in view.graph.edges
        )
        assert got_edges == sorted(tuple(sorted(e)) for e in ref.edges)


class TestJson:
    def test_round_trip(self, tmp_path):
        g = cycle_graph(5)
        path = tmp_path / "g.json"
        dump_graph_json(path, g, weights=[1, 2, 3, 4, 5], label="c5")
        g2, w, extras = load_graph_json(path)
        assert g2 == g
        assert w.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert extras == {"label": "c5"}

    def test_dict_round_trip_no_weights(self):
        g = path_graph(4)
        g2, w, extras = graph_from_json_dict(graph_to_json_dict(g))
        assert g2 == g and w is None and extras == {}

    def test_missing_fields_raise(self):
        with pytest.raises(ValueError):
            graph_from_json_dict({"edges": []})

    @pytest.mark.parametrize("d", [
        {"n": 3, "edges": [[0]]},
        {"n": 3, "edges": 5},
        {"n": [3], "edges": []},
        {"n": 3, "edges": [[0, 1, 2]]},
        {"n": 3.5, "edges": []},
        {"n": 3, "edges": [[0, "1"]]},
    ])
    def test_malformed_fields_raise(self, d):
        with pytest.raises(ValueError):
            graph_from_json_dict(d)
