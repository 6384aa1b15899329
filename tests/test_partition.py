import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import mc_margin, random_connected_graph
from rigsep import generate, partition
from rigsep.graph import (
    LIPSCHITZ_TOL,
    Graph,
    _length_matrix,
    balls_and_sphere,
    complete_graph,
    connected_components,
    cycle_graph,
    dist_omega,
    grid_graph,
    observed_spread,
    path_graph,
    spread,
)
from rigsep.oracles import vertex_expansion_exact
from rigsep.partition import (
    _distance_to_set,
    build_chopping_tree,
    chop_delta,
    cut_delta,
    padded_partition,
    random_separator,
    rounding_map_ball,
    rounding_map_coloring,
    shatter,
    sweep_cut,
    vertex_expansion_witnesses,
    balanced_separator,
)
from rigsep._rng import substream


class TestCutChop:
    def test_cut_delta_frozen(self):
        g = path_graph(5)
        w = np.ones(5)
        assert cut_delta(g, w, 0, 1.0, 10.0) == (1,)
        # radii 0.4, 2.4, 4.4 hit the unit intervals of 0, 2 and 4
        assert cut_delta(g, w, 0, 0.4, 2.0) == (0, 2, 4)
        assert chop_delta(g, w, 0, 0.4, 2.0) == [(1,), (3,)]

    def test_parameter_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            cut_delta(g, np.ones(3), 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            cut_delta(g, np.ones(3), 0, 2.0, 1.0)

    def test_cut_accepts_precomputed_metric(self):
        g = grid_graph(3)
        w = np.ones(16)
        mv = dist_omega(g, w, [5])
        assert cut_delta(g, w, 5, 0.7, 3.0, metric=mv) == cut_delta(g, w, 5, 0.7, 3.0)

    def test_subset_uses_subgraph_metric(self):
        g = cycle_graph(8)
        w = np.ones(8)
        # inside the arc 0..5 the distance to 5 is 5, not 3
        full = cut_delta(g, w, 0, 0.9, 4.5)
        sub = cut_delta(g, w, 0, 0.9, 4.5, subset=range(6))
        assert full != sub

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(2, 12),
            seed=st.integers(0, 10**5),
            extra_edges=st.integers(0, 6),
        ),
        tau=st.floats(0.0, 1.0),
    )
    def test_chop_components_pairwise_nonadjacent(self, g, tau):
        w = np.ones(g.n)
        delta = 2.0
        comps = chop_delta(g, w, 0, tau * delta, delta)
        cut = set(cut_delta(g, w, 0, tau * delta, delta))
        covered = set(cut)
        for i, a in enumerate(comps):
            covered |= set(a)
            for b in comps[i + 1:]:
                assert not any(g.has_edge(u, v) for u in a for v in b)
        assert covered == set(range(g.n))


class TestChoppingTree:
    def test_structure_and_determinism(self):
        g = grid_graph(3)
        w = np.ones(16)
        t1 = build_chopping_tree(g, w, 3.0, depth=2, seed=7)
        t2 = build_chopping_tree(g, w, 3.0, depth=2, seed=7)
        root = t1.nodes[0]
        assert root.center == 0 and root.spacing == math.inf
        assert [n.vertices for n in t1.nodes] == [n.vertices for n in t2.nodes]
        assert [n.tau for n in t1.nodes if n.tau is not None] == \
               [n.tau for n in t2.nodes if n.tau is not None]

    def test_children_partition_after_cut(self):
        g = grid_graph(3)
        w = np.ones(16)
        tree = build_chopping_tree(g, w, 3.0, depth=1, seed=11)
        root = tree.nodes[0]
        comps = chop_delta(g, w, root.center, root.tau, 3.0,
                           subset=root.vertices)
        kids = [tree.nodes[i].vertices for i in root.children]
        assert kids == comps

    def test_child_center_maximizes_path_distance(self):
        g = grid_graph(3)
        w = np.ones(16)
        tree = build_chopping_tree(g, w, 3.0, depth=1, seed=3)
        amb = dist_omega(g, w)
        for idx in tree.nodes[0].children:
            node = tree.nodes[idx]
            path_centers = [tree.nodes[a].center for a in tree.ancestors(idx)[:-1]]
            best = max(
                node.vertices,
                key=lambda v: (min(amb.d(c, v) for c in path_centers), -v),
            )
            want = min(amb.d(c, best) for c in path_centers)
            assert node.spacing == pytest.approx(want)
            assert min(amb.d(c, node.center) for c in path_centers) == \
                pytest.approx(want)

    def test_constant_sigma_and_validation(self):
        g = path_graph(6)
        w = np.ones(6)
        tree = build_chopping_tree(g, w, 2.0, depth=1, sigma=1.0)
        assert tree.nodes[0].tau == 1.0
        with pytest.raises(ValueError):
            build_chopping_tree(g, w, 2.0, depth=1)  # no sigma, no seed
        with pytest.raises(ValueError):
            build_chopping_tree(g, w, 2.0, depth=1, sigma=5.0)  # outside [0, delta]
        with pytest.raises(ValueError):
            build_chopping_tree(g, w, 2.0, depth=1, seed=0, subset=[0, 3])


class TestShatter:
    def test_single_center_matches_sphere(self):
        g = grid_graph(4)
        w = np.ones(25)
        cut, comps = shatter(g, w, [12], [0.5], 2.0)
        sphere = balls_and_sphere(g, w, 12, 2.5).sphere
        assert cut == sphere
        assert set(cut) | {v for c in comps for v in c} == set(range(25))

    def test_ambient_metric_used(self):
        # distances to the centers come from the ambient graph even when
        # the shattered subset is a fragment
        g = cycle_graph(8)
        w = np.ones(8)
        cut_sub, _ = shatter(g, w, [0], [0.0], 3.0, subset=[2, 3, 4, 5])
        assert cut_sub == (3, 5)  # ambient distance, both directions round the cycle

    def test_diameter_certificate_when_covered(self):
        g = grid_graph(4)
        w = np.ones(25)
        # delta covers the whole grid from the two centers
        cut, comps = shatter(g, w, [0, 24], [1.0, 0.3], 8.0)
        bound = 2.0 * (8.0 + 1.0) + 1e-9
        mv = dist_omega(g, w)
        for comp in comps:
            for u in comp:
                for v in comp:
                    assert mv.d(u, v) <= bound

    def test_validation(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            shatter(g, np.ones(4), [0, 1], [0.5], 1.0)

    def test_no_centers_returns_components(self):
        g = path_graph(4)
        cut, comps = shatter(g, np.ones(4), [], [], 1.0)
        assert cut == () and comps == [(0, 1, 2, 3)]


class TestSetDiameter:
    """``_set_diameter`` against the maximum over every row, and the two
    certificates that read it."""

    WEIGHTS = ("unit", "dyadic", "non-dyadic", "zeros")

    @staticmethod
    def _weights(kind, n, rng):
        if kind == "unit":
            return np.ones(n)
        if kind == "dyadic":
            return rng.choice([0.0, 0.5, 1.0, 1.5], size=n)
        if kind == "non-dyadic":
            return rng.uniform(0.2, 1.8, size=n)
        return rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.7)

    @pytest.mark.parametrize("batch", [2, 8])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_the_all_rows_maximum(self, catalog_flat, monkeypatch,
                                         batch, data):
        monkeypatch.setattr(partition, "_DIAMETER_BATCH", batch)
        family = data.draw(st.sampled_from(
            ["catalog", "triangulation", "segments"]))
        seed = data.draw(st.integers(0, 10**4))
        if family == "catalog":
            g = data.draw(st.sampled_from(catalog_flat))
        elif family == "triangulation":
            g = generate("planar-triangulation",
                         data.draw(st.integers(4, 90)), seed).graph
        else:
            g = generate("random-segments",
                         data.draw(st.integers(3, 40)), seed).graph
        rng = np.random.default_rng(seed)
        w = self._weights(data.draw(st.sampled_from(self.WEIGHTS)), g.n, rng)
        ambient = np.arange(g.n)
        if g.n > 3 and data.draw(st.booleans()):
            # a proper ambient subset, as shatter's ``ambient=``
            ambient = np.flatnonzero(rng.random(g.n) < 0.8)
            if ambient.size == 0 or ambient.size == g.n:
                ambient = np.arange(1, g.n)
        size = data.draw(st.sampled_from(
            [1, 2, int(rng.integers(1, ambient.size + 1)), ambient.size]))
        size = min(size, ambient.size)
        members = np.sort(rng.choice(ambient, size=size, replace=False))
        mv = dist_omega(g, w, members, subset=ambient)
        cols = np.searchsorted(ambient, members)
        want = float(np.max(mv.dist[:, cols]))
        got = partition._set_diameter(_length_matrix(g, w, ambient), cols)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_last_place_ties_are_read(self):
        # on these weights some row the bounds tie with the best holds the
        # maximum one ulp higher (seeds 18 and 38 of the 80 cases), which
        # pruning ties would lose
        for seed in range(40):
            g = generate("planar-triangulation", 88, seed).graph
            for kind in ("non-dyadic", "zeros"):
                w = self._weights(kind, g.n, np.random.default_rng(seed))
                vs = np.arange(g.n)
                want = float(np.max(dist_omega(g, w).dist))
                got = partition._set_diameter(_length_matrix(g, w, vs), vs)
                assert got == want, (seed, kind)

    def test_reads_few_rows(self, monkeypatch):
        # a grid's eccentricity bounds settle the 121-vertex diameter from
        # a fraction of its rows
        calls = []
        real = partition._csgraph.dijkstra

        def counting(*args, indices, **kwargs):
            calls.append(len(indices))
            return real(*args, indices=indices, **kwargs)

        monkeypatch.setattr(partition._csgraph, "dijkstra", counting)
        g = grid_graph(10)
        diam = partition._set_diameter(_length_matrix(g, np.ones(g.n),
                                                      np.arange(g.n)),
                                       np.arange(g.n))
        assert diam == 20.0
        assert sum(calls) <= g.n // 4, calls

    def test_exact_sums(self):
        g = grid_graph(4)
        vs = np.arange(g.n)
        rng = np.random.default_rng(3)
        for w, exact in ((np.ones(g.n), True),
                         (rng.choice([0.0, 0.25, 1.5], size=g.n), True),
                         (rng.uniform(0.2, 1.8, size=g.n), False),
                         (np.full(g.n, 2.0**27), False)):
            assert partition._exact_sums(_length_matrix(g, w, vs)) is exact

    def test_shatter_certificate_fires_on_forged_rows(self):
        # rows claiming every vertex sits on the center: the precondition
        # holds, no sphere cuts, and the whole path survives as one
        # component of diameter 9 > 2 * (1 + 0)
        g = path_graph(10)
        with pytest.raises(RuntimeError, match="component diameter 9 "
                                               "exceeds certified bound 2"):
            shatter(g, np.ones(10), [0], [0.0], 1.0, rows={0: np.zeros(10)})

    def test_random_separator_certificate_fires_without_shards(
            self, monkeypatch):
        # With its true least distances an unsharded leaf stays within
        # (42h + 1) * delta: it lies in a width-delta annulus around each
        # center above it.  Forged zero distances record no spacing event,
        # so the whole h = 1 leaf, a path of diameter 59, must fail the
        # 44 * delta bound.
        monkeypatch.setattr(
            partition, "_sphere_shards",
            lambda w, varr, dists, radii: (np.zeros(len(varr), dtype=bool),
                                           np.zeros(len(varr))))
        g = path_graph(60)
        with pytest.raises(RuntimeError, match="diameter certificate "
                                               "violated without a spacing "
                                               "event: 59 > 44"):
            random_separator(g, np.ones(60), 1.0, 1, seed=0)

    def test_with_and_without_metric_agree(self):
        for i, g in enumerate([grid_graph(8),
                               generate("planar-triangulation", 150, 2).graph,
                               random_connected_graph(60, 5, 30)]):
            rng = np.random.default_rng(i)
            for kind in self.WEIGHTS:
                w = self._weights(kind, g.n, rng)
                mv = dist_omega(g, w)
                for seed in range(3):
                    assert random_separator(g, w, 1.5, 2, seed) == \
                        random_separator(g, w, 1.5, 2, seed, metric=mv)


class TestRandomSeparator:
    def test_sample_invariants(self):
        g = grid_graph(14)
        w = np.ones(225)
        s = random_separator(g, w, 4.0, 2, seed=3)
        assert set(s.s) == set(s.q_vertices) | set(s.s1) | set(s.s2)
        assert s.alpha_raw == 4 * 2 * (42 * 2 + 2)  # 688 at h=2
        assert s.delta == 4.0 and s.h == 2
        assert s.diameter_bound == (42 * 2 + 2) * 4.0
        rest = sorted(set(range(225)) - set(s.s))
        assert list(s.components) == connected_components(g, subset=rest)
        if s.certificate_holds:
            assert s.max_component_diameter <= s.diameter_bound + 1e-9

    def test_q_stage_doubles_alpha(self):
        g = path_graph(30)
        w = np.ones(30)
        w[7], w[22] = 9.0, 5.0
        s = random_separator(g, w, 4.0, 2, seed=0)
        assert s.q_vertices == (7, 22)
        assert s.q_doubled and s.alpha == 2 * s.alpha_raw
        assert set(s.q_vertices) <= set(s.s)

    def test_deterministic_per_seed(self):
        g = grid_graph(6)
        w = np.ones(49)
        assert random_separator(g, w, 3.0, 2, seed=5) == \
               random_separator(g, w, 3.0, 2, seed=5)

    def test_validation(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            random_separator(g, np.ones(4), 1.0, 0, seed=0)
        with pytest.raises(ValueError):
            random_separator(g, np.ones(4), 0.0, 1, seed=0)

    def test_ball_avoidance_bound_small(self):
        # reduced-trial version of the grid Monte Carlo example; the
        # acceptance suite reruns it at full strength
        g = grid_graph(14)
        w = np.ones(225)
        h, delta, radius = 5, 40.0, 1.0
        center = 112
        ball = set(balls_and_sphere(g, w, center, radius).skinny)
        assert ball  # radius 1 keeps the center itself
        trials = 200
        ok = sum(
            1 for t in range(trials)
            if not ball & set(random_separator(g, w, delta, h, seed=t).s)
        )
        phat = ok / trials
        bound = 1.0 - 4.0 * h * radius / delta
        assert phat >= bound - mc_margin(phat, trials)

    def test_per_vertex_membership_bound(self):
        # light probe vertices make the per-vertex bound informative
        g = path_graph(300)
        w = np.ones(300)
        probes = (50, 150, 250)
        for v in probes:
            w[v] = 1e-3
        delta, h, trials = 6.0, 2, 300
        counts = np.zeros(300)
        alpha = None
        for t in range(trials):
            s = random_separator(g, w, delta, h, seed=t)
            alpha = s.alpha
            counts[list(s.s)] += 1
        for v in range(300):
            bound = alpha * w[v] / delta
            if bound >= 1.0:
                continue  # vacuous for heavy vertices at this scale
            phat = counts[v] / trials
            assert phat <= bound + mc_margin(phat, trials), (v, phat, bound)


class TestParameterChecks:
    """Bad scalars and vertices fail with a ValueError naming the
    parameter, instead of a raw numpy error or a silent answer."""

    BAD_DELTAS = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("delta", BAD_DELTAS)
    def test_random_separator_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and "
                                             "finite"):
            random_separator(grid_graph(4), np.ones(25), delta, 2, seed=0)

    @pytest.mark.parametrize("delta", BAD_DELTAS)
    def test_chopping_tree_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and "
                                             "finite"):
            build_chopping_tree(grid_graph(4), np.ones(25), delta, depth=1,
                                seed=0)

    @pytest.mark.parametrize("h", [2.5, "2"])
    def test_random_separator_h(self, h):
        with pytest.raises(ValueError, match="h must be an integer"):
            random_separator(grid_graph(4), np.ones(25), 1.0, h, seed=0)

    @pytest.mark.parametrize("delta", [math.nan, -1.0])
    def test_shatter_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and "
                                             "finite"):
            shatter(grid_graph(4), np.ones(25), [12], [0.5], delta)

    @pytest.mark.parametrize("tau", [math.nan, -1.0])
    def test_shatter_taus(self, tau):
        # a NaN tau would make the certificate's bound NaN, which every
        # diameter passes
        with pytest.raises(ValueError, match="taus must be nonnegative and "
                                             "finite"):
            shatter(grid_graph(4), np.ones(25), [12], [tau], 8.0)

    @pytest.mark.parametrize("rows", [False, True])
    def test_shatter_subset_inside_ambient(self, rows):
        g = path_graph(6)
        given_rows = {0: np.arange(3.0)} if rows else None
        with pytest.raises(ValueError, match="subset must lie inside ambient"):
            shatter(g, np.ones(6), [0], [0.0], 1.0, subset=[0, 1, 2, 3],
                    ambient=[0, 1, 2], rows=given_rows)

    @pytest.mark.parametrize("x0", [99, -1])
    def test_ball_map_center(self, x0):
        with pytest.raises(ValueError, match="x0 must be a vertex"):
            rounding_map_ball(path_graph(9), np.ones(9), x0, 2.0)

    @pytest.mark.parametrize("f", [[math.nan] * 5,
                                   [0.0, 1.0, math.inf, 3.0, 4.0]])
    def test_sweep_map_finite(self, f):
        with pytest.raises(ValueError, match="f must be finite"):
            sweep_cut(path_graph(5), np.ones(5), f)

    @pytest.mark.parametrize("h, delta, match", [
        (2.5, None, "h must be an integer"),
        (2, math.inf, "delta must be positive and finite"),
    ])
    def test_chop_driver(self, h, delta, match):
        with pytest.raises(ValueError, match=match):
            balanced_separator(grid_graph(4), "chop", h=h, delta=delta)


class TestPaddedPartition:
    def test_blocks_and_alpha(self):
        g = grid_graph(6)
        w = np.ones(49)
        s = random_separator(g, w, 3.0, 2, seed=1)
        pp = padded_partition(g, w, s)
        assert pp.alpha == 8 * s.alpha
        assert pp.delta == s.diameter_bound
        everything = sorted(v for b in pp.blocks for v in b)
        assert everything == list(range(49))
        assert len(pp.blocks) == len(s.components) + len(s.s)


class TestRoundingMaps:
    def test_ball_map_frozen(self):
        f = rounding_map_ball(path_graph(9), np.ones(9), 4, 2.0)
        assert f.tolist() == [2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]

    def test_ball_map_empty_ball(self):
        with pytest.raises(ValueError):
            rounding_map_ball(path_graph(3), np.ones(3), 0, -1.0)

    def test_coloring_deterministic_and_lipschitz(self):
        g = grid_graph(6)
        w = np.ones(49)
        pp = padded_partition(g, w, random_separator(g, w, 3.0, 2, seed=1))
        f1 = rounding_map_coloring(g, w, pp, seed=9)
        f2 = rounding_map_coloring(g, w, pp, seed=9)
        assert np.array_equal(f1, f2)
        mv = dist_omega(g, w)
        assert observed_spread(mv, f1) <= spread(mv) + 1e-9

    def test_coloring_explicit_colors(self):
        g = path_graph(4)
        w = np.ones(4)
        blocks = ((0, 1), (2, 3))
        f = rounding_map_coloring(g, w, blocks, colors=[0, 1])
        assert f.tolist() == [2.0, 1.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            rounding_map_coloring(g, w, blocks, colors=[0, 0])
        with pytest.raises(ValueError):
            rounding_map_coloring(g, w, blocks)  # needs a seed
        with pytest.raises(ValueError):
            rounding_map_coloring(g, w, ())

    def test_distance_to_set_is_the_row_minimum(self, catalog_flat):
        # one multi-source search against the minimum over per-target
        # rows, with zero weights (zero-length edges) mixed in
        graphs = list(catalog_flat) + [grid_graph(5),
                                       random_connected_graph(30, 4, 20)]
        for i, g in enumerate(graphs):
            rng = substream(11, "distance-to-set", i)
            w = rng.random(g.n) * 3.0
            w[rng.random(g.n) < 0.3] = 0.0
            size = int(rng.integers(1, g.n + 1))
            targets = [int(v) for v in rng.choice(g.n, size, replace=False)]
            want = np.min(dist_omega(g, w, targets).dist, axis=0)
            assert np.array_equal(_distance_to_set(g, w, targets), want), g

    def test_distance_to_set_needs_targets(self):
        g = path_graph(3)
        for targets in ([], [3], [-1]):
            with pytest.raises(ValueError):
                _distance_to_set(g, np.ones(3), targets)


def _weighted_catalog(catalog_flat, seed):
    """The catalog plus a grid and a random graph, each with random weights
    of which about 30% are zero (zero-length edges)."""
    graphs = list(catalog_flat) + [grid_graph(5),
                                   random_connected_graph(30, 4, 20)]
    for i, g in enumerate(graphs):
        rng = substream(seed, "weighted-catalog", i)
        w = rng.random(g.n) * 3.0
        w[rng.random(g.n) < 0.3] = 0.0
        yield g, w, rng


def _same_trees(t1, t2):
    assert (t1.delta, t1.depth, t1.ambient) == (t2.delta, t2.depth, t2.ambient)
    assert len(t1.nodes) == len(t2.nodes)
    for a, b in zip(t1.nodes, t2.nodes):
        assert (a.vertices, a.center, a.depth, a.path, a.spacing, a.parent,
                a.tau, a.children) == (b.vertices, b.center, b.depth, b.path,
                                       b.spacing, b.parent, b.tau, b.children)
    assert t1.rows.keys() == t2.rows.keys()
    for k in t1.rows:
        assert np.array_equal(t1.rows[k], t2.rows[k])


class TestSuppliedMetric:
    """Maps, trees and samples built from a caller's all-pairs metric are
    bit-identical to the ones built without it."""

    def test_ball_map(self, catalog_flat):
        for g, w, rng in _weighted_catalog(catalog_flat, 21):
            mv = dist_omega(g, w)
            sp = spread(mv)
            for x0 in rng.choice(g.n, min(g.n, 3), replace=False):
                x0 = int(x0)
                for radius in (sp / 4.0, float(rng.choice(mv.row(x0)))):
                    want = rounding_map_ball(g, w, x0, radius)
                    got = rounding_map_ball(g, w, x0, radius, metric=mv)
                    assert np.array_equal(got, want), (g, x0, radius)

    def test_coloring_map(self, catalog_flat):
        for g, w, rng in _weighted_catalog(catalog_flat, 22):
            mv = dist_omega(g, w)
            labels = rng.integers(0, 3, size=g.n)
            blocks = [tuple(int(v) for v in np.flatnonzero(labels == b))
                      for b in range(3)]
            blocks = [b for b in blocks if b]
            want = rounding_map_coloring(g, w, blocks, seed=5)
            got = rounding_map_coloring(g, w, blocks, seed=5, metric=mv)
            assert np.array_equal(got, want), g

    def test_chopping_tree_and_random_separator(self, catalog_flat):
        for i, (g, w, rng) in enumerate(_weighted_catalog(catalog_flat, 23)):
            mv = dist_omega(g, w)
            diam = float(np.max(mv.matrix()))
            delta = diam / 2.0 if diam > 0 else 1.0
            _same_trees(build_chopping_tree(g, w, delta, depth=2, seed=i),
                        build_chopping_tree(g, w, delta, depth=2, seed=i,
                                            metric=mv))
            # small scales put heavy vertices in Q and trees on subsets
            for scale in (0.1, 0.5, 2.0):
                d = max(scale * delta, 1e-3)
                assert random_separator(g, w, d, 2, seed=i) == \
                    random_separator(g, w, d, 2, seed=i, metric=mv)

    def test_metric_must_cover_the_graph(self):
        g = grid_graph(3)
        w = np.ones(g.n)
        wrong = (dist_omega(g, w, [0]),                  # not all pairs
                 dist_omega(g, w, subset=range(8)),      # a subgraph's
                 dist_omega(grid_graph(2), np.ones(9)))  # another graph's
        pp = padded_partition(g, w, random_separator(g, w, 3.0, 2, seed=1))
        for mv in wrong:
            with pytest.raises(ValueError, match="all-pairs"):
                rounding_map_ball(g, w, 0, 1.0, metric=mv)
            with pytest.raises(ValueError, match="all-pairs"):
                rounding_map_coloring(g, w, pp, seed=1, metric=mv)
            with pytest.raises(ValueError, match="all-pairs"):
                build_chopping_tree(g, w, 3.0, depth=1, seed=1, metric=mv)
            with pytest.raises(ValueError, match="all-pairs"):
                random_separator(g, w, 3.0, 2, seed=1, metric=mv)


def _sweep_cut_per_threshold(graph, omega, f):
    """The sweep as one Python pass per threshold: the reference that
    ``sweep_cut``'s blocked array passes must reproduce."""
    w = np.asarray(omega, dtype=float)
    vals = np.asarray(f, dtype=float)
    partition._edge_lipschitz_check(graph, w, vals)
    n = graph.n
    eu, ev, _ = graph._structure()
    thresholds = np.unique(np.concatenate([vals - w / 2.0, vals + w / 2.0]))
    best_u, best_ratio = (), math.inf
    for theta in thresholds:
        a = vals <= theta
        slab = np.abs(vals - theta) <= w / 2.0 + LIPSCHITZ_TOL
        for side in (a | slab, ~a | slab):
            size = int(side.sum())
            if size == 0:
                continue
            cross = np.concatenate([eu[side[eu] & ~side[ev]],
                                    ev[side[ev] & ~side[eu]]])
            n_boundary = int(np.unique(cross).size)
            if (size - n_boundary) * 2 > n:
                continue
            ratio = n_boundary / size
            if ratio < best_ratio - 1e-15:
                best_ratio = ratio
                best_u = tuple(int(v) for v in np.flatnonzero(side))
    return best_u, best_ratio


def _leaks(graph, w, f):
    """Whether some sweep threshold has an edge from A minus its slab to
    B minus its slab."""
    vals = np.asarray(f, dtype=float)
    eu, ev, _ = graph._structure()
    for theta in np.unique(np.concatenate([vals - w / 2.0, vals + w / 2.0])):
        a = vals <= theta
        slab = np.abs(vals - theta) <= w / 2.0 + LIPSCHITZ_TOL
        a_clean, b_clean = a & ~slab, ~a & ~slab
        if np.any((a_clean[eu] & b_clean[ev]) | (a_clean[ev] & b_clean[eu])):
            return True
    return False


class TestSweepMatchesPerThresholdLoop:
    def _maps(self, catalog_flat):
        """Random 1-Lipschitz maps (McShane extensions of random values,
        nearest-target distances) and tie-heavy integer maps."""
        for g, w, rng in _weighted_catalog(catalog_flat, 24):
            mv = dist_omega(g, w)
            r = rng.random(g.n) * 2.0 * max(float(np.max(mv.dist)), 1.0)
            yield g, w, np.min(r[:, None] + mv.dist, axis=0)
            yield g, w, mv.row(int(rng.integers(g.n)))
            unit = np.ones(g.n)
            hops = dist_omega(g, unit).dist
            yield g, unit, np.floor(np.min(r[:, None] + hops, axis=0))
            yield g, unit, np.min(hops[rng.random(g.n) < 0.3], axis=0,
                                  initial=0.0)

    def test_same_cut(self, catalog_flat):
        for g, w, f in self._maps(catalog_flat):
            assert sweep_cut(g, w, f) == _sweep_cut_per_threshold(g, w, f)

    def test_same_cut_in_small_blocks(self, catalog_flat, monkeypatch):
        monkeypatch.setattr(partition, "_SWEEP_CELLS", 7)
        for g, w, f in self._maps(catalog_flat):
            assert sweep_cut(g, w, f) == _sweep_cut_per_threshold(g, w, f)

    @pytest.mark.parametrize("cells", [1 << 18, 5])
    def test_every_leak_fails_the_edge_check(self, monkeypatch, cells):
        # the sweep has no slab-leak check of its own: a leak needs a
        # Lipschitz excess above 2 * LIPSCHITZ_TOL, which the edge check
        # rejects first, in blocks of any size
        monkeypatch.setattr(partition, "_SWEEP_CELLS", cells)
        g = path_graph(7)
        w = np.ones(7)
        # vertex 6 puts thresholds inside the jump across edge (2, 3)
        f = [0.0, 1.0, 2.0, 6.0, 7.0, 8.0, 4.0]
        assert _leaks(g, w, f)
        with pytest.raises(RuntimeError, match=r"^map not 1-Lipschitz on "
                                               r"edge \(2, 3\): "):
            sweep_cut(g, w, f)
        # near-tight maps: distances to a vertex, scaled by 1 + eps and
        # shifted far from zero, where the slab tests round the most
        rng = np.random.default_rng(cells)
        leaking = 0
        for trial in range(300):
            g = random_connected_graph(int(rng.integers(2, 12)), trial,
                                       int(rng.integers(0, 6)))
            w = rng.choice([0.0, 0.1, 0.5, 1.0, 1.7, 1e7], size=g.n)
            row = dist_omega(g, w, [0]).row(0)
            eps = float(rng.choice([0.0, 1e-10, 5e-10, 1e-9, 3e-9, 1e-8]))
            f = float(rng.choice([0.0, -3.3, 1e6, 1e9])) + row * (1.0 + eps)
            if not _leaks(g, w, f):
                continue
            leaking += 1
            with pytest.raises(RuntimeError, match="^map not 1-Lipschitz"):
                sweep_cut(g, w, f)
        assert leaking >= 20


class TestSweepCut:
    def test_frozen_path(self):
        u, ratio = sweep_cut(path_graph(5), np.ones(5), [0.0, 1.0, 2.0, 3.0, 4.0])
        assert u == (0, 1, 2) and ratio == pytest.approx(1 / 3)

    def test_constant_map_has_no_separating_threshold(self):
        assert sweep_cut(complete_graph(3), np.ones(3), [0.5] * 3) == ((), math.inf)

    def test_rejects_non_lipschitz(self):
        with pytest.raises(RuntimeError):
            sweep_cut(path_graph(3), np.ones(3), [0.0, 9.0, 0.0])

    def test_interior_feasibility(self):
        g = grid_graph(4)
        w = np.ones(25)
        f = rounding_map_ball(g, w, 12, 2.0)
        u, ratio = sweep_cut(g, w, f)
        inside = set(u)
        interior = [v for v in u if all(nb in inside for nb in g.neighbors(v))]
        assert 2 * len(interior) <= g.n
        boundary = len(u) - len(interior)
        assert ratio == pytest.approx(boundary / len(u))

    def test_separator_inequality_on_sweep_triples(self):
        # every threshold triple (A, B, S) respects |S| >= phi |A||B| / n
        for g in (path_graph(7), cycle_graph(8), grid_graph(2),
                  random_connected_graph(10, 3, extra_edges=4)):
            phi, _ = vertex_expansion_exact(g)
            w = np.ones(g.n)
            f = dist_omega(g, w).row(0)
            thresholds = np.unique(np.concatenate([f - 0.5, f + 0.5]))
            for theta in thresholds:
                a = f <= theta
                slab = np.abs(f - theta) <= 0.5 + 1e-9
                a_clean = a & ~slab
                b_clean = ~a & ~slab
                assert not any(
                    (a_clean[u] and b_clean[v]) or (a_clean[v] and b_clean[u])
                    for u, v in g.edges
                )
                lhs = int(slab.sum())
                rhs = phi * int(a_clean.sum()) * int(b_clean.sum()) / g.n
                assert lhs >= rhs - 1e-9


class TestWitnessMaps:
    def test_frozen_path_witnesses(self):
        f1, f2, om = vertex_expansion_witnesses(path_graph(5), [0, 1, 2])
        assert f1.tolist() == [-0.5, -0.5, 0.0, 0.5, 0.5]
        assert f2.tolist() == [0.0, 0.0, -0.5, 0.0, 0.0]
        assert om.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_whole_graph_rejected(self):
        with pytest.raises(ValueError):
            vertex_expansion_witnesses(path_graph(3), [0, 1, 2])
        with pytest.raises(ValueError):
            vertex_expansion_witnesses(path_graph(3), [])

    def test_witness_spread_certifies_expansion(self, catalog):
        # max(sobs) >= |U| / (3n) under the boundary indicator metric,
        # whenever the interior of U covers at most half the graph
        for g in catalog[5][:10]:
            phi, u = vertex_expansion_exact(g)
            f1, f2, om = vertex_expansion_witnesses(g, u)
            boundary = {
                v for v in u
                if any(nb not in set(u) for nb in g.neighbors(v))
            }
            if 2 * (len(u) - len(boundary)) > g.n:
                continue
            mv = dist_omega(g, om)
            got = max(observed_spread(mv, f1), observed_spread(mv, f2))
            assert got >= len(u) / (3.0 * g.n) - 1e-9


class TestMonteCarloLemmas:
    """Reduced-trial module versions; acceptance reruns at 10^4 trials."""

    def test_single_cut_avoidance(self):
        g = grid_graph(9)
        w = np.ones(100)
        delta = 12.0
        center = 0
        mv = dist_omega(g, w, [center])
        trials = 2000
        rng = substream(99, "lemma-cut")
        taus = rng.uniform(0.0, delta, size=trials)
        for v, radius in ((55, 2.0), (99, 1.0), (33, 1.5)):
            ball = set(balls_and_sphere(g, w, v, radius).skinny)
            ok = sum(
                1 for t in range(trials)
                if not ball & set(cut_delta(g, w, center, taus[t], delta, metric=mv))
            )
            phat = ok / trials
            bound = 1.0 - 2.0 * radius / delta
            assert phat >= bound - mc_margin(phat, trials), (v, radius, phat)

    def test_depth_k_chop_survival(self):
        g = grid_graph(6)
        w = np.ones(49)
        delta, depth = 8.0, 2
        v, radius = 24, 0.75
        ball = set(balls_and_sphere(g, w, v, radius).skinny)
        trials = 300
        ok = 0
        for t in range(trials):
            tree = build_chopping_tree(g, w, delta, depth=depth, seed=t)
            for idx in tree.nodes_at_depth(depth):
                if ball <= set(tree.nodes[idx].vertices):
                    ok += 1
                    break
        phat = ok / trials
        bound = 1.0 - 2.0 * depth * radius / delta
        assert phat >= bound - mc_margin(phat, trials)

    def test_shard_avoidance(self):
        g = grid_graph(9)
        w = np.ones(100)
        centers = [0, 55, 99]
        base, dprime = 4.0, 10.0
        v, radius = 44, 1.0
        ball = set(balls_and_sphere(g, w, v, radius).skinny)
        mv = dist_omega(g, w, centers)
        rows = {c: mv.row(c) for c in centers}
        trials = 1000
        rng = substream(17, "lemma-shard")
        ok = 0
        for _ in range(trials):
            taus = rng.uniform(0.0, dprime, size=3)
            cut, _ = shatter(g, w, centers, taus, base, rows=rows)
            if not ball & set(cut):
                ok += 1
        phat = ok / trials
        bound = 1.0 - 2.0 * len(centers) * radius / dprime
        assert phat >= bound - mc_margin(phat, trials)


class TestBalancedSeparatorDriver:
    def test_path_midpoint(self):
        assert balanced_separator(path_graph(100)) == (50,)

    def test_all_strategies_balance_grid(self):
        g = grid_graph(5)
        for strategy in ("spectral", "lp-round", "chop"):
            s = balanced_separator(g, strategy=strategy, seed=2)
            rest = [v for v in range(g.n) if v not in s]
            limit = 2 * g.n / 3
            assert all(
                len(c) <= limit for c in connected_components(g, subset=rest)
            ), strategy
            assert 0 < len(s) <= 18, strategy

    def test_already_balanced_graph_needs_nothing(self):
        two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert balanced_separator(two_triangles) == ()

    def test_weighted_measure(self):
        # with all the mass at the ends, the middle need not be cut
        g = path_graph(9)
        mu = np.zeros(9)
        mu[0], mu[8] = 1.0, 1.0
        s = balanced_separator(g, mu=mu)
        rest = [v for v in range(9) if v not in s]
        for c in connected_components(g, subset=rest):
            assert sum(mu[v] for v in c) <= 2 * mu.sum() / 3 + 1e-12

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            balanced_separator(path_graph(4), strategy="magic")

    def test_chop_parameters_checked_up_front(self):
        # the two triangles need no cut, so a bad value can only be caught
        # before the first component is looked at
        two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        for g in (grid_graph(4), two_triangles):
            with pytest.raises(ValueError, match="h must be at least 1, got 0"):
                balanced_separator(g, strategy="chop", h=0)
            for delta in (-1.0, 0.0, math.nan):
                with pytest.raises(ValueError, match="delta must be positive"):
                    balanced_separator(g, strategy="chop", delta=delta)
        # spectral and lp-round ignore both parameters
        for strategy in ("spectral", "lp-round"):
            assert balanced_separator(grid_graph(4), strategy=strategy, h=0,
                                      delta=-1.0) == \
                balanced_separator(grid_graph(4), strategy=strategy)

    @settings(max_examples=15, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(4, 40),
            seed=st.integers(0, 10**5),
            extra_edges=st.integers(0, 10),
        ),
        seed=st.integers(0, 100),
    )
    def test_spectral_driver_balances_random_graphs(self, g, seed):
        s = balanced_separator(g, seed=seed)
        rest = [v for v in range(g.n) if v not in s]
        limit = 2 * g.n / 3
        assert all(len(c) <= limit for c in connected_components(g, subset=rest))
