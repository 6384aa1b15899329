import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog, minimize

from conftest import random_connected_graph
from test_rig import random_regions
from rigsep.graph import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    dist_omega,
    grid_graph,
    path_graph,
    spread,
)
from rigsep import flows
from rigsep._rng import substream
from rigsep.flows import (
    _l2_dual_bound,
    CrossingReport,
    HFlow,
    MultiFlow,
    check_duality,
    congestion_map,
    crossing_congestion,
    cspread_lp,
    integral_rounding,
    rig_flow_transfer,
    vcong_lp,
)
from rigsep.generators import generate
from rigsep.oracles import cspread_exact_small
from rigsep.rig import RegionAssignment, build_rig, distinguished_vertices

STAR4 = Graph(4, [(0, 3), (1, 3), (2, 3)])
K33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
L2_SLSQP_VALUES = Path(__file__).parent / "data" / "l2_slsqp_values.json"


def star_regions():
    # three spokes sharing the hub turn the star into a triangle rig
    return RegionAssignment(STAR4, ((0, 3), (1, 3), (2, 3)))


class TestMultiFlow:
    def test_congestion_frozen(self):
        g = path_graph(4)
        flow = MultiFlow(g, ((0, 1, 2), (2, 3)), (1.0, 2.0))
        assert congestion_map(flow).tolist() == [1.0, 1.0, 3.0, 2.0]
        assert flow.total_weight == 3.0

    def test_zero_length_path_charges_once(self):
        g = path_graph(2)
        flow = MultiFlow(g, ((0,),), (2.5,))
        assert congestion_map(flow).tolist() == [2.5, 0.0]

    def test_repeated_vertex_charges_once(self):
        g = cycle_graph(3)
        flow = MultiFlow(g, ((0, 1, 0),), (1.0,))
        assert congestion_map(flow).tolist() == [1.0, 1.0, 0.0]

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            MultiFlow(g, ((),), (1.0,))
        with pytest.raises(ValueError):
            MultiFlow(g, ((0, 2),), (1.0,))  # not an edge
        with pytest.raises(ValueError):
            MultiFlow(g, ((0, 1),), (1.0, 2.0))
        with pytest.raises(ValueError):
            MultiFlow(g, ((0, 1),), (-1.0,))
        with pytest.raises(ValueError):
            MultiFlow(g, ((0, 5),), (1.0,))


class TestHFlow:
    def test_well_formed(self):
        host = cycle_graph(4)
        demand = Graph(2, [(0, 1)])
        f = HFlow(host, demand, (0, 2),
                  {(0, 1): {(0, 1, 2): 0.5, (0, 3, 2): 0.5}})
        assert f.proper
        agg = f.aggregate()
        assert agg.paths == ((0, 1, 2), (0, 3, 2))
        assert agg.weights == (0.5, 0.5)

    def test_demand_weights_override(self):
        host = path_graph(3)
        demand = Graph(2, [(0, 1)])
        f = HFlow(host, demand, (0, 2), {(0, 1): {(0, 1, 2): 2.0}},
                  demand_weights={(0, 1): 2.0})
        assert f.demand_weight((0, 1)) == 2.0
        with pytest.raises(ValueError):
            HFlow(host, demand, (0, 2), {(0, 1): {(0, 1, 2): 1.0}},
                  demand_weights={(0, 1): 2.0})

    def test_validation(self):
        host = path_graph(3)
        demand = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            HFlow(host, demand, (0,), {(0, 1): {(0, 1, 2): 1.0}})
        with pytest.raises(ValueError):
            HFlow(host, demand, (0, 9), {(0, 1): {(0, 1, 2): 1.0}})
        with pytest.raises(ValueError):
            # path joins the wrong host vertices
            HFlow(host, demand, (0, 2), {(0, 1): {(0, 1): 1.0}})
        with pytest.raises(ValueError):
            # (0, 1) only routes half its demand
            HFlow(host, demand, (0, 2), {(0, 1): {(0, 1, 2): 0.5}})
        with pytest.raises(ValueError):
            HFlow(host, Graph(3, [(0, 1)]), (0, 2, 1),
                  {(1, 2): {(2, 1): 1.0}})  # not a demand edge

    def test_improper_map_allowed(self):
        host = path_graph(3)
        demand = Graph(2, [(0, 1)])
        f = HFlow(host, demand, (1, 1), {(0, 1): {(1,): 1.0}})
        assert not f.proper


class TestCrossing:
    def test_disjoint_demands_through_shared_hub(self):
        demand = Graph(4, [(0, 1), (2, 3)])
        host = Graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        f = HFlow(host, demand, (0, 1, 3, 4),
                  {(0, 1): {(0, 2, 1): 1.0}, (2, 3): {(3, 2, 4): 1.0}})
        rep = crossing_congestion(f)
        assert rep == CrossingReport(cross=1.0, congestion_l2_sq=8.0)

    def test_shared_endpoint_pairs_do_not_count(self):
        host = cycle_graph(3)
        demand = Graph(3, [(0, 1), (1, 2)])
        f = HFlow(host, demand, (0, 1, 2),
                  {(0, 1): {(0, 1): 1.0}, (1, 2): {(1, 2): 1.0}})
        assert crossing_congestion(f).cross == 0.0

    def test_fractional_mass_multiplies(self):
        demand = Graph(4, [(0, 1), (2, 3)])
        host = Graph(5, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        f = HFlow(host, demand, (0, 1, 3, 4),
                  {(0, 1): {(0, 2, 1): 1.0},
                   (2, 3): {(3, 2, 4): 0.25, (3, 4): 0.75}})
        # only the 0.25 share passes through the hub
        assert crossing_congestion(f).cross == pytest.approx(0.25)


class TestIntegralRounding:
    def _half_half(self):
        host = cycle_graph(4)
        demand = Graph(2, [(0, 1)])
        return HFlow(host, demand, (0, 2),
                     {(0, 1): {(0, 1, 2): 0.5, (0, 3, 2): 0.5}})

    def test_single_path_at_full_demand(self):
        f = self._half_half()
        r = integral_rounding(f, seed=0)
        bundle = r.edge_paths[(0, 1)]
        assert len(bundle) == 1
        (path, w), = bundle.items()
        assert path in f.edge_paths[(0, 1)]
        assert w == 1.0
        assert integral_rounding(f, seed=0).edge_paths == r.edge_paths

    def test_respects_demand_weight(self):
        host = path_graph(3)
        demand = Graph(2, [(0, 1)])
        f = HFlow(host, demand, (0, 2), {(0, 1): {(0, 1, 2): 3.0}},
                  demand_weights={(0, 1): 3.0})
        r = integral_rounding(f, seed=4)
        assert r.edge_paths[(0, 1)] == {(0, 1, 2): 3.0}

    def test_half_half_frequencies(self):
        f = self._half_half()
        trials = 2000
        hits = sum(
            1 for s in range(trials)
            if (0, 1, 2) in integral_rounding(f, seed=s).edge_paths[(0, 1)]
        )
        # fair coin: 3 sigma = 3 * sqrt(2000 / 4) ~ 67
        assert abs(hits - trials / 2) <= 67


class TestCspreadLP:
    def test_l1_frozen_values(self):
        for g, want in ((complete_graph(2), 0.5), (complete_graph(3), 2 / 3),
                        (path_graph(3), 4 / 3), (path_graph(4), 1.75),
                        (cycle_graph(5), 1.2)):
            res = cspread_lp(g, 1)
            assert res.value == pytest.approx(want, abs=1e-6), g
            assert res.diagnostics["norm"] == pytest.approx(1.0, abs=1e-6)
            assert spread(dist_omega(g, res.omega)) == pytest.approx(
                res.value, abs=1e-6)

    def test_l1_matches_grid_oracle(self, catalog):
        for g in catalog[4]:
            assert cspread_lp(g, 1).value == pytest.approx(
                cspread_exact_small(g, 1), abs=1e-3)

    def test_l2_frozen_and_oracle(self):
        assert cspread_lp(complete_graph(2), 2).value == pytest.approx(0.5)
        for g in (path_graph(3), cycle_graph(4), complete_graph(4)):
            got = cspread_lp(g, 2)
            assert got.diagnostics["norm"] == pytest.approx(1.0, rel=1e-6)
            assert got.value == pytest.approx(
                cspread_exact_small(g, 2), abs=2e-3), g

    def test_l2_closed_forms(self):
        # K_n routes every pair directly: c = n - 1 everywhere
        for n in range(2, 7):
            assert cspread_lp(complete_graph(n), 2).value == pytest.approx(
                (n - 1) / n, abs=1e-9), n
        assert cspread_lp(path_graph(3), 2).value == pytest.approx(
            2 * math.sqrt(2) / 3, abs=1e-9)

    def test_l2_certified_over_catalog(self, catalog_flat):
        for g in catalog_flat:
            res = cspread_lp(g, 2)
            assert np.all(res.omega >= 0), g
            assert math.sqrt(np.mean(res.omega ** 2)) == pytest.approx(
                1.0, abs=1e-9), g
            assert res.diagnostics["upper_bound"] == pytest.approx(
                res.value, abs=1e-6), g

    def test_l2_no_worse_than_ascent(self):
        # spreads a projected supergradient ascent reached on
        # TestDuality.L2_REGRESSIONS
        ascent = (3.6058286148956116, 2.516163133943194, 1.7967352085816966,
                  2.045107402591293, 1.6899727563683147)
        for g, old in zip(TestDuality.L2_REGRESSIONS, ascent):
            res = cspread_lp(g, 2)
            assert res.value >= old - 1e-9, g
            assert res.diagnostics["upper_bound"] - res.value <= \
                1e-6 * res.value, g

    def test_p1_size_guard(self):
        # past the p = 1 LP's bound of 54 vertices: refuse at once
        # rather than solve
        g = path_graph(55)
        for call in (lambda: cspread_lp(g, 1),
                     lambda: check_duality(g, math.inf)):
            t0 = time.perf_counter()
            with pytest.raises(ValueError):
                call()
            assert time.perf_counter() - t0 < 1.0

    def test_p1_lp_rows(self, monkeypatch):
        # the spread LP's constraint matrix against the row-by-row form
        calls = []

        def capture(c, **kw):
            calls.append(kw)
            return linprog(c, **kw)

        monkeypatch.setattr(flows, "linprog", capture)
        for g in (path_graph(4), cycle_graph(5), grid_graph(2),
                  random_connected_graph(7, 1, 4)):
            calls.clear()
            cspread_lp(g, 1)
            (kw,) = calls
            n = g.n
            want = np.zeros((2 * g.m * n + 1, n + n * n))
            row = 0
            for u in range(n):
                for a0, b0 in g.edges:
                    for a, b in ((a0, b0), (b0, a0)):
                        want[row, n + u * n + b] += 1.0
                        want[row, n + u * n + a] -= 1.0
                        want[row, a] -= 0.5
                        want[row, b] -= 0.5
                        row += 1
            want[row, :n] = 1.0 / n
            assert np.array_equal(kw["A_ub"].toarray(), want), g
            bounds = np.asarray(kw["bounds"])
            diagonal = n + np.arange(n) * (n + 1)
            assert np.all(bounds[:, 0] == 0.0)
            assert np.all(bounds[diagonal, 1] == 0.0)
            assert np.all(np.delete(bounds[:, 1], diagonal) == np.inf)

    def test_guards(self):
        with pytest.raises(ValueError):
            cspread_lp(Graph(2, []), 1)
        with pytest.raises(ValueError):
            cspread_lp(path_graph(3), 3)
        with pytest.raises(ValueError):
            cspread_lp(path_graph(94), 2)
        trivial = cspread_lp(Graph(1, []), 1)
        assert trivial.value == 0.0


class TestVcongLP:
    def test_frozen_values(self):
        for g, want in ((complete_graph(2), (2.0, math.sqrt(2.0), 1.0)),
                        (complete_graph(3), (6.0, math.sqrt(12.0), 2.0)),
                        (path_graph(3), (7.0, math.sqrt(17.0), 3.0))):
            for p, val in zip((1, 2, math.inf), want):
                res = vcong_lp(g, p)
                assert res.value == pytest.approx(val, abs=1e-4), (g, p)

    def test_c4_linf_fractional_optimum(self):
        # antipodal demands split across the two sides of the cycle
        assert vcong_lp(cycle_graph(4), math.inf).value == \
            pytest.approx(3.5, abs=1e-6)

    def test_flow_is_feasible_and_matches_value(self):
        g = grid_graph(2)
        res = vcong_lp(g, math.inf)
        c = congestion_map(res.flow.aggregate())
        assert float(np.max(c)) == pytest.approx(res.value, abs=1e-6)
        res1 = vcong_lp(g, 1)
        assert congestion_map(res1.flow.aggregate()).sum() == \
            pytest.approx(res1.value)

    def test_guards(self):
        with pytest.raises(ValueError):
            vcong_lp(Graph(3, [(0, 1)]), 1)
        with pytest.raises(ValueError):
            vcong_lp(path_graph(3), 1.5)
        with pytest.raises(ValueError):
            vcong_lp(path_graph(94), 2)
        with pytest.raises(ValueError):
            check_duality(path_graph(94), 2)
        trivial = vcong_lp(Graph(1, []), math.inf)
        assert trivial.value == 0.0


def _dense_pool(n, demands, pool):
    """Columns, coverage and incidence written out entry by entry."""
    cols = [(e, p) for e in demands for p in pool[e]]
    cov = np.zeros((len(demands), len(cols)))
    inc = np.zeros((n, len(cols)))
    for j, (e, p) in enumerate(cols):
        cov[demands.index(e), j] = 1.0
        for v in p:
            inc[v, j] = 1.0
    return cols, cov, inc


def _recorded_pools(monkeypatch, runs):
    """Every (n, demands, pool) a column generation built matrices for."""
    seen = []
    build = flows._pool_matrices

    def record(graph, demands, pool):
        seen.append((graph.n, list(demands),
                     {e: list(ps) for e, ps in pool.items()}))
        return build(graph, demands, pool)

    monkeypatch.setattr(flows, "_pool_matrices", record)
    for g, p in runs:
        vcong_lp(g, p)
    monkeypatch.undo()
    return seen


class TestPoolMatrices:
    def _check(self, n, demands, pool):
        cols, cov, inc = flows._pool_matrices(Graph(n), demands, pool)
        want_cols, want_cov, want_inc = _dense_pool(n, demands, pool)
        assert cols == want_cols
        for got, want in ((cov, want_cov), (inc, want_inc)):
            assert got.format == "csr" and got.has_canonical_format
            assert got.dtype == np.float64
            assert np.array_equal(got.toarray(), want)

    def test_pools_of_real_runs(self, catalog, monkeypatch):
        runs = [(g, p) for n in sorted(catalog) for g in catalog[n]
                for p in (2, math.inf)]
        runs += [(grid_graph(3), math.inf), (cycle_graph(8), 2),
                 (random_connected_graph(10, 3, 6), 2),
                 (random_connected_graph(10, 3, 6), math.inf)]
        pools = _recorded_pools(monkeypatch, runs)
        assert len(pools) >= len(runs)
        # some pools grew past the seed paths
        assert any(sum(map(len, pool.values())) > len(d)
                   for _, d, pool in pools)
        for n, demands, pool in pools:
            self._check(n, demands, pool)

    def test_repeated_vertex_counts_once(self):
        demands = [(0, 1), (0, 2), (1, 2)]
        pool = {(0, 1): [(0, 1)], (0, 2): [(0, 1, 2), (0, 3, 0, 2)],
                (1, 2): [(1, 2), (1, 0, 3, 0, 2), (1, 3, 2)]}
        self._check(4, demands, pool)
        _, _, inc = flows._pool_matrices(Graph(4), demands, pool)
        assert inc[0, 2] == inc[0, 4] == 1.0 and inc.sum() == 17


@pytest.fixture(scope="module")
def l2_master_calls(catalog_flat):
    """(graph, shift, cov, inc, weights, objective) of every p = 2 master
    call in vcong_lp(g, 2) and cspread_lp(g, 2) over the catalog, K_3,3
    and G(n, p) with 8 to 20 vertices."""
    graphs = list(catalog_flat) + [K33] + [
        generate("gnp", n, s).graph for n in range(8, 21, 3) for s in (0, 1)]
    calls = []
    build = flows._least_squares_master

    def record(shift):
        master = build(shift)

        def call(cols, cov, inc):
            out = master(cols, cov, inc)
            calls.append((g, shift, cov, inc, out[0], out[3]))
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_least_squares_master", record)
        for g in graphs:
            vcong_lp(g, 2)
            cspread_lp(g, 2)
    return calls


def _slsqp_objective(shift, cov, inc) -> float:
    """The master's optimum as an SLSQP solve from the even split finds
    it, with the settings the p = 2 master once used."""
    a, e = inc.toarray(), cov.toarray()
    sizes = np.diff(cov.indptr)
    res = minimize(lambda x: float(np.sum((a @ x - shift) ** 2)),
                   1.0 / np.repeat(sizes, sizes),
                   jac=lambda x: 2.0 * (a.T @ (a @ x - shift)),
                   method="SLSQP", bounds=[(0, None)] * a.shape[1],
                   constraints=[{"type": "eq", "fun": lambda x: e @ x - 1.0,
                                 "jac": lambda x: e}],
                   options={"maxiter": 400, "ftol": 1e-12})
    return float(res.fun)


class TestLeastSquaresMaster:
    def test_kkt(self, l2_master_calls):
        # some pools grew past the seed paths
        assert any(inc.shape[1] > cov.shape[0]
                   for _, _, cov, inc, _, _ in l2_master_calls)
        for g, shift, cov, inc, x, objective in l2_master_calls:
            assert np.all(x >= 0), g
            assert np.max(np.abs(cov @ x - 1.0)) <= 1e-12, g
            residual = inc @ x - shift
            assert objective == pytest.approx(residual @ residual,
                                              rel=1e-12), g
            grad = 2.0 * (inc.T @ residual)
            tol = 1e-9 * max(1.0, float(np.abs(grad).max()))
            starts = cov.indptr[:-1]
            demand = np.repeat(np.arange(starts.size), np.diff(cov.indptr))
            used = np.minimum.reduceat(np.where(x > 0, grad, np.inf), starts)
            # no pooled column undercuts the columns its demand uses ...
            assert np.all(grad >= used[demand] - tol), (g, shift)
            # ... and those all price alike
            assert np.all(grad[x > 0] <= used[demand][x > 0] + tol), (g, shift)

    def test_no_worse_than_slsqp(self, l2_master_calls):
        for g, shift, cov, inc, _, objective in l2_master_calls:
            ref = _slsqp_objective(shift, cov, inc)
            assert objective <= ref + 1e-9 * max(1.0, ref), (g, shift)

    def test_k33_third_round(self, l2_master_calls):
        # NNLS with weighted equality rows stopped at 79.18 here
        got = [obj for g, shift, _, _, _, obj in l2_master_calls
               if g is K33 and shift == 2.5]
        assert got[2] == pytest.approx(73.5, abs=1e-9)


class TestDuality:
    GRAPHS = (complete_graph(2), complete_graph(3), path_graph(3),
              cycle_graph(5), path_graph(5))
    # the p = 2 corrected sides on GRAPHS, as a dual solve over the l2
    # ball gave them
    L2_CORRECTED = (math.sqrt(2.0), math.sqrt(12.0), math.sqrt(17.0),
                    math.sqrt(125.0), 13.9283883)
    # p = 2 inputs on which a dual solve over the l2 ball once failed
    L2_REGRESSIONS = (path_graph(10), grid_graph(3),
                      generate("gnp", 12, 0).graph,
                      generate("gnp", 16, 1).graph,
                      generate("planar-triangulation", 14, 0).graph)

    @pytest.mark.parametrize("p", (1, 2, math.inf))
    def test_corrected_identity_holds(self, p):
        graphs = self.GRAPHS + (self.L2_REGRESSIONS if p == 2 else ())
        reps = [check_duality(g, p) for g in graphs]
        for g, rep in zip(graphs, reps):
            assert rep.ok, (g, p, rep.corrected_rel_gap)
            tol = 1e-6 if p == 1 else 1e-4
            assert rep.corrected_rel_gap <= tol
        if p == 2:
            got = [rep.corrected_rhs for rep in reps[:len(self.GRAPHS)]]
            assert got == pytest.approx(self.L2_CORRECTED, abs=1e-6)

    def test_l2_no_worse_than_slsqp_master(self, catalog_flat):
        # values the SLSQP master reached, over the catalog and 21 G(n, p)
        ref = json.loads(L2_SLSQP_VALUES.read_text())
        assert len(ref["catalog"]) == len(catalog_flat)
        runs = [(g, v, c) for g, (v, c) in zip(catalog_flat, ref["catalog"])]
        runs += [(generate("gnp", n, s).graph, v, c)
                 for n, s, v, c in ref["gnp"]]
        for g, vcong, cspread in runs:
            rep = check_duality(g, 2)
            assert rep.cspread >= cspread - 1e-9 * cspread, g
            assert rep.vcong <= vcong * (1.0 + 1e-9), g
            assert rep.corrected_rel_gap <= 1e-9, g

    def test_l2_at_size_cap(self):
        g = generate("gnp", flows._P2_MAX_N, 0).graph
        assert g.n == flows._P2_MAX_N
        rep = check_duality(g, 2)
        assert rep.ok and rep.corrected_rel_gap <= 1e-9

    def test_l2_bound_is_a_certificate(self, catalog_flat):
        # weak duality: the bound at any routing's congestion stays below
        # that routing's l2 congestion, not only at the p = 2 optimum
        for g in catalog_flat:
            for p in (1, math.inf):
                c = congestion_map(vcong_lp(g, p).flow.aggregate())
                norm = float(np.linalg.norm(c))
                assert _l2_dual_bound(g, c) <= norm + 1e-9, (g, p)
        # min-hop routing is far from l2-optimal on the grid, and the
        # bound says so
        g = grid_graph(3)
        c = congestion_map(vcong_lp(g, 1).flow.aggregate())
        norm = float(np.linalg.norm(c))
        assert _l2_dual_bound(g, c) < 0.95 * norm

    def test_inf_one_solve_matches_exact_lp(self, catalog_flat):
        # the catalog, the 50 graphs of acceptance criterion 1 and G(n, p)
        graphs = list(catalog_flat)
        for i in range(50):
            n = int(substream(2026, "dual", i).integers(7, 13))
            graphs.append(random_connected_graph(n, i, extra_edges=i % 9))
        graphs += [generate("gnp", 20, 0).graph, generate("gnp", 30, 0).graph]
        for g in graphs:
            rep = check_duality(g, math.inf)
            assert rep.vcong == vcong_lp(g, math.inf).value, g
            exact = cspread_lp(g, 1).value
            assert abs(rep.cspread - exact) <= 1e-9 * exact, g
            assert rep.corrected_rel_gap <= 1e-9, g

    def test_inf_never_solves_the_spread_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the p = 1 spread LP was solved")

        monkeypatch.setattr(flows, "_cspread_lp_exact", refuse)
        monkeypatch.setattr(flows, "cspread_lp", refuse)
        for g in (Graph(1, []), path_graph(3), cycle_graph(10),
                  grid_graph(3), generate("gnp", 20, 0).graph):
            assert check_duality(g, math.inf).ok, g

    def test_inf_guards(self, monkeypatch):
        g = grid_graph(3)
        solve = flows._column_generation

        def corrupt(scale=1.0, prices=lambda z: z):
            def run(*args, **kwargs):
                flow, diag, value, z = solve(*args, **kwargs)
                return flow, diag, scale * value, prices(z.copy())
            monkeypatch.setattr(flows, "_column_generation", run)

        # no mean-one weight spreads beyond the routing's bound, so a
        # congestion below the true one breaks weak duality
        corrupt(scale=0.99)
        with pytest.raises(RuntimeError, match="exceeds the routing bound"):
            check_duality(g, math.inf)
        corrupt(prices=lambda z: 0.0 * z)
        with pytest.raises(RuntimeError, match="prices sum to"):
            check_duality(g, math.inf)

        # prices off the optimum spread less: a gap, not an error
        def bump(z):
            z[np.argmax(z)] *= 10.0
            return z

        corrupt(prices=bump)
        assert not check_duality(g, math.inf).ok

    def test_literal_form_gap_frozen(self):
        rep = check_duality(path_graph(3), math.inf)
        assert rep.vcong == pytest.approx(3.0, abs=1e-6)
        assert rep.literal_rhs == pytest.approx(4.0, abs=1e-4)
        assert rep.corrected_rhs == pytest.approx(3.0, abs=1e-6)
        assert rep.literal_rel_gap == pytest.approx(1 / 3, abs=1e-4)

    def test_literal_meets_corrected_on_complete_graphs(self):
        for n in (2, 3, 4):
            for p in (1, math.inf):
                rep = check_duality(complete_graph(n), p)
                assert rep.literal_rhs == pytest.approx(
                    rep.corrected_rhs, rel=1e-6), (n, p)
                assert rep.ok

    def test_conjugate_exponent_validation(self):
        g = path_graph(3)
        assert check_duality(g, math.inf, q=1.0).ok
        with pytest.raises(ValueError):
            check_duality(g, 1, q=1.0)
        with pytest.raises(ValueError):
            check_duality(g, 3)
        with pytest.raises(ValueError):
            check_duality(Graph(2, []), 1)


class TestRigFlowTransfer:
    def test_edge_over_path_base(self):
        base = path_graph(3)
        assign = RegionAssignment(base, ((0, 1), (1, 2)))
        rig = build_rig(assign)
        assert rig.edges == ((0, 1),)
        flow = HFlow(rig, complete_graph(2), (0, 1),
                     {(0, 1): {(0, 1): 1.0}})
        out = rig_flow_transfer(rig, assign, flow)
        assert out.host is base
        assert out.host_map == (0, 1)
        assert out.edge_paths == {(0, 1): {(0, 1): 1.0}}

    def test_triangle_over_star_frozen(self):
        assign = star_regions()
        rig = build_rig(assign)
        assert rig == complete_graph(3)
        assert distinguished_vertices(assign) == (0, 1, 2)
        demand = Graph(3, [(0, 1), (1, 2)])
        flow = HFlow(rig, demand, (0, 1, 2),
                     {(0, 1): {(0, 1): 1.0}, (1, 2): {(1, 2): 1.0}})
        out = rig_flow_transfer(rig, assign, flow)
        assert out.edge_paths == {(0, 1): {(0, 3, 1): 1.0},
                                  (1, 2): {(1, 3, 2): 1.0}}
        # chain cross <= l2^2 + edge pins <= (4m + n) max^2: 0 <= 28 <= 60
        c = congestion_map(flow.aggregate())
        middle = float(np.dot(c, c)) + sum(
            (c[u] + c[v]) ** 2 for u, v in rig.edges)
        top = (4 * rig.m + rig.n) * float(np.max(c)) ** 2
        assert crossing_congestion(out).cross == 0.0
        assert middle == pytest.approx(28.0)
        assert top == pytest.approx(60.0)

    def test_mismatch_errors(self):
        assign = star_regions()
        rig = build_rig(assign)
        flow = HFlow(rig, complete_graph(2), (0, 1),
                     {(0, 1): {(0, 1): 1.0}})
        with pytest.raises(ValueError):
            rig_flow_transfer(complete_graph(4), assign, flow)
        other = HFlow(path_graph(3), complete_graph(2), (0, 1),
                      {(0, 1): {(0, 1): 1.0}})
        with pytest.raises(ValueError):
            rig_flow_transfer(rig, assign, other)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(3, 8),
        k=st.integers(2, 5),
        seed=st.integers(0, 10**5),
    )
    def test_transfer_of_min_hop_routing(self, n, k, seed):
        base = random_connected_graph(n, seed)
        assign = RegionAssignment(base, random_regions(base, k, seed))
        rig = build_rig(assign)
        if len(connected_components(rig)) != 1:
            return  # vcong needs a connected demand host
        flow = vcong_lp(rig, 1).flow
        out = rig_flow_transfer(rig, assign, flow)
        anchors = distinguished_vertices(assign)
        assert out.host_map == tuple(anchors[v] for v in flow.host_map)
        for e, bundle in out.edge_paths.items():
            assert sum(bundle.values()) == pytest.approx(1.0)
            for p in bundle:
                assert p[0] == out.host_map[e[0]] or p[0] == out.host_map[e[1]]
