import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph
from rigsep.graph import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    grid_graph,
    path_graph,
    subdivision,
)
from rigsep.oracles import (
    careful_witness_violations,
    cspread_exact_small,
    has_careful_minor_exact,
    has_minor_exact,
    has_strict_minor_exact,
    min_balanced_separator_exact,
    validate_careful_witness,
    vertex_expansion_exact,
)
from rigsep.rig import RegionAssignment, build_rig
from test_rig import random_regions

PETERSEN = Graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
])


class TestVertexExpansion:
    def test_frozen_values(self):
        assert vertex_expansion_exact(complete_graph(2))[0] == 1.0
        assert vertex_expansion_exact(complete_graph(5))[0] == 1.0
        assert vertex_expansion_exact(path_graph(4))[0] == pytest.approx(1 / 3)
        assert vertex_expansion_exact(path_graph(5))[0] == pytest.approx(1 / 3)
        # C6 admits U of five vertices with interior exactly half
        assert vertex_expansion_exact(cycle_graph(6))[0] == pytest.approx(2 / 5)

    def test_witness_is_consistent(self):
        g = path_graph(4)
        phi, u = vertex_expansion_exact(g)
        inside = set(u)
        boundary = [v for v in u if any(nb not in inside for nb in g.neighbors(v))]
        assert len(boundary) / len(u) == pytest.approx(phi)
        assert 2 * (len(u) - len(boundary)) <= g.n

    def test_single_vertex_infeasible(self):
        assert vertex_expansion_exact(Graph(1)) == (math.inf, ())

    def test_measure_changes_the_optimum(self):
        g = path_graph(4)
        # a heavy endpoint makes {3} the cheapest feasible cut
        phi, u = vertex_expansion_exact(g, mu=[10.0, 1.0, 1.0, 1.0])
        assert phi <= 1.0
        interior_mass = 0.0
        assert phi == pytest.approx(vertex_expansion_exact(g, mu=[10, 1, 1, 1])[0])
        del interior_mass

    def test_size_guard(self):
        with pytest.raises(ValueError):
            vertex_expansion_exact(grid_graph(4))
        with pytest.raises(ValueError):
            vertex_expansion_exact(path_graph(3), mu=[1.0, -1.0, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(2, 8),
            seed=st.integers(0, 10**5),
            extra_edges=st.integers(0, 5),
        )
    )
    def test_witness_attains_reported_ratio(self, g):
        phi, u = vertex_expansion_exact(g)
        inside = set(u)
        boundary = sum(
            1 for v in u if any(nb not in inside for nb in g.neighbors(v))
        )
        assert boundary / len(u) == pytest.approx(phi)


class TestBalancedSeparator:
    def test_frozen_values(self):
        assert min_balanced_separator_exact(path_graph(5))[0] == 1
        assert min_balanced_separator_exact(complete_graph(6))[0] == 2
        assert min_balanced_separator_exact(Graph(5))[0] == 0
        assert min_balanced_separator_exact(grid_graph(2))[0] == 2
        assert min_balanced_separator_exact(cycle_graph(8))[0] == 2

    def test_witness_balances(self):
        g = grid_graph(2)
        size, s = min_balanced_separator_exact(g)
        rest = [v for v in range(g.n) if v not in s]
        limit = 2 * g.n / 3
        assert all(len(c) <= limit for c in connected_components(g, subset=rest))
        assert len(s) == size

    def test_weighted_measure(self):
        # all the mass on one vertex: removing it (or isolating it) suffices
        g = path_graph(4)
        size, s = min_balanced_separator_exact(g, mu=[0, 0, 0, 9])
        assert size <= 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            min_balanced_separator_exact(grid_graph(4))


class TestMeasureContract:
    """Both oracles reject a measure that is not a finite, nonnegative,
    length-n vector, as balanced_separator does."""

    # vertex_expansion_exact answered (inf, ()) for the first two, and
    # min_balanced_separator_exact answered every one: (6, (0..5)) for
    # all NaN, (0, ()) for one inf, an IndexError for a short mu
    BAD_MU = {
        "all NaN": [math.nan] * 6,
        "one inf": [1.0] * 5 + [math.inf],
        "short": [1.0] * 5,
        "negative": [1.0] * 5 + [-1.0],
    }

    @pytest.mark.parametrize("mu", BAD_MU.values(), ids=BAD_MU.keys())
    @pytest.mark.parametrize("oracle", [vertex_expansion_exact,
                                        min_balanced_separator_exact])
    def test_bad_mu(self, oracle, mu):
        with pytest.raises(ValueError, match="mu must be a finite "
                                             "nonnegative vector of length n"):
            oracle(path_graph(6), mu=mu)


class TestMinors:
    def test_frozen_presence(self):
        tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert has_minor_exact(tree, complete_graph(3)) is None
        assert has_minor_exact(cycle_graph(4), complete_graph(4)) is None
        assert has_minor_exact(cycle_graph(4), cycle_graph(4)) is not None
        assert has_minor_exact(grid_graph(2), complete_graph(4)) is not None
        assert has_minor_exact(PETERSEN, complete_graph(5)) is not None

    def test_planar_base_has_no_k5(self):
        # grids are planar, so K5 must be absent
        assert has_minor_exact(grid_graph(2), complete_graph(5)) is None

    def test_witness_structure(self):
        w = has_minor_exact(grid_graph(2), complete_graph(4))
        g = grid_graph(2)
        seen: set = set()
        for part in w.supernodes:
            assert not (set(part) & seen)
            seen |= set(part)
            assert len(connected_components(g, subset=part)) == 1
        for i in range(4):
            for j in range(i + 1, 4):
                assert any(
                    g.has_edge(u, v)
                    for u in w.supernodes[i]
                    for v in w.supernodes[j]
                )

    def test_strict_needs_exact_adjacency(self):
        # C4 is a minor of K4 but never with exact adjacency
        assert has_minor_exact(complete_graph(4), cycle_graph(4)) is not None
        assert has_strict_minor_exact(complete_graph(4), cycle_graph(4)) is None
        assert has_strict_minor_exact(path_graph(5), path_graph(3)) is not None

    def test_size_guards(self):
        with pytest.raises(ValueError):
            has_minor_exact(path_graph(11), complete_graph(3))
        with pytest.raises(ValueError):
            has_minor_exact(path_graph(5), complete_graph(6))


class TestCarefulMinors:
    def test_careful_examples(self):
        assert has_careful_minor_exact(path_graph(3), complete_graph(2)) is not None
        assert has_careful_minor_exact(cycle_graph(6), complete_graph(3)) is not None
        # P3 is too small to host a careful K3 (needs a 6-cycle's worth)
        assert has_careful_minor_exact(path_graph(3), complete_graph(3)) is None

    def test_validate_hand_witness(self):
        ok = validate_careful_witness(
            path_graph(3), complete_graph(2), {0: (0,), 1: (2,)}, {(0, 1): 1}
        )
        assert ok is True

    def test_violation_messages(self):
        # w vertex not adjacent to either branch set
        bad = careful_witness_violations(
            path_graph(5), complete_graph(2), {0: (0,), 1: (4,)}, {(0, 1): 2}
        )
        assert any("no edge into B_0" in v for v in bad)
        assert not validate_careful_witness(
            path_graph(5), complete_graph(2), {0: (0,), 1: (4,)}, {(0, 1): 2}
        )

    def test_adjacent_branch_sets_flagged(self):
        bad = careful_witness_violations(
            path_graph(3), complete_graph(2), {0: (0, 1), 1: (2,)}, {(0, 1): 1}
        )
        assert bad  # B_0 and B_1 are adjacent and w reuses a B vertex


class TestCspreadExact:
    def test_frozen_values(self):
        assert cspread_exact_small(complete_graph(2), 1) == pytest.approx(0.5, abs=1e-9)
        assert cspread_exact_small(complete_graph(3), 1) == pytest.approx(2 / 3, abs=1e-6)
        assert cspread_exact_small(path_graph(3), 1) == pytest.approx(4 / 3, abs=1e-6)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            cspread_exact_small(path_graph(7), 1)


class TestRigMinorTransfer:
    """Careful containment in an intersection graph forces the base minor."""

    def _check_triple(self, base, rig, h):
        dot = subdivision(h)
        if rig.n < dot.n:
            return 0
        if has_strict_minor_exact(rig, dot) is not None:
            assert has_minor_exact(base, h, max_host=base.n) is not None
            return 1
        return 0

    def test_desk_scale_randomized(self):
        minors = [
            complete_graph(3),
            cycle_graph(4),
            path_graph(4),
            complete_graph(4),
        ]
        for seed in range(40):
            base = random_connected_graph(4 + seed % 5, seed, extra_edges=seed % 4)
            regions = random_regions(base, 5 + seed % 6, seed)
            rig = build_rig(RegionAssignment(base, regions))
            for h in minors:
                self._check_triple(base, rig, h)

    def test_ring_of_regions_fires(self):
        # regions {i, i+1} around a cycle rebuild the cycle as a rig;
        # long cycles carefully contain small cliques, paths and cycles
        minors = [complete_graph(3), cycle_graph(4), path_graph(4)]
        hits = 0
        for n in (6, 8, 9, 10):
            base = cycle_graph(n)
            regions = tuple((i, (i + 1) % n) for i in range(n))
            rig = build_rig(RegionAssignment(base, regions))
            assert rig == cycle_graph(n)
            for h in minors:
                hits += self._check_triple(base, rig, h)
        assert hits >= 6
