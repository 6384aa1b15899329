import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph
from rigsep._rng import substream
from rigsep.graph import Graph, complete_graph, connected_components, path_graph
from rigsep.rig import (
    RegionAssignment,
    assignment_from_json_dict,
    assignment_to_json_dict,
    build_rig,
    distinguished_vertices,
    rig_over_subdivision,
)


def random_regions(base: Graph, k: int, seed: int) -> tuple:
    """k random connected regions grown by short BFS walks."""
    rng = substream(seed, "regions", base.n, k)
    regions = []
    for _ in range(k):
        v = int(rng.integers(base.n))
        region = {v}
        for _ in range(int(rng.integers(0, 3))):
            nbrs = sorted({u for x in region for u in base.neighbors(x)} - region)
            if not nbrs:
                break
            region.add(nbrs[int(rng.integers(len(nbrs)))])
        regions.append(tuple(sorted(region)))
    return tuple(regions)


class TestRegionAssignment:
    def test_validation(self):
        base = path_graph(4)
        with pytest.raises(ValueError):
            RegionAssignment(base, ((),))
        with pytest.raises(ValueError):
            RegionAssignment(base, ((0, 4),))
        with pytest.raises(ValueError):
            # {0, 2} is disconnected in the path
            RegionAssignment(base, ((0, 2),))

    def test_normalizes_and_masks(self):
        base = path_graph(4)
        a = RegionAssignment(base, ((2, 1, 2), (3,)))
        assert a.regions == ((1, 2), (3,))
        assert a.k == 2
        assert a.masks() == [0b0110, 0b1000]

    def test_names_the_one_disconnected_region(self):
        base = path_graph(6)
        # only region 3, {0, 2}, misses the vertex 1 between its ends
        regions = ((0, 1), (2,), (1, 2, 3), (0, 2), (4, 5), (2, 3, 4))
        with pytest.raises(ValueError, match=r"^region 3 is not connected"):
            RegionAssignment(base, regions)

    def test_names_the_first_disconnected_region(self):
        base = path_graph(6)
        regions = ((0,), (5, 4), (3,), (1, 3), (2, 3), (0, 5))
        with pytest.raises(ValueError, match=r"^region 3 is not connected"):
            RegionAssignment(base, regions)

    def test_single_vertex_and_duplicate_regions_pass(self):
        base = path_graph(5)
        regions = ((2,), (2,), (0, 1, 2), (2, 1, 0), (4,), (4,))
        a = RegionAssignment(base, regions)
        assert a.regions == ((2,), (2,), (0, 1, 2), (0, 1, 2), (4,), (4,))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 9),
           k=st.integers(1, 8))
    def test_check_matches_per_region_components(self, seed, n, k):
        base = random_connected_graph(n, seed, extra_edges=seed % 3)
        rng = substream(seed, "subsets", n, k)
        regions = tuple(
            tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                              replace=False))
            for _ in range(k))
        bad = [i for i, r in enumerate(regions)
               if len(connected_components(base, subset=r)) != 1]
        if bad:
            with pytest.raises(ValueError, match=rf"^region {bad[0]} is not"):
                RegionAssignment(base, regions)
        else:
            assert RegionAssignment(base, regions).k == k

    def test_distinguished_vertices_are_minima(self):
        base = path_graph(5)
        a = RegionAssignment(base, ((3, 2), (0, 1), (4,)))
        assert distinguished_vertices(a) == (2, 0, 4)


class TestBuildRig:
    def test_intersection_edges(self):
        base = path_graph(4)
        a = RegionAssignment(base, ((0, 1), (1, 2), (3,), (2, 3)))
        rig = build_rig(a)
        assert rig.n == 4
        assert rig.edges == ((0, 1), (1, 3), (2, 3))

    def test_duplicate_regions_meet(self):
        base = path_graph(3)
        a = RegionAssignment(base, ((1,), (1,)))
        assert build_rig(a).edges == ((0, 1),)

    def test_clique_from_shared_vertex(self):
        # a star of regions through one hub is a clique
        base = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        a = RegionAssignment(base, tuple((0, v) for v in range(1, 5)))
        assert build_rig(a) == complete_graph(4)


class TestRigOverSubdivision:
    def test_path_regions(self):
        a = rig_over_subdivision(path_graph(3))
        # subdivision of P3 is 0-3-1-4-2; regions pick up incident midpoints
        assert a.regions == ((0, 3), (1, 3, 4), (2, 4))
        assert build_rig(a) == path_graph(3)

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.builds(
            random_connected_graph,
            n=st.integers(2, 9),
            seed=st.integers(0, 10**6),
            extra_edges=st.integers(0, 8),
        )
    )
    def test_every_graph_is_a_rig_over_its_subdivision(self, g):
        a = rig_over_subdivision(g)
        assert a.base.n == g.n + g.m
        assert build_rig(a) == g

    def test_regions_pairwise_meet_only_at_midpoints(self):
        g = complete_graph(4)
        a = rig_over_subdivision(g)
        masks = a.masks()
        for i in range(4):
            for j in range(i + 1, 4):
                shared = masks[i] & masks[j]
                # exactly one shared base vertex: the edge midpoint
                assert shared.bit_count() == 1
                assert shared >> g.n != 0


class TestJson:
    def test_round_trip(self):
        base = path_graph(4)
        a = RegionAssignment(base, ((0, 1), (2, 3)))
        d = assignment_to_json_dict(a, tag="x")
        assert d["tag"] == "x"
        b = assignment_from_json_dict(d)
        assert b.base == a.base and b.regions == a.regions


class TestRandomRegions:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 8), k=st.integers(2, 10))
    def test_random_regions_build_valid_rigs(self, seed, n, k):
        base = random_connected_graph(n, seed, extra_edges=2)
        regions = random_regions(base, k, seed)
        a = RegionAssignment(base, regions)
        rig = build_rig(a)
        assert rig.n == k
        masks = a.masks()
        for u, v in rig.edges:
            assert masks[u] & masks[v]
