"""Property-based tests for edge decompositions and vertex covers."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.decomposition import (
    EdgeDecomposition,
    StarGroup,
    TriangleGroup,
    bounded_decomposition,
    decompose,
    optimal_size,
    paper_decomposition_algorithm,
    vertex_cover_decomposition,
)
from repro.graphs import generators
from repro.graphs.generators import random_gnp, random_tree
from repro.graphs.vertex_cover import (
    exact_vertex_cover,
    greedy_vertex_cover,
    is_vertex_cover,
    matching_vertex_cover,
)
from repro.sim.workload import multi_cluster_computation
from tests.graphs.naive_oracle import (
    naive_decompose,
    naive_greedy_vertex_cover,
    naive_paper_decomposition,
    naive_triangles,
)
from tests.strategies import topologies

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**31)


def _group_is_star_or_triangle(decomposition: EdgeDecomposition) -> bool:
    for group in decomposition.groups:
        if isinstance(group, StarGroup):
            if not all(e.incident_to(group.root) for e in group.edges):
                return False
        elif isinstance(group, TriangleGroup):
            if len(group.edges) != 3:
                return False
        else:
            return False
    return True


class TestDecompositionValidity:
    @RELAXED
    @given(topologies())
    def test_paper_algorithm_always_valid(self, graph):
        if graph.edge_count() == 0:
            return
        decomposition, _ = paper_decomposition_algorithm(graph)
        assert _group_is_star_or_triangle(decomposition)
        covered = {e for g in decomposition.groups for e in g.edges}
        assert covered == set(graph.edges)

    @RELAXED
    @given(topologies())
    def test_every_strategy_within_n_minus_2(self, graph):
        if graph.edge_count() == 0:
            return
        decomposition = decompose(graph)
        assert decomposition.size <= max(1, graph.vertex_count() - 2)

    @RELAXED
    @given(topologies(max_processes=7))
    def test_paper_algorithm_ratio_two(self, graph):
        if graph.edge_count() == 0 or graph.edge_count() > 18:
            return
        decomposition, _ = paper_decomposition_algorithm(graph)
        assert decomposition.size <= 2 * optimal_size(graph)

    @RELAXED
    @given(seeds, st.integers(min_value=2, max_value=12))
    def test_trees_are_optimal(self, seed, n):
        tree = random_tree(n, random.Random(seed))
        decomposition, _ = paper_decomposition_algorithm(tree)
        assert decomposition.size == optimal_size(tree, edge_limit=25)

    @RELAXED
    @given(topologies(min_processes=4))
    def test_bounded_decomposition_valid(self, graph):
        if graph.edge_count() == 0:
            return
        decomposition = bounded_decomposition(graph)
        covered = {e for g in decomposition.groups for e in g.edges}
        assert covered == set(graph.edges)


class TestVertexCoverProperties:
    @RELAXED
    @given(seeds)
    def test_exact_at_most_heuristics(self, seed):
        graph = random_gnp(8, 0.4, random.Random(seed))
        exact = exact_vertex_cover(graph)
        assert is_vertex_cover(graph, exact)
        assert len(exact) <= len(greedy_vertex_cover(graph))
        assert len(exact) <= len(matching_vertex_cover(graph))

    @RELAXED
    @given(seeds)
    def test_matching_cover_two_approximation(self, seed):
        graph = random_gnp(8, 0.4, random.Random(seed))
        if graph.edge_count() == 0:
            return
        assert len(matching_vertex_cover(graph)) <= 2 * len(
            exact_vertex_cover(graph)
        )

    @RELAXED
    @given(topologies(max_processes=8))
    def test_cover_decomposition_size_at_most_cover(self, graph):
        if graph.edge_count() == 0:
            return
        cover = greedy_vertex_cover(graph)
        decomposition = vertex_cover_decomposition(graph, cover)
        assert decomposition.size <= len(cover)
        assert decomposition.triangle_count() == 0


# ----------------------------------------------------------------------
# Byte-identity against the frozen naive oracle (tests/graphs)
# ----------------------------------------------------------------------
STEP3_CHOICES = ("most-adjacent", "first")

#: Small-argument strategies for every ``*_topology`` generator.
TOPOLOGY_GENERATORS = {
    "star_topology": st.builds(
        generators.star_topology, st.integers(1, 12)
    ),
    "triangle_topology": st.just(generators.triangle_topology()),
    "path_topology": st.builds(generators.path_topology, st.integers(2, 14)),
    "ring_topology": st.builds(generators.ring_topology, st.integers(3, 14)),
    "complete_topology": st.builds(
        generators.complete_topology, st.integers(2, 9)
    ),
    "complete_bipartite_topology": st.builds(
        generators.complete_bipartite_topology,
        st.integers(1, 5),
        st.integers(1, 6),
    ),
    "client_server_topology": st.builds(
        generators.client_server_topology,
        st.integers(1, 4),
        st.integers(1, 7),
        st.booleans(),
    ),
    "tree_topology": st.builds(
        generators.tree_topology, st.integers(1, 4), st.integers(0, 4)
    ),
    "federated_topology": st.builds(
        generators.federated_topology,
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
    ),
    "grid_topology": st.builds(
        generators.grid_topology, st.integers(1, 5), st.integers(1, 5)
    ),
    "hypercube_topology": st.builds(
        generators.hypercube_topology, st.integers(1, 4)
    ),
}


def _assert_matches_oracle(graph, step3_choice):
    assert graph.triangles() == naive_triangles(graph)
    assert greedy_vertex_cover(graph) == naive_greedy_vertex_cover(graph)
    if graph.edge_count() == 0:
        return
    decomposition, trace = paper_decomposition_algorithm(graph, step3_choice)
    expected, expected_trace = naive_paper_decomposition(graph, step3_choice)
    assert decomposition.groups == expected.groups
    assert trace == expected_trace
    assert repr(trace.entries) == repr(expected_trace.entries)
    assert repr(decompose(graph).groups) == repr(naive_decompose(graph).groups)


class TestMatchesNaiveOracle:
    def test_every_topology_generator_is_covered(self):
        names = {n for n in dir(generators) if n.endswith("_topology")}
        assert names == set(TOPOLOGY_GENERATORS)

    @RELAXED
    @given(
        st.integers(min_value=2, max_value=16),
        st.floats(min_value=0.05, max_value=0.9),
        seeds,
        st.sampled_from(STEP3_CHOICES),
    )
    def test_random_gnp(self, n, p, seed, step3_choice):
        _assert_matches_oracle(
            random_gnp(n, p, random.Random(seed)), step3_choice
        )

    @RELAXED
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        seeds,
        st.sampled_from(STEP3_CHOICES),
    )
    def test_multi_cluster(self, clusters, servers, clients, seed, step3_choice):
        computation = multi_cluster_computation(
            clusters,
            1,
            random.Random(seed),
            server_count=servers,
            client_count=clients,
        )
        _assert_matches_oracle(computation.topology, step3_choice)

    @RELAXED
    @given(
        st.sampled_from(sorted(TOPOLOGY_GENERATORS)).flatmap(
            TOPOLOGY_GENERATORS.__getitem__
        ),
        st.sampled_from(STEP3_CHOICES),
    )
    def test_topology_generators(self, graph, step3_choice):
        _assert_matches_oracle(graph, step3_choice)

    @RELAXED
    @given(topologies(), st.sampled_from(STEP3_CHOICES))
    def test_mixed_families(self, graph, step3_choice):
        _assert_matches_oracle(graph, step3_choice)

    def test_figure8_trace(self):
        graph = generators.paper_fig2b_graph()
        _, trace = paper_decomposition_algorithm(graph)
        assert trace.steps_fired() == [1, 2, 3, 3, 1]
        for choice in STEP3_CHOICES:
            _assert_matches_oracle(graph, choice)
