import math

import pytest

from bloomprim import (
    ExactSet,
    GeneratorConfig,
    Graph,
    generate_graph,
    prim_baseline,
    prim_bloom,
    recover_edges,
)
from oracles import induced_kruskal, is_forest, kruskal, spanned_nodes


class TestBaseline:
    def test_triangle(self, triangle):
        result = prim_baseline(triangle, 0)
        assert result.total_cost == 3.0
        assert list(result.edge_bits.iter_set()) == [0, 1]
        assert result.selected_edge_count == 2
        assert result.spanned_node_count == 3

    def test_path(self, path_graph):
        result = prim_baseline(path_graph, 0)
        assert result.total_cost == 2.0
        assert result.selected_edge_count == 2

    def test_start_invariance_with_distinct_weights(self, triangle):
        costs = {prim_baseline(triangle, s).total_cost for s in range(3)}
        assert costs == {3.0}

    def test_matches_kruskal_on_random_graphs(self):
        for seed in range(20):
            g = generate_graph(GeneratorConfig(node_count=100, seed=seed))
            result = prim_baseline(g, 0)
            oracle_cost, oracle_edges = kruskal(g)
            assert result.total_cost == pytest.approx(oracle_cost, rel=1e-9)
            assert set(result.edge_bits.iter_set()) == oracle_edges

    def test_spans_connected_graph(self):
        g = generate_graph(GeneratorConfig(node_count=500, seed=8))
        result = prim_baseline(g, 0)
        assert result.selected_edge_count == 499
        assert result.spanned_node_count == 500

    def test_invalid_start(self, triangle):
        with pytest.raises(ValueError):
            prim_baseline(triangle, 3)
        with pytest.raises(ValueError):
            prim_baseline(triangle, -1)

    def test_cost_overflow_gives_inf_with_the_right_tree(self):
        # every weight is finite, but the sum of the two cheapest is not
        g = Graph(3, [0, 0, 1], [1, 2, 2], [1e308, 1.5e308, 1.2e308])
        for result in (prim_baseline(g, 0), prim_bloom(g, 0)):
            assert result.total_cost == math.inf
            assert list(result.edge_bits.iter_set()) == [0, 2]


class TestBloomVariant:
    def test_exact_set_reduces_to_baseline(self):
        for seed in range(20):
            g = generate_graph(GeneratorConfig(node_count=200, seed=seed))
            base = prim_baseline(g, 0)
            exact = prim_bloom(g, 0, visited=ExactSet())
            assert exact.total_cost == base.total_cost
            assert exact.edge_bits == base.edge_bits
            assert exact.spanned_node_count == base.spanned_node_count

    def test_never_selects_more_than_baseline(self):
        for seed in range(10):
            g = generate_graph(GeneratorConfig(node_count=1000, seed=seed))
            base = prim_baseline(g, 0)
            bloom = prim_bloom(g, 0, hash_seed=seed)
            assert bloom.selected_edge_count <= base.selected_edge_count
            assert bloom.spanned_node_count <= base.spanned_node_count

    def test_tree_is_mst_of_spanned_nodes(self):
        # the cost is not bounded by the exact cost: on the bench trials
        # with run seeds 17 and 56 a false positive makes the tree dearer
        dearer = []
        for seed in (*range(10), 17, 56):
            g = generate_graph(GeneratorConfig(node_count=1000, seed=seed))
            bloom = prim_bloom(g, 0, hash_seed=seed)
            cost, edges = induced_kruskal(g, spanned_nodes(bloom, g))
            assert set(bloom.edge_bits.iter_set()) == edges
            assert bloom.total_cost == pytest.approx(cost, rel=1e-9)
            if bloom.total_cost > prim_baseline(g, 0).total_cost:
                dearer.append(seed)
        assert dearer == [17, 56]

    def test_result_is_forest_even_with_aggressive_filter(self):
        # large epsilon forces many false positives; tree property must hold
        for seed in range(5):
            g = generate_graph(GeneratorConfig(node_count=300, seed=seed))
            result = prim_bloom(g, 0, epsilon=0.3, hash_seed=seed)
            edges = recover_edges(result, g)
            assert is_forest(edges, g.node_count)
            assert result.selected_edge_count <= g.node_count - 1

    def test_no_duplicate_sinks(self):
        # each selected edge adds exactly one new node, so a forest with
        # selected_edge_count edges spans selected_edge_count + 1 nodes
        g = generate_graph(GeneratorConfig(node_count=500, seed=2))
        result = prim_bloom(g, 0, epsilon=0.2, hash_seed=3)
        assert result.spanned_node_count == result.selected_edge_count + 1

    def test_deterministic(self):
        g = generate_graph(GeneratorConfig(node_count=400, seed=6))
        a = prim_bloom(g, 0, hash_seed=42)
        b = prim_bloom(g, 0, hash_seed=42)
        assert a.total_cost == b.total_cost
        assert a.edge_bits == b.edge_bits

    def test_total_cost_matches_recovered_weights(self):
        g = generate_graph(GeneratorConfig(node_count=300, seed=9))
        result = prim_bloom(g, 0, hash_seed=1)
        recovered = sum(w for _, _, w in recover_edges(result, g))
        assert recovered == pytest.approx(result.total_cost, rel=1e-9)

    def test_invalid_start(self, triangle):
        with pytest.raises(ValueError):
            prim_bloom(triangle, 5)


class TestRecoverEdges:
    def test_empty_result(self, triangle):
        from bloomprim import BitArray, MstResult

        empty = MstResult(0.0, BitArray(3), 0, 1)
        assert recover_edges(empty, triangle) == []

    def test_triangle_mst(self, triangle):
        result = prim_baseline(triangle, 0)
        assert recover_edges(result, triangle) == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_ascending_edge_ids(self):
        g = generate_graph(GeneratorConfig(node_count=100, seed=3))
        result = prim_baseline(g, 0)
        ids = list(result.edge_bits.iter_set())
        assert ids == sorted(ids)
        assert len(recover_edges(result, g)) == 99

    def test_length_mismatch_rejected(self, triangle, path_graph):
        result = prim_baseline(triangle, 0)
        with pytest.raises(ValueError):
            recover_edges(result, path_graph)


def test_edge_weight_ties_broken_by_edge_id():
    # all weights equal: selection must follow lowest edge id first
    from bloomprim import Graph

    g = Graph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], [1.0] * 6)
    result = prim_baseline(g, 0)
    assert list(result.edge_bits.iter_set()) == [0, 1, 2]
    assert result.total_cost == 3.0
