import hashlib
import heapq
import math
from collections import Counter

import numpy as np
import pytest

from bloomprim import (
    BloomFilter,
    GeneratorConfig,
    Graph,
    PixelImage,
    generate_graph,
    image_to_graph,
    mst,
    prim_baseline,
    prim_bloom,
    recover_edges,
)
from bloomprim.graph import _endpoints
from oracles import induced_kruskal, is_forest, kruskal, spanned_nodes, traced_peak, tuple_prim


class TestBaseline:
    def test_triangle(self, triangle):
        result = prim_baseline(triangle, 0)
        assert result.total_cost == 3.0
        assert result.edge_bits.indices().tolist() == [0, 1]
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
            assert set(result.edge_bits.indices().tolist()) == oracle_edges

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
            assert result.edge_bits.indices().tolist() == [0, 2]


class TestBloomVariant:
    def test_exact_set_reduces_to_baseline(self):
        for seed in range(20):
            g = generate_graph(GeneratorConfig(node_count=200, seed=seed))
            base = prim_baseline(g, 0)
            exact = prim_bloom(g, 0, visited=set())
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
            assert set(bloom.edge_bits.indices().tolist()) == edges
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
        ids = result.edge_bits.indices().tolist()
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
    assert result.edge_bits.indices().tolist() == [0, 1, 2]
    assert result.total_cost == 3.0


def _tie_graphs() -> list[Graph]:
    graphs = [generate_graph(GeneratorConfig(node_count=200, seed=seed)) for seed in range(20)]
    g = graphs[0]
    u, v = _endpoints(g)
    graphs.append(Graph(g.node_count, u, v, np.full(g.edge_count, 0.5)))
    signed = np.where(np.arange(g.edge_count) % 3 == 0, -0.0, 0.0)
    mixed = np.where(g.edge_weight < 0.6, signed, g.edge_weight)
    graphs.append(Graph(g.node_count, u, v, mixed))
    graphs.append(_card_graph())
    return graphs


def _card_graph() -> Graph:
    """A 64x64 test card: flat blocks, a disc and a noisy band, so most weights are 0."""
    rng = np.random.Generator(np.random.PCG64(3))
    yy, xx = np.mgrid[0:64, 0:64]
    card = np.zeros((64, 64, 3), dtype=np.int64)
    card[:, :, 0] = yy // 8 * 30
    card[:, :, 1] = xx // 16 * 50
    card[(xx - 20) ** 2 + (yy - 20) ** 2 < 100] = (230, 210, 60)
    card[40:48] += rng.integers(0, 3, size=(8, 64, 3))
    return image_to_graph(PixelImage(card.astype(np.uint8)))


class _Shadow:
    """A visited set that counts its calls and, next to the set it wraps,
    keeps an exact shadow set, so that every node the inner set reports as
    visited without ever having been added is recorded as a false positive.
    """

    def __init__(self, inner):
        self.inner = inner
        self.exact = set()
        self.false_positives = set()
        self.probed = Counter()
        self.probes = 0
        self.hits = 0
        self.adds = 0

    def add(self, key):
        self.adds += 1
        self.exact.add(key)
        self.inner.add(key)

    def __contains__(self, key):
        self.probed[key] += 1
        self.probes += 1
        hit = key in self.inner
        self.hits += hit
        if hit and key not in self.exact:
            self.false_positives.add(key)
        return hit


def _outcome(result):
    return (
        result.total_cost.hex(),
        result.edge_bits,
        result.selected_edge_count,
        result.spanned_node_count,
    )


def _two_component_graph() -> Graph:
    """A 200-node and a 300-node generated graph side by side, the second's
    ids offset by 200, so a solve from either side ends on an empty heap."""
    a, b = (generate_graph(GeneratorConfig(node_count=n, seed=n)) for n in (200, 300))
    (au, av), (bu, bv) = _endpoints(a), _endpoints(b)
    return Graph(
        500,
        np.concatenate([au, bu + 200]),
        np.concatenate([av, bv + 200]),
        np.concatenate([a.edge_weight, b.edge_weight]),
    )


def test_int_key_frontier_pops_in_tuple_order():
    """Both solvers equal the tuple-heap loop bit for bit, ties included:
    the tree, the filter's final bits and the nodes lost to false positives.
    Each graph is solved from node 0 and from its middle node, and one
    graph has two components, so the loop's ending on an empty heap with
    nodes unreached is compared as well as its ending on the last node."""
    graphs = _tie_graphs()
    assert (graphs[-1].edge_weight == 0).mean() > 0.5
    graphs.append(_two_component_graph())
    lost = 0
    for i, g in enumerate(graphs):
        for start in (0, g.node_count // 2):
            assert _outcome(prim_baseline(g, start)) == _outcome(tuple_prim(g, start, set()))
            for epsilon in (0.01, 0.3):
                ours, ref = (
                    _Shadow(BloomFilter.for_capacity(g.node_count, epsilon, hash_seed=i))
                    for _ in range(2)
                )
                got = prim_bloom(g, start, visited=ours)
                assert _outcome(got) == _outcome(tuple_prim(g, start, ref))
                assert _outcome(got) == _outcome(
                    prim_bloom(g, start, epsilon=epsilon, hash_seed=i)
                )
                assert ours.inner.bits == ref.inner.bits
                assert ours.false_positives == ref.false_positives
                lost += len(ours.false_positives)
    assert [prim_baseline(graphs[-1], s).spanned_node_count for s in (0, 250)] == [200, 300]
    assert lost > 0


def test_best_key_frontier_probes_less_with_the_same_adds():
    """Superseded keys are neither pushed nor probed, so a solve probes
    strictly fewer times than the tuple-heap loop and adds the same nodes."""
    graphs = [generate_graph(GeneratorConfig(node_count=1000, seed=seed)) for seed in range(3)]
    graphs.append(_card_graph())
    for i, g in enumerate(graphs):
        for make in (set, lambda: BloomFilter.for_capacity(g.node_count, 0.01, hash_seed=i)):
            ours, ref = _Shadow(make()), _Shadow(make())
            assert _outcome(prim_bloom(g, 0, visited=ours)) == _outcome(tuple_prim(g, 0, ref))
            assert ours.adds == ref.adds
            assert ours.probes < ref.probes


def test_filter_is_probed_once_per_node_at_its_best_key_pop():
    """Pushes never ask the filter; a node is asked about only when its
    best key pops, so each node but the start is probed at most once, and
    exactly once on these graphs unless all its neighbours were lost."""
    graphs = [generate_graph(GeneratorConfig(node_count=1000, seed=seed)) for seed in range(3)]
    graphs.append(_card_graph())
    for i, g in enumerate(graphs):
        for epsilon in (0.01, 0.3):
            shadow = _Shadow(BloomFilter.for_capacity(g.node_count, epsilon, hash_seed=i))
            prim_bloom(g, 0, visited=shadow)
            assert 0 not in shadow.probed
            assert set(shadow.probed.values()) == {1}
            assert shadow.probes <= g.node_count - 1
            if epsilon == 0.01:
                assert shadow.probes == g.node_count - 1


_FROZEN_FILTER_SOLVES = {
    # (graph, epsilon): (spanned nodes, sha256 over the part digests below)
    ("gen5k-1", 0.01): (4997, "e1ead99cf1376ae1165fe15f8645e4807c5e946de188afcc15ea067247ee8d22"),
    ("gen5k-1", 0.3): (4370, "8af74026be5093a65163f5ae310c643cc5fea8fdfa176fbf06a305e4a948fa30"),
    ("gen5k-2", 0.01): (4992, "54346916cb9767c5325e4c7fc1f3a5820e10c86d97cb171b38468b632fd8a00f"),
    ("gen5k-2", 0.3): (4370, "1c4f4ddeb8b7973d694831303b0bfe2a4aa63d5365a61b1e3e24c02e02ff67d3"),
    ("card", 0.01): (4090, "5c776f2b3bec1ee6c05b56fdcdf06eafb636a823feb6f70207f89d6266572bc6"),
    ("card", 0.3): (3573, "a88341b1c0a3c37e2d67ceae01b336f3196c75ba94e0761a1e13af753aa1026d"),
}


@pytest.mark.parametrize("name, epsilon", sorted(_FROZEN_FILTER_SOLVES))
def test_frozen_filter_solve_outputs(name, epsilon):
    """Filter solves on graphs far larger than the filter's own frozen
    pattern keep their tree, filter bits, span and cost bit for bit."""
    if name == "card":
        g = _card_graph()
    else:
        g = generate_graph(GeneratorConfig(node_count=5000, seed=int(name[-1])))
    f = BloomFilter.for_capacity(g.node_count, epsilon, hash_seed=5)
    result = prim_bloom(g, 0, visited=f)
    assert _outcome(result) == _outcome(prim_bloom(g, 0, epsilon=epsilon, hash_seed=5))
    # the filter holds exactly the spanned nodes: a lost node is never added
    fresh = BloomFilter(f.params, hash_seed=5)
    for node in spanned_nodes(result, g):
        fresh.add(node)
    assert f.bits == fresh.bits
    digest = hashlib.sha256()
    for part in (
        result.edge_bits.tobytes(),
        f.bits.tobytes(),
        str(result.spanned_node_count).encode(),
        result.total_cost.hex().encode(),
    ):
        digest.update(hashlib.sha256(part).digest())
    assert (result.spanned_node_count, digest.hexdigest()) == _FROZEN_FILTER_SOLVES[name, epsilon]


class _CountingHeap:
    """Stands in for ``heapq`` in :mod:`bloomprim.mst` and counts pushes and pops."""

    def __init__(self):
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, key):
        self.pushes += 1
        heapq.heappush(heap, key)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def test_every_visited_answer_loses_a_node(monkeypatch):
    """The filter is asked only about nodes neither accepted nor lost, so
    each hit is a false positive that loses its node, and a lossy solve
    stops once every node is resolved instead of draining its heap."""
    graphs = [generate_graph(GeneratorConfig(node_count=1000, seed=seed)) for seed in range(3)]
    graphs.append(_card_graph())
    lost = 0
    for i, g in enumerate(graphs):
        for epsilon in (0.01, 0.3):
            counter = _CountingHeap()
            monkeypatch.setattr(mst, "heapq", counter)
            shadow = _Shadow(BloomFilter.for_capacity(g.node_count, epsilon, hash_seed=i))
            result = prim_bloom(g, 0, visited=shadow)
            assert shadow.hits == len(shadow.false_positives)
            assert shadow.hits == g.node_count - result.spanned_node_count
            if epsilon == 0.3:
                assert counter.pops < counter.pushes
            lost += shadow.hits
    assert lost > 0


def test_exact_solve_holds_no_visited_structure():
    """The exact solve keeps no set beside its best keys, so its peak does
    not exceed that of a filter solve, which holds a filter as well.
    Graphs of 1k nodes would not show it: their peak comes before a
    visited set grows."""
    for g in (_card_graph(), generate_graph(GeneratorConfig(node_count=11_000, seed=3))):
        exact = traced_peak(prim_baseline, g)
        bloom = traced_peak(lambda: prim_bloom(g, epsilon=0.01))
        assert exact <= bloom
