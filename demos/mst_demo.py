"""
Exact vs filter-backed MST
==========================

Generate a random connected graph, solve it with the exact Prim solver
(whose per-node best keys are its only visited record) and the
Bloom-filter variant, and compare the trees.
"""

from bloomprim import (
    GeneratorConfig,
    edge_error_rate,
    generate_graph,
    prim_baseline,
    prim_bloom,
    recover_edges,
)

# A 5,000-node graph; every node links to one earlier node (keeping the
# graph connected) and then draws 1..25 extra neighbours.
graph = generate_graph(GeneratorConfig(node_count=5_000, seed=42))
print(f"graph: {graph.node_count:,} nodes, {graph.edge_count:,} edges")

baseline = prim_baseline(graph, 0)
print(f"baseline : cost={baseline.total_cost:10.4f}  "
      f"edges={baseline.selected_edge_count:,}  spans={baseline.spanned_node_count:,}")

# Same greedy loop, but it also asks a Bloom filter, sized for
# node_count keys at a 1% false-positive rate, about every node it has
# not yet accepted.  A "visited" answer there is a false positive that
# makes the solver skip the node, so the tree can come up slightly short.
bloom = prim_bloom(graph, 0, epsilon=0.01, hash_seed=42)
print(f"filtered : cost={bloom.total_cost:10.4f}  "
      f"edges={bloom.selected_edge_count:,}  spans={bloom.spanned_node_count:,}")

missing = baseline.selected_edge_count - bloom.selected_edge_count
print(f"nodes skipped by false positives: {missing}")
print(f"edge-set error rate: {edge_error_rate(baseline, bloom):.4%}")

# Substituting an exact set for the filter removes all false positives
# and reproduces the baseline bit for bit.
exact = prim_bloom(graph, 0, visited=set())
assert exact.total_cost == baseline.total_cost
assert exact.edge_bits == baseline.edge_bits
print("exact-set substitution reproduces the baseline exactly")

# The tree itself is recoverable from the edge bitmap.
edges = recover_edges(bloom, graph)
print(f"first three recovered edges: {edges[:3]}")
