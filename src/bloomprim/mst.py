"""Prim-style minimum spanning tree solvers.

One greedy frontier expansion, :func:`_prim`, backs both solvers; they
differ only in the visited set it probes:

* :func:`prim_baseline` passes an exact hash set and returns the true
  MST.
* :func:`prim_bloom` passes a Bloom filter.  A false positive makes the
  solver skip a node permanently, so its tree may span fewer nodes; it
  never selects a node twice and never forms a cycle.  The tree is the
  MST of the subgraph induced by the nodes it spans, which may cost
  more than the true MST: a skipped node's neighbours can be joined
  over dearer edges.

Frontier entries are ``(weight, edge_id, sink_node)`` tuples, so the
heap orders by weight with the global edge id as a deterministic
tie-break.  The start node is marked visited before the main loop, which
keeps frontier edges pointing back at it from being selected.

The baseline runs in O(|E| log |V|); the filter variant additionally
hashes on every membership check, for O(k |E| log |V|) with k the
filter's hash count.  Both solvers are pure functions of their inputs
and may run concurrently over a shared graph.

Results carry the selected edges as a bit array indexed by edge id, from
which the full tree is recoverable with :func:`recover_edges`.  The cost
is the float sum of the selected weights in selection order; finite
weights whose sum exceeds the float range give ``total_cost == inf``,
and the tree is unaffected, since only weights are compared.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .bitset import BitArray
from .bloom import BloomFilter
from .graph import Graph


@dataclass
class MstResult:
    """Outcome of one solver run.

    ``edge_bits`` has one bit per graph edge; bit ``e`` is set iff edge
    ``e`` was selected.  ``spanned_node_count`` includes the start node,
    so an exact solve of a connected graph has
    ``selected_edge_count == node_count - 1`` and
    ``spanned_node_count == node_count``.
    """

    total_cost: float
    edge_bits: BitArray
    selected_edge_count: int
    spanned_node_count: int


# Exact visited set: substituting it into :func:`prim_bloom` removes all
# false positives, so the result equals :func:`prim_baseline` bit for bit.
ExactSet = set


def _prim(graph: Graph, start: int, visited) -> MstResult:
    """Grow a tree from ``start``, skipping every sink ``in visited``.

    ``visited`` is any object with ``add`` and ``in`` over int keys; the
    start node and each selected sink are added to it.
    """
    if not 0 <= start < graph.node_count:
        raise ValueError(f"start node {start} out of range [0, {graph.node_count})")
    add = visited.add
    add(start)
    edge_bits = BitArray(graph.edge_count)
    total_cost = 0.0
    selected = 0
    spanned = 1
    node_count = graph.node_count
    heap: list[tuple[float, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop

    nodes, weights, edge_ids = graph.adjacent(start)
    for node, weight, edge_id in zip(nodes, weights, edge_ids):
        if node not in visited:
            push(heap, (weight, edge_id, node))

    while heap:
        weight, edge_id, node = pop(heap)
        if node in visited:
            continue
        add(node)
        total_cost += weight
        selected += 1
        spanned += 1
        edge_bits.set(edge_id)
        if spanned == node_count:
            break
        nodes, weights, edge_ids = graph.adjacent(node)
        for nxt, nxt_weight, nxt_edge in zip(nodes, weights, edge_ids):
            if nxt not in visited:
                push(heap, (nxt_weight, nxt_edge, nxt))

    return MstResult(total_cost, edge_bits, selected, spanned)


def prim_baseline(graph: Graph, start: int = 0) -> MstResult:
    """Exact Prim's algorithm with a hash-set visited structure.

    Returns the MST of the component containing ``start`` (the full MST
    when the graph is connected).
    """
    return _prim(graph, start, set())


def prim_bloom(
    graph: Graph,
    start: int = 0,
    epsilon: float = 0.01,
    hash_seed: int = 0,
    visited=None,
) -> MstResult:
    """Prim's algorithm with a Bloom-filter visited structure.

    The filter is sized for ``graph.node_count`` keys at rate
    ``epsilon``.  Pass ``visited`` (any object with ``add`` and ``in``
    over int keys, e.g. :data:`ExactSet`) to substitute the membership
    structure; with an exact set the result equals
    :func:`prim_baseline` bit for bit.

    A false positive drops the popped frontier entry, and the filter
    only ever gains bits, so the affected node stays unreachable; the
    result then reports ``spanned_node_count < node_count``.  The tree
    is the MST of the subgraph induced by the nodes it spans; its cost
    may exceed the exact MST's, since a skipped node's neighbours can be
    joined over dearer edges.
    """
    if visited is None:
        visited = BloomFilter.for_capacity(graph.node_count, epsilon, hash_seed)
    return _prim(graph, start, visited)


def recover_edges(result: MstResult, graph: Graph) -> list[tuple[int, int, float]]:
    """Selected edges as ``(u, v, weight)`` triples in ascending edge id."""
    if len(result.edge_bits) != graph.edge_count:
        raise ValueError(
            f"edge bit array has {len(result.edge_bits)} bits, "
            f"graph has {graph.edge_count} edges"
        )
    u = graph.edge_u
    v = graph.edge_v
    w = graph.edge_weight
    return [(int(u[e]), int(v[e]), float(w[e])) for e in result.edge_bits.iter_set()]
