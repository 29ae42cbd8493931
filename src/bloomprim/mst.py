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

Frontier entries are single ints ``key = rank << bits | sink``:
``rank`` is the edge's position in one stable argsort of the edge
weights, so equal weights fall back to the edge id, and ``bits =
max(1, (node_count - 1).bit_length())`` leaves room for the sink node.
An edge enters the frontier only from the endpoint that reaches it first
(the other endpoint is then visited, and a visited set never forgets a
node), so each rank is pushed at most once and keys pop in exactly
``(weight, edge_id, sink)`` order, ``-0.0`` and ``0.0`` comparing equal
as floats do.  A pop decodes only the sink for the visited probe; the
edge id and weight are read back on accepted pops alone.  Keys stay
below ``edge_count << bits < 2 * edge_count * node_count``, so they fit
in int64 while ``edge_count * node_count < 2**62``; a connected graph
would need over 2 * 10**9 edges, whose arrays alone take ~150 GB.

Each node also has a best key, ``best[node]``, the smallest key pushed
for it so far, kept in an int64 array of 8 bytes per node.  An expansion
pushes a key only if it is below its sink's best key and the sink is not
``in visited``, and the push lowers the best key.  A popped key that is
no longer its sink's best is dropped without probing the visited set;
only a best key is probed.  Neither rule changes any output.  A
superseded key pops after the lighter key for the same sink, and that
lighter key was probed when it popped: either its sink was added then (a
Bloom filter has no false negatives) or it was rejected (the filter only
gains bits), so the sink reads as visited by the time the superseded key
pops, and probing it would skip it.  A key not below its sink's best
key would be superseded as soon as it was pushed, so leaving it out
changes nothing either.  The best keys never accept or reject a node:
the visited set alone does that.  So the tree, the filter's bits and the
nodes lost to false positives are those of a loop that pushes every
unvisited sink and probes every pop; only the number of probes falls.

The start node is marked visited before the main loop, which keeps
frontier edges pointing back at it from being selected.

Each edge is pushed at most once, so a solve runs in O(|E| log |V|);
the filter variant also hashes on each probe, at most one per edge end
and one per pop of a best key, for O(k |E|) hashing with k the filter's
hash count.  Besides the graph, a
solve holds the heap, the best keys (8 bytes per node) and two int64
arrays of one entry per edge for the weight ranks.  Both solvers are
pure functions of their inputs and may run concurrently over a shared
graph.

Results carry the selected edges as a bit array indexed by edge id, from
which the full tree is recoverable with :func:`recover_edges`.  The cost
is the float sum of the selected weights in selection order; finite
weights whose sum exceeds the float range give ``total_cost == inf``,
and the tree is unaffected, since only weights are compared.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

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
    start node and each selected sink are added to it.  ``best[sink]``
    holds the smallest key pushed for ``sink`` so far: a key no smaller
    is not pushed, and a popped key that is no longer its sink's best is
    dropped without a probe.
    """
    node_count = graph.node_count
    if not 0 <= start < node_count:
        raise ValueError(f"start node {start} out of range [0, {node_count})")
    add = visited.add
    add(start)
    edge_bits = BitArray(graph.edge_count)
    total_cost = 0.0
    selected = 0
    spanned = 1
    bits = max(1, (node_count - 1).bit_length())
    mask = (1 << bits) - 1
    order = np.argsort(graph.edge_weight, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) << bits
    weight = graph.edge_weight
    indptr = memoryview(graph._indptr)
    adj_node = graph._adj_node
    adj_edge = graph._adj_edge
    best_keys = np.full(node_count, np.iinfo(np.int64).max, dtype=np.int64)
    best = memoryview(best_keys)
    heap: list[int] = []
    push = heapq.heappush
    pop = heapq.heappop

    node = start
    while True:
        lo = indptr[node]
        hi = indptr[node + 1]
        sinks = adj_node[lo:hi]
        keys = rank[adj_edge[lo:hi]] | sinks
        for key in keys[keys < best_keys[sinks]].tolist():
            sink = key & mask
            if sink not in visited:
                best[sink] = key
                push(heap, key)
        while heap:
            key = pop(heap)
            node = key & mask
            if key == best[node] and node not in visited:
                break
        else:
            break
        add(node)
        edge_id = int(order[key >> bits])
        total_cost += float(weight[edge_id])
        selected += 1
        spanned += 1
        edge_bits.set(edge_id)
        if spanned == node_count:
            break

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
