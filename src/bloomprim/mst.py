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

The start node is marked visited before the main loop, which keeps
frontier edges pointing back at it from being selected.

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
    start node and each selected sink are added to it.  If it also has
    ``contains_many`` (a bool array for an int array, as
    :meth:`BloomFilter.contains_many`), the sinks of each expansion are
    probed with one call to it instead of one ``in`` each; nothing is
    added between those probes, so the answers and the probe count are
    the same.
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
    indptr = graph._indptr
    adj_node = graph._adj_node
    adj_edge = graph._adj_edge
    heap: list[int] = []
    push = heapq.heappush
    pop = heapq.heappop

    probe_many = getattr(visited, "contains_many", None)

    node = start
    while True:
        lo = indptr[node]
        hi = indptr[node + 1]
        sinks = adj_node[lo:hi]
        keys = rank[adj_edge[lo:hi]] | sinks
        if probe_many is None:
            for key in keys.tolist():
                if (key & mask) not in visited:
                    push(heap, key)
        else:
            for key in keys[~probe_many(sinks)].tolist():
                push(heap, key)
        while heap:
            key = pop(heap)
            node = key & mask
            if node not in visited:
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
