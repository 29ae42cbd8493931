"""Prim-style minimum spanning tree solvers.

One greedy frontier expansion, :func:`_prim`, backs both solvers; they
differ only in the filter it consults:

* :func:`prim_baseline` consults none and returns the true MST.
* :func:`prim_bloom` consults a Bloom filter.  A false positive makes
  the solver skip a node permanently, so its tree may span fewer nodes;
  it never selects a node twice and never forms a cycle.  The tree is
  the MST of the subgraph induced by the nodes it spans, which may cost
  more than the true MST: a skipped node's neighbours can be joined
  over dearer edges.

Frontier entries are the graph's adjacency keys, single ints ``key =
rank << bits | sink`` built once per :class:`~bloomprim.graph.Graph`:
``rank`` is the edge's position in the edge ids sorted by weight,
equal weights falling back to the edge id, and ``bits = max(1,
(node_count - 1).bit_length())`` leaves room for the sink node.
An edge enters the frontier only from the endpoint accepted first (by
the time the other endpoint expands, that one is accepted, see below,
and stays so), so each rank is pushed at most once and keys pop in
exactly ``(weight, edge_id, sink)`` order, ``-0.0`` and ``0.0``
comparing equal as floats do.  A pop decodes only the sink; the edge id
and weight are read back on accepted pops alone.  Keys fit in int64,
since a graph has ``edge_count * node_count < 2**61`` (see
:mod:`bloomprim.graph`).

The visited record is one int64 per node, ``best[node]``, in one of two
states: ``-1`` once the node is *resolved*, that is accepted or lost to
a false positive, and otherwise the smallest key pushed for it so far.
Keys are nonnegative, so an expansion's one test per adjacency entry,
``key < best[sink]``, drops every key to a resolved sink and every key
no lighter than one already pushed, and a popped key is dropped unless
it equals its sink's best.  A node is resolved in one place: when its
best key pops, it is marked ``-1`` and counted, and only then is the
filter asked about it.  So each node but the start is probed at most
once, a filter solve's probes number ``resolved - 1``, and since the
node was unresolved until that pop, each "visited" answer is a false
positive: the node is lost, and the loop pops on.

This changes no output from a loop that probes every sink before
pushing it and every pop.  There, a probe of an accepted node answers
"visited" (a Bloom filter has no false negatives), and a superseded key
pops after the lighter key for its sink, by which time the sink is
resolved.  A node that such a loop loses at a push probe is lost here
too, at the pop of its best key: no key of a node pops before its best
one, and the filter only gains bits, so the answer "visited" given at
the push comes back at that pop.  The filter holds the accepted nodes
alone, which the two loops accept in the same order, so the tree, the
filter's bits and the lost nodes are the same; only probes and pops
fall.  The solve stops once every node is resolved, since every key
left in the heap would then be dropped.  The start node is accepted
(and added to the filter) before the main loop, which keeps frontier
edges pointing back at it from being selected.

Each edge is pushed at most once, so a solve runs in O(|E| log |V|);
the filter variant hashes each node it probes once, and an add reuses
the hash of the probe just before it (the start node, added unprobed,
is hashed by its add), for O(k |V|) bit tests with k the filter's hash
count.  Besides the graph, a solve holds the heap, the best keys (8
bytes per node) and the filter if any; it allocates no array of one
entry per edge, and the exact solve holds no other visited structure.
Both solvers are pure functions of their inputs and may run
concurrently over a shared graph.

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
from .graph import Graph, _endpoints


@dataclass
class MstResult:
    """Outcome of one solver run.

    ``edge_bits`` has one bit per graph edge; bit ``e`` is set iff edge
    ``e`` was selected.  ``spanned_node_count`` includes the start node,
    so ``spanned_node_count == selected_edge_count + 1``, and an exact
    solve of a connected graph has
    ``selected_edge_count == node_count - 1`` and
    ``spanned_node_count == node_count``.
    """

    total_cost: float
    edge_bits: BitArray
    selected_edge_count: int
    spanned_node_count: int


def _prim(graph: Graph, start: int, visited) -> MstResult:
    """Grow a tree from ``start``; ``visited`` is None or a filter to consult.

    ``best[node]`` is the visited record: ``-1`` once ``node`` is
    resolved (accepted or lost), otherwise the smallest key pushed for
    it.  A node is resolved, and counted in ``resolved``, when its best
    key pops.  ``visited``, when given, is any object with ``add`` and
    ``in`` over int keys; it is probed right after that resolution, so
    each node is probed at most once and each "visited" answer loses its
    node, and every accepted node is added to it.  The result's counts
    come from the popcount of the selected edges.
    """
    node_count = graph.node_count
    if not 0 <= start < node_count:
        raise ValueError(f"start node {start} out of range [0, {node_count})")
    if visited is not None:
        visited.add(start)
    edge_bits = BitArray(graph.edge_count)
    edge_buf = edge_bits._buf
    total_cost = 0.0
    resolved = 1
    bits = graph._key_bits
    mask = (1 << bits) - 1
    order = memoryview(graph._order)
    weight = memoryview(graph.edge_weight)
    indptr = memoryview(graph._indptr)
    adj_key = memoryview(graph._adj_key)
    best = memoryview(np.full(node_count, np.iinfo(np.int64).max, dtype=np.int64))
    best[start] = -1
    heap: list[int] = []
    push = heapq.heappush
    pop = heapq.heappop

    node = start
    while True:
        for key in adj_key[indptr[node] : indptr[node + 1]]:
            sink = key & mask
            if key < best[sink]:
                best[sink] = key
                push(heap, key)
        while heap and resolved < node_count:
            key = pop(heap)
            node = key & mask
            if key == best[node]:
                best[node] = -1
                resolved += 1
                if visited is None or node not in visited:
                    break
        else:
            break
        if visited is not None:
            visited.add(node)
        edge_id = order[key >> bits]
        total_cost += weight[edge_id]
        edge_buf[edge_id >> 3] |= 1 << (edge_id & 7)

    selected = edge_bits.popcount()
    return MstResult(total_cost, edge_bits, selected, selected + 1)


def prim_baseline(graph: Graph, start: int = 0) -> MstResult:
    """Exact Prim's algorithm; the best keys alone record visited nodes.

    Returns the MST of the component containing ``start`` (the full MST
    when the graph is connected).
    """
    return _prim(graph, start, None)


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
    over int keys, e.g. ``set()``) to substitute the membership
    structure; with an exact set the result equals
    :func:`prim_baseline` bit for bit.

    The filter is probed once per node, when the node's best key pops;
    a false positive there drops the node for good, and the result then
    reports ``spanned_node_count < node_count``.  The tree is the MST of
    the subgraph induced by the nodes it spans; its cost may exceed the
    exact MST's, since a skipped node's neighbours can be joined over
    dearer edges.
    """
    if visited is None:
        visited = BloomFilter.for_capacity(graph.node_count, epsilon, hash_seed)
    return _prim(graph, start, visited)


def _selected_columns(result: MstResult, graph: Graph) -> tuple[np.ndarray, ...]:
    """Endpoint and weight columns of the selected edges, in ascending edge
    id: the whole derived columns of :func:`~bloomprim.graph._endpoints`
    and the weights, each indexed at the selected ids.  The endpoint
    columns are read-only."""
    if len(result.edge_bits) != graph.edge_count:
        raise ValueError(
            f"edge bit array has {len(result.edge_bits)} bits, "
            f"graph has {graph.edge_count} edges"
        )
    ids = result.edge_bits.indices()
    u, v = (column[ids] for column in _endpoints(graph))
    u.flags.writeable = v.flags.writeable = False
    return u, v, graph.edge_weight[ids]


def recover_edges(result: MstResult, graph: Graph) -> list[tuple[int, int, float]]:
    """Selected edges as ``(u, v, weight)`` triples in ascending edge id."""
    return list(zip(*(c.tolist() for c in _selected_columns(result, graph))))
