"""Independent reference implementations used only to cross-check the library."""

from __future__ import annotations

import heapq
import math
import tracemalloc

import numpy as np

from bloomprim import BitArray, BloomFilter, Graph, MstResult
from bloomprim.graph import _endpoints


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def kruskal(graph: Graph) -> tuple[float, set[int]]:
    """MST cost and edge-id set via sort + union-find (weight, edge id order)."""
    order = np.lexsort((np.arange(graph.edge_count), graph.edge_weight))
    uf = UnionFind(graph.node_count)
    total = 0.0
    chosen: set[int] = set()
    u, v = _endpoints(graph)
    w = graph.edge_weight
    for e in order.tolist():
        if uf.union(int(u[e]), int(v[e])):
            total += float(w[e])
            chosen.add(e)
    return total, chosen


def induced_kruskal(graph: Graph, nodes) -> tuple[float, set[int]]:
    """MST cost and original edge ids of the subgraph induced by ``nodes``.

    Nodes are relabelled in ascending order and edges kept in edge-id
    order, so ties break as in :func:`kruskal` on the whole graph.
    """
    keep = np.sort(np.fromiter(nodes, dtype=np.int64))
    u, v = _endpoints(graph)
    ids = np.flatnonzero(np.isin(u, keep) & np.isin(v, keep))
    sub = Graph(
        len(keep),
        np.searchsorted(keep, u[ids]),
        np.searchsorted(keep, v[ids]),
        graph.edge_weight[ids],
    )
    cost, chosen = kruskal(sub)
    return cost, {int(ids[e]) for e in chosen}


def spanned_nodes(result, graph: Graph, start: int = 0) -> set[int]:
    """The start node plus every endpoint of the result's selected edges."""
    ids = result.edge_bits.indices()
    u, v = _endpoints(graph)
    return {start, *u[ids].tolist(), *v[ids].tolist()}


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak, in bytes, over one call of ``fn(*args)``: what the
    call allocates, not what was live before it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def graph_nbytes(graph: Graph) -> int:
    """Bytes of the arrays a graph holds."""
    arrays = (graph.edge_weight, graph._order, graph._adj_key, graph._indptr)
    return sum(a.nbytes for a in arrays)


def six_array_nbytes(graph: Graph) -> int:
    """``48 * edge_count + 8 * (node_count + 1)``: the bytes of a graph that
    also kept int64 ``edge_u`` and ``edge_v`` columns and an int64 ``_order``,
    a fixed yardstick for bounds on the builds' peaks."""
    return 48 * graph.edge_count + 8 * (graph.node_count + 1)


def adjacent(graph: Graph, node: int) -> tuple[list[int], list[float], list[int]]:
    """Neighbour ids, edge weights and edge ids of ``node``, read from the
    graph's CSR keys in their stored order."""
    keys = graph._adj_key[graph._indptr[node] : graph._indptr[node + 1]]
    edges = graph._order[keys >> graph._key_bits]
    neighbours = keys & ((1 << graph._key_bits) - 1)
    return neighbours.tolist(), graph.edge_weight[edges].tolist(), edges.tolist()


def tuple_prim(graph: Graph, start: int, visited) -> MstResult:
    """Prim over a heap of ``(weight, edge_id, sink)`` tuples.

    The solver loop as it was before frontier entries became int keys,
    kept as the reference for their pop order.
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

    nodes, weights, edge_ids = adjacent(graph, start)
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
        nodes, weights, edge_ids = adjacent(graph, node)
        for nxt, nxt_weight, nxt_edge in zip(nodes, weights, edge_ids):
            if nxt not in visited:
                push(heap, (nxt_weight, nxt_edge, nxt))

    return MstResult(total_cost, edge_bits, selected, spanned)


def is_forest(edges: list[tuple[int, int, float]], node_count: int) -> bool:
    """True iff the edge list contains no cycle."""
    uf = UnionFind(node_count)
    return all(uf.union(u, v) for u, v, _ in edges)


def real_filter_fp_counts(
    insert_count: int, epsilon: float, trials: int, seed: int
) -> list[int]:
    """False-positive counts from actual BloomFilter runs over random distinct keys.

    Checks each fresh key with ``contains`` before adding it; a hit is a
    false positive because every key is distinct.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = []
    for t in range(trials):
        filt = BloomFilter.for_capacity(insert_count, epsilon, hash_seed=seed + t + 1)
        keys = rng.choice(2**62, size=insert_count, replace=False)
        fp = 0
        for key in keys.tolist():
            if filt.contains(key):
                fp += 1
            filt.add(key)
        counts.append(fp)
    return counts


def whole_fp_moments(
    insert_count: int, bit_count: int, hash_count: float
) -> tuple[float, float]:
    """Mean and variance of :func:`bloomprim.false_positive_stats`, its
    closed form summed over one array of every insertion's term."""
    prior = np.arange(1, insert_count, dtype=np.float64)
    p = (1.0 - np.exp(-hash_count * prior / bit_count)) ** hash_count
    return float(p.sum()), float((p * (1.0 - p)).sum())


def set_bytes_per_insert(limit: int) -> list[int]:
    """:func:`bloomprim.analysis.baseline_set_bytes` of 0 to ``limit`` inserts,
    stepped one insert at a time."""
    capacity = 8
    sizes = [capacity * 16 + 216]
    for used in range(1, limit + 1):
        if used >= -(-3 * capacity // 5):  # ceil(3/5 * capacity)
            target = 4 * used if used <= 50_000 else 2 * used
            grown = 1
            while grown < target:
                grown <<= 1
            capacity = grown
        sizes.append(capacity * 16 + 216)
    return sizes


def reference_csr(node_count: int, u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(_order, _indptr, _adj_key, _key_bits)`` of the edge columns
    ``(u, v, w)`` built as :class:`Graph` first built them, with two stable
    argsorts: of the weights, and of the endpoints ``u`` then ``v`` in
    edge-id order.  ``_order`` is int32 while there are fewer than 2**31
    edges."""
    u, v, w = (np.asarray(c, dtype=t) for c, t in ((u, np.int64), (v, np.int64), (w, np.float64)))
    bits = max(1, (node_count - 1).bit_length())
    order = np.argsort(w, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) << bits
    src = np.concatenate([u, v])
    by_src = np.argsort(src, kind="stable")
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    keys = np.concatenate([rank | v, rank | u])
    return order.astype(np.int32 if len(order) < 2**31 else np.int64), indptr, keys[by_src], bits


def first_bad_edge(node_count: int, u, v, w) -> tuple[int, str] | None:
    """``(index, message)`` of the first edge that breaks one of
    :class:`Graph`'s five rules, checked edge by edge and rule by rule in
    a Python loop, or None."""
    seen = set()
    for i, (a, b, x) in enumerate(zip(u.tolist(), v.tolist(), w.tolist())):
        if not (0 <= a < node_count and 0 <= b < node_count):
            return i, f"node id out of range [0, {node_count})"
        if a == b:
            return i, f"self-loop at node {a}"
        if a > b:
            return i, f"endpoints must satisfy u < v, got {a} > {b}"
        if not (math.isfinite(x) and x >= 0):
            return i, f"weight must be finite and >= 0, got {x!r}"
        if (a, b) in seen:
            return i, f"duplicate edge ({a}, {b})"
        seen.add((a, b))
    return None
