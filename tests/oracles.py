"""Independent reference implementations used only to cross-check the library."""

from __future__ import annotations

import numpy as np

from bloomprim import BloomFilter, Graph


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
    u = graph.edge_u
    v = graph.edge_v
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
    ids = np.flatnonzero(np.isin(graph.edge_u, keep) & np.isin(graph.edge_v, keep))
    sub = Graph(
        len(keep),
        np.searchsorted(keep, graph.edge_u[ids]),
        np.searchsorted(keep, graph.edge_v[ids]),
        graph.edge_weight[ids],
    )
    cost, chosen = kruskal(sub)
    return cost, {int(ids[e]) for e in chosen}


def spanned_nodes(result, graph: Graph, start: int = 0) -> set[int]:
    """The start node plus every endpoint of the result's selected edges."""
    ids = list(result.edge_bits.iter_set())
    return {start, *graph.edge_u[ids].tolist(), *graph.edge_v[ids].tolist()}


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
