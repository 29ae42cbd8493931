"""Undirected weighted graphs with stable global edge ids.

Edges are stored canonically as ``u < v`` in arrays indexed by edge id;
adjacency is kept in CSR form so solvers can walk neighbours cheaply.
Every edge id appears exactly twice across the adjacency lists, once per
endpoint, with the same weight.

Graph file format (UTF-8 text)
------------------------------
First line ``"<node_count> <edge_count>"``, then ``edge_count`` lines
``"<u> <v> <weight>"`` with ``u < v`` and the weight written with full
round-trip precision.  Edge ids are assigned in line order.

Random graph generation
-----------------------
``generate_graph`` consumes one stream of raw 64-bit words from numpy's
PCG64 bit generator (PCG XSL RR 128/64) seeded through
``SeedSequence(seed)``, in this fixed order:

1. ``node_count - 1`` words: backbone parent of node ``i`` is
   ``word mod i``, linking each node to a uniformly random earlier node
   so the result is one connected component.
2. ``node_count`` words: extra-edge count for each node,
   ``c = min_extra + (word mod (max_extra - min_extra + 1))``.
3. ``sum(c)`` words: extra-edge targets, ``word mod node_count``, drawn
   node by node in ascending node order.
4. Candidate edges (backbone first, then extras in draw order) are
   canonicalised to ``(min, max)``; self-loops and repeated pairs are
   dropped, first occurrence wins.  Surviving order assigns edge ids.
5. One word per surviving edge: weight ``(word >> 11) * 2.0**-53``, the
   standard 53-bit uniform draw in [0, 1).

The same seed therefore yields a byte-identical saved graph on any
platform (and in any language with a PCG64 implementation).
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np
from numpy.random import PCG64, SeedSequence


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Graph:
    """Immutable undirected weighted graph.

    Parameters are validated on construction: edges must satisfy
    ``0 <= u < v < node_count``, weights must be finite and nonnegative,
    and no pair may repeat.
    """

    __slots__ = (
        "node_count",
        "edge_u",
        "edge_v",
        "edge_weight",
        "_indptr",
        "_adj_node",
        "_adj_weight",
        "_adj_edge",
    )

    def __init__(self, node_count: int, edge_u, edge_v, edge_weight):
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        u = np.ascontiguousarray(edge_u, dtype=np.int64)
        v = np.ascontiguousarray(edge_v, dtype=np.int64)
        w = np.ascontiguousarray(edge_weight, dtype=np.float64)
        if not (u.ndim == v.ndim == w.ndim == 1 and len(u) == len(v) == len(w)):
            raise ValueError("edge arrays must be 1-d and of equal length")
        if len(u):
            if u.min() < 0 or v.max() >= node_count:
                raise ValueError("edge endpoint out of range")
            if (u >= v).any():
                raise ValueError("edges must be stored with u < v (no self-loops)")
            if not np.isfinite(w).all() or w.min() < 0:
                raise ValueError("weights must be finite and >= 0")
            keys = u * node_count + v
            if len(np.unique(keys)) != len(keys):
                raise ValueError("duplicate edges")
        self.node_count = int(node_count)
        self.edge_u = u
        self.edge_v = v
        self.edge_weight = w

        # CSR adjacency over both edge directions
        src = np.concatenate([u, v])
        edge_ids = np.arange(len(u), dtype=np.int64)
        order = np.argsort(src, kind="stable")
        self._adj_node = np.concatenate([v, u])[order]
        self._adj_weight = np.concatenate([w, w])[order]
        self._adj_edge = np.concatenate([edge_ids, edge_ids])[order]
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
        self._indptr = indptr

    @property
    def edge_count(self) -> int:
        return len(self.edge_u)

    def adjacent(self, node: int) -> tuple[list[int], list[float], list[int]]:
        """Neighbour ids, edge weights, and edge ids incident to ``node``."""
        if not 0 <= node < self.node_count:
            raise IndexError(f"node {node} out of range [0, {self.node_count})")
        lo = self._indptr[node]
        hi = self._indptr[node + 1]
        return (
            self._adj_node[lo:hi].tolist(),
            self._adj_weight[lo:hi].tolist(),
            self._adj_edge[lo:hi].tolist(),
        )

    def degree(self, node: int) -> int:
        return int(self._indptr[node + 1] - self._indptr[node])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_weight, other.edge_weight)
        )

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for :func:`generate_graph`."""

    node_count: int
    min_extra_edges: int = 1
    max_extra_edges: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        if not 1 <= self.min_extra_edges <= self.max_extra_edges:
            raise ValueError(
                f"need 1 <= min_extra_edges <= max_extra_edges, got "
                f"{self.min_extra_edges}..{self.max_extra_edges}"
            )


def generate_graph(config: GeneratorConfig) -> Graph:
    """Generate a connected random graph per the module-level procedure."""
    n = config.node_count
    raw = PCG64(SeedSequence(config.seed)).random_raw

    backbone_parent = raw(n - 1) % np.arange(1, n, dtype=np.uint64)
    span = np.uint64(config.max_extra_edges - config.min_extra_edges + 1)
    counts = raw(n) % span + np.uint64(config.min_extra_edges)
    targets = raw(int(counts.sum())) % np.uint64(n)

    u_all = np.concatenate(
        [
            backbone_parent.astype(np.int64),
            np.repeat(np.arange(n, dtype=np.int64), counts.astype(np.int64)),
        ]
    )
    v_all = np.concatenate(
        [np.arange(1, n, dtype=np.int64), targets.astype(np.int64)]
    )
    lo = np.minimum(u_all, v_all)
    hi = np.maximum(u_all, v_all)
    not_loop = lo != hi
    lo, hi = lo[not_loop], hi[not_loop]
    _, first_index = np.unique(lo * n + hi, return_index=True)
    keep = np.sort(first_index)
    lo, hi = lo[keep], hi[keep]

    weights = (raw(len(lo)) >> np.uint64(11)) * 2.0**-53
    return Graph(n, lo, hi, weights)


def is_connected(graph: Graph) -> bool:
    """True iff breadth-first search from node 0 reaches every node."""
    n = graph.node_count
    seen = bytearray(n)
    seen[0] = 1
    reached = 1
    queue = deque([0])
    indptr = graph._indptr
    adj = graph._adj_node
    while queue:
        u = queue.popleft()
        for t in adj[indptr[u] : indptr[u + 1]].tolist():
            if not seen[t]:
                seen[t] = 1
                reached += 1
                queue.append(t)
    return reached == n


def save_graph(graph: Graph, dest: str | Path | TextIO) -> None:
    """Write ``graph`` in the text format described in the module docstring."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as fh:
            save_graph(graph, fh)
        return
    dest.write(f"{graph.node_count} {graph.edge_count}\n")
    u = graph.edge_u.tolist()
    v = graph.edge_v.tolist()
    w = graph.edge_weight.tolist()
    for a, b, c in zip(u, v, w):
        dest.write(f"{a} {b} {c!r}\n")


def dumps_graph(graph: Graph) -> str:
    """Serialize ``graph`` to a string."""
    buf = io.StringIO()
    save_graph(graph, buf)
    return buf.getvalue()


def load_graph(source: str | Path | TextIO) -> Graph:
    """Parse a graph file, raising :class:`GraphFormatError` with a line number."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_graph(fh)

    lines = source.read().splitlines()
    if not lines:
        raise GraphFormatError(1, "empty input, expected '<node_count> <edge_count>'")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(1, f"expected '<node_count> <edge_count>', got {lines[0]!r}")
    try:
        node_count, edge_count = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(1, f"non-integer header {lines[0]!r}") from None
    if node_count < 1:
        raise GraphFormatError(1, f"node_count must be >= 1, got {node_count}")
    if edge_count < 0:
        raise GraphFormatError(1, f"edge_count must be >= 0, got {edge_count}")
    # checked before allocating, so a huge edge_count cannot size the arrays
    if edge_count > len(lines) - 1:
        raise GraphFormatError(
            len(lines) + 1, f"unexpected end of file, expected {edge_count} edge lines"
        )

    edge_u = np.empty(edge_count, dtype=np.int64)
    edge_v = np.empty(edge_count, dtype=np.int64)
    edge_weight = np.empty(edge_count, dtype=np.float64)
    seen: set[int] = set()
    for e in range(edge_count):
        line_no = e + 2
        parts = lines[e + 1].split()
        if len(parts) != 3:
            raise GraphFormatError(line_no, f"expected '<u> <v> <weight>', got {lines[e + 1]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(line_no, f"could not parse {lines[e + 1]!r}") from None
        if not 0 <= u < node_count or not 0 <= v < node_count:
            raise GraphFormatError(line_no, f"node id out of range [0, {node_count})")
        if u == v:
            raise GraphFormatError(line_no, f"self-loop at node {u}")
        if u > v:
            raise GraphFormatError(line_no, f"endpoints must satisfy u < v, got {u} > {v}")
        if not np.isfinite(w) or w < 0:
            raise GraphFormatError(line_no, f"weight must be finite and >= 0, got {parts[2]}")
        key = u * node_count + v
        if key in seen:
            raise GraphFormatError(line_no, f"duplicate edge ({u}, {v})")
        seen.add(key)
        edge_u[e] = u
        edge_v[e] = v
        edge_weight[e] = w

    for extra in range(edge_count + 1, len(lines)):
        if lines[extra].strip():
            raise GraphFormatError(extra + 1, "trailing content after declared edges")
    return Graph(node_count, edge_u, edge_v, edge_weight)


def loads_graph(text: str) -> Graph:
    """Parse a graph from a string."""
    return load_graph(io.StringIO(text))
