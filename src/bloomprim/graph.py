"""Undirected weighted graphs with stable global edge ids.

Edges are stored canonically as ``u < v`` in arrays indexed by edge id;
adjacency is kept in CSR form so solvers can walk neighbours cheaply.
Every edge id appears exactly twice across the adjacency lists, once per
endpoint, with the same weight.

Graph file format (UTF-8 text)
------------------------------
First line ``"<node_count> <edge_count>"``, then ``edge_count`` lines
``"<u> <v> <weight>"`` with ``u < v`` and the weight written with full
round-trip precision.  Edge ids are assigned in line order.  Fields are
whitespace-separated literals of Python's ``int()`` (ids and counts) or
``float()`` (weights); ``1 <= node_count <= 2 * edge_count + 1``; only
blank lines may follow the edges.  The first bad line is reported.

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


class _EdgeError(ValueError):
    """``args`` are the index and message from :func:`_first_bad_edge`."""

    def __str__(self) -> str:
        return "edge {}: {}".format(*self.args)


def _first_bad_edge(node_count: int, u, v, w) -> tuple[int, str] | None:
    """Index and message of the first edge that breaks a rule, or None.

    The rules, in the order an edge is checked against them: both ids in
    ``[0, node_count)``, no self-loop, ``u < v``, a finite nonnegative
    weight, and a pair no lower edge id already has.
    """
    repeat = np.ones(len(u), dtype=bool)
    repeat[np.unique(u * node_count + v, return_index=True)[1]] = False
    rules = (
        ((u < 0) | (u >= node_count) | (v < 0) | (v >= node_count), "node id out of range [0, {n})"),
        (u == v, "self-loop at node {u}"),
        (u > v, "endpoints must satisfy u < v, got {u} > {v}"),
        (~(np.isfinite(w) & (w >= 0)), "weight must be finite and >= 0, got {w!r}"),
        (repeat, "duplicate edge ({u}, {v})"),
    )
    firsts = [int(bad.argmax()) if bad.any() else len(u) for bad, _ in rules]
    i = min(firsts)
    if i == len(u):
        return None
    return i, rules[firsts.index(i)][1].format(n=node_count, u=u[i], v=v[i], w=float(w[i]))


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
        bad = _first_bad_edge(node_count, u, v, w)
        if bad is not None:
            raise _EdgeError(*bad)
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


def _component_labels(graph: Graph) -> tuple[np.ndarray, int]:
    """Per-node component labels, numbered by smallest node, and the component count."""
    indptr = graph._indptr.tolist()
    adj = graph._adj_node.tolist()
    labels = [-1] * graph.node_count
    count = 0
    for start in range(graph.node_count):
        if labels[start] < 0:
            labels[start] = count
            stack = [start]
            while stack:
                node = stack.pop()
                for t in adj[indptr[node] : indptr[node + 1]]:
                    if labels[t] < 0:
                        labels[t] = count
                        stack.append(t)
            count += 1
    return np.array(labels, dtype=np.int32), count


def is_connected(graph: Graph) -> bool:
    """True iff the graph has one connected component."""
    return _component_labels(graph)[1] == 1


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


def _edge_columns(lines: list[str]):
    """``(u, v, weight)`` arrays of the lines before the first one that does
    not parse, and its index; of all lines, and None, when every line parses."""
    u, v, w = np.empty(len(lines), np.int64), np.empty(len(lines), np.int64), np.empty(len(lines))
    for lo in range(0, len(lines), 1 << 16):  # blocks bound the live token strings
        block = lines[lo : lo + (1 << 16)]
        tokens = " | ".join([*block, ""]).split()
        try:
            # "|" ends each line and parses as no number, so with four tokens
            # a line, all fields parse only if every line has three
            if len(tokens) == 4 * len(block):
                u[lo : lo + len(block)] = [*map(int, tokens[0::4])]
                v[lo : lo + len(block)] = [*map(int, tokens[1::4])]
                w[lo : lo + len(block)] = [*map(float, tokens[2::4])]
                continue
        except (ValueError, OverflowError):  # a token is no number, or an id outside int64
            pass
        if len(block) == 1:
            return u[:lo], v[:lo], w[:lo], lo
        bad = lo + next(i for i, line in enumerate(block) if _edge_columns([line])[3] is not None)
        return (*_edge_columns(lines[:bad])[:3], bad)
    return u, v, w, None


def load_graph(source: str | Path | TextIO) -> Graph:
    """Parse a graph file, raising :class:`GraphFormatError` at its first bad line."""
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
    if edge_count < 0:
        raise GraphFormatError(1, f"edge_count must be >= 0, got {edge_count}")
    # checked before allocating, so the header alone cannot size an array
    if not 1 <= node_count <= 2 * edge_count + 1:
        raise GraphFormatError(1, f"node_count must be in [1, 2 * edge_count + 1], got {node_count}")
    if edge_count > len(lines) - 1:
        raise GraphFormatError(
            len(lines) + 1, f"unexpected end of file, expected {edge_count} edge lines"
        )

    *columns, bad_line = _edge_columns(lines[1 : edge_count + 1])
    try:  # a line before an unparsable one may break an edge rule first
        graph = Graph(node_count, *columns)
    except _EdgeError as err:
        raise GraphFormatError(err.args[0] + 2, err.args[1]) from None
    if bad_line is not None:
        raise GraphFormatError(bad_line + 2, f"expected '<u> <v> <weight>', got {lines[bad_line + 1]!r}")
    for extra in range(edge_count + 1, len(lines)):
        if lines[extra].strip():
            raise GraphFormatError(extra + 1, "trailing content after declared edges")
    return graph


def loads_graph(text: str) -> Graph:
    """Parse a graph from a string."""
    return load_graph(io.StringIO(text))
