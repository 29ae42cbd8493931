"""Undirected weighted graphs with stable global edge ids.

Edges are given canonically as ``u < v`` in columns indexed by edge id.
A graph stores its topology once, as CSR adjacency that solvers walk
cheaply, beside the weight column: four arrays, ``edge_weight``,
``_order``, ``_indptr`` and ``_adj_key``.  Every edge appears exactly
twice across the adjacency lists, once per endpoint: a node's list
holds the edges where it is ``u``, then those where it is ``v``, each in
edge-id order.  An entry is one int64 key, ``rank << bits | neighbour``,
where ``rank`` is the edge's position in ``_order``, the edge ids sorted
by weight (equal weights fall back to the edge id), and ``bits = max(1,
(node_count - 1).bit_length())``.  So keys order entries by ``(weight,
edge_id)``, which is the order :mod:`bloomprim.mst` pops them in; the
edge id is ``_order[key >> bits]`` and the neighbour ``key & (2**bits -
1)``.  ``_order`` is int32 while ``edge_count < 2**31``, int64 beyond.
The endpoint columns are not kept: ``_endpoints`` reads them back off
the lists, where an entry whose owner is below its neighbour is its
edge's ``(u, v)``, a block of entries at a time.  It always derives
every edge: ``Graph.edge_u``, ``Graph.edge_v`` and :func:`dumps_graph`
read the whole columns, and a tree's endpoints are those columns at its
edge ids.  The build is a function of the columns and the derivation
inverts it, so two graphs are equal when their node counts and four
arrays are.

Every order here comes from sorts of unique int64 values, so no sort
need be stable and any sort algorithm gives the same arrays.  One
helper, ``_lsd_order``, orders positions by words, least significant
first.  It cuts each word into digits narrow enough that every pass
sorts the unique values ``digit << id_bits | position``, so its order is
exact for any words, and no caller keeps a bound for it.  It gives
``_order`` from the weights' bit patterns and, with the words ``(v,
u)``, the repeats of each pair after its first occurrence
(``_repeated``), which the generator drops and the validator reports.
The lists come from a separate in-place sort of ``node << slot_bits |
slot`` over the ``2 * edge_count`` endpoint slots, slot ``e`` holding
edge ``e``'s ``u`` and slot ``2**(slot_bits - 1) + e`` its ``v``, with
``slot_bits = max(1, (2 * edge_count - 1).bit_length())``: a node's
entries are its slots in ascending order.  The offsets ``_indptr`` are
read off the same sort: node ``k``'s entries are the sorted values in
``[k << slot_bits, (k + 1) << slot_bits)``, found by binary search.
Each sorted value is then replaced, in place and a block at a time, by
its key: one int64 column ``rank << bits | (u ^ v)`` per edge, at the
edge in the value's low bits, XORed with the owner in its high bits.
So the build holds the sorted slots, the int32 order, the offsets and
that column, which is as many bytes as the graph's own arrays (the
column in place of the weights), plus one block's temporaries: 8.55 MB
traced for the 21k-node desk graph's 8.42 MB, or about 29.5 bytes per
edge at 5,000 nodes.  Keys stay below ``2 * edge_count * node_count``,
and those values and the offsets' bounds (up to ``node_count <<
slot_bits``) below ``4 * max(edge_count, 1) * node_count``, so ``Graph``
requires ``max(edge_count, 1) * node_count < 2**61``, edgeless graphs
included, and checks it before it sorts anything or allocates by
``node_count``; a connected graph would need over 1.5 * 10**9 edges,
whose arrays alone take ~70 GB.

Components are labelled from two endpoint arrays alone, by whole-array
hook-and-shortcut rounds (Shiloach & Vishkin, J. Algorithms 1982), in
ascending order of their smallest node (see ``_component_labels``).

Graph file format (UTF-8 text)
------------------------------
First line ``"<node_count> <edge_count>"``, then ``edge_count`` lines
``"<u> <v> <weight>"`` with ``u < v`` and the weight written with full
round-trip precision.  Edge ids are assigned in line order.  Fields are
whitespace-separated literals of Python's ``int()`` (ids and counts) or
``float()`` (weights); ``1 <= node_count <= 2 * edge_count + 1``; only
blank lines may follow the edges.  The first bad line is reported.

The text has one in-memory codec.  :func:`dumps_graph` encodes and
:func:`loads_graph` parses, each ``_BLOCK`` edge lines at a time, so
besides the text (whole, or as encoded blocks) and the edge arrays only
one block of line strings or tokens is live.  The parser splits the text
into lines one piece at a time: a piece runs ``_PIECE`` characters or
more, to just after a ``"\n"`` (which always ends a line) or to the end
of the text.  At least ``edge_count + 1`` ``"\n"`` prove that no edge
line is missing; only a text with fewer has its lines counted, piece by
piece, before the edge arrays are allocated.
One reader and one writer serve both file formats: ``_read`` returns a
path's bytes or a stream's ``read()``, and ``_write`` writes to a stream
as it is and to a path as bytes, text encoded as UTF-8 with no newline
translation.  :func:`save_graph` only writes the encoded text through
``_write``, and :func:`load_graph` only reads through ``_read`` and
decodes any bytes as UTF-8 with ``surrogateescape``.

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
   node by node in ascending node order.  ``GeneratorConfig`` requires
   ``node_count * max_extra < 2**63``, so ``sum(c)`` fits in int64.
4. Candidate edges (backbone first, then extras in draw order) are
   canonicalised to ``(min, max)``; self-loops and repeated pairs are
   dropped, first occurrence wins.  Surviving order assigns edge ids.
5. One word per surviving edge: weight ``(word >> 11) * 2.0**-53``, the
   standard 53-bit uniform draw in [0, 1).

The same seed therefore yields a byte-identical graph file, saved to a
path, on any platform (and in any language with a PCG64 implementation).
A stream is given the text as it is, so its own newline translation, if
any, applies.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np
from numpy.random import PCG64, SeedSequence

_BLOCK = 1 << 12  # edge lines per block of the text codec
_PIECE = 1 << 17  # least characters of text split into lines at once by the parser
_STEP = 1 << 12  # entries per block of the blockwise passes over edge-long arrays


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
    weight, and a pair no lower edge id already has.  Repeats are sought
    only among the edges before the first that breaks another rule, whose
    ids are in range, and found exactly by :func:`_repeated`; that search
    runs only when the values ``u * node_count + v`` of those edges
    collide, as equal pairs' values do even where they wrap in int64.
    """
    rules = (
        ((u < 0) | (u >= node_count) | (v < 0) | (v >= node_count), "node id out of range [0, {n})"),
        (u == v, "self-loop at node {u}"),
        (u > v, "endpoints must satisfy u < v, got {u} > {v}"),
        (~(np.isfinite(w) & (w >= 0)), "weight must be finite and >= 0, got {w!r}"),
    )
    firsts = [int(bad.argmax()) if bad.any() else len(u) for bad, _ in rules]
    i = min(firsts)
    message = rules[firsts.index(i)][1] if i < len(u) else None
    values = u[:i] * node_count
    values += v[:i]
    values.sort()
    if (values[1:] == values[:-1]).any():  # rare, so only then search exactly
        repeats = np.flatnonzero(_repeated(u[:i], v[:i], node_count))
        if len(repeats):
            i, message = int(repeats[0]), "duplicate edge ({u}, {v})"
    if message is None:
        return None
    return i, message.format(n=node_count, u=u[i], v=v[i], w=float(w[i]))


def _lsd_order(count: int, words, bits: int) -> np.ndarray:
    """Positions ``0 .. count - 1`` ordered by ``words``, least significant
    word first (LSD radix), ties kept in position order.

    Each word is an int64 array of ``count`` items whose low ``bits`` bits
    (``bits <= 63``) are its value; higher bits are ignored.  A word is
    cut into digits of ``63 - id_bits`` bits or fewer, counted from the
    top, ``id_bits = max(1, (count - 1).bit_length())``, so a pass sorts
    the unique values ``digit << id_bits | position``, the digit of the
    item at each position of the order so far: any sort gives the same
    order, and equal digits keep that order.  A digit equal on every item
    leaves the order as it is and is skipped.  The inputs are never
    written.  A pass holds the order so far and its sort values, two
    int64 arrays of ``count`` items: the positions are ORed in and the
    sorted positions replaced by the items of the order so far ``_STEP``
    at a time, in place.
    """
    id_bits = max(1, (count - 1).bit_length())
    width = 63 - id_bits
    order = None
    for word in words:
        for top in reversed(range(bits, 0, -width)):
            key = word.copy() if order is None else word[order]
            key >>= max(0, top - width)
            key &= (1 << min(top, width)) - 1
            if (key == key[:1]).all():
                continue
            key <<= id_bits
            for lo in range(0, count, _STEP):
                key[lo : lo + _STEP] |= np.arange(lo, min(lo + _STEP, count))
            key.sort()
            key &= (1 << id_bits) - 1
            if order is not None:
                for lo in range(0, count, _STEP):
                    key[lo : lo + _STEP] = order[key[lo : lo + _STEP]]
            order = key
    return np.arange(count) if order is None else order


def _repeated(u: np.ndarray, v: np.ndarray, node_count: int) -> np.ndarray:
    """Mask of the positions whose pair ``(u[i], v[i])`` a lower position
    already holds: all but the first occurrence of each pair.  Ids must be
    in ``[0, node_count)``."""
    order = _lsd_order(len(u), (v, u), max(1, (node_count - 1).bit_length()))
    su, sv = u[order], v[order]
    repeat = np.zeros(len(u), dtype=bool)
    repeat[order[1:][(su[1:] == su[:-1]) & (sv[1:] == sv[:-1])]] = True
    return repeat


def _edge_column(column, kinds: str, dtype, rule: str) -> np.ndarray:
    """``column`` as a contiguous array of ``dtype``; a nonempty column whose
    dtype kind is not one of ``kinds`` is rejected with ``rule``, not cast."""
    array = np.asarray(column)
    if array.size and array.dtype.kind not in kinds:
        raise ValueError(f"{rule}, got {array.dtype}")
    return np.ascontiguousarray(array, dtype=dtype)


class Graph:
    """Immutable undirected weighted graph.

    Parameters are validated on construction: ``node_count`` must be an
    integer (``operator.index``) of at least 1, edges must satisfy
    ``0 <= u < v < node_count`` with ids of an integer dtype, weights must
    have an integer or floating dtype and be finite and nonnegative (empty
    columns are exempt from the dtype rules), and no pair may repeat; a
    column of another dtype is rejected, not cast.  Every array the graph
    holds is read-only.
    The graph keeps four arrays: ``edge_weight``, ``_order``, ``_indptr``
    and ``_adj_key``, ``28 * edge_count + 8 * (node_count + 1)`` bytes.
    ``edge_u`` and ``edge_v`` are not kept: each read derives the column
    afresh from the adjacency (:func:`_endpoints`), as a new read-only
    int64 array.  Besides the caller's columns, the build holds at its
    peak as many bytes as those four arrays and one block's temporaries
    (module docstring).  The id columns are only read, so callers may
    reuse theirs.  A weight column that is already a contiguous float64 array
    is not copied: the graph holds a read-only view of it, so a caller
    must not write to it afterwards.
    """

    __slots__ = ("node_count", "edge_weight", "_indptr", "_adj_key", "_order", "_key_bits")

    def __init__(self, node_count: int, edge_u, edge_v, edge_weight):
        node_count = operator.index(node_count)
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self.node_count = node_count
        ids = ("iu", np.int64, "node ids must have an integer dtype")
        u, v = _edge_column(edge_u, *ids), _edge_column(edge_v, *ids)
        w = _edge_column(edge_weight, "iuf", np.float64, "weights must have an integer or floating dtype")
        if not (u.ndim == v.ndim == w.ndim == 1 and len(u) == len(v) == len(w)):
            raise ValueError("edge arrays must be 1-d and of equal length")
        edge_count = len(u)
        # checked before anything is sorted or sized by node_count (see the
        # module docstring)
        if max(edge_count, 1) * node_count >= 2**61:
            raise ValueError(
                f"edge_count * node_count must be below 2**61, got {edge_count} * {node_count}"
                " (an edgeless graph counts as one edge)"
            )
        bad = _first_bad_edge(node_count, u, v, w)
        if bad is not None:
            raise _EdgeError(*bad)
        # a view, so that making it read-only leaves the caller's array as it is
        self.edge_weight = w.view()

        # CSR adjacency over both edge directions: sort the endpoint slots
        # by node, each in the low bits of its sort value (module docstring),
        # then replace each slot by its key
        bits = max(1, (node_count - 1).bit_length())
        # a valid weight orders as the low 63 bits of its bit pattern; the
        # sign bit, set only on -0.0, is ignored, so -0.0 ties with 0.0
        order = _lsd_order(edge_count, (w.view(np.int64),), 63)
        order = order.astype(np.int32 if edge_count < 2**31 else np.int64, copy=False)
        slot_bits = max(1, (2 * edge_count - 1).bit_length())
        slots = np.empty(2 * edge_count, dtype=np.int64)
        sides = slots.reshape(2, edge_count)  # u-side, then v-side slots
        np.left_shift(u, slot_bits, out=sides[0])
        np.left_shift(v, slot_bits, out=sides[1])
        sides[1] |= 1 << (slot_bits - 1)
        for lo in range(0, edge_count, _STEP):
            sides[:, lo : lo + _STEP] |= np.arange(lo, min(lo + _STEP, edge_count))
        slots.sort()
        # node k's entries are the sorted values in [k << slot_bits, (k + 1) << slot_bits)
        indptr = np.searchsorted(slots, np.arange(node_count + 1, dtype=np.int64) << slot_bits)
        # rank << bits | (u ^ v) per edge: XORed with an entry's owner, one
        # endpoint, it holds the other, so it is that entry's key
        column = np.empty(edge_count, dtype=np.int64)
        for lo in range(0, edge_count, _STEP):
            rank = np.arange(lo, min(lo + _STEP, edge_count), dtype=np.int64)
            column[order[lo : lo + _STEP]] = rank << bits
        column ^= u
        column ^= v
        edge_mask = (1 << (slot_bits - 1)) - 1
        for lo in range(0, 2 * edge_count, _STEP):
            value = slots[lo : lo + _STEP]
            value[:] = column[value & edge_mask] ^ (value >> slot_bits)
        del column
        for array in (self.edge_weight, order, indptr, slots):
            array.flags.writeable = False
        self._adj_key = slots
        self._order = order
        self._key_bits = bits
        self._indptr = indptr

    @property
    def edge_count(self) -> int:
        return len(self.edge_weight)

    @property
    def edge_u(self) -> np.ndarray:
        """The lower endpoint of each edge, derived by :func:`_endpoints`."""
        return _endpoints(self)[0]

    @property
    def edge_v(self) -> np.ndarray:
        """The higher endpoint of each edge, derived by :func:`_endpoints`."""
        return _endpoints(self)[1]

    def __eq__(self, other: object) -> bool:
        # the stored arrays are a function of the edge columns that the
        # derivation inverts, so equal arrays mean equal columns
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("edge_weight", "_order", "_indptr", "_adj_key")
        )

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


def _endpoints(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 columns ``(u, v)`` of every edge, read off the adjacency.

    Each edge has one entry whose owner is below its neighbour, in the list
    of its ``u``; that entry's edge id is ``_order[key >> bits]``.  The
    lists are walked ``_STEP`` entries at a time, each entry's owner found
    by repeating the block's nodes over their entry counts, so besides the
    two outputs only one block's temporaries are live.
    """
    u, v = np.empty(graph.edge_count, np.int64), np.empty(graph.edge_count, np.int64)
    indptr, keys, bits = graph._indptr, graph._adj_key, graph._key_bits
    for lo in range(0, len(keys), _STEP):
        hi = min(lo + _STEP, len(keys))
        first, stop = np.searchsorted(indptr, (lo, hi - 1), side="right")
        bounds = np.clip(indptr[first - 1 : stop + 1], lo, hi)
        owner = np.repeat(np.arange(first - 1, stop), np.diff(bounds))
        key = keys[lo:hi]
        neighbour = key & ((1 << bits) - 1)
        own = owner < neighbour
        edge = graph._order[key[own] >> bits]
        u[edge], v[edge] = owner[own], neighbour[own]
    u.flags.writeable = v.flags.writeable = False
    return u, v


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for :func:`generate_graph`.

    Each field is an integer, taken by ``operator.index`` as ``Graph()``
    takes its node count: a numpy integer is converted, a float rejected.
    """

    node_count: int
    min_extra_edges: int = 1
    max_extra_edges: int = 25
    seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, operator.index(getattr(self, field.name)))
        if self.seed < 0:  # SeedSequence takes nonnegative seeds only
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        if not 1 <= self.min_extra_edges <= self.max_extra_edges:
            raise ValueError(
                f"need 1 <= min_extra_edges <= max_extra_edges, got "
                f"{self.min_extra_edges}..{self.max_extra_edges}"
            )
        # bounds the extra-edge draw count, which must fit in int64
        product = self.node_count * self.max_extra_edges
        if product >= 2**63:
            raise ValueError(f"node_count * max_extra_edges must be below 2**63, got {product}")


def _edge_pairs(config: GeneratorConfig, raw) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-4 of the module-level procedure: the surviving pairs ``(lo,
    hi)`` in edge-id order, drawn from ``raw``.  The candidates are written
    into two preallocated int64 columns, each draw dropped once it is
    copied, and ``hi`` is made in place, so the peak is the dedupe's
    (:func:`_repeated`); the temporaries die on return, before
    :func:`generate_graph` builds the graph."""
    n = config.node_count
    span = np.uint64(config.max_extra_edges - config.min_extra_edges + 1)
    parents = raw(n - 1) % np.arange(1, n, dtype=np.uint64)
    counts = raw(n) % span + np.uint64(config.min_extra_edges)
    size = n - 1 + int(counts.sum())
    # the candidates, backbone then extras: (u, v), then canonical (lo, hi)
    u, hi = np.empty(size, np.int64), np.empty(size, np.int64)
    u[: n - 1], hi[: n - 1] = parents, np.arange(1, n)
    u[n - 1 :] = np.repeat(np.arange(n), counts.astype(np.int64))
    del parents, counts
    hi[n - 1 :] = raw(size - n + 1) % np.uint64(n)
    lo = np.minimum(u, hi)
    np.maximum(u, hi, out=hi)
    del u
    keep = (lo != hi) & ~_repeated(lo, hi, n)
    return lo[keep], hi[keep]


def generate_graph(config: GeneratorConfig) -> Graph:
    """Generate a connected random graph per the module-level procedure."""
    raw = PCG64(SeedSequence(config.seed)).random_raw
    lo, hi = _edge_pairs(config, raw)
    weights = (raw(len(lo)) >> np.uint64(11)) * 2.0**-53
    return Graph(config.node_count, lo, hi, weights)


def _component_labels(node_count: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-node component labels, and their count, of the edges ``(u[i], v[i])``.

    Each node's ``root`` starts as itself.  A round hooks the larger root
    of each edge whose endpoints' roots differ under the smaller one, then
    shortcuts ``root = root[root]`` until every node points at a root;
    rounds repeat until no edge joins two roots.  A root only moves to a
    smaller node of its component, so each component ends rooted at its
    smallest node, and components are numbered 0, 1, ... in that order.
    """
    nodes = np.arange(node_count)
    root = nodes.copy()
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]  # joined edges stay joined
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(hop := root[root], root):
            root = hop
    first = np.cumsum(root == nodes) - 1  # label of each root
    return first[root].astype(np.int32), int(first[-1]) + 1


def _edge_lines(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> str:
    """The ``"<u> <v> <weight>"`` line of each edge, the weight at full precision."""
    return "".join(map("{} {} {!r}\n".format, u.tolist(), v.tolist(), w.tolist()))


def dumps_graph(graph: Graph) -> str:
    """The text of ``graph`` in the format described in the module docstring."""
    (u, v), w = _endpoints(graph), graph.edge_weight
    cuts = (slice(lo, lo + _BLOCK) for lo in range(0, graph.edge_count, _BLOCK))
    header = f"{graph.node_count} {graph.edge_count}\n"
    blocks = [header, *(_edge_lines(u[c], v[c], w[c]) for c in cuts)]
    del u, v  # the join, the encoder's peak, holds the blocks and the text alone
    return "".join(blocks)


def _read(source: str | Path | TextIO | BinaryIO) -> str | bytes:
    """A path's bytes, or a stream's ``read()``."""
    return Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()


def _write(dest: str | Path | TextIO | BinaryIO, data: str | bytes) -> None:
    """Write ``data`` to a stream as it is, or to a path as bytes, text
    encoded as UTF-8 (no newline translation)."""
    if isinstance(dest, (str, Path)):
        Path(dest).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    else:
        dest.write(data)


def save_graph(graph: Graph, dest: str | Path | TextIO) -> None:
    """Write :func:`dumps_graph`'s text to a path or a text stream with :func:`_write`."""
    _write(dest, dumps_graph(graph))


def _pieces(text: str):
    """``text`` in pieces of ``_PIECE`` characters or more, each cut just
    after a ``"\n"`` or at the end of the text.

    A ``"\n"`` always ends a line, so the pieces' ``splitlines()`` are
    the text's lines, and only one piece's list of lines need be live.
    """
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _PIECE) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _edge_columns(lines, edge_count: int):
    """``(u, v, weight)`` arrays of the next ``edge_count`` lines before the
    first one that does not parse, its index and the line; of all of them,
    and None, when every line parses.  ``lines`` must hold that many."""
    u, v, w = np.empty(edge_count, np.int64), np.empty(edge_count, np.int64), np.empty(edge_count)
    for lo in range(0, edge_count, _BLOCK):  # blocks bound the live token strings
        block = list(islice(lines, min(_BLOCK, edge_count - lo)))
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
        for i, line in enumerate(block, lo):  # the block holds a bad line: find the first
            try:
                a, b, c = line.split()
                u[i], v[i], w[i] = int(a), int(b), float(c)
            except (ValueError, OverflowError):
                return u[:i], v[:i], w[:i], (i, line)
    return u, v, w, None


def load_graph(source: str | Path | TextIO | BinaryIO) -> Graph:
    """Read a graph file, text stream or binary stream whole and parse it
    with :func:`loads_graph`.

    Bytes, from a path or a binary stream, are decoded as UTF-8 with
    ``surrogateescape``, as Python decodes stdin under the C and C.UTF-8
    locales, so a byte that is not UTF-8 fails the parse of its own line.
    """
    data = _read(source)
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="surrogateescape")
    return loads_graph(data)


def loads_graph(text: str) -> Graph:
    """Parse graph text, raising :class:`GraphFormatError` at its first bad line."""
    lines = chain.from_iterable(map(str.splitlines, _pieces(text)))
    header = next(lines, None)
    if header is None:
        raise GraphFormatError(1, "empty input, expected '<node_count> <edge_count>'")
    fields = header.split()
    if len(fields) != 2:
        raise GraphFormatError(1, f"expected '<node_count> <edge_count>', got {header!r}")
    try:
        node_count, edge_count = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(1, f"non-integer header {header!r}") from None
    if edge_count < 0:
        raise GraphFormatError(1, f"edge_count must be >= 0, got {edge_count}")
    # checked before allocating, so the header alone cannot size an array
    if not 1 <= node_count <= 2 * edge_count + 1:
        raise GraphFormatError(1, f"node_count must be in [1, 2 * edge_count + 1], got {node_count}")
    # every "\n" ends a line, so enough of them prove there is no end of
    # file; only fewer need the lines counted
    if text.count("\n") <= edge_count:
        line_count = sum(map(len, map(str.splitlines, _pieces(text))))
        if edge_count > line_count - 1:
            raise GraphFormatError(
                line_count + 1, f"unexpected end of file, expected {edge_count} edge lines"
            )

    *columns, bad = _edge_columns(lines, edge_count)
    try:  # a line before an unparsable one may break an edge rule first
        graph = Graph(node_count, *columns)
    except _EdgeError as err:
        raise GraphFormatError(err.args[0] + 2, err.args[1]) from None
    if bad is not None:
        raise GraphFormatError(bad[0] + 2, f"expected '<u> <v> <weight>', got {bad[1]!r}")
    for number, line in enumerate(lines, edge_count + 2):
        if line.strip():
            raise GraphFormatError(number, "trailing content after declared edges")
    return graph
