"""MST-threshold image segmentation over portable pixmaps.

Pixels become graph nodes (id ``row * width + col``); every pair of
8-neighbourhood-adjacent pixels contributes one undirected edge weighted
by the squared RGB distance ``(dR)^2 + (dG)^2 + (dB)^2``.  Segmentation
builds the MST with either solver, discards selected edges strictly
heavier than the threshold, and labels the connected components the
surviving edges leave in ascending smallest-node order, straight from
their endpoint arrays.  A NaN or negative threshold is rejected.
Pixels the filter-backed solver failed to span end up as singleton
components.

Edges are laid out in four row-major blocks: east neighbours, south,
south-east, then south-west, giving ``(W-1)*H + W*(H-1) + 2*(W-1)*(H-1)``
edges for a ``W x H`` image.

Supported image files are portable pixmaps with maxval 255, binary
(``P6``) or plain (``P3``).  The header is four tokens, the magic,
width, height and maxval, separated by ASCII whitespace (space, tab,
LF, CR, VT, FF); a ``#`` at the start of a token comments out the rest
of its line.  In ``P6`` one whitespace byte follows maxval and the
payload starts right after it, comment or not.  Bytes after a ``P6``
payload are ignored, since Netpbm lets a next image follow; a ``P3``
file must end after its samples.  Header dimensions size nothing: a
file shorter than its header promises is rejected as truncated before
any pixel buffer is built.
``save_labels`` colors each label from a fixed-seed random palette and
writes a ``label_count=<k>`` sidecar next to the image.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .graph import Graph, _component_labels, _read, _write
from .mst import _selected_columns, prim_baseline, prim_bloom


class PpmFormatError(ValueError):
    """Malformed portable-pixmap data."""


@dataclass(frozen=True, eq=False)
class PixelImage:
    """8-bit RGB image; ``pixels`` has shape ``(height, width, 3)``."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if not (isinstance(p, np.ndarray) and p.ndim == 3 and p.shape[2] == 3):
            raise ValueError("pixels must be an array of shape (height, width, 3)")
        if p.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {p.dtype}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class SegmentationResult:
    """Per-pixel component labels in ``[0, cluster_count)``, shape ``(height, width)``."""

    labels: np.ndarray
    cluster_count: int


def image_to_graph(image: PixelImage) -> Graph:
    """Build the 8-neighbourhood pixel graph with squared-RGB-distance weights."""
    return Graph(image.height * image.width, *_pixel_edges(image))


def _pixel_edges(image: PixelImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(u, v, weight)`` columns of :func:`image_to_graph`'s edges.

    Each direction's block is written straight into the three columns, so
    besides them only the pixel ids, the widened pixels and one block's
    differences are live; those die on return, before the graph is built.
    """
    h, w = image.height, image.width
    ids = np.arange(h * w, dtype=np.int64).reshape(h, w)
    px = image.pixels.astype(np.int32)  # a squared distance is at most 3 * 255**2
    edge_count = (w - 1) * h + w * (h - 1) + 2 * (w - 1) * (h - 1)
    u, v, wt = np.empty(edge_count, np.int64), np.empty(edge_count, np.int64), np.empty(edge_count)
    rows_all, cols_all = slice(None), slice(None)
    start = 0
    for a, b in (
        ((rows_all, slice(0, w - 1)), (rows_all, slice(1, w))),  # east
        ((slice(0, h - 1), cols_all), (slice(1, h), cols_all)),  # south
        ((slice(0, h - 1), slice(0, w - 1)), (slice(1, h), slice(1, w))),  # south-east
        ((slice(0, h - 1), slice(1, w)), (slice(1, h), slice(0, w - 1))),  # south-west
    ):
        shape = ids[a].shape
        block = slice(start, start + shape[0] * shape[1])
        u[block].reshape(shape)[...] = ids[a]
        v[block].reshape(shape)[...] = ids[b]
        d = px[a] - px[b]
        wt[block].reshape(shape)[...] = np.einsum("...k,...k->...", d, d)
        start = block.stop
    return u, v, wt


def segment(
    image: PixelImage,
    threshold: float = 100.0,
    solver: str = "baseline",
    *,
    epsilon: float = 0.01,
    hash_seed: int = 0,
) -> SegmentationResult:
    """Segment ``image`` by trimming MST edges heavier than ``threshold``."""
    if not threshold >= 0:  # NaN fails too
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if solver not in ("baseline", "bloom"):  # before the graph is built
        raise ValueError(f"solver must be 'baseline' or 'bloom', got {solver!r}")
    graph = image_to_graph(image)
    if solver == "baseline":
        result = prim_baseline(graph, 0)
    else:
        result = prim_bloom(graph, 0, epsilon=epsilon, hash_seed=hash_seed)
    u, v, w = _selected_columns(result, graph)
    keep = w <= threshold
    labels, count = _component_labels(graph.node_count, u[keep], v[keep])
    return SegmentationResult(labels.reshape(image.height, image.width), count)


_WHITESPACE_RE = re.compile(rb"\s")  # space, \t, \n, \r, \x0b, \x0c
# whitespace and comments, then one token; a comment runs to a newline or the
# data's end and no token starts with '#', so no backtrack reads one as a token
_HEADER_TOKEN_RE = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` header tokens and the offset one byte past the last."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        match = _HEADER_TOKEN_RE.match(data, pos)
        if match is None:
            raise PpmFormatError("truncated header")
        tokens.append(match[1])
        pos = match.end()
    return tokens, pos


_P3_BLOCK = 1 << 14  # bytes of samples tokenised at once


def _plain_samples(data: bytes, start: int, expected: int) -> np.ndarray:
    """The ``expected`` P3 samples from ``data[start:]`` as one uint8 array.

    Samples are tokenised in blocks of about ``_P3_BLOCK`` bytes, cut at
    whitespace, so memory beyond the output stays bounded.  The output is
    allocated only if the bytes present can hold ``expected`` samples (each
    takes a digit and the whitespace before it).  Errors rank as in a
    whole-file parse: too few samples, too many, a non-integer sample,
    then one outside [0, 255].
    """
    end = len(data)
    flat = np.empty(expected, dtype=np.uint8) if expected <= (end - start) // 2 else None
    count = 0
    non_integer = out_of_range = False
    while start < end:
        cut = _WHITESPACE_RE.search(data, min(start + _P3_BLOCK, end))
        stop = cut.start() if cut else end
        tokens = data[start:stop].split()
        start = stop
        if count + len(tokens) > expected:
            raise PpmFormatError("trailing samples after pixel data")
        if flat is not None and not non_integer:
            try:
                values = [int(t) for t in tokens]
            except ValueError:
                non_integer = True
            else:
                if values and (min(values) < 0 or max(values) > 255):
                    out_of_range = True
                else:
                    flat[count : count + len(values)] = values
        count += len(tokens)
    if count < expected:
        raise PpmFormatError(f"truncated pixel data: wanted {expected} samples, got {count}")
    if non_integer:
        raise PpmFormatError("non-integer sample in plain pixmap")
    if out_of_range:
        raise PpmFormatError("sample out of range [0, 255]")
    return flat


def load_ppm(source: str | Path | bytes | BinaryIO) -> PixelImage:
    """Read a P6 or P3 portable pixmap with maxval 255."""
    data = source if isinstance(source, bytes) else _read(source)
    (magic,), _ = _header_tokens(data, 1)
    if magic not in (b"P6", b"P3"):
        raise PpmFormatError(f"bad magic {magic!r}, expected P6 or P3")
    tokens, after = _header_tokens(data, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise PpmFormatError(f"non-integer header fields {tokens[1:]!r}") from None
    if width < 1 or height < 1:
        raise PpmFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PpmFormatError(f"unsupported maxval {maxval}, only 255")

    expected = width * height * 3
    if magic == b"P6":
        if not _WHITESPACE_RE.match(data, after):
            raise PpmFormatError("expected single whitespace byte after maxval")
        payload = data[after + 1 : after + 1 + expected]
        if len(payload) < expected:
            raise PpmFormatError(
                f"truncated pixel data: wanted {expected} bytes, got {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype=np.uint8)
    else:
        flat = _plain_samples(data, after, expected)
    return PixelImage(flat.reshape(height, width, 3).copy())


def save_ppm(image: PixelImage, dest: str | Path | BinaryIO) -> None:
    """Write ``image`` as a binary (P6) pixmap to a path or a binary stream."""
    _write(dest, ppm_bytes(image))


def ppm_bytes(image: PixelImage) -> bytes:
    """Serialize ``image`` to P6 bytes."""
    return f"P6\n{image.width} {image.height}\n255\n".encode("ascii") + image.pixels.tobytes()


def save_labels(result: SegmentationResult, dest: str | Path) -> tuple[Path, Path]:
    """Write a label-colored P6 image plus a ``label_count=<k>`` sidecar.

    Colors come from a palette drawn from PCG64 seeded with 0, so
    identical results render identically.  The sidecar lands next to
    ``dest`` with the suffix replaced by ``.count.txt``.  Returns both
    paths.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    palette = rng.integers(0, 256, size=(result.cluster_count, 3), dtype=np.uint8)
    colored = PixelImage(palette[result.labels])
    image_path = Path(dest)
    save_ppm(colored, image_path)
    sidecar = image_path.with_suffix(".count.txt")
    _write(sidecar, f"label_count={result.cluster_count}\n")
    return image_path, sidecar
