"""MST-threshold image segmentation over portable pixmaps.

Pixels become graph nodes (id ``row * width + col``); every pair of
8-neighbourhood-adjacent pixels contributes one undirected edge weighted
by the squared RGB distance ``(dR)^2 + (dG)^2 + (dB)^2``.  Segmentation
builds the MST with either solver, discards selected edges strictly
heavier than the threshold, and labels the connected components of the
pixel graph of the surviving edges in ascending smallest-node order.
Pixels the filter-backed solver failed to span end up as singleton
components.

Edges are laid out in four row-major blocks: east neighbours, south,
south-east, then south-west, giving ``(W-1)*H + W*(H-1) + 2*(W-1)*(H-1)``
edges for a ``W x H`` image.

Supported image files are portable pixmaps with maxval 255, binary
(``P6``) or plain (``P3``).  ``save_labels`` colors each label from a
seeded random palette and writes a ``label_count=<k>`` sidecar next to
the image.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .graph import Graph, _component_labels
from .mst import prim_baseline, prim_bloom


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
    h, w = image.height, image.width
    ids = np.arange(h * w, dtype=np.int64).reshape(h, w)
    px = image.pixels.astype(np.int64)

    def block(a_rows, a_cols, b_rows, b_cols):
        u = ids[a_rows, a_cols].ravel()
        v = ids[b_rows, b_cols].ravel()
        d = px[a_rows, a_cols] - px[b_rows, b_cols]
        wt = (d * d).sum(axis=-1).astype(np.float64).ravel()
        return u, v, wt

    rows_all, cols_all = slice(None), slice(None)
    blocks = [
        block(rows_all, slice(0, w - 1), rows_all, slice(1, w)),          # east
        block(slice(0, h - 1), cols_all, slice(1, h), cols_all),          # south
        block(slice(0, h - 1), slice(0, w - 1), slice(1, h), slice(1, w)),  # south-east
        block(slice(0, h - 1), slice(1, w), slice(1, h), slice(0, w - 1)),  # south-west
    ]
    u = np.concatenate([b[0] for b in blocks])
    v = np.concatenate([b[1] for b in blocks])
    wt = np.concatenate([b[2] for b in blocks])
    return Graph(h * w, u, v, wt)


def segment(
    image: PixelImage,
    threshold: float = 100.0,
    solver: str = "baseline",
    *,
    epsilon: float = 0.01,
    hash_seed: int = 0,
) -> SegmentationResult:
    """Segment ``image`` by trimming MST edges heavier than ``threshold``."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    graph = image_to_graph(image)
    if solver == "baseline":
        result = prim_baseline(graph, 0)
    elif solver == "bloom":
        result = prim_bloom(graph, 0, epsilon=epsilon, hash_seed=hash_seed)
    else:
        raise ValueError(f"solver must be 'baseline' or 'bloom', got {solver!r}")
    ids = np.fromiter(result.edge_bits.iter_set(), dtype=np.int64)
    ids = ids[graph.edge_weight[ids] <= threshold]
    forest = Graph(graph.node_count, graph.edge_u[ids], graph.edge_v[ids], graph.edge_weight[ids])
    labels, count = _component_labels(forest)
    return SegmentationResult(labels.reshape(image.height, image.width), count)


def _read_source(source: str | Path | bytes | BinaryIO) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    return source.read()


_WHITESPACE = b" \t\r\n\x0b\x0c"


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens ('#' starts a comment).

    Returns the tokens and the offset one byte past the last token.
    """
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1] in _WHITESPACE:
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        if pos >= len(data):
            raise PpmFormatError("truncated header")
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
            pos += 1
        tokens.append(data[start:pos])
    return tokens, pos


def load_ppm(source: str | Path | bytes | BinaryIO) -> PixelImage:
    """Read a P6 or P3 portable pixmap with maxval 255."""
    data = _read_source(source)
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
        if after >= len(data) or data[after : after + 1] not in _WHITESPACE:
            raise PpmFormatError("expected single whitespace byte after maxval")
        payload = data[after + 1 : after + 1 + expected]
        if len(payload) < expected:
            raise PpmFormatError(
                f"truncated pixel data: wanted {expected} bytes, got {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype=np.uint8)
    else:
        values = data[after:].split()
        if len(values) < expected:
            raise PpmFormatError(
                f"truncated pixel data: wanted {expected} samples, got {len(values)}"
            )
        if len(values) > expected:
            raise PpmFormatError("trailing samples after pixel data")
        try:
            flat = np.array([int(v) for v in values], dtype=np.int64)
        except ValueError:
            raise PpmFormatError("non-integer sample in plain pixmap") from None
        if flat.min() < 0 or flat.max() > 255:
            raise PpmFormatError("sample out of range [0, 255]")
        flat = flat.astype(np.uint8)
    return PixelImage(flat.reshape(height, width, 3).copy())


def save_ppm(image: PixelImage, dest: str | Path | BinaryIO) -> None:
    """Write ``image`` as a binary (P6) pixmap."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    payload = header + image.pixels.tobytes()
    if isinstance(dest, (str, Path)):
        Path(dest).write_bytes(payload)
    else:
        dest.write(payload)


def ppm_bytes(image: PixelImage) -> bytes:
    """Serialize ``image`` to P6 bytes."""
    buf = io.BytesIO()
    save_ppm(image, buf)
    return buf.getvalue()


def save_labels(
    result: SegmentationResult, dest: str | Path, palette_seed: int = 0
) -> tuple[Path, Path]:
    """Write a label-colored P6 image plus a ``label_count=<k>`` sidecar.

    Colors come from a PCG64-seeded palette, so identical results render
    identically.  The sidecar lands next to ``dest`` with the suffix
    replaced by ``.count.txt``.  Returns both paths.
    """
    rng = np.random.Generator(np.random.PCG64(palette_seed))
    palette = rng.integers(0, 256, size=(result.cluster_count, 3), dtype=np.uint8)
    colored = PixelImage(palette[result.labels])
    image_path = Path(dest)
    save_ppm(colored, image_path)
    sidecar = image_path.with_suffix(".count.txt")
    sidecar.write_text(f"label_count={result.cluster_count}\n", encoding="ascii")
    return image_path, sidecar
