import importlib
import re

import numpy as np
import pytest

import bloomprim.segmentation as segmentation_module
from bloomprim import (
    Graph,
    PixelImage,
    PpmFormatError,
    image_to_graph,
    load_ppm,
    ppm_bytes,
    save_labels,
    save_ppm,
    segment,
)
from conftest import make_natural_image
from oracles import adjacent, six_array_nbytes, traced_peak


def solid(r, g, b, width=2, height=2):
    px = np.zeros((height, width, 3), dtype=np.uint8)
    px[:, :] = (r, g, b)
    return PixelImage(px)


def expected_edge_count(w, h):
    return (w - 1) * h + w * (h - 1) + 2 * (w - 1) * (h - 1)


def brute_force_edge_count(w, h):
    pairs = set()
    for r in range(h):
        for c in range(w):
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w:
                        a, b = r * w + c, rr * w + cc
                        pairs.add((min(a, b), max(a, b)))
    return len(pairs)


class TestImageToGraph:
    def test_two_by_two(self):
        g = image_to_graph(solid(255, 255, 255))
        assert g.node_count == 4
        assert g.edge_count == 6

    @pytest.mark.parametrize("w", [1, 2, 3, 5])
    @pytest.mark.parametrize("h", [1, 2, 4, 6])
    def test_edge_count_formula_matches_enumeration(self, w, h):
        img = PixelImage(np.zeros((h, w, 3), dtype=np.uint8))
        g = image_to_graph(img)
        assert g.edge_count == expected_edge_count(w, h)
        assert g.edge_count == brute_force_edge_count(w, h)

    def test_standard_landscape_frame_size(self):
        assert 481 * 321 == 154_401
        assert expected_edge_count(481, 321) == 615_200

    def test_squared_rgb_distance_weight(self):
        px = np.zeros((1, 2, 3), dtype=np.uint8)
        px[0, 0] = (10, 0, 0)
        g = image_to_graph(PixelImage(px))
        assert g.edge_count == 1
        assert g.edge_weight[0] == 100.0

    def test_node_ids_row_major(self):
        px = np.zeros((2, 3, 3), dtype=np.uint8)
        g = image_to_graph(PixelImage(px))
        nodes, _, _ = adjacent(g, 0)  # top-left pixel: east, south, south-east
        assert sorted(nodes) == [1, 3, 4]

    def test_peak_memory_bounded_by_graph_size(self):
        # the pixel ids, widened pixels and edge blocks die before the
        # graph is built, so the peak is the build's over the edge columns
        image = make_natural_image(1, 64, 64)
        assert traced_peak(image_to_graph, image) < 2.2 * six_array_nbytes(image_to_graph(image))

    @pytest.mark.parametrize("solver", ["baseline", "bloom"])
    def test_segment_peaks_at_the_graph_build(self, solver):
        # the solve and the tree's columns, whole derived endpoint columns
        # (16 bytes per edge) included, stay below the build's peak; the
        # slack covers interpreter allocations that vary by tens of bytes
        image = make_natural_image(1, 64, 64)
        assert traced_peak(segment, image, 100.0, solver) <= traced_peak(image_to_graph, image) + 1024


class TestSegment:
    def test_uniform_image_single_cluster(self):
        result = segment(solid(128, 128, 128, 4, 4), threshold=0.0)
        assert result.cluster_count == 1
        assert np.all(result.labels == 0)

    def test_contrasting_pixels_split(self):
        px = np.zeros((1, 2, 3), dtype=np.uint8)
        px[0, 1] = (255, 255, 255)
        result = segment(PixelImage(px), threshold=100.0)
        assert result.cluster_count == 2

    def test_weight_exactly_at_threshold_survives(self):
        px = np.zeros((1, 2, 3), dtype=np.uint8)
        px[0, 0] = (10, 0, 0)  # edge weight exactly 100
        assert segment(PixelImage(px), threshold=100.0).cluster_count == 1
        assert segment(PixelImage(px), threshold=99.0).cluster_count == 2

    def test_infinite_threshold_single_cluster(self):
        img = make_natural_image(3, width=32, height=24)
        result = segment(img, threshold=float("inf"), solver="baseline")
        assert result.cluster_count == 1

    def test_labels_contiguous_and_deterministic(self):
        img = make_natural_image(4, width=48, height=32)
        a = segment(img, threshold=100.0)
        b = segment(img, threshold=100.0)
        assert np.array_equal(a.labels, b.labels)
        assert a.labels.min() == 0
        assert a.labels.max() == a.cluster_count - 1
        assert set(np.unique(a.labels)) == set(range(a.cluster_count))

    def test_label_scan_order(self):
        # first label belongs to the top-left pixel, labels rise with first appearance
        img = make_natural_image(5, width=32, height=32)
        result = segment(img, threshold=100.0)
        flat = result.labels.ravel()
        first_seen = {}
        for label in flat.tolist():
            if label not in first_seen:
                first_seen[label] = len(first_seen)
        assert flat[0] == 0
        assert all(label == rank for label, rank in first_seen.items())

    def test_bloom_solver_close_to_baseline(self):
        img = make_natural_image(1)
        base = segment(img, threshold=100.0, solver="baseline")
        approx = segment(img, threshold=100.0, solver="bloom", hash_seed=1)
        diff = abs(base.cluster_count - approx.cluster_count) / base.cluster_count
        assert diff <= 0.05

    def test_bad_arguments(self):
        img = solid(0, 0, 0)
        with pytest.raises(ValueError):
            segment(img, threshold=-1.0)
        with pytest.raises(ValueError):
            segment(img, threshold=float("nan"))
        with pytest.raises(ValueError):
            segment(img, solver="kruskal")

    def test_solver_name_checked_before_the_graph_is_built(self, monkeypatch):
        def unexpected_build(image):
            raise AssertionError("image_to_graph called")

        monkeypatch.setattr(segmentation_module, "image_to_graph", unexpected_build)
        with pytest.raises(ValueError, match=r"^solver must be 'baseline' or 'bloom', got 'x'$"):
            segment(solid(0, 0, 0), solver="x")

    def test_builds_one_graph(self, monkeypatch):
        built = []
        init = Graph.__init__

        def counting_init(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        segment(make_natural_image(0, 16, 16), 100.0)
        assert built == [256]


class TestPpmIo:
    def test_parse_minimal_p6(self):
        data = b"P6\n2 2\n255\n" + bytes(range(12))
        img = load_ppm(data)
        assert img.width == 2 and img.height == 2
        assert tuple(img.pixels[0, 0]) == (0, 1, 2)
        assert tuple(img.pixels[1, 1]) == (9, 10, 11)

    def test_parse_p3(self):
        data = b"P3\n2 1\n255\n10 20 30  40 50 60\n"
        img = load_ppm(data)
        assert tuple(img.pixels[0, 0]) == (10, 20, 30)
        assert tuple(img.pixels[0, 1]) == (40, 50, 60)

    def test_p3_peak_memory_bounded_by_file_size(self):
        rng = np.random.Generator(np.random.PCG64(5))
        px = rng.integers(0, 256, size=(256, 256, 3), dtype=np.uint8)
        rows = px.reshape(256, -1).tolist()
        data = b"P3\n256 256\n255\n" + "\n".join(" ".join(map(str, r)) for r in rows).encode()
        assert np.array_equal(load_ppm(data).pixels, px)
        assert traced_peak(load_ppm, data) < 4 * len(data)

    @pytest.mark.parametrize(
        "late, extra, message",
        [
            (b"x", b" 1", "trailing samples"),  # too many outranks a bad token
            (b"x", b"", "non-integer sample"),
            (b"300", b"", r"sample out of range \[0, 255\]"),
            (b"", b"", "truncated pixel data: wanted 30000 samples, got 29999"),
        ],
    )
    def test_p3_errors_rank_across_blocks(self, late, extra, message):
        # a sample out of range early, then a later block holding ``late``
        samples = [b"7"] * 30_000
        samples[5] = b"256"
        samples[-3] = late
        data = b"P3\n100 100\n255\n" + b" ".join(s for s in samples if s) + extra
        with pytest.raises(PpmFormatError, match=message):
            load_ppm(data)

    def test_header_comments_allowed(self):
        data = b"P6\n# a comment\n2 1 # trailing\n255\n" + bytes(6)
        img = load_ppm(data)
        assert img.width == 2 and img.height == 1

    @pytest.mark.parametrize(
        "data",
        [
            b"P5\n2 2\n255\n" + bytes(12),  # wrong magic
            b"P6\n2 2\n65535\n" + bytes(24),  # wide maxval
            b"P6\n2 2\n255\n" + bytes(11),  # truncated payload
            b"P6\n0 2\n255\n",  # zero dimension
            b"P6\n2 2\n",  # truncated header
            b"P3\n2 1\n255\n10 20 30 40 50\n",  # missing sample
            b"P3\n1 1\n255\n10 20 300\n",  # sample out of range
            b"P3\n1 1\n255\n99999999999999999999999 2 3",  # sample beyond int64
            b"P6\n100000000000 100000000000\n255\n" + bytes(12),  # huge header
            b"P3\n100000000000 100000000000\n255\n1 2 3\n",  # huge header
            b"P3\n2 1\n255\n10 20 30 40 5",  # cut off mid-sample
        ],
    )
    def test_malformed_inputs_rejected(self, data):
        with pytest.raises(PpmFormatError):
            load_ppm(data)

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"P6\n1 1\n# c", "truncated header"),  # comment at end of file, no newline
            (b"P6#c 1 1 255\n" + bytes(3), "bad magic b'P6#c', expected P6 or P3"),
            (b"P6\n1 1\n255#c\n" + bytes(3), "non-integer header fields [b'1', b'1', b'255#c']"),
            (b"P6\x0b1\x0b1\x0b255\x0b\x01\x02\x03", (1, 1, b"\x01\x02\x03")),
            (b"P3\x0c1\x0c1\x0c255\x0c4\x0c5\x0c6", (1, 1, b"\x04\x05\x06")),
            (b"#a\nP6 #b\n#c\n2 #d\n1\t#e\n255\n" + bytes(range(6)), (2, 1, bytes(range(6)))),
            # a comment after maxval is not skipped: P6 reads its bytes as pixels
            (b"P6\n1 1\n255 # c\n", (1, 1, b"# c")),
        ],
    )
    def test_header_grammar(self, data, expected):
        if isinstance(expected, str):
            with pytest.raises(PpmFormatError) as err:
                load_ppm(data)
            assert str(err.value) == expected
        else:
            img = load_ppm(data)
            assert (img.width, img.height, img.pixels.tobytes()) == expected

    def test_patterns_use_python_3_10_syntax(self, capsys):
        # requires-python is >=3.10, whose re module rejects possessive
        # quantifiers and atomic groups at compile time, so the module
        # would fail to import there
        parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
        patterns = [v for v in vars(segmentation_module).values() if isinstance(v, re.Pattern)]
        assert patterns
        for pattern in patterns:
            parser.parse(pattern.pattern, pattern.flags).dump()
            ops = capsys.readouterr().out
            assert "POSSESSIVE_REPEAT" not in ops and "ATOMIC_GROUP" not in ops, pattern

    @pytest.mark.parametrize("magic", [b"P6", b"P3"])
    def test_huge_header_is_truncated_without_allocating(self, magic):
        data = magic + b"\n100000000000 100000000000\n255\n" + b"1 2 3 " * 4

        def truncated():
            with pytest.raises(PpmFormatError, match="truncated pixel data"):
                load_ppm(data)

        assert traced_peak(truncated) < 100_000

    def test_p6_bytes_after_payload_ignored(self):
        first = bytes(range(6))
        data = b"P6\n2 1\n255\n" + first + b"P6\n1 1\n255\n" + bytes(3)
        assert load_ppm(data).pixels.tobytes() == first

    def test_round_trip_random_images(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(10):
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            img = PixelImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
            again = load_ppm(ppm_bytes(img))
            assert np.array_equal(img.pixels, again.pixels)

    def test_file_round_trip(self, tmp_path):
        img = make_natural_image(2, width=16, height=12)
        path = tmp_path / "img.ppm"
        save_ppm(img, path)
        assert np.array_equal(load_ppm(path).pixels, img.pixels)


class TestSaveLabels:
    def test_writes_image_and_sidecar(self, tmp_path):
        img = make_natural_image(6, width=24, height=16)
        result = segment(img, threshold=100.0)
        out = tmp_path / "labels.ppm"
        image_path, sidecar = save_labels(result, out)
        assert image_path == out
        assert sidecar == tmp_path / "labels.count.txt"
        assert sidecar.read_bytes() == f"label_count={result.cluster_count}\n".encode("utf-8")
        rendered = load_ppm(out)
        assert rendered.width == img.width and rendered.height == img.height

    def test_palette_deterministic(self, tmp_path):
        img = make_natural_image(7, width=16, height=16)
        result = segment(img, threshold=100.0)
        a, _ = save_labels(result, tmp_path / "a.ppm")
        b, _ = save_labels(result, tmp_path / "b.ppm")
        assert a.read_bytes() == b.read_bytes()

    def test_same_label_same_color(self, tmp_path):
        img = solid(9, 9, 9, 4, 3)
        result = segment(img, threshold=0.0)
        path, _ = save_labels(result, tmp_path / "uniform.ppm")
        rendered = load_ppm(path)
        assert len(np.unique(rendered.pixels.reshape(-1, 3), axis=0)) == 1
