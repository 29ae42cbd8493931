import io

import numpy as np
import pytest

from bloomprim import PixelImage, loads_graph, save_ppm
from bloomprim.cli import main
from oracles import induced_kruskal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    code = main(["gen", "--nodes", "200", "--seed", "7", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestGen:
    def test_writes_parseable_graph(self, graph_file):
        g = loads_graph(graph_file.read_text())
        assert g.node_count == 200

    def test_stdout_output(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--nodes", "50", "--seed", "1")
        assert code == 0
        assert out.startswith("50 ")
        assert "generated" in err

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "--nodes", "50", "--seed", "3")
        _, out2, _ = run_cli(capsys, "gen", "--nodes", "50", "--seed", "3")
        assert out1 == out2

    def test_too_few_nodes_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--nodes", "1")
        assert code == 1
        assert "node_count" in err


class TestMst:
    def test_baseline_output(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "mst", str(graph_file))
        assert code == 0
        lines = dict(line.split("=") for line in out.strip().split("\n"))
        assert lines["selected_edges"] == "199"
        assert lines["spanned_nodes"] == "200"
        assert float(lines["cost"]) > 0

    def test_repeatable(self, graph_file, capsys):
        _, out1, _ = run_cli(capsys, "mst", str(graph_file))
        _, out2, _ = run_cli(capsys, "mst", str(graph_file))
        assert out1 == out2

    def test_bloom_tree_is_mst_of_spanned_nodes(self, graph_file, tmp_path, capsys):
        # it may cost more than the exact tree (bench run seeds 17 and 56
        # at n=1k do), but it is minimal on the nodes it spans
        edges_path = tmp_path / "edges.txt"
        code, out, _ = run_cli(
            capsys, "mst", str(graph_file), "--solver", "bloom", "--epsilon", "0.01",
            "--edges-out", str(edges_path),
        )
        assert code == 0
        lines = dict(line.split("=") for line in out.strip().split("\n"))
        tree = {(int(u), int(v)) for u, v, _ in map(str.split, edges_path.read_text().splitlines())}
        assert len(tree) == int(lines["selected_edges"])
        g = loads_graph(graph_file.read_text())
        cost, ids = induced_kruskal(g, {0, *(node for edge in tree for node in edge)})
        assert tree == {(int(g.edge_u[e]), int(g.edge_v[e])) for e in ids}
        assert float(lines["cost"]) == pytest.approx(cost, rel=1e-9)

    def test_edges_out(self, graph_file, tmp_path, capsys):
        edges_path = tmp_path / "edges.txt"
        code, _, _ = run_cli(
            capsys, "mst", str(graph_file), "--edges-out", str(edges_path)
        )
        assert code == 0
        assert len(edges_path.read_text().strip().split("\n")) == 199

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mst", str(tmp_path / "absent.txt"))
        assert code == 2
        assert err

    def test_edge_count_beyond_file_is_parse_error(self, capsys, tmp_path):
        # checked before any array is sized by the header
        bad = tmp_path / "huge.txt"
        bad.write_text("5 1000000000000\n0 1 0.5\n")
        code, _, err = run_cli(capsys, "mst", str(bad))
        assert code == 2
        assert "line 3: unexpected end of file" in err

    def test_node_count_beyond_edges_is_parse_error(self, capsys, monkeypatch):
        # node_count <= 2 * edge_count + 1 is checked before any array is sized by it
        monkeypatch.setattr("sys.stdin", io.StringIO("100000000000000 0\n"))
        code, _, err = run_cli(capsys, "mst", "-")
        assert code == 2
        assert "line 1: node_count" in err

    def test_malformed_file_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0 1.0\n")
        code, _, err = run_cli(capsys, "mst", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_bad_epsilon_is_parameter_error(self, graph_file, capsys):
        code, _, err = run_cli(
            capsys, "mst", str(graph_file), "--solver", "bloom", "--epsilon", "1.5"
        )
        assert code == 1
        assert "epsilon" in err


class TestBench:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--sizes", "50,100", "--runs", "2", "--seed", "5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "node_count,baseline_bytes,bloom_bytes,reduction_percent,"
            "incorrect_edges,expected_fp,stddev_fp,error_percent"
        )
        assert len(lines) == 4
        assert lines[-1].startswith("average")
        assert "size=50" in err  # progress on the diagnostic stream

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys,
            "bench", "--sizes", "40", "--runs", "1", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("node_count,")

    def test_degenerate_two_node_size(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "2", "--runs", "1")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[-1]) == 0.0  # error_percent

    def test_bad_sizes_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--sizes", "abc")
        assert code == 1


class TestStats:
    def test_reference_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--nodes", "1000")
        assert code == 0
        assert "bit_count=9586 hash_count=7" in out
        assert "expected_fp=1.66 stddev_fp=1.28" in out

    def test_single_insert(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--nodes", "1")
        assert code == 0
        assert "expected_fp=0.00 stddev_fp=0.00" in out

    def test_bad_epsilon(self, capsys):
        code, _, _ = run_cli(capsys, "stats", "--nodes", "10", "--epsilon", "0")
        assert code == 1


class TestSegment:
    def test_uniform_image(self, capsys, tmp_path):
        img_path = tmp_path / "white.ppm"
        save_ppm(PixelImage(np.full((2, 2, 3), 255, dtype=np.uint8)), img_path)
        out_path = tmp_path / "labels.ppm"
        code, out, _ = run_cli(
            capsys, "segment", str(img_path), "--threshold", "100", "--out", str(out_path)
        )
        assert code == 0
        assert "label_count=1" in out
        assert out_path.exists()
        assert (tmp_path / "labels.count.txt").read_text() == "label_count=1\n"

    def test_contrast_split(self, capsys, tmp_path):
        px = np.zeros((1, 2, 3), dtype=np.uint8)
        px[0, 1] = (255, 255, 255)
        img_path = tmp_path / "bw.ppm"
        save_ppm(PixelImage(px), img_path)
        code, out, _ = run_cli(
            capsys, "segment", str(img_path), "--out", str(tmp_path / "o.ppm")
        )
        assert code == 0
        assert "label_count=2" in out

    def test_bad_image_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        code, _, err = run_cli(capsys, "segment", str(bad), "--out", str(tmp_path / "o.ppm"))
        assert code == 2
        assert "maxval" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 1

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1

    def test_bad_choice(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["mst", "x.txt", "--solver", "boruvka"])
        assert exc_info.value.code == 1
