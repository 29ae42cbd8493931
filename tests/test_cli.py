import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bloomprim import (
    GraphFormatError,
    PixelImage,
    loads_graph,
    prim_baseline,
    prim_bloom,
    recover_edges,
    save_ppm,
)
from bloomprim.bench import run_bench
from bloomprim.cli import main
from bloomprim.graph import _endpoints
from oracles import induced_kruskal

ROOT = Path(__file__).resolve().parents[1]


def option_help(capsys, command) -> dict[str, str]:
    """Each option's entry in ``bloomprim <command> --help``, by its first
    option string, with whitespace collapsed so that layout does not count."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries = re.split(r"\n  (?=-)", capsys.readouterr().out.split("options:")[1])
    return {e.split()[0].rstrip(","): " ".join(e.split()) for e in entries if e.strip()}


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nodes", "4", "--min-extra", str(2**62), "--max-extra", str(2**62)],
            ["--nodes", "5", "--max-extra", str(10**20)],
        ],
        ids=["draw-count-wraps-uint64", "extra-beyond-uint64"],
    )
    def test_extra_edge_draw_count_beyond_int64_is_usage_error(self, argv):
        # in a subprocess: the first once crashed the interpreter (a wrapped
        # draw count sized np.repeat's output), which would end pytest too
        proc = subprocess.run(
            [sys.executable, "-m", "bloomprim", "gen", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            f"bloomprim gen: node_count * max_extra_edges must be below 2**63, got "
            f"{int(argv[1]) * int(argv[-1])}"
        ]


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
        u, v = _endpoints(g)
        assert tree == {(int(u[e]), int(v[e])) for e in ids}
        assert float(lines["cost"]) == pytest.approx(cost, rel=1e-9)

    def test_edges_out(self, graph_file, tmp_path, capsys):
        g = loads_graph(graph_file.read_text())
        for solver, solve in (("baseline", prim_baseline), ("bloom", prim_bloom)):
            edges_path = tmp_path / f"{solver}.txt"
            code, _, _ = run_cli(
                capsys, "mst", str(graph_file), "--solver", solver, "--edges-out", str(edges_path)
            )
            assert code == 0
            expected = "".join(f"{u} {v} {w!r}\n" for u, v, w in recover_edges(solve(g), g))
            assert edges_path.read_bytes() == expected.encode("utf-8")

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

    def test_non_utf8_byte_is_parse_error_on_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 1\n0 1 0.5\xff\n")
        code, _, err = run_cli(capsys, "mst", str(bad))
        assert code == 2
        assert "line 2: expected '<u> <v> <weight>'" in err

    def test_non_utf8_byte_on_strict_stdin_is_parse_error_on_its_line(self):
        # a strict UTF-8 stdin would raise UnicodeDecodeError (exit 1, no line)
        env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONIOENCODING": "utf-8:strict",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "bloomprim", "mst", "-"],
            input=b"2 1\n0 1 0.5\xff\n",
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert b"line 2: expected '<u> <v> <weight>'" in proc.stderr

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"2 1 9\n",
            b"2 1\n0 0 1.0\n",
            b"3 2\n0 1 0.5\n1 2\n",
            b"2 2\n0 1 0.5\n",
            b"2 1\n0 1 0.5\ngarbage\n",
            b"2 1\n0 1 0.5\xff\n",
        ],
    )
    def test_stdin_parse_error_matches_the_parser(self, capsys, monkeypatch, data):
        # read through the ASCII text layer, the 0xff byte would raise;
        # stdin's bytes give the parser's own line number and message
        with pytest.raises(GraphFormatError) as exc_info:
            loads_graph(data.decode("utf-8", errors="surrogateescape"))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
        code, _, err = run_cli(capsys, "mst", "-")
        assert code == 2
        assert err == f"bloomprim mst: parse error: {exc_info.value}\n"

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
        csv_text = run_bench(sizes=(40,), runs_per_size=1).to_csv()
        assert out_path.read_bytes() == csv_text.encode("utf-8")

    def test_degenerate_two_node_size(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "2", "--runs", "1")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[-1]) == 0.0  # error_percent

    def test_bad_sizes_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--sizes", "abc")
        assert code == 1

    def test_size_beyond_memory_is_parameter_error(self, capsys):
        # 71 PiB of random words, more than a 128 TiB address space maps: the
        # allocation fails before any page is committed
        code, _, err = run_cli(capsys, "bench", "--sizes", "10000000000000000", "--runs", "1")
        assert code == 1
        assert err.startswith("bloomprim bench: not enough memory: ")
        assert err.count("\n") == 1


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

    def test_size_beyond_memory_is_parameter_error(self, capsys):
        # 227 GiB of block sums (16 bytes per 65,536 insertions): refused
        # by a host with less memory, before any page is committed
        code, out, err = run_cli(capsys, "stats", "--nodes", "1000000000000000")
        assert code == 1
        assert out == ""
        assert err.startswith("bloomprim stats: not enough memory: ")
        assert err.count("\n") == 1


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

    def test_nan_threshold_is_usage_error(self, capsys, tmp_path):
        img_path = tmp_path / "white.ppm"
        save_ppm(PixelImage(np.full((4, 4, 3), 255, dtype=np.uint8)), img_path)
        out_path = tmp_path / "labels.ppm"
        code, _, err = run_cli(
            capsys, "segment", str(img_path), "--threshold", "nan", "--out", str(out_path)
        )
        assert code == 1
        assert "threshold" in err
        assert not out_path.exists()

    def test_bad_image_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        code, _, err = run_cli(capsys, "segment", str(bad), "--out", str(tmp_path / "o.ppm"))
        assert code == 2
        assert "maxval" in err

    def test_sample_beyond_int64_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3\n1 1\n255\n99999999999999999999999 2 3")
        code, _, err = run_cli(capsys, "segment", str(bad), "--out", str(tmp_path / "o.ppm"))
        assert code == 2
        assert "sample out of range" in err


class TestSharedFlags:
    def test_mst_and_segment_give_the_same_solver_flags(self, capsys):
        mst, seg = option_help(capsys, "mst"), option_help(capsys, "segment")
        for flag in ("--solver", "--epsilon", "--hash-seed"):
            assert mst[flag] == seg[flag]
        assert mst["--epsilon"] == "--epsilon EPSILON filter false-positive rate (default 0.01)"
        assert mst["--hash-seed"] == "--hash-seed HASH_SEED filter hash seed (default 0)"

    def test_every_filter_rate_flag_is_the_same(self, capsys):
        helps = {option_help(capsys, c)["--epsilon"] for c in ("mst", "segment", "bench", "stats")}
        assert len(helps) == 1


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
