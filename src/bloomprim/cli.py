"""Command-line interface.

Subcommands: ``gen`` (write a random graph file), ``mst`` (solve a graph
file), ``bench`` (the comparison sweep, CSV output), ``stats`` (filter
sizing and false-positive moments), ``segment`` (MST-threshold image
segmentation).  Exit codes: 0 on success, 1 on usage or parameter
errors (a size too large to allocate is one), 2 on I/O or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import false_positive_stats
from .bench import DESK_SIZES, FULL_SIZES, run_bench
from .bloom import BloomParams
from .graph import (
    GeneratorConfig,
    GraphFormatError,
    _edge_lines,
    _write,
    generate_graph,
    load_graph,
    save_graph,
)
from .mst import _selected_columns, prim_baseline, prim_bloom
from .segmentation import PpmFormatError, load_ppm, save_labels, segment


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default is 2, reserved here for I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bloomprim",
        description="Memory-efficient minimum spanning trees with a Bloom-filter-backed Prim solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # flags shared by the commands that size a filter, and by those that solve
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument(
        "--epsilon", type=float, default=0.01, help="filter false-positive rate (default 0.01)"
    )
    solver = argparse.ArgumentParser(add_help=False, parents=[rate])
    solver.add_argument("--solver", choices=("baseline", "bloom"), default="baseline")
    solver.add_argument("--hash-seed", type=int, default=0, help="filter hash seed (default 0)")

    p_gen = sub.add_parser("gen", help="generate a seeded random graph file")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("--nodes", type=int, required=True, help="node count (>= 2)")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_gen.add_argument("--min-extra", type=int, default=1, help="min extra edges per node (default 1)")
    p_gen.add_argument("--max-extra", type=int, default=25, help="max extra edges per node (default 25)")
    p_gen.add_argument("--out", default="-", help="output path, '-' for stdout (default)")

    p_mst = sub.add_parser("mst", parents=[solver], help="solve a graph file with either solver")
    p_mst.set_defaults(run=_cmd_mst)
    p_mst.add_argument("graph", help="graph file path, '-' for stdin")
    p_mst.add_argument("--start", type=int, default=0, help="start node (default 0)")
    p_mst.add_argument("--edges-out", help="optional path for the recovered edge list")

    p_bench = sub.add_parser(
        "bench",
        parents=[rate],
        help="run the comparison sweep and emit CSV",
        description="Run the comparison sweep and emit CSV.  baseline_bytes and "
        "reduction_percent compare against the paper's model of an exact visited "
        "hash set, which no solver here allocates; they are modeled bytes, not "
        "measured ones.",
    )
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DESK_SIZES),
        help=f"comma-separated node counts (default {','.join(str(s) for s in DESK_SIZES)})",
    )
    p_bench.add_argument(
        "--full-sweep",
        action="store_true",
        help=f"use sizes {FULL_SIZES[0]}..{FULL_SIZES[-1]} step 10000 (overrides --sizes)",
    )
    p_bench.add_argument("--runs", type=int, default=5, help="runs per size (default 5)")
    p_bench.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; trial seeds are seed + 1000003*size_index + run_index",
    )
    p_bench.add_argument("--out", default="-", help="CSV path, '-' for stdout (default)")

    p_stats = sub.add_parser("stats", parents=[rate], help="filter sizing and false-positive moments")
    p_stats.set_defaults(run=_cmd_stats)
    p_stats.add_argument("--nodes", type=int, required=True, help="insertion count")

    p_seg = sub.add_parser("segment", parents=[solver], help="MST-threshold segmentation of a pixmap")
    p_seg.set_defaults(run=_cmd_segment)
    p_seg.add_argument("image", help="input pixmap (P6 or P3, maxval 255)")
    p_seg.add_argument("--threshold", type=float, default=100.0, help="edge-trim threshold (default 100)")
    p_seg.add_argument("--out", help="label image path (default: <input>.labels.ppm)")
    return parser


def _cmd_gen(args) -> int:
    config = GeneratorConfig(
        node_count=args.nodes,
        min_extra_edges=args.min_extra,
        max_extra_edges=args.max_extra,
        seed=args.seed,
    )
    graph = generate_graph(config)
    save_graph(graph, sys.stdout if args.out == "-" else args.out)
    print(
        f"generated nodes={graph.node_count} edges={graph.edge_count} seed={args.seed}",
        file=sys.stderr,
    )
    return 0


def _cmd_mst(args) -> int:
    # stdin's bytes, so they decode as a file's do whatever its encoding
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    graph = load_graph(stdin if args.graph == "-" else args.graph)
    if args.solver == "baseline":
        result = prim_baseline(graph, args.start)
    else:
        result = prim_bloom(
            graph, args.start, epsilon=args.epsilon, hash_seed=args.hash_seed
        )
    print(f"cost={result.total_cost!r}")
    print(f"selected_edges={result.selected_edge_count}")
    print(f"spanned_nodes={result.spanned_node_count}")
    if args.edges_out:
        _write(args.edges_out, _edge_lines(*_selected_columns(result, graph)))
    return 0


def _cmd_bench(args) -> int:
    if args.full_sweep:
        sizes = FULL_SIZES
    else:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        except ValueError:
            raise ValueError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    report = run_bench(
        sizes=sizes,
        runs_per_size=args.runs,
        epsilon=args.epsilon,
        seed=args.seed,
        progress=lambda line: print(line, file=sys.stderr),
    )
    _write(sys.stdout if args.out == "-" else args.out, report.to_csv())
    return 0


def _cmd_stats(args) -> int:
    params = BloomParams.for_capacity(args.nodes, args.epsilon)
    stats = false_positive_stats(args.nodes, params.bit_count, params.hash_count)
    print(f"nodes={args.nodes} epsilon={args.epsilon}")
    print(f"bit_count={params.bit_count} hash_count={params.hash_count}")
    print(f"payload_bytes={params.payload_bytes}")
    print(f"expected_fp={stats.mean:.2f} stddev_fp={stats.stddev:.2f}")
    return 0


def _cmd_segment(args) -> int:
    image = load_ppm(args.image)
    result = segment(
        image,
        threshold=args.threshold,
        solver=args.solver,
        epsilon=args.epsilon,
        hash_seed=args.hash_seed,
    )
    out = args.out if args.out else f"{args.image}.labels.ppm"
    image_path, sidecar = save_labels(result, out)
    print(f"label_count={result.cluster_count}")
    print(f"wrote {image_path} and {sidecar}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GraphFormatError, PpmFormatError) as exc:
        print(f"bloomprim {args.command}: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bloomprim {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bloomprim {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size too large to allocate is a parameter error
        print(f"bloomprim {args.command}: not enough memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
