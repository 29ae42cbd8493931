"""Run one bloomprim benchmark workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``sweep-desk``, ``io-roundtrip`` and
``segment-frame``.  One process, no extra threads, the program imported
from ``src/``.  Each op's output is checked; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times ops untraced in a closed loop for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` reports the per-layer
metrics (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_s.tail has at least this many samples beyond it
MB = 1e6

clock = time.perf_counter


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and its name.

    Below ``2 * TAIL_BEYOND`` samples that percentile would lie under the
    median, so the median is reported and named ``p50``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), "p50"
    return xs[n - 1 - TAIL_BEYOND], f"p{100 * (n - TAIL_BEYOND) / n:.4g}"


def set_up(cls, seed: int, repeats: int):
    """Set the workload up ``repeats`` times; return the last one and each time.

    Only ``set_up()``, which calls the program alone, is timed; the
    benchmark's own inputs are made before it and the oracles run later,
    in the untimed checks.
    """
    times = []
    w = None
    for _ in range(repeats):
        w = None
        w = cls(seed)
        gc.collect()
        t0 = clock()
        w.set_up()
        times.append(clock() - t0)
    return w, times


def measure(w, seconds: float):
    """Closed loop: one full round, then ops while the next fits in ``seconds``.

    The next op is expected to take as long, check included, as the op
    on the same input one round earlier.  Returns the op times, input
    edges of the timed ops, ops attempted and failures.
    """
    from workloads import timed_op

    samples, walls, failures = [], [], []
    edges = 0
    start = clock()
    i = 0
    while True:
        op_start = clock()
        dt, out, problems, _ = timed_op(w, i)
        if problems:
            failures.append((i, problems))
        if dt is not None:
            samples.append(dt)
            edges += w.edges(i, out)
        walls.append(clock() - op_start)
        i += 1
        if i >= w.cycle and clock() - start + walls[i - w.cycle] > seconds:
            return samples, edges, i, failures


def untraced(w, setup_times: list[float], seconds: float):
    samples, edges, attempted, failures = measure(w, seconds)
    ok = attempted - len(failures)
    # every op raising leaves no times; the run is then incorrect anyway
    tail_value, tail_name = tail(samples) if samples else (0.0, "none")
    values = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "op_s.p50": (statistics.median(samples) if samples else 0.0, "s", len(samples)),
        "op_s.tail": (tail_value, "s", len(samples)),
        "edges_per_s": (edges / sum(samples) if samples else 0.0, "1/s", len(samples)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB", 1),
        "ok_frac": (ok / attempted, "ratio", attempted),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    counts = {k: n for k, (_, _, n) in values.items()}
    notes = {"failed_frac": (attempted - ok) / attempted,
             "op_s.tail": f"{tail_name} of {len(samples)} ops"}
    if hasattr(w, "dearer"):
        notes["filter_dearer_than_exact"] = sorted(set(w.dearer))
    return metrics, counts, notes, attempted, failures


def traced(w, seconds: float):
    import layers
    from workloads import EPSILON

    totals, attempted, failures = layers.traced_run(w, seconds, EPSILON)
    metrics, counts = totals.metrics()
    return metrics, counts, totals.notes(), attempted, failures


def environment(args, w, counts: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seeds": w.seeds(),
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "samples": counts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "bloomprim" / "__init__.py").is_file():
        print(f"error: no bloomprim sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    w, setup_times = set_up(WORKLOADS[args.workload], args.seed,
                            1 if args.trace else SETUP_REPEATS)
    metrics, counts, notes, attempted, failures = (
        traced(w, args.seconds) if args.trace else untraced(w, setup_times, args.seconds))

    for i, problems in failures:
        for p in problems:
            print(f"op {i}: {p}", file=sys.stderr)
    print("env " + json.dumps(environment(args, w, counts), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} n={counts[name]}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
