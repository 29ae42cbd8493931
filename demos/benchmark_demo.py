"""
Memory benchmark sweep
======================

Compare the modeled auxiliary memory of both solver variants across a
few graph sizes.  Desk-scale sizes keep this quick; pass larger sizes
to ``run_bench`` (or use the CLI's ``--full-sweep``) for the long form.
"""

import sys

from bloomprim import run_bench

# Three sizes, three runs each; every trial regenerates a fresh graph.
report = run_bench(
    sizes=(1_000, 4_000, 8_000),
    runs_per_size=3,
    epsilon=0.01,
    seed=0,
    progress=lambda line: print(f"  {line}", file=sys.stderr),
)

print(report.to_csv())
print(f"average reduction : {report.average_reduction_percent:.2f}%")
print(f"average error     : {report.average_error_percent:.3f}%")

# The records carry the per-size aggregates; the raw trials are kept
# too.  A filter tree spans only the nodes the filter let through and is
# their MST, so it can cost more than the exact tree: a dropped node's
# neighbours may be joined over dearer edges.
dearer = sum(t.bloom_cost > t.baseline_cost for t in report.trials)
print(f"dearer filter tree: {dearer} of {len(report.trials)} trials")
