"""The traced run: per-layer metrics of one workload.

Each op of a round runs twice, untraced and traced, in alternating order;
the outputs, including every solver result inside the op, must be
bit-identical.  Rounds repeat while they fit in half of ``--seconds``.
Then one exact and one filter solve per input size run under
tracemalloc, apart from the timed spans, largest input first.
tracemalloc slows the filter solver about eightfold, so no further size
starts once the run has taken ``PEAK_PASS_LIMIT_S``; skipped sizes are
listed in the notes.

Per-layer values are means per traced op, except the peaks (at the
largest input), ``analysis.false_positive_stats_s`` (median per call) and
``mst.*_s``: those are means per untraced op, so that the probe counting
of the traced pass does not inflate them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from bloomprim import analysis

import tracing
from workloads import exact_problems, filter_problems, timed_op

MB = 1e6
PEAK_PASS_LIMIT_S = 110.0


def layer_problems(rec: tracing.OpTrace) -> list[str]:
    """Solver invariants that only the traced op can see."""
    problems = []
    exact = rec.results("mst.prim_baseline")
    for (n, _), result in zip(rec.exact_calls, exact):
        problems += exact_problems(result, n)
    for (g, visited), result in zip(rec.filter_calls, rec.results("mst.prim_bloom")):
        if visited.false_negatives:
            problems.append(f"filter missed {visited.false_negatives} added keys")
        problems += filter_problems(g, result)
    return problems


class Totals:
    """Sums over the traced ops, and the per-size table."""

    def __init__(self):
        self.ops = 0
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.plain: dict[str, float] = defaultdict(float)  # untraced solver seconds
        self.sizes: dict[int, dict] = {}
        self.fp_stats_s: list[float] = []
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.peaks: dict[int, tuple[float, float]] = {}  # nodes -> (exact, filter) MB
        self.peaks_skipped: list[int] = []

    def size(self, n: int, edges: int) -> dict:
        return self.sizes.setdefault(n, {"edges": edges})

    def add_op(self, plain_rec: tracing.OpTrace, rec: tracing.OpTrace) -> None:
        """Add one op, from its untraced and its traced pass."""
        self.ops += 1
        for name, s in plain_rec.plain_s.items():
            self.plain[name] += s
        incl, self_s = rec.layer_seconds()
        for name, s in incl.items():
            self.incl[name] += s
        for name, s in self_s.items():
            self.self_s[name] += s
        c = self.count
        for n, e in rec.exact_calls:
            model = analysis.baseline_set_bytes(n)
            c["model.exact"] += model
            self.size(n, e)["model_exact_bytes"] = model
        for g, visited in rec.filter_calls:
            n, e = g.node_count, g.edge_count
            params = visited.inner.params
            t0 = tracing.clock()
            stats = analysis.false_positive_stats(n, params.bit_count, params.hash_count)
            self.fp_stats_s.append(tracing.clock() - t0)
            model = analysis.bloom_variant_bytes(params.bit_count, e)
            c["model.filter"] += model
            c["expected_fp"] += stats.mean
            c["contains_calls"] += visited.contains_calls
            c["add_calls"] += visited.add_calls
            c["fp_rejections"] += len(visited.fp_nodes)
            c["payload_bytes"] += visited.inner.payload_bytes
            self.size(n, e).update(
                model_filter_bytes=model,
                payload_bytes=visited.inner.payload_bytes,
                fp_rejections=len(visited.fp_nodes),
                expected_fp=stats.mean,
                stddev_fp=stats.stddev,
            )
        for base, approx in zip(rec.results("mst.prim_baseline"), rec.results("mst.prim_bloom")):
            c["edge_error_pct"] += 100.0 * analysis.edge_error_rate(base, approx)
        segments = rec.results("segmentation.segment")
        if len(segments) == 2:  # baseline first, then bloom
            c["clusters.exact"] += segments[0].cluster_count
            c["clusters.filter"] += segments[1].cluster_count
        c["parsed_bytes"] += rec.parsed_bytes

    def add_peaks(self, g, hash_seed: int | None, epsilon: float) -> None:
        exact_peak, filter_peak = tracing.solver_peaks(g, hash_seed, epsilon)
        self.peaks[g.node_count] = (exact_peak / MB, filter_peak / MB)
        self.size(g.node_count, g.edge_count).update(
            exact_peak_mb=exact_peak / MB, filter_peak_mb=filter_peak / MB)

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics by name, and the sample count behind each."""
        incl, self_s, c = self.incl, self.self_s, self.count

        def per_op(x: float) -> float:
            return x / self.ops if self.ops else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        exact_peak, filter_peak = self.peaks[max(self.peaks)] if self.peaks else (0.0, 0.0)
        values = {
            "bench.run_trial_s": (per_op(incl["bench.run_trial"]), "s"),
            "bench.self_s": (per_op(self_s["bench.run_trial"]), "s"),
            "graph.generate_graph_s": (per_op(incl["graph.generate_graph"]), "s"),
            "graph.csr_build_s": (per_op(incl["graph.csr_build"]), "s"),
            "graph.dumps_graph_s": (per_op(incl["graph.dumps_graph"]), "s"),
            "graph.loads_graph_s": (per_op(incl["graph.loads_graph"]), "s"),
            "graph.parse_mb_per_s": (ratio(c["parsed_bytes"] / MB, incl["graph.loads_graph"]),
                                     "MB/s"),
            "mst.prim_baseline_s": (per_op(self.plain["mst.prim_baseline"]), "s"),
            "mst.prim_bloom_s": (per_op(self.plain["mst.prim_bloom"]), "s"),
            "mst.prim_baseline_peak_mb": (exact_peak, "MB"),
            "mst.prim_bloom_peak_mb": (filter_peak, "MB"),
            "bloom.contains_calls": (per_op(c["contains_calls"]), "count"),
            "bloom.add_calls": (per_op(c["add_calls"]), "count"),
            "bloom.contains_s": (per_op(incl["bloom.contains"]), "s"),
            "bloom.fp_rejections": (per_op(c["fp_rejections"]), "count"),
            "bloom.payload_bytes": (per_op(c["payload_bytes"]), "B"),
            "bloom.fp_vs_expected": (ratio(c["fp_rejections"], c["expected_fp"]), "ratio"),
            "analysis.false_positive_stats_s": (
                statistics.median(self.fp_stats_s) if self.fp_stats_s else 0.0, "s"),
            "analysis.baseline_set_bytes_s": (per_op(incl["analysis.baseline_set_bytes"]), "s"),
            "analysis.edge_error_rate_s": (per_op(incl["analysis.edge_error_rate"]), "s"),
            "analysis.model_bytes.baseline": (per_op(c["model.exact"]), "B"),
            "analysis.model_bytes.bloom": (per_op(c["model.filter"]), "B"),
            "analysis.expected_fp": (per_op(c["expected_fp"]), "count"),
            "analysis.edge_error_pct": (per_op(c["edge_error_pct"]), "%"),
            "segmentation.load_ppm_s": (per_op(incl["segmentation.load_ppm"]), "s"),
            "segmentation.image_to_graph_s": (per_op(incl["segmentation.image_to_graph"]), "s"),
            "segmentation.segment_self_s": (per_op(self_s["segmentation.segment"]), "s"),
            "segmentation.clusters.baseline": (per_op(c["clusters.exact"]), "count"),
            "segmentation.clusters.bloom": (per_op(c["clusters.filter"]), "count"),
            "trace.overhead_pct": (
                100.0 * (ratio(sum(self.traced_s), sum(self.plain_s)) - 1.0), "%"),
            "trace.op_self_pct": (100.0 * ratio(self_s["op"], incl["op"]), "%"),
        }
        counts = {name: self.ops for name in values}
        counts["analysis.false_positive_stats_s"] = len(self.fp_stats_s)
        one_peak = min(len(self.peaks), 1)
        counts["mst.prim_baseline_peak_mb"] = counts["mst.prim_bloom_peak_mb"] = one_peak
        counts["trace.overhead_pct"] = len(self.plain_s)
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, counts

    def notes(self) -> dict:
        return {
            "self_s_per_op": {k: v / self.ops for k, v in sorted(self.self_s.items()) if v},
            "sizes": {str(n): row for n, row in sorted(self.sizes.items())},
            "peaks_skipped": self.peaks_skipped,
        }


def traced_run(w, seconds: float, epsilon: float):
    """Returns ``(totals, attempted, failures)``, failures as ``(op, problems)``."""
    tracer = tracing.Tracer()
    totals = Totals()
    failures: list[tuple[int, list[str]]] = []
    attempted = 0
    start = tracing.clock()
    traced_first = False
    with tracer.installed():
        while True:
            round_start = tracing.clock()
            for i in range(w.cycle):
                runs = {}
                for traced in (traced_first, not traced_first):
                    runs[traced] = timed_op(w, i, tracer.op(traced))
                attempted += 1
                p_dt, p_out, p_problems, p_rec = runs[False]
                t_dt, t_out, t_problems, rec = runs[True]
                problems = p_problems + t_problems
                if p_rec is not None and rec is not None:
                    if tracing.fingerprint((p_out, p_rec.outputs)) != \
                            tracing.fingerprint((t_out, rec.outputs)):
                        problems.append("traced output differs from the untraced output")
                    totals.plain_s.append(p_dt)
                    totals.traced_s.append(t_dt)
                    problems += layer_problems(rec)
                    totals.add_op(p_rec, rec)
                if problems:
                    failures.append((i, problems))
            # alternate which pass goes first, so drift favours neither
            traced_first = not traced_first
            now = tracing.clock()
            if now - start + (now - round_start) > seconds / 2:
                break

    largest_first = sorted(w.memory_graphs(), key=lambda pair: -pair[0].node_count)
    for k, (g, hash_seed) in enumerate(largest_first):
        if k and tracing.clock() - start > PEAK_PASS_LIMIT_S:
            totals.peaks_skipped.append(g.node_count)
        else:
            totals.add_peaks(g, hash_seed, epsilon)
    return totals, attempted, failures
