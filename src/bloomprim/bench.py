"""Benchmark sweep comparing the exact and filter-backed solvers.

For every graph size the harness regenerates a fresh random graph per
run, solves it with both variants, and aggregates per-size records:
modeled memory for each variant, the percent reduction, the averaged
count of edges the filter variant is short (rounded to the nearest
integer), the predicted false-positive moments for the filter
configuration, and the averaged edge-set error rate.

``baseline_bytes`` and ``reduction_percent`` compare against the paper's
*model* of an exact visited hash set (:func:`~bloomprim.analysis.baseline_set_bytes`),
which no solver here allocates: both keep one int64 best key per node as
their visited record, so their measured peaks differ by little more than
the filter's own bits.  The columns reproduce the paper's accounting;
they are not a measurement of this process.

Per-run seeds are ``seed + 1_000_003 * size_index + run_index``, so any
single trial can be reproduced in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .analysis import (
    baseline_set_bytes,
    bloom_variant_bytes,
    edge_error_rate,
    false_positive_stats,
)
from .bloom import BloomParams
from .graph import GeneratorConfig, generate_graph
from .mst import prim_baseline, prim_bloom

DESK_SIZES: tuple[int, ...] = (1_000, 11_000, 21_000)
FULL_SIZES: tuple[int, ...] = tuple(range(1_000, 101_001, 10_000))

_SIZE_SEED_STRIDE = 1_000_003

CSV_HEADER = (
    "node_count,baseline_bytes,bloom_bytes,reduction_percent,"
    "incorrect_edges,expected_fp,stddev_fp,error_percent"
)


@dataclass(frozen=True)
class TrialResult:
    """Raw outcome of one (size, run) trial."""

    node_count: int
    run_index: int
    run_seed: int
    edge_count: int
    baseline_cost: float
    bloom_cost: float
    baseline_edge_count: int
    bloom_edge_count: int
    bloom_spanned_count: int
    incorrect_edges: int
    error_rate: float
    baseline_bytes: int
    bloom_bytes: int


@dataclass(frozen=True)
class BenchRecord:
    """Aggregated results for one graph size."""

    node_count: int
    baseline_bytes: int
    bloom_bytes: int
    reduction_percent: float
    incorrect_edges: int
    expected_fp: float
    stddev_fp: float
    error_percent: float


@dataclass(frozen=True)
class BenchReport:
    """All per-size records, the raw trials behind them, and sweep averages."""

    records: tuple[BenchRecord, ...]
    trials: tuple[TrialResult, ...]
    average_reduction_percent: float
    average_error_percent: float

    def to_csv(self) -> str:
        """Render the records plus an averages row as CSV."""
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.node_count},{r.baseline_bytes},{r.bloom_bytes},"
                f"{r.reduction_percent:.2f},{r.incorrect_edges},"
                f"{r.expected_fp:.2f},{r.stddev_fp:.2f},{r.error_percent:.2f}"
            )
        lines.append(
            f"average,,,{self.average_reduction_percent:.2f},,,,"
            f"{self.average_error_percent:.3f}"
        )
        return "\n".join(lines) + "\n"


def run_seed_for(seed: int, size_index: int, run_index: int) -> int:
    """Derived seed for one trial; also seeds that trial's filter hashes."""
    return seed + _SIZE_SEED_STRIDE * size_index + run_index


def run_trial(
    node_count: int, run_seed: int, epsilon: float = 0.01, run_index: int = 0
) -> TrialResult:
    """Generate one graph and solve it with both variants."""
    graph = generate_graph(GeneratorConfig(node_count=node_count, seed=run_seed))
    baseline = prim_baseline(graph, 0)
    bloom = prim_bloom(graph, 0, epsilon=epsilon, hash_seed=run_seed)
    params = BloomParams.for_capacity(node_count, epsilon)
    return TrialResult(
        node_count=node_count,
        run_index=run_index,
        run_seed=run_seed,
        edge_count=graph.edge_count,
        baseline_cost=baseline.total_cost,
        bloom_cost=bloom.total_cost,
        baseline_edge_count=baseline.selected_edge_count,
        bloom_edge_count=bloom.selected_edge_count,
        bloom_spanned_count=bloom.spanned_node_count,
        incorrect_edges=baseline.selected_edge_count - bloom.selected_edge_count,
        error_rate=edge_error_rate(baseline, bloom),
        baseline_bytes=baseline_set_bytes(node_count),
        bloom_bytes=bloom_variant_bytes(params.bit_count, graph.edge_count),
    )


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def run_bench(
    sizes: Sequence[int] = DESK_SIZES,
    runs_per_size: int = 5,
    epsilon: float = 0.01,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Run the full sweep and aggregate one record per size.

    Every size is checked by :class:`GeneratorConfig` and
    :meth:`BloomParams.for_capacity` before the first trial, so a bad size
    or ``epsilon`` fails with their message before any work starts.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if runs_per_size < 1:
        raise ValueError(f"runs_per_size must be >= 1, got {runs_per_size}")
    for node_count in sizes:
        GeneratorConfig(node_count)
        BloomParams.for_capacity(node_count, epsilon)

    records: list[BenchRecord] = []
    trials: list[TrialResult] = []
    for size_index, node_count in enumerate(sizes):
        size_trials: list[TrialResult] = []
        for run_index in range(runs_per_size):
            run_seed = run_seed_for(seed, size_index, run_index)
            trial = run_trial(node_count, run_seed, epsilon, run_index)
            size_trials.append(trial)
            if progress is not None:
                progress(
                    f"size={node_count} run={run_index} seed={run_seed}: "
                    f"edges={trial.edge_count} incorrect={trial.incorrect_edges} "
                    f"error={trial.error_rate * 100:.3f}%"
                )
        records.append(_aggregate(node_count, size_trials, epsilon))
        trials.extend(size_trials)

    avg_reduction = sum(r.reduction_percent for r in records) / len(records)
    avg_error = sum(r.error_percent for r in records) / len(records)
    return BenchReport(tuple(records), tuple(trials), avg_reduction, avg_error)


def _aggregate(
    node_count: int, size_trials: Iterable[TrialResult], epsilon: float
) -> BenchRecord:
    size_trials = list(size_trials)
    runs = len(size_trials)
    baseline_bytes = size_trials[0].baseline_bytes
    mean_bloom_bytes = sum(t.bloom_bytes for t in size_trials) / runs
    params = BloomParams.for_capacity(node_count, epsilon)
    stats = false_positive_stats(node_count, params.bit_count, params.hash_count)
    return BenchRecord(
        node_count=node_count,
        baseline_bytes=baseline_bytes,
        bloom_bytes=_round_half_up(mean_bloom_bytes),
        reduction_percent=100.0 * (1.0 - mean_bloom_bytes / baseline_bytes),
        incorrect_edges=_round_half_up(
            sum(t.incorrect_edges for t in size_trials) / runs
        ),
        expected_fp=stats.mean,
        stddev_fp=stats.stddev,
        error_percent=100.0 * sum(t.error_rate for t in size_trials) / runs,
    )
