"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  The benchmark-backed criteria share one deterministic sweep
(sizes 1,000 / 11,000 / 21,000, five runs each, base seed 7).
"""

import math

import numpy as np
import pytest

from bloomprim import (
    BloomFilter,
    BloomParams,
    ExactSet,
    GeneratorConfig,
    baseline_set_bytes,
    false_positive_stats,
    generate_graph,
    image_to_graph,
    prim_baseline,
    prim_bloom,
    run_bench,
    segment,
    simulate_false_positive_counts,
)
from oracles import induced_kruskal, kruskal, spanned_nodes

BENCH_SIZES = (1_000, 11_000, 21_000)
BENCH_RUNS = 5
BENCH_SEED = 7
EPSILON = 0.01


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def bench_report():
    return run_bench(
        sizes=BENCH_SIZES, runs_per_size=BENCH_RUNS, epsilon=EPSILON, seed=BENCH_SEED
    )


def test_criterion_01_oracle_equivalence():
    sizes = (10, 100, 1_000)
    mismatches = 0
    for seed in range(100):
        n = sizes[seed % len(sizes)]
        graph = generate_graph(GeneratorConfig(node_count=n, seed=seed))
        base = prim_baseline(graph, 0)
        exact = prim_bloom(graph, 0, visited=ExactSet())
        cost_ok = (
            exact.total_cost == base.total_cost
            or abs(exact.total_cost - base.total_cost) <= 1e-9 * base.total_cost
        )
        if not (cost_ok and exact.edge_bits == base.edge_bits):
            mismatches += 1
    _report(
        1,
        "oracle equivalence (exact-set filter == baseline)",
        mismatches == 0,
        f"100 graphs at n in {sizes}, {mismatches} mismatches",
    )


def test_criterion_02_kruskal_cross_check():
    sizes = (10, 50, 100, 250, 500, 1_000)
    worst = 0.0
    for seed in range(100):
        n = sizes[seed % len(sizes)]
        graph = generate_graph(GeneratorConfig(node_count=n, seed=1_000 + seed))
        prim_cost = prim_baseline(graph, 0).total_cost
        kruskal_cost, _ = kruskal(graph)
        worst = max(worst, abs(prim_cost - kruskal_cost) / kruskal_cost)
    _report(
        2,
        "kruskal cross-check (baseline cost)",
        worst <= 1e-9,
        f"100 graphs, worst relative deviation {worst:.2e}",
    )


def test_criterion_03_memory_model_golden_values():
    golden = {
        1_000: 32_984,
        11_000: 524_504,
        21_000: 2_097_368,
        31_000: 2_097_368,
        41_000: 2_097_368,
        51_000: 2_097_368,
        61_000: 2_097_368,
        71_000: 2_097_368,
        81_000: 4_194_520,
        91_000: 4_194_520,
        101_000: 4_194_520,
    }
    bad = {n: (baseline_set_bytes(n), want) for n, want in golden.items()
           if baseline_set_bytes(n) != want}
    _report(
        3,
        "memory-model golden values (zero tolerance)",
        not bad,
        "11/11 sizes exact" if not bad else f"mismatches: {bad}",
    )


def test_criterion_04_memory_reduction(bench_report):
    per_size = {r.node_count: r.reduction_percent for r in bench_report.records}
    in_band = all(88.0 <= red <= 98.0 for red in per_size.values())
    avg = bench_report.average_reduction_percent
    _report(
        4,
        "memory reduction",
        in_band and avg >= 90.0,
        f"per-size {', '.join(f'{n}: {r:.2f}%' for n, r in sorted(per_size.items()))}, "
        f"average {avg:.2f}%",
    )


def test_criterion_05_error_rate(bench_report):
    per_size = {r.node_count: r.error_percent for r in bench_report.records}
    avg = bench_report.average_error_percent
    _report(
        5,
        "edge-set error rate",
        avg <= 0.5 and all(e <= 0.6 for e in per_size.values()),
        f"per-size {', '.join(f'{n}: {e:.3f}%' for n, e in sorted(per_size.items()))}, "
        f"average {avg:.3f}%",
    )


def test_criterion_06_statistics_vs_published_table():
    published = {
        1_000: (1.82, 1.35),
        11_000: (20.11, 4.47),
        51_000: (93.27, 9.63),
        101_000: (184.71, 13.55),
    }
    worst = 0.0
    for n, (mean_ref, sd_ref) in published.items():
        params = BloomParams.for_capacity(n, EPSILON)
        stats = false_positive_stats(n, params.bit_count, params.hash_count)
        worst = max(
            worst,
            abs(stats.mean - mean_ref) / mean_ref,
            abs(stats.stddev - sd_ref) / sd_ref,
        )
    _report(
        6,
        "false-positive statistics vs published table",
        worst <= 0.15,
        f"worst relative deviation {worst * 100:.1f}% (tolerance 15%)",
    )


def test_criterion_07_statistics_vs_simulation(bench_report):
    n = 11_000
    params = BloomParams.for_capacity(n, EPSILON)
    stats = false_positive_stats(n, params.bit_count, params.hash_count)

    trials = 200
    counts = simulate_false_positive_counts(
        n, params.bit_count, params.hash_count, trials=trials, seed=2_022
    )
    mc_mean = float(counts.mean())
    mc_tolerance = 3.0 * stats.stddev / math.sqrt(trials)
    mc_ok = abs(mc_mean - stats.mean) <= mc_tolerance

    observed = [
        t.incorrect_edges for t in bench_report.trials if t.node_count == n
    ]
    lo, hi = stats.mean - 3.0 * stats.stddev, stats.mean + 3.0 * stats.stddev
    frac = sum(1 for x in observed if lo <= x <= hi) / len(observed)
    band_ok = frac >= 0.9

    _report(
        7,
        "statistics vs simulation",
        mc_ok and band_ok,
        f"MC mean {mc_mean:.2f} vs mu {stats.mean:.2f} (tol {mc_tolerance:.2f}); "
        f"bench incorrect-edge counts {observed} in [{lo:.1f}, {hi:.1f}]: "
        f"{frac * 100:.0f}% of runs",
    )


def test_criterion_08_filter_properties():
    rng = np.random.Generator(np.random.PCG64(31))
    false_negatives = 0
    total_adds = 0
    for round_index in range(20):
        filt = BloomFilter.for_capacity(5_000, EPSILON, hash_seed=round_index)
        keys = rng.integers(0, 2**63, size=5_000).tolist()
        for key in keys:
            filt.add(key)
            total_adds += 1
            if not filt.contains(key):
                false_negatives += 1
        false_negatives += sum(1 for key in keys if not filt.contains(key))

    capacity = 10_000
    filt = BloomFilter.for_capacity(capacity, EPSILON, hash_seed=1)
    for key in range(capacity):
        filt.add(key)
    probes = 100_000
    hits = sum(1 for key in range(2**40, 2**40 + probes) if filt.contains(key))
    rate = hits / probes
    rate_ok = EPSILON / 2 <= rate <= 2 * EPSILON

    _report(
        8,
        "filter properties",
        false_negatives == 0 and rate_ok,
        f"{false_negatives} false negatives over {total_adds} adds; "
        f"measured FP rate {rate:.4f} in [{EPSILON / 2}, {2 * EPSILON}]",
    )


def test_criterion_09_induced_mst(bench_report):
    # the filter tree is the MST of the nodes it spans; its cost may
    # still exceed the exact cost when a false positive drops a node
    trials = [t for t in bench_report.trials if t.node_count == 1_000]
    violations = []
    for t in trials:
        graph = generate_graph(GeneratorConfig(node_count=t.node_count, seed=t.run_seed))
        bloom = prim_bloom(graph, 0, epsilon=EPSILON, hash_seed=t.run_seed)
        cost, edges = induced_kruskal(graph, spanned_nodes(bloom, graph))
        if not (
            bloom.total_cost == t.bloom_cost
            and set(bloom.edge_bits.iter_set()) == edges
            and abs(bloom.total_cost - cost) <= 1e-9 * cost
        ):
            violations.append(t.run_index)
    _report(
        9,
        "filter tree is the MST of its spanned nodes",
        len(trials) == BENCH_RUNS and not violations,
        f"{len(trials)} runs at n=1,000, violations: {violations or 'none'}",
    )


def test_criterion_10_segmentation(natural_images):
    formula_ok = True
    single_cluster_ok = True
    diffs = []
    for index, image in enumerate(natural_images):
        w, h = image.width, image.height
        graph = image_to_graph(image)
        expected_edges = (w - 1) * h + w * (h - 1) + 2 * (w - 1) * (h - 1)
        formula_ok &= graph.edge_count == expected_edges

        full_tree = segment(image, threshold=float("inf"), solver="baseline")
        single_cluster_ok &= full_tree.cluster_count == 1

        base = segment(image, threshold=100.0, solver="baseline")
        approx = segment(
            image, threshold=100.0, solver="bloom", hash_seed=index + 1
        )
        diffs.append(
            abs(base.cluster_count - approx.cluster_count) / base.cluster_count
        )
    worst = max(diffs)
    _report(
        10,
        "segmentation",
        formula_ok and single_cluster_ok and len(diffs) >= 5 and worst <= 0.05,
        f"{len(diffs)} images; edge formula exact: {formula_ok}; "
        f"full-tree single cluster: {single_cluster_ok}; "
        f"worst cluster-count difference {worst * 100:.2f}% (bound 5%)",
    )
