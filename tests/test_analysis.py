import math

import pytest

from bloomprim import (
    BitArray,
    BloomParams,
    MstResult,
    baseline_set_bytes,
    bloom_variant_bytes,
    edge_error_rate,
    false_positive_stats,
    simulate_false_positive_counts,
)
from oracles import real_filter_fp_counts, set_bytes_per_insert, traced_peak, whole_fp_moments

# (insert count, published mean, published stddev) for the 1% filter configuration
PUBLISHED_MOMENTS = [
    (1_000, 1.82, 1.35),
    (11_000, 20.11, 4.47),
    (51_000, 93.27, 9.63),
    (101_000, 184.71, 13.55),
]


class TestFalsePositiveStats:
    def test_single_insert_has_no_collisions(self):
        stats = false_positive_stats(1, 100, 3)
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    @pytest.mark.parametrize("n, mean, stddev", PUBLISHED_MOMENTS)
    def test_matches_published_moments(self, n, mean, stddev):
        params = BloomParams.for_capacity(n, 0.01)
        stats = false_positive_stats(n, params.bit_count, params.hash_count)
        assert stats.mean == pytest.approx(mean, rel=0.15)
        assert stats.stddev == pytest.approx(stddev, rel=0.15)

    def test_stddev_is_sqrt_variance(self):
        stats = false_positive_stats(5000, 47926, 7)
        assert stats.stddev == pytest.approx(math.sqrt(stats.variance))

    def test_monotone_in_insert_count(self):
        means = [
            false_positive_stats(n, 9586, 7).mean for n in (10, 100, 500, 1000, 2000)
        ]
        assert means == sorted(means)
        variances = [
            false_positive_stats(n, 9586, 7).variance for n in (10, 100, 1000)
        ]
        assert variances == sorted(variances)

    def test_fractional_hash_count_accepted(self):
        low = false_positive_stats(1000, 9586, 6).mean
        frac = false_positive_stats(1000, 9586, 9586 * math.log(2) / 1000).mean
        high = false_positive_stats(1000, 9586, 7).mean
        # mean falls between the two integer roundings of the hash count
        assert high < frac < low

    @pytest.mark.parametrize("n", [2, 65_536, 65_537, 65_538, 131_073, 1_000_003])
    @pytest.mark.parametrize("epsilon", [0.01, 0.2])
    def test_block_sums_match_whole_sum(self, n, epsilon):
        params = BloomParams.for_capacity(n, epsilon)
        fractional = params.bit_count * math.log(2) / n
        for k in (params.hash_count, fractional):
            stats = false_positive_stats(n, params.bit_count, k)
            mean, variance = whole_fp_moments(n, params.bit_count, k)
            assert stats.mean == pytest.approx(mean, rel=1e-12)
            assert stats.variance == pytest.approx(variance, rel=1e-12)

    def test_peak_memory_is_one_block(self):
        # the whole sum held three float64 arrays of n entries: 24 MB here
        params = BloomParams.for_capacity(10**6, 0.01)
        peak = traced_peak(false_positive_stats, 10**6, params.bit_count, params.hash_count)
        assert peak < 3_000_000

    @pytest.mark.parametrize("args", [(0, 10, 1), (10, 0, 1), (10, 10, 0)])
    def test_rejects_nonpositive_inputs(self, args):
        with pytest.raises(ValueError):
            false_positive_stats(*args)


class TestMonteCarloAgreement:
    def test_vectorized_simulation_tracks_formula(self):
        n, m, k = 2000, 19172, 7
        stats = false_positive_stats(n, m, k)
        counts = simulate_false_positive_counts(n, m, k, trials=300, seed=5)
        tolerance = 3.0 * stats.stddev / math.sqrt(len(counts))
        assert abs(float(counts.mean()) - stats.mean) <= tolerance
        assert counts.var(ddof=1) == pytest.approx(stats.variance, rel=0.30)

    def test_real_filter_runs_track_formula(self):
        # genuine BloomFilter insertions, not the probe-position shortcut
        params = BloomParams.for_capacity(400, 0.05)
        stats = false_positive_stats(400, params.bit_count, params.hash_count)
        counts = real_filter_fp_counts(400, 0.05, trials=150, seed=21)
        tolerance = 4.0 * stats.stddev / math.sqrt(len(counts))
        assert abs(sum(counts) / len(counts) - stats.mean) <= tolerance

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            simulate_false_positive_counts(0, 10, 1)


class TestEdgeErrorRate:
    @staticmethod
    def _result(edge_count, set_bits):
        bits = BitArray(edge_count)
        for b in set_bits:
            bits.set(b)
        return MstResult(0.0, bits, len(set_bits), len(set_bits) + 1)

    def test_identical_results_zero_error(self):
        a = self._result(10, [1, 4, 7])
        b = self._result(10, [1, 4, 7])
        assert edge_error_rate(a, b) == 0.0

    def test_one_of_three_missing(self):
        base = self._result(10, [1, 4, 7])
        approx = self._result(10, [1, 4])
        assert edge_error_rate(base, approx) == pytest.approx(1 / 3)

    def test_extra_edges_in_approximation_not_counted(self):
        base = self._result(10, [1, 4])
        approx = self._result(10, [1, 4, 9])
        assert edge_error_rate(base, approx) == 0.0

    def test_empty_baseline_gives_zero(self):
        assert edge_error_rate(self._result(10, []), self._result(10, [2])) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            edge_error_rate(self._result(10, [1]), self._result(11, [1]))


class TestMemoryModels:
    # the four distinct published visited-set sizes
    GOLDEN = {
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

    @pytest.mark.parametrize("inserted, expected", sorted(GOLDEN.items()))
    def test_baseline_set_bytes_golden(self, inserted, expected):
        assert baseline_set_bytes(inserted) == expected

    def test_baseline_set_bytes_small(self):
        assert baseline_set_bytes(0) == 8 * 16 + 216
        assert baseline_set_bytes(1) == 8 * 16 + 216
        # fifth insert reaches ceil(3/5 * 8) = 5 and grows to 32 slots
        assert baseline_set_bytes(5) == 32 * 16 + 216

    def test_baseline_set_bytes_matches_per_insert_model(self):
        reference = set_bytes_per_insert(400_000)
        growths = [n for n in range(1, len(reference)) if reference[n] != reference[n - 1]]
        assert growths[0] == 5 and growths[-2] > 50_000  # both growth factors
        points = {n + d for n in [*growths, 50_000] for d in (-1, 0, 1)} | {*range(0, 400_001, 997)}
        for n in sorted(points & {*range(len(reference))}):
            assert baseline_set_bytes(n) == reference[n], n

    def test_baseline_set_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            baseline_set_bytes(-1)

    def test_bloom_variant_bytes(self):
        assert bloom_variant_bytes(9586, 13_000) == 2_944
        assert bloom_variant_bytes(0, 0) == 120
        assert bloom_variant_bytes(8, 8) == 1 + 1 + 120
        assert bloom_variant_bytes(9, 9) == 2 + 2 + 120

    def test_bloom_variant_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            bloom_variant_bytes(-1, 0)


def test_published_table_reduction_magnitude():
    # the published space columns imply a ~91% reduction at 1,000 nodes
    variant = bloom_variant_bytes(BloomParams.for_capacity(1000, 0.01).bit_count, 13_000)
    reduction_percent = 100.0 * (1.0 - variant / baseline_set_bytes(1000))
    assert reduction_percent == pytest.approx(91.07, abs=0.05)
