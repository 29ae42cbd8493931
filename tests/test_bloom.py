import hashlib
import math

import numpy as np
import pytest

from bloomprim import BitArray, BloomFilter, BloomParams, hash_pair


class TestParams:
    def test_reference_sizing(self):
        p = BloomParams.for_capacity(1000, 0.01)
        assert p.bit_count == 9586
        assert p.hash_count == 7

    def test_tiny_capacity(self):
        p = BloomParams.for_capacity(1, 0.5)
        assert p.bit_count == 2
        assert p.hash_count == 1

    @pytest.mark.parametrize("epsilon", [1.0, 0.0, -0.1, 1.5])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError):
            BloomParams.for_capacity(1000, epsilon)

    @pytest.mark.parametrize("capacity", [0, -5])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            BloomParams.for_capacity(capacity, 0.01)

    def test_smaller_epsilon_never_shrinks_bits(self):
        epsilons = [0.5, 0.2, 0.1, 0.05, 0.01, 0.001, 1e-6]
        for capacity in (1, 10, 1000, 50_000):
            sizes = [BloomParams.for_capacity(capacity, e).bit_count for e in epsilons]
            assert sizes == sorted(sizes)

    def test_hash_count_rounds_half_up(self):
        # bit_count * ln2 / capacity = 6.644 for the reference sizing
        p = BloomParams.for_capacity(1000, 0.01)
        assert p.hash_count == math.floor(p.bit_count * math.log(2) / 1000 + 0.5)

    def test_payload_bytes(self):
        assert BloomParams.for_capacity(1000, 0.01).payload_bytes == 1199


class TestFilter:
    def test_empty_filter_contains_nothing(self):
        f = BloomFilter.for_capacity(100, 0.01)
        assert not any(f.contains(k) for k in range(1000))

    def test_added_keys_always_found(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for round_seed in range(5):
            f = BloomFilter.for_capacity(500, 0.01, hash_seed=round_seed)
            keys = rng.integers(0, 2**63, size=500).tolist()
            for key in keys:
                f.add(key)
                assert f.contains(key)
            assert all(f.contains(key) for key in keys)

    def test_add_is_idempotent_on_bits(self):
        f1 = BloomFilter.for_capacity(100, 0.01)
        f2 = BloomFilter.for_capacity(100, 0.01)
        f1.add(42)
        f2.add(42)
        f2.add(42)
        assert f1.bits == f2.bits

    def test_popcount_bounded_by_hashes_times_inserts(self):
        f = BloomFilter.for_capacity(1000, 0.01)
        for key in range(100):
            f.add(key)
        assert f.bits.popcount() <= f.params.hash_count * 100

    def test_deterministic_across_instances(self):
        keys = [7, 900, 2**40 + 3, 0, 123456789]
        a = BloomFilter.for_capacity(50, 0.05, hash_seed=9)
        b = BloomFilter.for_capacity(50, 0.05, hash_seed=9)
        for k in keys:
            a.add(k)
            b.add(k)
        assert a.bits == b.bits

    def test_frozen_bit_pattern(self):
        # guards cross-run and cross-platform drift of the hash construction
        f = BloomFilter.for_capacity(1000, 0.01, hash_seed=0)
        for key in range(100):
            f.add(key)
        digest = hashlib.sha256(f.bits.tobytes()).hexdigest()
        assert digest == "8382e32bec9e111b19b172a152241b8d9c89c9a176a963907c56e5362cc8ddff"

    def test_seed_changes_bit_pattern(self):
        a = BloomFilter.for_capacity(100, 0.01, hash_seed=0)
        b = BloomFilter.for_capacity(100, 0.01, hash_seed=1)
        for k in range(50):
            a.add(k)
            b.add(k)
        assert a.bits != b.bits

    def test_probes_match_hash_pair(self):
        f = BloomFilter.for_capacity(100, 0.01, hash_seed=77)
        f.add(1234)
        h1, h2 = hash_pair(1234, 77)
        expected = BitArray(f.params.bit_count)
        for i in range(f.params.hash_count):
            expected.set((h1 + i * h2) % f.params.bit_count)
        assert f.bits == expected

    def test_false_positive_rate_near_target(self):
        # fill to capacity, then probe non-members; rate should sit near epsilon
        capacity, epsilon = 2000, 0.01
        f = BloomFilter.for_capacity(capacity, epsilon, hash_seed=5)
        for key in range(capacity):
            f.add(key)
        probes = 100_000
        hits = sum(
            1 for key in range(10**9, 10**9 + probes) if f.contains(key)
        )
        rate = hits / probes
        assert 0.005 <= rate <= 0.02

    def test_payload_bytes(self):
        f = BloomFilter.for_capacity(1000, 0.01)
        assert f.payload_bytes == 1199

    def test_in_operator(self):
        f = BloomFilter.for_capacity(10, 0.01)
        f.add(3)
        assert 3 in f


def test_hash_pair_reference_values():
    assert hash_pair(0, 0) == (5197578548964807871, 3981969298629961499)
    assert hash_pair(1, 0) == (11385487063155714807, 9642270922271355141)
    assert hash_pair(0, 1) == (4922461756044938104, 3140439631417119954)


def test_hash_pair_uses_low_64_bits_of_key():
    assert hash_pair(2**64 + 5, 0) == hash_pair(5, 0)


def _mix64_uint64(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def test_probe_rule_ports_to_uint64_arithmetic():
    # The documented rule (h1 mod m + i*(h2 mod m)) mod m, computed in
    # wrapping 64-bit words only, rebuilds the filter bit for bit; the
    # naive wrapping (h1 + i*h2) mod m does not (key 1234 differs at
    # probes 3-7 for seed 77, m = 95851).
    f = BloomFilter.for_capacity(10_000, 0.01, hash_seed=77)
    assert (f.params.bit_count, f.params.hash_count) == (95851, 7)
    keys = [1234, *range(0, 7000, 7), 2**64 - 1]
    for key in keys:
        f.add(key)

    k = np.array(keys, dtype=np.uint64)
    seed = np.array([77], dtype=np.uint64)
    h1 = _mix64_uint64(k ^ _mix64_uint64(seed ^ np.uint64(0x9E3779B97F4A7C15)))
    h2 = _mix64_uint64(k ^ _mix64_uint64(seed ^ np.uint64(0xC2B2AE3D27D4EB4F)))
    m = np.uint64(f.params.bit_count)
    i = np.arange(f.params.hash_count, dtype=np.uint64)[:, None]

    def packed(indices):
        hit = np.zeros(f.params.bit_count, dtype=bool)
        hit[indices.ravel()] = True
        return np.packbits(hit, bitorder="little").tobytes()

    assert packed((h1 % m + i * (h2 % m)) % m) == f.bits.tobytes()
    assert packed((h1 + i * h2) % m) != f.bits.tobytes()


def _uint64_rule_bits(keys, seed, m, k):
    """The filter bytes for ``keys`` by the documented rule in wrapping 64-bit words."""
    keys = np.array([key % 2**64 for key in keys], dtype=np.uint64)
    seed = np.array([seed % 2**64], dtype=np.uint64)
    h1 = _mix64_uint64(keys ^ _mix64_uint64(seed ^ np.uint64(0x9E3779B97F4A7C15)))
    h2 = _mix64_uint64(keys ^ _mix64_uint64(seed ^ np.uint64(0xC2B2AE3D27D4EB4F)))
    m64 = np.uint64(m)
    i = np.arange(k, dtype=np.uint64)[:, None]
    hit = np.zeros(m, dtype=bool)
    hit[((h1 % m64 + i * (h2 % m64)) % m64).ravel()] = True
    return np.packbits(hit, bitorder="little").tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_probes_and_adds_match_the_rule(seed):
    # contains keeps the last probe's hash for the add of the same key;
    # adds with no probe before them, probes never followed by an add,
    # re-adds and keys equal mod 2**64 must all behave as if each call
    # hashed afresh
    rng = np.random.Generator(np.random.PCG64(seed))
    hash_seed = [0, 77, -3, 2**64 + 9, 5, 2**63][seed]
    f = BloomFilter.for_capacity(300, [0.01, 0.3][seed % 2], hash_seed=hash_seed)
    m, k = f.params.bit_count, f.params.hash_count
    pool = [
        *rng.integers(0, 2**63, size=60).tolist(),
        *(-key for key in rng.integers(1, 2**40, size=20).tolist()),
        *(2**64 + key for key in range(5)),
        *(2**70 + key for key in rng.integers(0, 2**63, size=5).tolist()),
        *range(5),
        -1,
        -(2**64),
        2**64 - 1,
    ]
    added = []
    ref_bits = set()
    for _ in range(2000):
        key = pool[int(rng.integers(len(pool)))]
        op = int(rng.integers(3))
        if op == 0:
            h1, h2 = hash_pair(key, hash_seed)
            expected = all((h1 + i * h2) % m in ref_bits for i in range(k))
            assert f.contains(key) is expected
        if op == 1 or (op == 0 and rng.integers(2)):
            f.add(key)
            added.append(key)
            h1, h2 = hash_pair(key, hash_seed)
            ref_bits.update((h1 + i * h2) % m for i in range(k))
        if op == 2:
            # an add right after a probe of a different key
            other = pool[int(rng.integers(len(pool)))]
            f.contains(other)
            f.add(key)
            added.append(key)
            h1, h2 = hash_pair(key, hash_seed)
            ref_bits.update((h1 + i * h2) % m for i in range(k))
    assert len(added) > len({key % 2**64 for key in added})  # re-adds and aliases happened
    assert f.bits.tobytes() == _uint64_rule_bits(added, hash_seed, m, k)
    assert all(f.contains(key) for key in added)

