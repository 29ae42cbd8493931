"""False-positive statistics, error metrics, and space-accounting models.

Statistics
----------
For a filter of ``bit_count`` bits and ``hash_count`` probes receiving
``insert_count`` sequential insertions, the chance that insertion ``i``
collides with the ``i - 1`` keys already present is

    p_i = (1 - exp(-hash_count * (i - 1) / bit_count)) ** hash_count.

The first insertion cannot collide, so the expected number of false
positives and its variance are sums from ``i = 2``:

    mean     = sum p_i
    variance = sum p_i * (1 - p_i)

``hash_count`` may be fractional, which is useful for sensitivity checks
around the integer rounding in parameter derivation.

Space accounting
----------------
``baseline_set_bytes`` models the dynamic hash set that the paper's
exact solver uses for its visited nodes (this package's exact solver
allocates none: its per-node best keys double as the visited record,
see :mod:`bloomprim.mst`): capacity starts at 8 slots; an insert that
brings the fill to at least ``ceil(3/5 * capacity)`` grows the table to the
smallest power of two at or above 4x the live count (2x once the live
count exceeds 50,000); the table costs 16 bytes per slot plus a 216-byte
header.  ``bloom_variant_bytes`` charges the filter variant for its two
bit arrays (filter plus edge bitmap, 8 bits per byte, rounded up) plus a
fixed 120 bytes of container overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mst import MstResult

_BLOCK = 1 << 16  # insertions whose terms false_positive_stats holds at once


@dataclass(frozen=True)
class FalsePositiveStats:
    """Moments of the false-positive count over a full insertion run."""

    mean: float
    variance: float
    stddev: float


def false_positive_stats(
    insert_count: int, bit_count: int, hash_count: float
) -> FalsePositiveStats:
    """Expected false positives and variance for sequential insertions.

    The terms are summed ``_BLOCK`` insertions at a time and the block
    sums then pairwise, as numpy sums one array, so a call holds one
    block of terms and 16 bytes per block.
    """
    if insert_count < 1:
        raise ValueError(f"insert_count must be >= 1, got {insert_count}")
    if bit_count < 1:
        raise ValueError(f"bit_count must be >= 1, got {bit_count}")
    if hash_count < 1:
        raise ValueError(f"hash_count must be >= 1, got {hash_count}")
    starts = range(1, insert_count, _BLOCK)
    sums = np.empty((2, len(starts)))  # per block: sum of p_i, sum of p_i * (1 - p_i)
    for j, lo in enumerate(starts):
        # keys present before insert i
        prior = np.arange(lo, min(lo + _BLOCK, insert_count), dtype=np.float64)
        p = (1.0 - np.exp(-hash_count * prior / bit_count)) ** hash_count
        sums[0, j] = p.sum()
        sums[1, j] = (p * (1.0 - p)).sum()
    mean, variance = sums.sum(axis=1).tolist()
    return FalsePositiveStats(mean, variance, math.sqrt(variance))


def simulate_false_positive_counts(
    insert_count: int,
    bit_count: int,
    hash_count: int,
    trials: int = 200,
    seed: int = 0,
) -> np.ndarray:
    """Monte Carlo false-positive counts over full insertion runs.

    Each trial inserts ``insert_count`` fresh random keys into an empty
    filter, counting keys whose double-hashed probe positions were all
    set by earlier insertions.  Returns one count per trial; the sample
    mean estimates :func:`false_positive_stats`' ``mean`` without going
    through that formula.
    """
    if min(insert_count, bit_count, hash_count, trials) < 1:
        raise ValueError("all simulation parameters must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.empty(trials, dtype=np.int64)
    insert_index = np.arange(insert_count, dtype=np.int64)[:, None]
    probe = np.arange(hash_count, dtype=np.uint64)[None, :]
    m = np.uint64(bit_count)
    for t in range(trials):
        h1 = rng.integers(0, 2**64, insert_count, dtype=np.uint64)[:, None]
        h2 = rng.integers(0, 2**64, insert_count, dtype=np.uint64)[:, None]
        positions = ((h1 + probe * h2) % m).astype(np.int64)
        first_touch = np.full(bit_count, insert_count, dtype=np.int64)
        np.minimum.at(
            first_touch, positions.ravel(), np.repeat(insert_index.ravel(), hash_count)
        )
        collided = (first_touch[positions] < insert_index).all(axis=1)
        counts[t] = int(collided.sum())
    return counts


def edge_error_rate(baseline: MstResult, bloom: MstResult) -> float:
    """Fraction of baseline tree edges absent from the filter variant's tree.

    Zero when the edge bit arrays are identical or the baseline selected
    no edges.
    """
    if len(baseline.edge_bits) != len(bloom.edge_bits):
        raise ValueError(
            f"edge bit arrays differ in length: "
            f"{len(baseline.edge_bits)} vs {len(bloom.edge_bits)}"
        )
    base = int.from_bytes(baseline.edge_bits.tobytes(), "little")
    approx = int.from_bytes(bloom.edge_bits.tobytes(), "little")
    selected = base.bit_count()
    if selected == 0:
        return 0.0
    missing = (base & ~approx).bit_count()
    return missing / selected


def baseline_set_bytes(inserted: int) -> int:
    """Modeled bytes of a visited hash set after ``inserted`` adds.

    This is the paper's exact-solver baseline, a model only: no solver in
    this package allocates such a set (:func:`bloomprim.prim_baseline`
    and :func:`bloomprim.prim_bloom` both keep per-node best keys as their
    visited record), so a reduction computed against it is the paper's
    modeled saving, not a measured one.
    """
    if inserted < 0:
        raise ValueError(f"inserted must be >= 0, got {inserted}")
    capacity = 8
    while (fill := -(-3 * capacity // 5)) <= inserted:  # grows at ceil(3/5 * capacity)
        target = 4 * fill if fill <= 50_000 else 2 * fill
        capacity = 1 << (target - 1).bit_length()
    return capacity * 16 + 216


def bloom_variant_bytes(bit_count: int, edge_count: int) -> int:
    """Modeled bytes of the filter variant: both bit arrays plus 120 bytes overhead."""
    if bit_count < 0 or edge_count < 0:
        raise ValueError("bit_count and edge_count must be >= 0")
    return (bit_count + 7) // 8 + (edge_count + 7) // 8 + 120
