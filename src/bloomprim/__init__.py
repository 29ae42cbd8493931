"""Memory-efficient minimum spanning trees via Bloom-filter-backed Prim's algorithm.

The package pairs an exact Prim solver, whose per-node best keys double
as its visited record, with a variant that also consults a Bloom filter
of visited nodes and records the tree in a compact edge bitmap, plus
the supporting pieces: filter sizing and false-positive statistics, a
seeded random-graph generator, auxiliary memory models for both
variants, a benchmark sweep, and MST-threshold image segmentation over
portable pixmaps.
"""

from .analysis import (
    FalsePositiveStats,
    baseline_set_bytes,
    bloom_variant_bytes,
    edge_error_rate,
    false_positive_stats,
    simulate_false_positive_counts,
)
from .bench import (
    CSV_HEADER,
    DESK_SIZES,
    FULL_SIZES,
    BenchRecord,
    BenchReport,
    TrialResult,
    run_bench,
    run_trial,
)
from .bitset import BitArray
from .bloom import BloomFilter, BloomParams, hash_pair
from .graph import (
    GeneratorConfig,
    Graph,
    GraphFormatError,
    dumps_graph,
    generate_graph,
    load_graph,
    loads_graph,
    save_graph,
)
from .mst import MstResult, prim_baseline, prim_bloom, recover_edges
from .segmentation import (
    PixelImage,
    PpmFormatError,
    SegmentationResult,
    image_to_graph,
    load_ppm,
    ppm_bytes,
    save_labels,
    save_ppm,
    segment,
)

__version__ = "0.1.0"

__all__ = [
    "BitArray",
    "BloomFilter",
    "BloomParams",
    "hash_pair",
    "Graph",
    "GeneratorConfig",
    "GraphFormatError",
    "generate_graph",
    "load_graph",
    "loads_graph",
    "save_graph",
    "dumps_graph",
    "MstResult",
    "prim_baseline",
    "prim_bloom",
    "recover_edges",
    "FalsePositiveStats",
    "false_positive_stats",
    "simulate_false_positive_counts",
    "edge_error_rate",
    "baseline_set_bytes",
    "bloom_variant_bytes",
    "BenchRecord",
    "BenchReport",
    "TrialResult",
    "run_bench",
    "run_trial",
    "CSV_HEADER",
    "DESK_SIZES",
    "FULL_SIZES",
    "PixelImage",
    "SegmentationResult",
    "PpmFormatError",
    "image_to_graph",
    "segment",
    "load_ppm",
    "save_ppm",
    "ppm_bytes",
    "save_labels",
    "__version__",
]
