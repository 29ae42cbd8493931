"""Per-layer tracing of bloomprim, installed from outside the package.

``Tracer.installed()`` rebinds the public functions that the benchmark and
the package's own modules look up by name (``bench.prim_bloom``,
``segmentation.image_to_graph``, ``Graph.__init__``, ...) to wrappers and
restores the originals on exit.  While an op is traced, each wrapped call
records a span ``(name, start, end, parent)``; every span of one op
belongs to that op's root span.  A traced ``prim_bloom`` call gets a
``CountingVisited`` set, which counts and times the filter's probes.

While an op runs untraced, the wrappers only capture the solver and
segmentation outputs, so the two runs of an op can be compared bit for bit,
and time the solver calls (``PLAIN_TIMED``) without a ``CountingVisited``.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, is_dataclass

from bloomprim import bench, bloom, graph, mst, segmentation

clock = time.perf_counter

# (module or class, attribute looked up at call time, layer name)
BINDINGS = (
    (bench, "run_trial", "bench.run_trial"),
    (bench, "generate_graph", "graph.generate_graph"),
    (bench, "prim_baseline", "mst.prim_baseline"),
    (bench, "prim_bloom", "mst.prim_bloom"),
    (bench, "edge_error_rate", "analysis.edge_error_rate"),
    (bench, "baseline_set_bytes", "analysis.baseline_set_bytes"),
    (bench, "bloom_variant_bytes", "analysis.bloom_variant_bytes"),
    (graph, "dumps_graph", "graph.dumps_graph"),
    (graph, "loads_graph", "graph.loads_graph"),
    (graph.Graph, "__init__", "graph.csr_build"),
    (mst, "prim_baseline", "mst.prim_baseline"),
    (segmentation, "load_ppm", "segmentation.load_ppm"),
    (segmentation, "segment", "segmentation.segment"),
    (segmentation, "image_to_graph", "segmentation.image_to_graph"),
    (segmentation, "prim_baseline", "mst.prim_baseline"),
    (segmentation, "prim_bloom", "mst.prim_bloom"),
)
CAPTURED = {"mst.prim_baseline", "mst.prim_bloom", "segmentation.segment"}
PLAIN_TIMED = {"mst.prim_baseline", "mst.prim_bloom"}


class CountingVisited:
    """Visited set for ``prim_bloom(visited=...)`` that counts what the filter does.

    It forwards to a real ``BloomFilter`` built with the solver's own
    parameters and seed, so the solve is unchanged, and keeps an exact
    shadow set beside it.  ``fp_nodes`` holds each node the filter
    rejected although the shadow set lacks it; ``false_negatives`` counts
    probes that missed an added node, which a Bloom filter must never do.
    """

    def __init__(self, inner: bloom.BloomFilter):
        self.inner = inner
        self.shadow: set[int] = set()
        self.fp_nodes: set[int] = set()
        self.false_negatives = 0
        self.add_calls = 0
        self.contains_calls = 0
        self.contains_s = 0.0

    def add(self, key: int) -> None:
        self.add_calls += 1
        self.shadow.add(key)
        self.inner.add(key)

    def contains(self, key: int) -> bool:
        t0 = clock()
        hit = self.inner.contains(key)
        self.contains_s += clock() - t0
        self.contains_calls += 1
        if hit != (key in self.shadow):
            if hit:
                self.fp_nodes.add(key)
            else:
                self.false_negatives += 1
        return hit

    __contains__ = contains


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    inner: dict[str, float] = field(default_factory=dict)  # time of uninstrumented children


@dataclass
class OpTrace:
    """Everything recorded while one op ran."""

    traced: bool
    spans: list[Span] = field(default_factory=list)
    outputs: list[tuple[str, object]] = field(default_factory=list)
    exact_calls: list[tuple[int, int]] = field(default_factory=list)  # (nodes, edges)
    filter_calls: list[tuple[graph.Graph, CountingVisited]] = field(default_factory=list)
    parsed_bytes: int = 0
    plain_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))  # untraced

    def results(self, layer: str) -> list:
        """Outputs of the calls to ``layer``, in call order."""
        return [out for name, out in self.outputs if name == layer]

    def layer_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per layer name; self times sum to the op's time."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for idx, s in enumerate(self.spans):
            incl[s.name] += s.end - s.start
            self_s[s.name] += s.end - s.start - covered[idx] - sum(s.inner.values())
            for name, seconds in s.inner.items():
                incl[name] += seconds
                self_s[name] += seconds
        return incl, self_s


class Tracer:
    """Records the spans and outputs of the op in progress, one op at a time."""

    def __init__(self):
        self.current: OpTrace | None = None
        self._stack: list[int] = []

    @contextmanager
    def op(self, traced: bool):
        """Record one op; yields its ``OpTrace``, whose root span is ``op``."""
        self.current = rec = OpTrace(traced)
        self._stack = []
        try:
            with self._span("op"):
                yield rec
        finally:
            self.current = None

    @contextmanager
    def _plain_timed(self, name: str):
        """Time an untraced call of a ``PLAIN_TIMED`` layer into ``plain_s``."""
        rec = self.current
        if rec is None or rec.traced or name not in PLAIN_TIMED:
            yield
            return
        t0 = clock()
        try:
            yield
        finally:
            rec.plain_s[name] += clock() - t0

    @contextmanager
    def _span(self, name: str):
        rec = self.current
        if rec is None or not rec.traced:
            yield None
            return
        span = Span(name, clock(), self._stack[-1] if self._stack else None)
        rec.spans.append(span)
        self._stack.append(len(rec.spans) - 1)
        try:
            yield span
        finally:
            span.end = clock()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            with self._span(layer), self._plain_timed(layer):
                out = fn(*args, **kwargs)
            rec = self.current
            if rec is not None and layer == "graph.loads_graph":
                rec.parsed_bytes += len(args[0])
            if rec is not None and layer in CAPTURED:
                rec.outputs.append((layer, out))
                if layer == "mst.prim_baseline":
                    g = args[0]
                    rec.exact_calls.append((g.node_count, g.edge_count))
            return out

        return wrapper

    def _wrap_prim_bloom(self, fn):
        def wrapper(g, start=0, epsilon=0.01, hash_seed=0, visited=None):
            rec = self.current
            counting = None
            if rec is not None and rec.traced and visited is None:
                inner = bloom.BloomFilter.for_capacity(g.node_count, epsilon, hash_seed)
                visited = counting = CountingVisited(inner)
                rec.filter_calls.append((g, counting))
            with self._span("mst.prim_bloom") as span, self._plain_timed("mst.prim_bloom"):
                out = fn(g, start, epsilon=epsilon, hash_seed=hash_seed, visited=visited)
                if span is not None and counting is not None:
                    span.inner["bloom.contains"] = counting.contains_s
            if rec is not None:
                rec.outputs.append(("mst.prim_bloom", out))
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every name in ``BINDINGS`` to a wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, layer in BINDINGS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if layer == "mst.prim_bloom":
                    wrapper = self._wrap_prim_bloom(original)
                else:
                    wrapper = self._wrap(layer, original)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def fingerprint(obj):
    """A comparable value that is equal only for bit-identical outputs."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (int, str, bytes, type(None))):
        return obj
    if isinstance(obj, (tuple, list)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, mst.MstResult):
        return ("MstResult", obj.total_cost.hex(), obj.edge_bits.tobytes(),
                obj.selected_edge_count, obj.spanned_node_count)
    if isinstance(obj, segmentation.SegmentationResult):
        return ("Segmentation", obj.cluster_count, obj.labels.shape, obj.labels.tobytes())
    if isinstance(obj, graph.Graph):
        return ("Graph", obj.node_count, obj.edge_u.tobytes(), obj.edge_v.tobytes(),
                obj.edge_weight.tobytes())
    if is_dataclass(obj):
        return (type(obj).__name__, fingerprint(astuple(obj)))
    raise TypeError(f"no fingerprint for {type(obj).__name__}")


def traced_peak(call) -> int:
    """tracemalloc peak bytes of ``call()``, counting only what it allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def solver_peaks(g: graph.Graph, hash_seed: int | None, epsilon: float) -> tuple[int, int]:
    """Peak bytes of one exact and one filter solve of ``g``; 0 for the
    filter solve when ``hash_seed`` is None (a workload that runs no filter)."""
    exact = traced_peak(lambda: mst.prim_baseline(g, 0))
    if hash_seed is None:
        return exact, 0
    return exact, traced_peak(
        lambda: mst.prim_bloom(g, 0, epsilon=epsilon, hash_seed=hash_seed))
