"""The benchmark's workloads: inputs made from a seed, one timed op, its check.

Each workload class makes the benchmark's own inputs in ``__init__``,
untimed, and exposes:

* ``set_up()`` -- the timed set-up, which calls only the program;
* ``cycle`` -- ops per round, one per input; op ``i`` takes input
  ``i % cycle``;
* ``run(i)`` -- the timed op ``i``, which calls only the public API;
* ``edges(i, out)`` -- input edges of op ``i`` (for ``edges_per_s``);
* ``check(i, out)`` -- problems found in the op's output, ``[]`` when
  correct; never timed, and the only place the oracles run;
* ``memory_graphs()`` -- one graph per input size, for the tracemalloc pass;
* ``seeds()`` -- the seeds the inputs were derived from.

The checks use oracles that share no code with the solvers:
``scipy.sparse.csgraph`` for MST costs and trees, and for the connected
components behind the segmentation labels.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from bloomprim import bench, graph, mst, segmentation

EPSILON = 0.01
IO_SIZE_INDEX = 2  # io-roundtrip graphs are the desk sweep's 21k-node graphs
IO_POOL = 3
CARD_SIDE = 256
THRESHOLD = 100.0
COST_REL_TOL = 1e-9  # Prim and the oracle sum the same weights in different orders
COST_ABS_TOL = 1e-9  # the +1 shift of filter_problems rounds weights below 1 to 2**-52

FROZEN_DIGESTS = Path(__file__).with_name("digests.json")
FROZEN_SEED_COUNT = 100  # digests.json holds card seeds 0..99


def card_seed(seed: int) -> int:
    """The test-card seed of workload seed ``seed``: one with a frozen digest."""
    return seed % FROZEN_SEED_COUNT


def timed_op(w, i: int, ctx=None):
    """Run op ``i`` of workload ``w`` inside ``ctx`` after a full collection, then check it.

    Returns ``(seconds, output, problems, ctx_value)``.  Only the op is
    timed.  Seconds and output are None when the op raised.
    """
    gc.collect()
    ctx = ctx or contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx as value:
            out = w.run(i)
    except Exception:
        return None, None, [traceback.format_exc()], None
    seconds = time.perf_counter() - t0
    try:
        problems = w.check(i, out)
    except Exception:
        problems = [traceback.format_exc()]
    return seconds, out, problems, value


# ---------------------------------------------------------------- oracles


def reference_mst(g: graph.Graph) -> tuple[float, bytes] | None:
    """MST cost and LSB-first edge bitmap from scipy, or None if any weight is 0.

    scipy treats a stored 0 as a missing edge, so it cannot be used on
    graphs with zero-weight edges.
    """
    if g.edge_count == 0 or not (g.edge_weight > 0).all():
        return None
    n = g.node_count
    adj = coo_matrix((g.edge_weight, (g.edge_u, g.edge_v)), shape=(n, n)).tocsr()
    tree = minimum_spanning_tree(adj).tocoo()
    lo = np.minimum(tree.row, tree.col).astype(np.int64)
    hi = np.maximum(tree.row, tree.col).astype(np.int64)
    keys = g.edge_u * n + g.edge_v
    order = np.argsort(keys)
    ids = order[np.searchsorted(keys[order], lo * n + hi)]
    selected = np.zeros(g.edge_count, dtype=bool)
    selected[ids] = True
    bits = np.packbits(selected, bitorder="little").tobytes()
    return math.fsum(tree.data.tolist()), bits


def reference_labels(pixels: np.ndarray, threshold: float) -> np.ndarray:
    """Segmentation labels computed without a spanning tree.

    Cutting MST edges heavier than ``threshold`` leaves the components of
    the graph restricted to edges no heavier than ``threshold`` (every
    MST path is a minimum-bottleneck path).  Components are numbered in
    ascending order of their smallest pixel id, as ``segment`` numbers them.
    """
    h, w, _ = pixels.shape
    ids = np.arange(h * w).reshape(h, w)
    px = pixels.astype(np.int64)
    us, vs = [], []
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        rows = slice(0, h - dr)
        a_cols = slice(max(0, -dc), w - max(0, dc))
        b_cols = slice(max(0, dc), w - max(0, -dc))
        d = px[rows, a_cols] - px[dr:, b_cols]
        keep = (d * d).sum(axis=-1) <= threshold
        us.append(ids[rows, a_cols][keep])
        vs.append(ids[dr:, b_cols][keep])
    u = np.concatenate(us)
    v = np.concatenate(vs)
    adj = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(h * w, h * w))
    _, raw = connected_components(adj, directed=False)
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    return rank[raw].reshape(h, w)


def labels_digest(labels: np.ndarray) -> str:
    """sha256 over the label image's shape and little-endian int32 labels."""
    h = hashlib.sha256(f"{labels.shape[0]}x{labels.shape[1]}:".encode())
    h.update(np.ascontiguousarray(labels, dtype="<i4").tobytes())
    return h.hexdigest()


def make_test_card(seed: int, side: int = CARD_SIDE) -> segmentation.PixelImage:
    """The segmentation demo's 96x96 test card drawn at ``side`` x ``side``.

    A vertical and a horizontal gradient, a bright disc, and a band of
    Gaussian noise drawn from PCG64(seed).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    s = side / 96
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    img = np.zeros((side, side, 3))
    img[:, :, 0] = 60 + yy / side * 120
    img[:, :, 1] = 90 + xx / side * 80
    img[:, :, 2] = 140
    img[((xx - 30 * s) ** 2 + (yy - 28 * s) ** 2) < (15 * s) ** 2] = (230, 210, 60)
    band = (yy > 58 * s) & (yy < 80 * s)
    img[band] += rng.normal(0, 9, size=img.shape)[band]
    return segmentation.PixelImage(np.clip(img, 0, 255).astype(np.uint8))


def exact_problems(result: mst.MstResult, n: int) -> list[str]:
    """Invariants of an exact solve of a connected ``n``-node graph."""
    problems = []
    if result.selected_edge_count != n - 1 or result.spanned_node_count != n:
        problems.append(
            f"exact solver selected {result.selected_edge_count} edges over "
            f"{result.spanned_node_count} nodes, expected {n - 1} over {n}"
        )
    if result.edge_bits.popcount() != result.selected_edge_count:
        problems.append("exact solver's edge bitmap disagrees with its edge count")
    return problems


def selected_ids(result: mst.MstResult, edge_count: int) -> np.ndarray:
    """Ids of the edges set in ``result.edge_bits``, ascending."""
    bits = np.frombuffer(result.edge_bits.tobytes(), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(bits, count=edge_count, bitorder="little"))


def filter_problems(g: graph.Graph, result: mst.MstResult) -> list[str]:
    """Invariants of a filter solve of ``g`` from node 0.

    A false positive drops a node for good, and the filter never forgets
    an added node, so the solve is Prim's algorithm on the subgraph induced by the nodes
    it reaches: its edges must form a minimum spanning tree of exactly
    its spanned nodes.  That tree can cost more than the exact MST, when
    a dropped node's neighbours are joined over dearer edges, so its cost
    is not compared with the exact cost.  scipy reads a stored 0 as no
    edge, so every weight is raised by 1 for the oracle, which adds
    ``spanned - 1`` to the cost of every spanning tree alike.
    """
    n, selected, spanned = g.node_count, result.selected_edge_count, result.spanned_node_count
    ids = selected_ids(result, g.edge_count)
    if len(ids) != selected or selected != spanned - 1 or not 1 <= spanned <= n:
        return [f"filter solver selected {selected} edges ({len(ids)} in its bitmap) "
                f"over {spanned} nodes"]
    u, v, w = g.edge_u[ids], g.edge_v[ids], g.edge_weight[ids]
    tree = coo_matrix((np.ones(len(ids), dtype=np.int8), (u, v)), shape=(n, n))
    _, comp = connected_components(tree, directed=False)
    if np.count_nonzero(comp == comp[0]) != spanned:
        return [f"filter edges do not connect node 0 to {spanned} nodes"]
    problems = []
    if not math.isclose(result.total_cost, math.fsum(w.tolist()), rel_tol=COST_REL_TOL):
        problems.append(f"filter cost {result.total_cost!r} is not the sum of its edges")
    inside = comp == comp[0]
    keep = inside[g.edge_u] & inside[g.edge_v]
    adj = coo_matrix((g.edge_weight[keep] + 1.0, (g.edge_u[keep], g.edge_v[keep])),
                     shape=(n, n)).tocsr()
    ref = math.fsum(minimum_spanning_tree(adj).data.tolist()) - (spanned - 1)
    if not math.isclose(result.total_cost, ref, rel_tol=COST_REL_TOL, abs_tol=COST_ABS_TOL):
        problems.append(f"filter tree costs {result.total_cost!r}, the scipy MST of its "
                        f"{spanned} nodes {ref!r}")
    return problems


def cost_problems(cost: float, ref: tuple[float, bytes] | None) -> list[str]:
    if ref is None or math.isclose(cost, ref[0], rel_tol=COST_REL_TOL):
        return []
    return [f"exact cost {cost!r} differs from the scipy MST cost {ref[0]!r}"]


# ---------------------------------------------------------------- workloads


class SweepDesk:
    """One op is ``bench.run_trial``, cycling through ``DESK_SIZES`` in order."""

    name = "sweep-desk"
    cycle = len(bench.DESK_SIZES)

    def __init__(self, seed: int):
        self.seed = seed
        self.dearer: list[int] = []  # run seeds whose filter tree cost more than the MST

    def set_up(self) -> None:
        # warm-up: first-call costs are paid here, not in the first timed op
        bench.run_trial(bench.DESK_SIZES[0], bench.run_seed_for(self.seed, 0, 0), EPSILON)

    def trial(self, i: int) -> tuple[int, int, int]:
        """``(node_count, run_seed, run_index)`` of op ``i``."""
        size_index, run_index = i % self.cycle, i // self.cycle
        run_seed = bench.run_seed_for(self.seed, size_index, run_index)
        return bench.DESK_SIZES[size_index], run_seed, run_index

    def run(self, i: int) -> tuple[bench.TrialResult, mst.MstResult]:
        """The trial, and the filter solve inside it, kept for the check."""
        n, run_seed, run_index = self.trial(i)
        solves = []
        solve = bench.__dict__["prim_bloom"]

        def keep(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        bench.prim_bloom = keep
        try:
            trial = bench.run_trial(n, run_seed, EPSILON, run_index)
        finally:
            bench.prim_bloom = solve
        return trial, solves[0]

    def edges(self, i: int, out) -> int:
        return out[0].edge_count

    def check(self, i: int, out) -> list[str]:
        trial, solve = out
        n, run_seed, _ = self.trial(i)
        g = graph.generate_graph(graph.GeneratorConfig(node_count=n, seed=run_seed))
        problems = []
        if (solve.total_cost, solve.selected_edge_count, solve.spanned_node_count) != (
                trial.bloom_cost, trial.bloom_edge_count, trial.bloom_spanned_count):
            problems.append("trial reports other filter figures than its filter solve")
        if trial.node_count != n or trial.edge_count != g.edge_count:
            problems.append(f"trial reports {trial.node_count} nodes, {trial.edge_count} edges")
        if trial.baseline_edge_count != n - 1:
            problems.append(f"exact solver selected {trial.baseline_edge_count} edges, not {n - 1}")
        problems += cost_problems(trial.baseline_cost, reference_mst(g))
        problems += filter_problems(g, solve)
        if trial.bloom_cost > trial.baseline_cost * (1 + COST_REL_TOL):
            self.dearer.append(run_seed)
        if trial.incorrect_edges != trial.baseline_edge_count - trial.bloom_edge_count:
            problems.append("incorrect_edges is not the exact minus the filter edge count")
        if not 0.0 <= trial.error_rate <= 1.0:
            problems.append(f"edge error rate {trial.error_rate} outside [0, 1]")
        return problems

    def memory_graphs(self) -> list[tuple[graph.Graph, int | None]]:
        out = []
        for i in range(self.cycle):
            n, run_seed, _ = self.trial(i)
            g = graph.generate_graph(graph.GeneratorConfig(node_count=n, seed=run_seed))
            out.append((g, run_seed))
        return out

    def seeds(self) -> dict:
        return {"run_seeds": [self.trial(i)[1] for i in range(self.cycle)],
                "run_seed_rule": "seed + 1000003 * size_index + run_index"}


class IoRoundtrip:
    """One op is ``dumps_graph`` -> ``loads_graph`` -> ``prim_baseline``."""

    name = "io-roundtrip"
    cycle = IO_POOL

    def __init__(self, seed: int):
        self.graph_seeds = [bench.run_seed_for(seed, IO_SIZE_INDEX, j) for j in range(IO_POOL)]
        self.pool: list[graph.Graph] = []
        self.refs: dict[int, tuple[float, bytes] | None] = {}
        self.text_digests: list[bytes | None] = [None] * IO_POOL

    def set_up(self) -> None:
        n = bench.DESK_SIZES[IO_SIZE_INDEX]
        self.pool = [
            graph.generate_graph(graph.GeneratorConfig(node_count=n, seed=s))
            for s in self.graph_seeds
        ]

    def run(self, i: int):
        text = graph.dumps_graph(self.pool[i % IO_POOL])
        parsed = graph.loads_graph(text)
        return text, parsed, mst.prim_baseline(parsed, 0)

    def edges(self, i: int, out) -> int:
        return self.pool[i % IO_POOL].edge_count

    def check(self, i: int, out) -> list[str]:
        text, parsed, result = out
        j = i % IO_POOL
        problems = []
        if parsed != self.pool[j]:
            problems.append("loads_graph(dumps_graph(g)) != g")
        digest = hashlib.sha256(text.encode()).digest()
        if self.text_digests[j] is None:
            # the first text of each graph is re-serialized once; later ones must equal it
            if graph.dumps_graph(parsed) != text:
                problems.append("dumps_graph(loads_graph(text)) != text")
            self.text_digests[j] = digest
        elif digest != self.text_digests[j]:
            problems.append("dumps_graph gave a different text for the same graph")
        problems += exact_problems(result, parsed.node_count)
        if j not in self.refs:
            self.refs[j] = reference_mst(self.pool[j])
        ref = self.refs[j]
        problems += cost_problems(result.total_cost, ref)
        if ref is not None and result.edge_bits.tobytes() != ref[1]:
            problems.append("exact tree differs from the scipy MST")
        return problems

    def memory_graphs(self) -> list[tuple[graph.Graph, int | None]]:
        return [(self.pool[0], None)]

    def seeds(self) -> dict:
        return {"graph_seeds": self.graph_seeds}


class SegmentFrame:
    """One op is ``load_ppm`` -> ``segment(baseline)`` -> ``segment(bloom)``."""

    name = "segment-frame"
    cycle = 1

    def __init__(self, seed: int):
        self.seed = card_seed(seed)
        self.card = make_test_card(self.seed)
        self.frozen = json.loads(FROZEN_DIGESTS.read_text())["baseline"].get(str(self.seed))
        self.ppm = b""
        self.ref_labels: np.ndarray | None = None
        self.bloom_digest: str | None = None

    def set_up(self) -> None:
        self.ppm = segmentation.ppm_bytes(self.card)
        # warm-up: first-call costs are paid here, not in the first timed op
        segmentation.image_to_graph(segmentation.load_ppm(self.ppm))

    def run(self, i: int):
        image = segmentation.load_ppm(self.ppm)
        baseline = segmentation.segment(image, THRESHOLD, "baseline")
        bloom = segmentation.segment(
            image, THRESHOLD, "bloom", epsilon=EPSILON, hash_seed=self.seed
        )
        return baseline, bloom

    def edges(self, i: int, out) -> int:
        w = h = CARD_SIDE
        return (w - 1) * h + w * (h - 1) + 2 * (w - 1) * (h - 1)

    def check(self, i: int, out) -> list[str]:
        baseline, bloom = out
        problems = []
        if self.ref_labels is None:
            self.ref_labels = reference_labels(self.card.pixels, THRESHOLD)
        if not np.array_equal(baseline.labels, self.ref_labels):
            problems.append("baseline labels differ from the thresholded components")
        if baseline.cluster_count != int(self.ref_labels.max()) + 1:
            problems.append(f"baseline reports {baseline.cluster_count} clusters")
        if self.frozen is None:
            problems.append(f"digests.json has no digest for card seed {self.seed}")
        elif labels_digest(baseline.labels) != self.frozen:
            problems.append("baseline labels differ from the frozen digest")
        labels = bloom.labels.ravel()
        _, first = np.unique(labels, return_index=True)
        if (
            bloom.labels.shape != (CARD_SIDE, CARD_SIDE)
            or len(first) != bloom.cluster_count
            or labels.min() != 0
            or labels.max() != bloom.cluster_count - 1
            or (np.diff(first) <= 0).any()
        ):
            problems.append("filter labels are not numbered by smallest pixel id")
        digest = labels_digest(bloom.labels)
        if self.bloom_digest is None:
            self.bloom_digest = digest
        elif digest != self.bloom_digest:
            problems.append("filter labels changed between ops on the same frame")
        return problems

    def memory_graphs(self) -> list[tuple[graph.Graph, int | None]]:
        image = segmentation.load_ppm(self.ppm)
        return [(segmentation.image_to_graph(image), self.seed)]

    def seeds(self) -> dict:
        return {"card_seed": self.seed, "hash_seed": self.seed,
                "card_seed_rule": f"seed % {FROZEN_SEED_COUNT}"}


WORKLOADS = {w.name: w for w in (SweepDesk, IoRoundtrip, SegmentFrame)}
