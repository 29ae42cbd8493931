"""Tests of the benchmark itself: tracing changes no output, checks catch errors.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bloomprim import bench, graph, mst, segmentation  # noqa: E402
from bloomprim.bitset import BitArray  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_graph(seed: int, n: int = 400) -> graph.Graph:
    return graph.generate_graph(graph.GeneratorConfig(node_count=n, seed=seed))


def sweep_op():
    return bench.run_trial(400, 11, 0.05)


def io_op():
    text = graph.dumps_graph(small_graph(12))
    parsed = graph.loads_graph(text)
    return text, parsed, mst.prim_baseline(parsed, 0)


def segment_op():
    image = segmentation.load_ppm(segmentation.ppm_bytes(workloads.make_test_card(13, side=24)))
    return (segmentation.segment(image, workloads.THRESHOLD, "baseline"),
            segmentation.segment(image, workloads.THRESHOLD, "bloom", epsilon=0.05, hash_seed=13))


def run_both(op):
    tracer = tracing.Tracer()
    seen = {}
    with tracer.installed():
        for traced in (False, True):
            with tracer.op(traced) as rec:
                out = op()
            seen[traced] = (tracing.fingerprint((out, [o for _, o in rec.outputs])), rec)
    return seen


@pytest.mark.parametrize("op", [sweep_op, io_op, segment_op])
def test_traced_op_is_bit_identical_to_untraced(op):
    seen = run_both(op)
    assert seen[False][0] == seen[True][0]
    assert not seen[False][1].spans
    assert seen[True][1].spans[0].name == "op"


@pytest.mark.parametrize("op", [sweep_op, io_op, segment_op])
def test_self_times_add_up_to_the_op(op):
    rec = run_both(op)[True][1]
    incl, self_s = rec.layer_seconds()
    assert sum(self_s.values()) == pytest.approx(incl["op"], rel=1e-9)
    assert all(v >= 0 for v in self_s.values())


def test_bindings_are_restored():
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.BINDINGS]
    with tracing.Tracer().installed():
        assert bench.__dict__["prim_bloom"] is not before[3]
    assert [owner.__dict__[attr] for owner, attr, _ in tracing.BINDINGS] == before


def test_counting_visited_sees_every_false_positive():
    g = small_graph(3, n=600)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op(True) as rec:
        result = bench.prim_bloom(g, 0, epsilon=0.3, hash_seed=3)
    assert result == mst.prim_bloom(g, 0, epsilon=0.3, hash_seed=3)
    [(g_seen, visited)] = rec.filter_calls
    n = g_seen.node_count
    assert visited.false_negatives == 0
    assert visited.fp_nodes  # epsilon=0.3 loses nodes
    assert visited.fp_nodes.isdisjoint(visited.shadow)
    assert result.spanned_node_count + len(visited.fp_nodes) <= n
    assert visited.add_calls == result.spanned_node_count


def test_oracles_agree_with_the_program():
    g = small_graph(5)
    exact = mst.prim_baseline(g, 0)
    cost, bits = workloads.reference_mst(g)
    assert bits == exact.edge_bits.tobytes()
    assert cost == pytest.approx(exact.total_cost, rel=1e-12)
    card = workloads.make_test_card(5, side=40)
    labels = segmentation.segment(card, workloads.THRESHOLD, "baseline").labels
    assert np.array_equal(labels, workloads.reference_labels(card.pixels, workloads.THRESHOLD))


def test_scipy_oracle_declines_zero_weights():
    g = graph.Graph(3, [0, 1], [1, 2], [0.0, 1.0])
    assert workloads.reference_mst(g) is None


def test_sweep_check_flags_a_wrong_cost():
    w = workloads.SweepDesk(0)
    trial, solve = w.run(0)
    assert w.check(0, (trial, solve)) == []
    wrong = trial.baseline_cost * 1.01
    assert w.check(0, (dataclasses.replace(trial, baseline_cost=wrong), solve))
    assert w.check(0, (dataclasses.replace(trial, bloom_cost=trial.bloom_cost * 1.01), solve))


def test_a_dearer_filter_tree_passes_when_minimal_on_its_nodes():
    # run seed 17: a dropped node's neighbours are joined over dearer edges
    w = workloads.SweepDesk(17)
    trial, solve = w.run(0)
    assert trial.bloom_spanned_count < trial.node_count
    assert trial.bloom_cost > trial.baseline_cost
    assert w.check(0, (trial, solve)) == []
    assert w.dearer == [17]


def tree(edge_count: int, ids: list[int], cost: float, spanned: int) -> mst.MstResult:
    bits = BitArray(edge_count)
    for e in ids:
        bits.set(e)
    return mst.MstResult(cost, bits, len(ids), spanned)


def test_filter_check_flags_trees_that_are_not_minimal_on_their_nodes():
    # edges: 0-1 (1), 0-2 (5), 1-2 (1), 2-3 (0)
    g = graph.Graph(4, [0, 0, 1, 2], [1, 2, 2, 3], [1.0, 5.0, 1.0, 0.0])
    assert workloads.filter_problems(g, tree(4, [0, 2, 3], 2.0, 4)) == []
    assert workloads.filter_problems(g, tree(4, [0, 2], 2.0, 3)) == []
    assert workloads.filter_problems(g, tree(4, [0, 1], 6.0, 3))  # dearer than 0-1, 1-2
    assert workloads.filter_problems(g, tree(4, [0, 2], 2.5, 3))  # cost is not its edges
    assert workloads.filter_problems(g, tree(4, [0, 3], 1.0, 3))  # 2-3 is not joined to 0
    assert workloads.filter_problems(g, tree(4, [0, 2], 2.0, 4))  # 3 edges for 4 nodes


@pytest.mark.parametrize("seed", [0, 99, 100, 123457, -3])
def test_every_seed_has_a_frozen_digest(seed):
    w = workloads.SegmentFrame(seed)
    assert 0 <= w.seed < workloads.FROZEN_SEED_COUNT
    assert w.frozen is not None


def test_frozen_digests_cover_exactly_the_card_seeds():
    frozen = json.loads(workloads.FROZEN_DIGESTS.read_text())["baseline"]
    assert sorted(map(int, frozen)) == list(range(workloads.FROZEN_SEED_COUNT))


@pytest.mark.parametrize("cls", [workloads.IoRoundtrip, workloads.SegmentFrame])
def test_set_up_runs_no_oracle(cls, monkeypatch):
    def oracle(*args):
        raise AssertionError("oracle called in the timed set-up")

    monkeypatch.setattr(workloads, "reference_mst", oracle)
    monkeypatch.setattr(workloads, "reference_labels", oracle)
    cls(0).set_up()


def test_solver_times_come_from_the_untraced_pass():
    seen = run_both(sweep_op)
    assert set(seen[False][1].plain_s) == {"mst.prim_baseline", "mst.prim_bloom"}
    assert all(v > 0 for v in seen[False][1].plain_s.values())
    assert not seen[True][1].plain_s


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, "p50")
    xs = [float(i) for i in range(40)]
    assert run.tail(xs) == (29.0, "p75")

