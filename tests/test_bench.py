import numpy as np
import pytest

from bloomprim import (
    CSV_HEADER,
    GeneratorConfig,
    baseline_set_bytes,
    generate_graph,
    prim_bloom,
    run_bench,
    run_trial,
)
from bloomprim.bench import run_seed_for
from oracles import induced_kruskal, spanned_nodes


@pytest.fixture(scope="module")
def tiny_report():
    return run_bench(sizes=(50, 120), runs_per_size=2, seed=3)


class TestRunTrial:
    def test_fields_consistent(self):
        trial = run_trial(200, run_seed=5)
        assert trial.node_count == 200
        assert trial.baseline_edge_count == 199
        assert trial.bloom_edge_count <= trial.baseline_edge_count
        assert trial.incorrect_edges == (
            trial.baseline_edge_count - trial.bloom_edge_count
        )
        assert 0.0 <= trial.error_rate <= 1.0
        # the filter tree may cost more than the exact one, but is minimal on its nodes
        g = generate_graph(GeneratorConfig(node_count=200, seed=5))
        bloom = prim_bloom(g, 0, hash_seed=5)
        cost, edges = induced_kruskal(g, spanned_nodes(bloom, g))
        assert set(bloom.edge_bits.indices().tolist()) == edges
        assert trial.bloom_cost == bloom.total_cost == pytest.approx(cost, rel=1e-9)
        assert trial.baseline_bytes == baseline_set_bytes(200)

    def test_deterministic(self):
        a = run_trial(150, run_seed=9)
        b = run_trial(150, run_seed=9)
        assert a == b

    def test_degenerate_two_node_size(self):
        trial = run_trial(2, run_seed=1)
        assert trial.error_rate == 0.0
        assert trial.baseline_edge_count == 1


class TestRunBench:
    def test_record_per_size(self, tiny_report):
        assert [r.node_count for r in tiny_report.records] == [50, 120]
        assert len(tiny_report.trials) == 4

    def test_averages_match_records(self, tiny_report):
        records = tiny_report.records
        assert tiny_report.average_reduction_percent == pytest.approx(
            sum(r.reduction_percent for r in records) / len(records)
        )
        assert tiny_report.average_error_percent == pytest.approx(
            sum(r.error_percent for r in records) / len(records)
        )

    def test_trial_seeds_follow_documented_derivation(self, tiny_report):
        for trial in tiny_report.trials:
            size_index = [50, 120].index(trial.node_count)
            assert trial.run_seed == run_seed_for(3, size_index, trial.run_index)
        assert run_seed_for(3, 1, 0) == 3 + 1_000_003

    def test_deterministic_csv(self):
        a = run_bench(sizes=(60,), runs_per_size=2, seed=11).to_csv()
        b = run_bench(sizes=(60,), runs_per_size=2, seed=11).to_csv()
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            run_bench(sizes=())
        with pytest.raises(ValueError):
            run_bench(sizes=(1,))
        with pytest.raises(ValueError):
            run_bench(sizes=(50,), runs_per_size=0)
        with pytest.raises(ValueError):
            run_bench(sizes=(50,), epsilon=1.5)

    def test_bad_size_fails_with_its_configs_message_before_any_trial(self):
        lines = []
        with pytest.raises(ValueError, match=r"^node_count must be >= 2, got 1$"):
            run_bench(sizes=(50, 1), progress=lines.append)
        assert lines == []

    def test_numpy_sizes_give_the_same_csv(self):
        a = run_bench(sizes=np.array([60]), runs_per_size=2, seed=11).to_csv()
        assert a == run_bench(sizes=(60,), runs_per_size=2, seed=11).to_csv()

    def test_float_size_fails_before_any_trial(self):
        lines = []
        with pytest.raises(TypeError):
            run_bench(sizes=(50, 1000.0), progress=lines.append)
        assert lines == []

    def test_progress_callback(self):
        lines = []
        run_bench(sizes=(40,), runs_per_size=2, seed=0, progress=lines.append)
        assert len(lines) == 2
        assert "size=40" in lines[0]


class TestCsv:
    def test_header_names_record_fields_in_order(self, tiny_report):
        lines = tiny_report.to_csv().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == (
            "node_count,baseline_bytes,bloom_bytes,reduction_percent,"
            "incorrect_edges,expected_fp,stddev_fp,error_percent"
        )

    def test_one_row_per_size_plus_average(self, tiny_report):
        lines = tiny_report.to_csv().strip().split("\n")
        assert len(lines) == 1 + 2 + 1
        assert lines[-1].startswith("average,,,")

    def test_row_values_parse_back(self, tiny_report):
        lines = tiny_report.to_csv().strip().split("\n")
        first = lines[1].split(",")
        assert int(first[0]) == 50
        assert int(first[1]) == baseline_set_bytes(50)
        assert int(first[2]) > 0
        assert float(first[3]) == pytest.approx(
            tiny_report.records[0].reduction_percent, abs=0.005
        )
