import numpy as np
import pytest

from bloomprim import (
    GeneratorConfig,
    Graph,
    GraphFormatError,
    dumps_graph,
    generate_graph,
    is_connected,
    loads_graph,
)


class TestGraphConstruction:
    def test_rejects_self_loops_and_reversed_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [0], [0], [1.0])
        with pytest.raises(ValueError):
            Graph(3, [2], [1], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 0], [1, 1], [1.0, 2.0])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [1], [-1.0])
        with pytest.raises(ValueError):
            Graph(2, [0], [1], [float("nan")])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [2], [1.0])

    def test_error_names_the_first_bad_edge(self):
        # edge 1 is a self-loop, edge 2 both reversed and a negative weight
        with pytest.raises(ValueError, match=r"^edge 1: self-loop at node 1$"):
            Graph(3, [0, 1, 2, 0], [1, 1, 0, 1], [1.0, 1.0, -1.0, 1.0])

    def test_adjacency_mirrors_edges(self, triangle):
        nodes, weights, edge_ids = triangle.adjacent(1)
        assert sorted(zip(nodes, weights, edge_ids)) == [(0, 1.0, 0), (2, 2.0, 1)]
        assert triangle.degree(1) == 2


class TestGenerator:
    def test_two_nodes_single_edge(self):
        for seed in range(10):
            g = generate_graph(GeneratorConfig(node_count=2, seed=seed))
            assert g.edge_count == 1
            assert (int(g.edge_u[0]), int(g.edge_v[0])) == (0, 1)

    def test_same_seed_same_bytes(self):
        a = generate_graph(GeneratorConfig(node_count=500, seed=99))
        b = generate_graph(GeneratorConfig(node_count=500, seed=99))
        assert dumps_graph(a) == dumps_graph(b)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_graph(GeneratorConfig(node_count=100, seed=1))
        b = generate_graph(GeneratorConfig(node_count=100, seed=2))
        assert a != b

    def test_edge_count_range_and_mean(self):
        # per node: one backbone link plus 1..25 extras, duplicates dropped
        counts = [
            generate_graph(GeneratorConfig(node_count=1000, seed=s)).edge_count
            for s in range(100)
        ]
        assert all(999 <= c <= 999 + 25 * 1000 for c in counts)
        mean = sum(counts) / len(counts)
        assert 12_000 <= mean <= 15_000

    def test_always_connected(self):
        for seed in range(100):
            g = generate_graph(GeneratorConfig(node_count=1000, seed=seed))
            assert is_connected(g)

    def test_edge_ids_appear_exactly_twice(self):
        g = generate_graph(GeneratorConfig(node_count=300, seed=4))
        ids = np.sort(g._adj_edge)
        assert np.array_equal(ids, np.repeat(np.arange(g.edge_count), 2))

    def test_weights_in_unit_interval_and_distinct(self):
        g = generate_graph(GeneratorConfig(node_count=1000, seed=12))
        w = g.edge_weight
        assert w.min() >= 0.0 and w.max() < 1.0
        assert len(np.unique(w)) == len(w)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(node_count=1)
        with pytest.raises(ValueError):
            GeneratorConfig(node_count=10, min_extra_edges=0)
        with pytest.raises(ValueError):
            GeneratorConfig(node_count=10, min_extra_edges=5, max_extra_edges=2)

    def test_custom_extra_range(self):
        g = generate_graph(
            GeneratorConfig(node_count=50, min_extra_edges=2, max_extra_edges=2, seed=0)
        )
        # 49 backbone + 100 extras minus skips
        assert 49 <= g.edge_count <= 149


class TestFileFormat:
    def test_minimal_file(self):
        g = loads_graph("2 1\n0 1 0.5\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.edge_weight[0] == 0.5

    def test_round_trip_generated(self):
        g = generate_graph(GeneratorConfig(node_count=1000, seed=3))
        assert loads_graph(dumps_graph(g)) == g

    def test_round_trip_preserves_edge_ids(self, triangle):
        g = loads_graph(dumps_graph(triangle))
        assert np.array_equal(g.edge_u, triangle.edge_u)
        assert np.array_equal(g.edge_v, triangle.edge_v)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("2\n", 1),
            ("x y\n", 1),
            ("2 1\n0 0 1.0\n", 2),  # self-loop
            ("2 1\n1 0 1.0\n", 2),  # reversed endpoints
            ("2 1\n0 2 1.0\n", 2),  # out of range
            ("2 1\n0 1 -0.5\n", 2),  # negative weight
            ("2 1\n0 1 nan\n", 2),
            ("2 2\n0 1 0.5\n", 3),  # missing edge line
            ("3 2\n0 1 0.5\n0 1 0.7\n", 3),  # duplicate
            ("2 1\n0 1 0.5\ngarbage\n", 3),  # trailing content
            ("2 1\n0 1\n", 2),  # wrong field count
            ("3 2\n0 1\n1 2 0.5 9\n", 2),  # 2 + 4 fields: 6 tokens, misaligned
            ("4 3\n0 1 0.5\n2 1 0.5\n0 1 0.7\n", 3),  # reversed before duplicate
            ("4 3\n0 1 0.5\n0 1 0.7\n0 9 0.5\n", 3),  # duplicate before out of range
            ("2 1\n0 1 inf\n", 2),
            ("3 2\n0 1 0.5\n1 2 x\n", 3),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as exc_info:
            loads_graph(text)
        assert exc_info.value.line_number == line
        assert f"line {line}" in str(exc_info.value)

    def test_line_numbers_across_parse_blocks(self):
        # more edge lines than the parser tokenises at once (65,536)
        n = 70_000
        g = Graph(n, np.arange(n - 1), np.arange(1, n), np.full(n - 1, 0.5))
        lines = dumps_graph(g).splitlines()
        assert loads_graph("\n".join(lines)) == g
        for edits, line in (
            ({66_000: "0 1"}, 66_000),  # unparsable in the second block
            ({66_000: "0 1", 50_000: lines[1]}, 50_000),  # a duplicate before it wins
            ({66_000: "0 1", 3: "0 1"}, 3),
        ):
            broken = lines.copy()
            for number, text in edits.items():
                broken[number - 1] = text
            with pytest.raises(GraphFormatError) as exc_info:
                loads_graph("\n".join(broken))
            assert exc_info.value.line_number == line

    def test_node_count_may_reach_twice_edge_count_plus_one(self):
        assert loads_graph("1 0").node_count == 1
        assert loads_graph("3 1\n0 1 0.5").node_count == 3
        with pytest.raises(GraphFormatError, match="line 1"):
            loads_graph("4 1\n0 1 0.5")

    def test_python_number_literals_accepted(self):
        g = loads_graph("1_1 5\n0 1 1_0.5\n١ 2 0.5\n2 ３ 1e-3\n3 4 +0.5\n0 10 .5\n")
        assert g.edge_u.tolist() == [0, 1, 2, 3, 0]
        assert g.edge_v.tolist() == [1, 2, 3, 4, 10]
        assert g.edge_weight.tolist() == [10.5, 0.5, 1e-3, 0.5, 0.5]

    def test_blank_trailing_lines_allowed(self):
        g = loads_graph("2 1\n0 1 0.5\n\n\n")
        assert g.edge_count == 1

    def test_file_io(self, tmp_path):
        from bloomprim import load_graph, save_graph

        g = generate_graph(GeneratorConfig(node_count=50, seed=5))
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        assert load_graph(path) == g


class TestConnectivity:
    def test_disconnected_two_nodes(self):
        assert not is_connected(Graph(2, [], [], []))

    def test_triangle_connected(self, triangle):
        assert is_connected(triangle)

    def test_single_node(self):
        assert is_connected(Graph(1, [], [], []))
