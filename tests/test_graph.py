import hashlib
import io
import operator
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import bloomprim.graph as graph_module
from bloomprim import (
    GeneratorConfig,
    Graph,
    GraphFormatError,
    PixelImage,
    dumps_graph,
    generate_graph,
    image_to_graph,
    load_graph,
    loads_graph,
    save_graph,
)
from bloomprim.graph import _component_labels, _endpoints, _first_bad_edge, _lsd_order, _repeated
from bloomprim.mst import _selected_columns, prim_baseline, prim_bloom
from conftest import make_natural_image
from oracles import (
    adjacent,
    first_bad_edge,
    graph_nbytes,
    reference_csr,
    six_array_nbytes,
    traced_peak,
)


_TIED = generate_graph(GeneratorConfig(node_count=300, seed=4))


def _reweighted(weights) -> Graph:
    return Graph(_TIED.node_count, *_endpoints(_TIED), weights)


def _blocky_image(side: int) -> PixelImage:
    """Flat 8x8 tiles in a few shades: most pixel edges weigh 0."""
    shade = (np.arange(side)[:, None] // 8 + np.arange(side)[None, :] // 8) % 3 * 90
    return PixelImage(np.repeat(shade[:, :, None], 3, axis=2).astype(np.uint8))


def component_count(g: Graph) -> int:
    return _component_labels(g.node_count, *_endpoints(g))[1]


def _rebuilt_with_count_as(scalar, graph: Graph) -> Graph:
    """``graph`` built again with its node count passed as a ``scalar``."""
    return Graph(scalar(graph.node_count), *_endpoints(graph), graph.edge_weight)


_CSR_CASES = [
    pytest.param(lambda: _reweighted(np.full(_TIED.edge_count, 0.5)), id="all-equal"),
    pytest.param(
        lambda: _reweighted(np.where(np.arange(_TIED.edge_count) % 3, 0.0, -0.0)),
        id="signed-zeros",
    ),
    pytest.param(
        lambda: _reweighted(np.random.default_rng(5).integers(0, 4, _TIED.edge_count) * 1.0),
        id="small-integer-ties",
    ),
    pytest.param(lambda: image_to_graph(make_natural_image(1, 64, 64)), id="image-64x64"),
    pytest.param(lambda: image_to_graph(_blocky_image(64)), id="blocky-64x64"),
    pytest.param(lambda: Graph(1, [], [], []), id="one-node"),
    pytest.param(
        lambda: Graph(7, [0, 2, 1, 0, 3], [6, 5, 6, 1, 4], [2.0, 1.0, 2.0, 0.0, 1.0]),
        id="seven-nodes",
    ),
    *(
        pytest.param(
            lambda seed=seed: generate_graph(GeneratorConfig(node_count=1000, seed=seed)),
            id=f"generated-1k-seed-{seed}",
        )
        for seed in range(20)
    ),
    # node_count << slot_bits passes 2**32 here, so offsets computed
    # in the count's own 32-bit type would wrap
    *(
        pytest.param(
            lambda scalar=scalar: _rebuilt_with_count_as(
                scalar, generate_graph(GeneratorConfig(node_count=21000))
            ),
            id=f"generated-21k-{scalar.__name__}-node-count",
        )
        for scalar in (np.int32, np.uint32)
    ),
]


def _spy_builds(monkeypatch) -> list:
    """A list that gets ``(graph, node_count, u, v, w)`` for every
    :class:`Graph` built from now on, with copies of the columns it was given."""
    built = []
    build = Graph.__init__

    def spy(self, node_count, *columns):
        build(self, node_count, *columns)
        copies = (np.array(c, dtype) for c, dtype in zip(columns, (np.int64, np.int64, np.float64)))
        built.append((self, operator.index(node_count), *copies))

    monkeypatch.setattr(Graph, "__init__", spy)
    return built


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
        nodes, weights, edge_ids = adjacent(triangle, 1)
        assert sorted(zip(nodes, weights, edge_ids)) == [(0, 1.0, 0), (2, 2.0, 1)]

    def test_adjacency_order_is_u_side_then_v_side_by_edge_id(self):
        # tie-heavy weights, so the keys' weight order differs from this one
        g = generate_graph(GeneratorConfig(node_count=300, seed=4))
        tied = Graph(g.node_count, *_endpoints(g), np.round(g.edge_weight, 1))
        for graph in (g, tied):
            u, v, w = (a.tolist() for a in (*_endpoints(graph), graph.edge_weight))
            for node in range(graph.node_count):
                as_u = [e for e in range(graph.edge_count) if u[e] == node]
                as_v = [e for e in range(graph.edge_count) if v[e] == node]
                expected = (
                    [v[e] for e in as_u] + [u[e] for e in as_v],
                    [w[e] for e in as_u + as_v],
                    as_u + as_v,
                )
                assert adjacent(graph, node) == expected

    def test_arrays_are_read_only_and_callers_keep_theirs(self):
        u, v, w = np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0])
        g = Graph(3, u, v, w)
        for array in (g.edge_u, g.edge_v, g.edge_weight, g._order, g._indptr, g._adj_key):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        u[0] = w[0] = 0  # the caller's arrays stay writeable
        assert u.flags.writeable and v.flags.writeable and w.flags.writeable

    def test_build_peak_memory_bounded_by_graph_size(self):
        # the edge arrays are the caller's, so this counts what the build
        # adds: at its peak, the sorted slots (16 bytes per edge), the
        # per-edge key column (8) and the int32 order (4), the offsets and
        # their search values (16 per node), and one block's temporaries
        g = generate_graph(GeneratorConfig(node_count=5000, seed=3))
        peak = traced_peak(Graph, g.node_count, *_endpoints(g), g.edge_weight)
        assert peak < 1.1 * six_array_nbytes(g)
        assert peak < 1.05 * (30 * g.edge_count + 16 * (g.node_count + 1))

    def test_image_build_peak_memory_bounded_by_graph_size(self):
        # the three edge columns (24 bytes per edge), written block by
        # block, then the build over them (28 per edge and the offsets)
        image = make_natural_image(11, 256, 256)
        peak = traced_peak(image_to_graph, image)
        assert peak < 60 * image_to_graph(image).edge_count

    def test_stores_its_topology_once(self):
        # weights (8), int32 order (4) and two int64 keys (16) per edge, and
        # the int64 offsets: no endpoint column is kept
        arrays = {"edge_weight", "_order", "_indptr", "_adj_key"}
        assert set(Graph.__slots__) == {"node_count", "_key_bits", *arrays}
        for g in (_TIED, image_to_graph(_blocky_image(64)), Graph(1, [], [], [])):
            assert g._order.dtype == np.int32
            assert graph_nbytes(g) == 28 * g.edge_count + 8 * (g.node_count + 1)

    @pytest.mark.parametrize(
        "derive",
        [
            _endpoints,
            lambda g: _selected_columns(prim_baseline(g), g),
            lambda g: _selected_columns(prim_bloom(g, epsilon=0.3), g),
        ],
        ids=["endpoints", "tree-exact", "tree-filter"],
    )
    def test_derivation_peak_memory_bounded_by_its_outputs(self, derive):
        # one block of the walk is live beside the two int64 columns; a
        # tree's columns index them, and its solve peaks below them
        g = generate_graph(GeneratorConfig(node_count=5000, seed=3))
        assert traced_peak(derive, g) < 1.5 * 16 * g.edge_count

    @pytest.mark.parametrize(
        "solve", [prim_baseline, lambda g: prim_bloom(g, epsilon=0.3)], ids=["exact", "filter"]
    )
    def test_selected_columns_are_the_derived_columns_at_their_ids(self, solve):
        # a filter solve at epsilon 0.3 loses nodes, so its ids skip edges
        for g in (_TIED, image_to_graph(_blocky_image(64)), generate_graph(GeneratorConfig(5000))):
            result = solve(g)
            ids = result.edge_bits.indices()
            columns = _selected_columns(result, g)
            u, v = _endpoints(g)
            for got, want in zip(columns, (u[ids], v[ids], g.edge_weight[ids])):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not columns[0].flags.writeable and not columns[1].flags.writeable

    @pytest.mark.parametrize("count", [3.5, np.float64(4.0)])
    def test_rejects_non_integer_node_count(self, count):
        # not truncated: 3.5 would build a 3-node graph
        with pytest.raises(TypeError):
            Graph(count, [0, 1], [1, 2], [1.0, 2.0])

    @pytest.mark.parametrize(
        "a, b",
        [
            ((4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]), (4, [0, 1, 1], [1, 2, 3], [1.0, 2.0, 3.0])),
            ((4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]), (4, [0, 1, 2], [1, 3, 3], [1.0, 2.0, 3.0])),
            ((4, [0, 2], [1, 3], [1.0, 2.0]), (4, [0, 1], [2, 3], [1.0, 2.0])),
            ((4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]), (4, [0, 1, 2], [1, 2, 3], [1.0, 2.5, 3.0])),
            ((4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]), (4, [0, 1, 2], [1, 2, 3], [3.0, 2.0, 1.0])),
            ((4, [0, 1, 2], [1, 2, 3], [0.0, 0.5, -0.0]), (4, [0, 1, 2], [1, 2, 3], [-0.0, 0.5, 0.0])),
            ((4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]), (5, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])),
            (
                (4, np.array([0, 1, 2], np.int32), np.array([1, 2, 3], np.int32), [1.0, 2.0, 3.0]),
                (4, np.array([0, 1, 2], np.int64), np.array([1, 2, 3], np.int64), [1.0, 2.0, 3.0]),
            ),
        ],
        ids=[
            "one-u",
            "one-v",
            "same-degrees",
            "one-weight",
            "weights-permuted",
            "signed-zeros",
            "node-count",
            "int32-int64",
        ],
    )
    def test_equality_is_the_column_comparison(self, a, b):
        # the stored arrays are compared, never the derived columns
        columns_equal = a[0] == b[0] and all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))
        ga, gb = Graph(*a), Graph(*b)
        assert (ga == gb) == columns_equal and (ga != gb) != columns_equal

    @pytest.mark.parametrize("make", _CSR_CASES)
    def test_csr_matches_reference_build(self, make, monkeypatch):
        built = _spy_builds(monkeypatch)
        make()
        for g, *columns in built:
            order, indptr, adj_key, bits = reference_csr(*columns)
            assert g._key_bits == bits
            for got, want in ((g._order, order), (g._indptr, indptr), (g._adj_key, adj_key)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                lambda: generate_graph(GeneratorConfig(5000, seed=3)),
                "9efee969b87aa1c5d94bbbfbd72d40ecb1ef157a699fe281b7023c3012d5d5e5",
            ),
            (
                lambda: image_to_graph(make_natural_image(7)),
                "5f3960c6f1f2833882e28abdfc66c501c7d7e5bfb775af7e6d6599c19dc8114d",
            ),
            (lambda: _TIED, "8210492da4d28a87c431aef107a230e1fe7f5c66bd9b4cd121aac76c751483b7"),
        ],
        ids=["generated-5000", "image-128", "tied"],
    )
    def test_built_arrays_are_frozen(self, make, digest):
        # the text and the solvers read the lists through order-agnostic
        # paths, so this pins the stored arrays themselves, entry for entry
        g, h = make(), hashlib.sha256()
        for name in ("edge_weight", "_order", "_indptr", "_adj_key"):
            array = getattr(g, name)
            h.update(array.dtype.str.encode())
            h.update(array.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("make", _CSR_CASES)
    def test_derived_endpoints_are_the_columns_built_from(self, make, monkeypatch):
        built = _spy_builds(monkeypatch)
        make()
        for g, _, u, v, w in built:
            for got, want in ((g.edge_u, u), (g.edge_v, v)):
                assert got.dtype == np.int64 and np.array_equal(got, want)
            assert np.array_equal(g.edge_weight, w)

    def test_size_limit_checked_before_allocating(self):
        # keys and endpoint slots would overflow int64; the check comes
        # before anything is sorted or sized by node_count, so the rejected
        # build allocates less than one byte per edge (any edge rule checked
        # first would take a byte or more per edge for its masks)
        edge_count = 2**16
        u = np.arange(edge_count, dtype=np.int64)
        v, w = u + 1, np.ones(edge_count)
        error = None
        tracemalloc.start()
        try:
            Graph(2**46, u, v, w)
        except ValueError as exc:
            error = exc
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert str(error).startswith("edge_count * node_count must be below 2**61")
        assert peak < edge_count

    @pytest.mark.parametrize(
        "bad",
        [[1.0], [0.5], ["1"], np.array([1], dtype=object), [True]],
        ids=["integral-float", "float", "str", "object", "bool"],
    )
    def test_rejects_non_integer_ids(self, bad):
        # not cast: each would otherwise read as node 1 (or 0) and build an edge
        for u, v in ((bad, [2]), ([0], bad)):
            with pytest.raises(ValueError, match=r"^node ids must have an integer dtype, got "):
                Graph(3, u, v, [1.0])

    @pytest.mark.parametrize("node_count", [2**61, 2**63])
    def test_size_limit_covers_edgeless_graphs(self, node_count):
        # no edge, so nothing but the limit stops an offset array of node_count + 1
        limit = (
            rf"^edge_count \* node_count must be below 2\*\*61, got 0 \* {node_count}"
            r" \(an edgeless graph counts as one edge\)$"
        )
        with pytest.raises(ValueError, match=limit):
            Graph(node_count, [], [], [])

    @pytest.mark.parametrize("scalar", [np.int32, np.uint64])
    def test_numpy_integer_node_count_finds_repeats(self, scalar):
        # the repeat search sizes its digits with int.bit_length, which
        # numpy scalars lack
        with pytest.raises(ValueError, match=r"^edge 2: duplicate edge \(0, 1\)$"):
            Graph(scalar(4), [0, 1, 0], [1, 2, 1], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "bad, dtype",
        [(["0.5"], "<U3"), ([True], "bool"), (np.array([0.5], dtype=object), "object"),
         ([0.5 + 0j], "complex128")],
        ids=["str", "bool", "object", "complex"],
    )
    def test_rejects_non_numeric_weights(self, bad, dtype):
        # not cast: the string would parse as 0.5 and the bool read as 1.0
        with pytest.raises(
            ValueError, match=rf"^weights must have an integer or floating dtype, got {dtype}$"
        ):
            Graph(2, [0], [1], bad)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float16, np.float32])
    def test_integer_and_narrow_float_weights_build_as_float64(self, dtype):
        weights = np.array([3, 0, 2, 1, 2], dtype=dtype)
        got = Graph(4, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3], weights)
        want = Graph(4, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3], weights.astype(np.float64))
        for name in ("edge_weight", "_order", "_indptr", "_adj_key"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _set_repeats(pairs) -> list[bool]:
    """Whether each pair occurred before it, by a set of the pairs seen."""
    seen, repeats = set(), []
    for pair in pairs:
        repeats.append(pair in seen)
        seen.add(pair)
    return repeats


class TestEdgeValidation:
    # _first_bad_edge is called directly: Graph() at 2**33 nodes would
    # allocate a 64 GiB _indptr

    def test_distinct_pairs_whose_values_wrap_are_no_repeat(self):
        # 0 * 2**33 + (2**31 + 5) and 2**31 * 2**33 + (2**31 + 5) are equal in int64
        u, v = np.array([0, 2**31]), np.array([2**31 + 5] * 2)
        assert _first_bad_edge(2**33, u, v, np.ones(2)) is None

    def test_repeat_is_found_exactly_where_pair_values_wrap(self):
        u, v = np.array([0, 2**31, 0]), np.array([2**31 + 5] * 3)
        assert _first_bad_edge(2**33, u, v, np.ones(3)) == (2, "duplicate edge (0, 2147483653)")

    def test_matches_reference_on_random_edge_lists(self):
        rng = np.random.default_rng(15)
        weights = np.array([0.5, 0.0, -0.0, -1.0, np.nan, np.inf])
        found = set()
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            count = int(rng.integers(0, 12))
            u, v = rng.integers(-1, n + 1, (2, count))
            if rng.random() < 0.7:  # mostly in-range pairs, so later rules get reached
                u, v = np.sort(rng.integers(0, n, (2, count)), axis=0)
            w = rng.choice(weights, count, p=[0.9, 0.03, 0.03, 0.02, 0.01, 0.01])
            expected = first_bad_edge(n, u, v, w)
            assert _first_bad_edge(n, u, v, w) == expected
            found.add(None if expected is None else expected[1].split()[0])
        assert found == {None, "node", "self-loop", "endpoints", "weight", "duplicate"}

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [(3, 4)],
            [(3, 4), (3, 4)],
            [(3, 4), (3, 5)],
            [(3, 4), (2, 4)],
            [(1, 2)] * 5,  # every digit equal on every pair
        ],
    )
    def test_repeated_marks_all_but_first_occurrences(self, pairs):
        u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        assert _repeated(u, v, 6).tolist() == _set_repeats(pairs)

    def test_repeated_on_random_lists_with_repeats(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.integers(0, 6, (2, int(rng.integers(2, 40))))
            before = u.copy(), v.copy()
            assert _repeated(u, v, 6).tolist() == _set_repeats(zip(u.tolist(), v.tolist()))
            assert np.array_equal(u, before[0]) and np.array_equal(v, before[1])  # inputs unwritten
            # least significant digit first, ties in position order: a stable lexsort
            assert np.array_equal(_lsd_order(len(u), (v, u), 3), np.lexsort((v, u)))

    def test_repeat_is_found_exactly_among_ids_of_63_bits(self):
        # pair keys, and digits as wide as the ids, would wrap in int64
        n = 2**62 + 4
        u, v = np.array([n - 3, 1, n - 3]), np.array([n - 1, 3, n - 1])
        assert _repeated(u, v, n).tolist() == [False, False, True]
        assert _first_bad_edge(n, u, v, np.ones(3)) == (
            2,
            "duplicate edge (4611686018427387905, 4611686018427387907)",
        )

    def test_lsd_order_cuts_wide_words_into_digits(self):
        # 62-bit words need two digits each beside 1,000 positions
        rng = np.random.default_rng(16)
        for _ in range(5):
            pool = rng.integers(0, 2**62, 50)
            words = rng.choice(pool, (2, 1000))
            assert np.array_equal(_lsd_order(1000, words, 62), np.lexsort(words))

    def test_lsd_order_ignores_bits_above_its_width(self):
        rng = np.random.default_rng(17)
        for bits in (1, 5, 40, 62, 63):  # at 63 only the sign bit is ignored
            low = rng.choice(rng.integers(0, 2**bits - 1, 20, endpoint=True), (2, 300))
            high = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, (2, 300))
            words = low | (high >> bits << bits)
            before = words.copy()
            assert np.array_equal(_lsd_order(300, words, bits), np.lexsort(low))
            assert np.array_equal(words, before)  # inputs unwritten


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
            assert component_count(g) == 1

    def test_edge_ids_appear_exactly_twice(self):
        g = generate_graph(GeneratorConfig(node_count=300, seed=4))
        ids = np.sort([e for node in range(g.node_count) for e in adjacent(g, node)[2]])
        assert np.array_equal(ids, np.repeat(np.arange(g.edge_count), 2))

    @pytest.mark.parametrize(
        "config, digest",
        [
            ((2, 1, 25, 0), "99f3b81384e74326da73f770032aba7b7940387df9ff396b0e5da17ed8e29815"),
            ((2, 1, 25, 1), "d50fdbd102fb0ff3c6c071b4a6467a9d081c4e83fbac05307dd4d12e40008b18"),
            ((2, 1, 25, 2), "ee6dc5e1117442a863725f6e469da4eb2586245d83c1780e9c3e5cc685710bba"),
            ((10, 1, 25, 0), "6fcda40ffb444b94e16f17976fc8d1455be8d7c51dddf547867e9769916d3044"),
            ((10, 1, 25, 1), "48a741c20051d079c9d50a00390909c8caec10d660180dd814982dc3b9d7bd8f"),
            ((10, 1, 25, 2), "b27553c00627788958bf1bec8d0a5e39624587dc2e54152c2e016e2d40e6ae64"),
            ((10, 1, 25, 3), "3d41056209321458c221ce700edf5850fc8afc57f376cd0e4b3520b44d300407"),
            ((10, 1, 1, 5), "62006ff9a28d6564d1cadf068b25cbb206fd1aebb9cd60f0b79f5d2c1a24595f"),
            ((10, 3, 3, 6), "4f217ff9f92ac899b0db1a8d51466f4e0e4c60916a479c64011a14951f78d464"),
            ((1000, 1, 25, 0), "9b21f94dfa2f9f2ee7e82fc04aebde90fd011ce5f06c6752d0b984ac3ea83654"),
            ((1000, 1, 25, 1), "bf6f582871f0dda649c4bf89b9e6d3eae570609d014c88643729663854b63ce6"),
            ((1000, 1, 25, 2), "f22edcb81dfb73a65de5c50307f107aadde095913f2e403480b315710fe5938f"),
            ((1000, 2, 4, 7), "fa2c44179d7ed29f1aec79fe9a6e38c87b429be033683c012d7943ea8254bd5c"),
            ((21000, 1, 25, 0), "60de4195ecfd1f67769327c6cb43d673122314f29bce1b989a1d078627c77b01"),
            ((21000, 1, 25, 3), "fcb40657a8e0ba57ab1d9ef25512a844bda3fb10cce6d19cef87d1bb57db0778"),
        ],
    )
    def test_seeded_graph_bytes_are_frozen(self, config, digest):
        """The generator's output is pinned byte for byte, so a faster
        procedure must reproduce the documented one exactly."""
        n, lo, hi, seed = config
        g = generate_graph(GeneratorConfig(n, min_extra_edges=lo, max_extra_edges=hi, seed=seed))
        assert hashlib.sha256(dumps_graph(g).encode()).hexdigest() == digest

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
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            GeneratorConfig(node_count=10, seed=-1)
        for field in ("node_count", "min_extra_edges", "max_extra_edges", "seed"):
            with pytest.raises(TypeError):  # not truncated, nor left to fail inside the draws
                GeneratorConfig(**{"node_count": 10, field: 4.0})

    def test_config_bounds_the_extra_edge_draw_count(self):
        # node_count * max_extra_edges bounds the draw count, which must fit in int64
        GeneratorConfig(node_count=2, max_extra_edges=2**62 - 1)
        bound = r"^node_count \* max_extra_edges must be below 2\*\*63, got "
        for n, extra in ((2, 2**62), (4, 2**62), (5, 10**20)):
            with pytest.raises(ValueError, match=bound):
                GeneratorConfig(node_count=n, max_extra_edges=extra)

    def test_config_takes_numpy_integers(self):
        config = GeneratorConfig(np.int64(50), np.int32(2), np.uint8(9), np.int64(7))
        assert config == GeneratorConfig(50, 2, 9, 7)
        assert all(type(field) is int for field in vars(config).values())
        assert dumps_graph(generate_graph(config)) == dumps_graph(
            generate_graph(GeneratorConfig(50, 2, 9, 7))
        )

    def test_peak_memory_bounded_by_graph_size(self):
        # the candidate pairs die before the graph is built, so the peak is
        # the build's, over the three edge arrays it is given
        config = GeneratorConfig(node_count=5000, seed=3)
        assert traced_peak(generate_graph, config) < 1.2 * six_array_nbytes(generate_graph(config))

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
        for got, want in zip(_endpoints(g), _endpoints(triangle)):
            assert np.array_equal(got, want)

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
            ("3 2\n0 1 0.5\n1 2 0.5\udcff\n", 3),  # a byte that is not UTF-8
            # where the whole message is pinned, it stands in for the line:
            # each str.splitlines break ends a line
            *(
                (f"3 2{eol}0 1 0.5{eol}1 2 x{eol}", "line 3: expected '<u> <v> <weight>', got '1 2 x'")
                for eol in ("\r", "\r\n", "\v", "\f", "\x1c", "\x85", "\u2028")
            ),
            ("3 2\r0 1 0.5\r\n1 2 0.5\n\r\ngarbage", "line 5: trailing content after declared edges"),
            ("4 3\n1 0 0.5\nbad\n", "line 4: unexpected end of file, expected 3 edge lines"),
            ("3 2\n0 1 0.5\n1 2 x", "line 3: expected '<u> <v> <weight>', got '1 2 x'"),
            ("2 1\n0 1 0.5\n\v\ngarbage\n", "line 5: trailing content after declared edges"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line, tmp_path):
        # a path, a text stream and a binary stream are read whole and
        # parsed as the same text; bytes decode with surrogateescape
        data = text.encode("utf-8", errors="surrogateescape")
        path = tmp_path / "graph.txt"
        path.write_bytes(data)
        with pytest.raises(GraphFormatError) as exc_info:
            loads_graph(text)
        if isinstance(line, str):
            assert str(exc_info.value) == line
            line = int(line.split(":")[0].removeprefix("line "))
        assert exc_info.value.line_number == line
        assert str(exc_info.value).startswith(f"line {line}: ")
        for source in (path, io.StringIO(text), io.BytesIO(data)):
            with pytest.raises(GraphFormatError) as read_exc_info:
                load_graph(source)
            assert read_exc_info.value.line_number == line
            assert str(read_exc_info.value) == str(exc_info.value)

    def test_line_numbers_across_parse_blocks(self):
        # more edge lines than the parser tokenises at once (_BLOCK, 4,096)
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

    def test_parse_does_not_depend_on_piece_or_block_size(self, monkeypatch):
        # with pieces of 7 characters, each nominal cut falls inside a line
        # or between the "\r" and "\n" of a pair before it moves to just
        # after the next "\n", and blocks of 3 lines split the edges; the
        # parse must be the one of the default sizes
        texts = [
            "5 4\r\n0 1 0.5\r\n1 2 0.25\r\n2 3 0.125\r\n3 4 1e-3\r\n\r\n",
            "5 4\r\n0 1 0.5\r1 2 0.25\v2 3 0.125\r\n3 4 1e-3\x85\u2028",
            "5 4\r\n0 1 0.5\r\n1 2 0.25\r\n2 3 0.125\r\n",  # end of file
            "5 4\r\n0 1 0.5\r\n1 2 0.25\r\n2 3 x\r\n3 4 0.5",  # bad line
            "5 4\r\n0 1 0.5\r\n1 2 0.25\r\n2 1 0.5\r\n3 x 0.5",  # edge rule first
            "5 4\r\n0 1 0.5\r\n1 2 0.25\r\n2 3 0.125\r\n3 4 1e-3\r\n\v\r\n9",  # trailing
            dumps_graph(generate_graph(GeneratorConfig(node_count=40, seed=2))).replace("\n", "\r\n"),
        ]

        def outcome(text):
            try:
                return loads_graph(text)
            except GraphFormatError as err:
                return str(err)

        expected = [outcome(text) for text in texts]
        monkeypatch.setattr(graph_module, "_PIECE", 7)
        monkeypatch.setattr(graph_module, "_BLOCK", 3)
        assert [outcome(text) for text in texts] == expected
        assert all(isinstance(e, Graph) for e in (*expected[:2], expected[-1]))
        assert [e.split(":")[0] for e in expected[2:-1]] == ["line 5", "line 4", "line 4", "line 8"]

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

    def test_parse_peak_memory_bounded_by_text_size(self):
        # the parser holds the lines of one piece of the text, one block of
        # tokens and the edge arrays; its peak is the graph's build over them
        text = dumps_graph(generate_graph(GeneratorConfig(node_count=5000, seed=3)))
        assert traced_peak(loads_graph, text) < 2.3 * len(text)

    def test_encode_peak_memory_bounded_by_text_size(self):
        # the encoder holds one block of line strings, the encoded blocks
        # and their join, which is the text itself
        g = generate_graph(GeneratorConfig(node_count=5000, seed=3))
        assert traced_peak(dumps_graph, g) < 3 * len(dumps_graph(g))

    def test_save_writes_the_encoded_text(self, tmp_path):
        g = generate_graph(GeneratorConfig(node_count=5000, seed=3))
        text = dumps_graph(g)
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        assert path.read_bytes() == text.encode("utf-8")
        stream = io.StringIO()
        save_graph(g, stream)
        assert stream.getvalue() == text

    def test_write_puts_exactly_the_texts_utf8_bytes_at_a_path(self, tmp_path):
        text = "\u00e9 \n \r\n"  # no newline is translated
        path = tmp_path / "out.txt"
        graph_module._write(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        graph_module._write(path, b"\x00\n")
        assert path.read_bytes() == b"\x00\n"

    def test_file_io(self, tmp_path):
        g = generate_graph(GeneratorConfig(node_count=50, seed=5))
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        assert load_graph(path) == g
        with open(path, "rb") as fh:
            assert load_graph(fh) == g


class TestConnectivity:
    def test_disconnected_two_nodes(self):
        assert component_count(Graph(2, [], [], [])) == 2

    def test_triangle_connected(self, triangle):
        assert component_count(triangle) == 1

    def test_single_node(self):
        assert component_count(Graph(1, [], [], [])) == 1


def scipy_labels(node_count, u, v):
    """scipy's component labels, renumbered by each component's smallest node."""
    adj = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(node_count, node_count))
    _, raw = connected_components(adj, directed=False)
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    return rank[raw]


class TestComponentLabels:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy(self, seed):
        # fewer edges than nodes, drawn with repeats, self-loops and either
        # orientation; every seed leaves isolated nodes and several components
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 500))
        u, v = rng.integers(0, n, (2, int(rng.integers(0, n))))
        labels, count = _component_labels(n, u, v)
        expected = scipy_labels(n, u, v)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, expected)
        assert count == expected.max() + 1

    def test_single_node(self):
        labels, count = _component_labels(1, np.empty(0, np.int64), np.empty(0, np.int64))
        assert labels.tolist() == [0] and count == 1

    def test_edgeless(self):
        labels, count = _component_labels(5, np.empty(0, np.int64), np.empty(0, np.int64))
        assert labels.tolist() == [0, 1, 2, 3, 4] and count == 5

    def test_long_shuffled_path(self):
        # a path over shuffled ids needs many hook rounds; cutting it in the
        # middle leaves two halves, numbered by the one that holds node 0
        n = 120_000
        path = np.random.default_rng(1).permutation(n)
        u, v = np.delete(path[:-1], n // 2), np.delete(path[1:], n // 2)
        labels, count = _component_labels(n, u, v)
        first_half = np.isin(np.arange(n), path[: n // 2 + 1])
        assert count == 2
        assert np.array_equal(labels, np.where(first_half == first_half[0], 0, 1))
        assert np.array_equal(labels, scipy_labels(n, u, v))
