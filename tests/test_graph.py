"""Graph core: CSR construction, normalization, induction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgcn import build_graph, induced_subgraph
from subgcn.data_io import graph_hash
from subgcn.engine import graph_adjacency
from subgcn.graph import Graph, arc_source_nodes, reverse_arcs

from conftest import (
    CALLER_KINDS,
    assert_read_only,
    brute_force_induce,
    caller_array,
    change_kept,
    fresh_copy,
    graph_inputs,
    random_graph,
    small_graphs,
    subgraph_arcs_original,
)

GRAPH_ARRAYS = [f.name for f in dataclasses.fields(Graph) if f.type == "np.ndarray"]


def dense_norm(g) -> np.ndarray:
    a = np.zeros((g.num_nodes, g.num_nodes))
    rows = arc_source_nodes(g)
    a[rows, g.col_indices] = g.norm_values
    return a


class TestBuildGraph:
    def test_single_edge_normalization(self):
        g = build_graph([(0, 1)], 2)
        assert np.array_equal(dense_norm(g), [[0.0, 1.0], [1.0, 0.0]])
        assert g.num_edges == 1

    def test_triangle_symmetry(self, triangle):
        a = dense_norm(triangle)
        for v in range(3):
            row = a[v]
            assert np.count_nonzero(row) == 2
            assert np.all(row[row > 0] == 0.5)
        assert np.array_equal(a > 0, (a > 0).T)

    def test_duplicate_and_reversed_edges_collapse(self):
        g1 = build_graph([(0, 1)], 2)
        g2 = build_graph([(0, 1), (0, 1), (1, 0)], 2)
        assert np.array_equal(g1.col_indices, g2.col_indices)
        assert np.array_equal(g1.row_offsets, g2.row_offsets)
        assert np.array_equal(g1.norm_values, g2.norm_values)
        assert g2.num_edges == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            build_graph([], 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph([(0, 5)], 3)
        with pytest.raises(ValueError):
            build_graph([(-1, 0)], 3)

    def test_self_loop_on_every_node(self):
        g = build_graph([(0, 1), (0, 0), (1, 1)], 2)
        assert np.array_equal(g.col_indices[g.row_offsets[0] : g.row_offsets[1]], [0, 1])
        assert np.array_equal(g.col_indices[g.row_offsets[1] : g.row_offsets[2]], [0, 1])
        # loop arcs stored once: 1 undirected edge + 2 loops = 4 arcs
        assert g.num_edges == 3
        assert g.num_arcs == 4
        sums = np.bincount(arc_source_nodes(g), weights=g.norm_values, minlength=2)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_arcs_match_edge_list(self):
        rng = np.random.default_rng(13)
        edges = rng.integers(0, 40, size=(200, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = build_graph(edges, 40)
        want = {(int(u), int(v)) for u, v in edges} | {(int(v), int(u)) for u, v in edges}
        got = set(zip(arc_source_nodes(g).tolist(), g.col_indices.tolist()))
        assert got == want
        assert g.num_arcs == len(want)

    def test_deterministic_construction(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 40, size=(150, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g1 = build_graph(edges, 40)
        g2 = build_graph(edges, 40)
        for name in ("row_offsets", "col_indices", "norm_values", "degrees", "edge_endpoints", "arc_to_edge"):
            assert np.array_equal(getattr(g1, name), getattr(g2, name))

    def test_row_sums_are_one(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, max_nodes=120)
            sums = np.bincount(arc_source_nodes(g), weights=g.norm_values, minlength=g.num_nodes)
            live = g.degrees > 0
            assert np.all(np.abs(sums[live] - 1.0) <= 1e-12)
            assert np.all(sums[~live] == 0.0)

    def test_columns_strictly_increasing_per_row(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, max_nodes=80)
        for v in range(g.num_nodes):
            cols = g.col_indices[g.row_offsets[v] : g.row_offsets[v + 1]]
            assert np.all(np.diff(cols) > 0)

    def test_arrays_frozen(self, triangle):
        with pytest.raises(ValueError):
            triangle.norm_values[0] = 9.0


class TestReadOnlyByType:
    """A ``Graph`` cannot change, however its arrays were passed in."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs(), field=st.sampled_from(GRAPH_ARRAYS), kind=st.sampled_from(("built", *CALLER_KINDS)))
    def test_arrays_are_read_only_and_caller_writes_never_reach_derived_values(self, g, field, kind):
        def derived(graph):
            return graph_hash(graph), graph_adjacency(graph).toarray().tobytes(), reverse_arcs(graph).tobytes()

        want = derived(fresh_copy(g))
        if kind == "built":
            h = g
        else:
            arg, kept = caller_array(getattr(g, field), kind)
            h = dataclasses.replace(g, **{field: arg})
        first = derived(h)
        for name in GRAPH_ARRAYS:
            assert_read_only(getattr(h, name))
        if kind != "built":
            change_kept(kept, kind)
        assert derived(h) == first == want
        assert derived(dataclasses.replace(h)) == want  # no memo: derived from the arrays as they are now


def adjacency_oracle(pairs, num_nodes: int) -> dict[int, set[int]]:
    """Neighbour sets of the undirected graph on ``pairs``, by brute force."""
    adj = {v: set() for v in range(num_nodes)}
    for u, v in pairs.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


class TestBuildGraphProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=graph_inputs())
    def test_matches_dict_of_sets_oracle(self, case):
        g = build_graph(*case)
        adj = adjacency_oracle(*case)
        edges = sorted({(min(u, v), max(u, v)) for u in adj for v in adj[u]})
        assert g.num_nodes == case[1] and g.num_edges == len(edges)
        assert g.edge_endpoints.tolist() == [list(e) for e in edges]  # unique, lexicographic, u <= v
        # a self-loop has one arc and every other edge two
        assert np.bincount(g.arc_to_edge, minlength=g.num_edges).tolist() == [1 if u == v else 2 for u, v in edges]
        assert g.row_offsets[0] == 0 and g.row_offsets[-1] == g.num_arcs
        for v, neighbours in adj.items():
            row = g.col_indices[g.row_offsets[v] : g.row_offsets[v + 1]]
            assert np.all(np.diff(row) > 0)
            assert row.tolist() == sorted(neighbours)
            assert g.degrees[v] == len(neighbours)
            assert np.all(g.norm_values[g.row_offsets[v] : g.row_offsets[v + 1]] == 1.0 / max(len(neighbours), 1))
        rows = arc_source_nodes(g)
        for a in range(g.num_arcs):
            u, v = int(rows[a]), int(g.col_indices[a])
            assert g.edge_endpoints[g.arc_to_edge[a]].tolist() == [min(u, v), max(u, v)]


GRAPH_ARRAYS = ("row_offsets", "col_indices", "norm_values", "degrees", "edge_endpoints", "arc_to_edge")


def unique_lexsort_reference(pairs, num_nodes: int) -> dict[str, np.ndarray]:
    """The six Graph arrays by a reference construction: ``np.unique`` of
    the edge keys and a two-key ``np.lexsort`` of the arcs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.unique(lo * np.int64(num_nodes) + hi)
    lo, hi = keys // num_nodes, keys % num_nodes
    nonloop = lo != hi
    edge_ids = np.arange(keys.shape[0], dtype=np.int64)
    rows = np.concatenate([lo, hi[nonloop]])
    cols = np.concatenate([hi, lo[nonloop]])
    arc_eid = np.concatenate([edge_ids, edge_ids[nonloop]])
    order = np.lexsort((cols, rows))
    rows, cols, arc_eid = rows[order], cols[order], arc_eid[order]
    degrees = np.bincount(rows, minlength=num_nodes).astype(np.int64)
    row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    norm_values = 1.0 / degrees[rows].astype(np.float64) if rows.size else np.zeros(0)
    return dict(row_offsets=row_offsets, col_indices=cols, norm_values=norm_values, degrees=degrees,
                edge_endpoints=np.stack([lo, hi], axis=1), arc_to_edge=arc_eid)


def assert_matches_reference(pairs, num_nodes: int) -> None:
    g = build_graph(pairs, num_nodes)
    want = unique_lexsort_reference(pairs, num_nodes)
    for name in GRAPH_ARRAYS:
        got = getattr(g, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name
        assert not got.flags.writeable, name


class TestBuildGraphMatchesUniqueLexsort:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=graph_inputs())
    def test_generated_inputs(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize(
        "pairs, num_nodes",
        [
            pytest.param([], 4, id="empty"),
            pytest.param([(v, v) for v in range(5)], 5, id="all-loops"),
            pytest.param([(0, 2), (2, 5)], 8, id="isolated-nodes"),
            pytest.param([(0, 1), (1, 0), (0, 1), (2, 1), (1, 2), (1, 2), (2, 2), (2, 2)], 3, id="duplicates"),
            pytest.param([(4, 0), (3, 1), (2, 2), (0, 1), (4, 3), (1, 0), (0, 4), (3, 0)], 5, id="unsorted"),
        ],
    )
    def test_named_cases(self, pairs, num_nodes):
        assert_matches_reference(pairs, num_nodes)


class TestMalformedInputRejected:
    @pytest.mark.parametrize(
        "edges, message",
        [
            pytest.param(np.arange(6).reshape(2, 3), r"shape \(k, 2\), got \(2, 3\)", id="k-by-3"),
            pytest.param(np.array([0, 1]), r"shape \(k, 2\), got \(2,\)", id="flat"),
            pytest.param([[0.5, 1.7]], "integer dtype, got float64", id="float"),
            pytest.param([("0", "1")], "integer dtype, got <U1", id="str"),
            pytest.param(np.array([[True, False]]), "integer dtype, got bool", id="bool"),
        ],
    )
    def test_build_graph(self, edges, message):
        with pytest.raises(ValueError, match=message):
            build_graph(edges, 6)

    @pytest.mark.parametrize(
        "ids, message",
        [
            pytest.param([0.9, 1.2], "integer dtype, got float64", id="float"),
            pytest.param(np.array([True, False, True]), "integer dtype, got bool", id="bool"),
        ],
    )
    def test_induced_subgraph(self, triangle, ids, message):
        with pytest.raises(ValueError, match=message):
            induced_subgraph(triangle, ids)

    def test_empty_input_of_any_dtype_is_legal(self, triangle):
        for empty in ([], np.zeros((0, 2)), np.zeros(0, dtype=bool), np.zeros((0, 3), dtype=np.int32)):
            g = build_graph(empty, 3)
            assert g.num_edges == 0 and g.row_offsets.tolist() == [0, 0, 0, 0]
            assert induced_subgraph(triangle, empty).num_nodes == 0


class TestInducedSubgraph:
    def test_adjacent_pair(self, triangle):
        sub = induced_subgraph(triangle, [0, 1])
        assert np.array_equal(sub.nodes, [0, 1])
        assert sub.num_arcs == 2  # one undirected edge

    def test_non_adjacent_pair(self, path3):
        sub = induced_subgraph(path3, [0, 2])
        assert np.array_equal(sub.nodes, [0, 2])
        assert sub.num_arcs == 0

    def test_multiset_multiplicity(self, triangle):
        sub = induced_subgraph(triangle, [0, 0, 1, 2])
        assert np.array_equal(sub.nodes, [0, 1, 2])
        assert sub.num_arcs == 6  # full triangle

    def test_empty_set_induces_no_node_subgraph(self, triangle):
        # an empty list, and the endpoints of no drawn edge
        for empty in ([], triangle.edge_endpoints[np.zeros(3, dtype=bool)].ravel()):
            sub = induced_subgraph(triangle, empty)
            assert sub.num_nodes == 0 and sub.num_arcs == 0
            assert sub.row_offsets.tolist() == [0]
            for a in (sub.nodes, sub.row_offsets, sub.col_indices, sub.arc_origin):
                assert a.dtype == np.int64 and not a.flags.writeable

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(ValueError):
            induced_subgraph(triangle, [0, 7])

    def test_induction_keeps_self_loops(self):
        g = build_graph([(0, 1), (1, 2), (0, 0), (1, 1), (2, 2)], 3)
        sub = induced_subgraph(g, [0, 2])
        # non-adjacent pair: only the two loop arcs survive
        assert subgraph_arcs_original(sub) == {(0, 0), (2, 2)}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_graph(rng, max_nodes=200)
            k = int(rng.integers(1, g.num_nodes + 1))
            ids = rng.integers(0, g.num_nodes, size=k)
            sub = induced_subgraph(g, ids)
            nodes, want_arcs = brute_force_induce(g, ids)
            assert np.array_equal(sub.nodes, nodes)
            assert subgraph_arcs_original(sub) == want_arcs

    def test_arc_origin_references_matching_parent_arcs(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, max_nodes=60)
        ids = rng.integers(0, g.num_nodes, size=20)
        sub = induced_subgraph(g, ids)
        rows = arc_source_nodes(g)
        for i in range(sub.num_nodes):
            for a in range(sub.row_offsets[i], sub.row_offsets[i + 1]):
                parent = sub.arc_origin[a]
                assert rows[parent] == sub.nodes[i]
                assert g.col_indices[parent] == sub.nodes[sub.col_indices[a]]


def induce_arrays_oracle(g, ids) -> tuple[list[int], list[int], list[int], list[int]]:
    """Loop oracle for the four Subgraph arrays: sorted unique nodes, and
    per node in order every parent arc of its row whose column is in the
    set, mapped to local IDs."""
    members = sorted({int(v) for v in ids})
    local = {v: i for i, v in enumerate(members)}
    offsets, cols, origin = [0], [], []
    for v in members:
        for a in range(int(g.row_offsets[v]), int(g.row_offsets[v + 1])):
            c = int(g.col_indices[a])
            if c in local:
                cols.append(local[c])
                origin.append(a)
        offsets.append(len(cols))
    return members, offsets, cols, origin


@st.composite
def graphs_and_node_ids(draw):
    g = draw(small_graphs())
    ids = draw(st.lists(st.integers(0, g.num_nodes - 1), min_size=1, max_size=2 * g.num_nodes + 2))
    return g, (np.array(ids) if draw(st.booleans()) else ids)


class TestInducedSubgraphProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=graphs_and_node_ids())
    def test_matches_array_oracle(self, case):
        g, ids = case
        sub = induced_subgraph(g, ids)
        want = induce_arrays_oracle(g, ids)
        for got, expected in zip((sub.nodes, sub.row_offsets, sub.col_indices, sub.arc_origin), want):
            assert got.dtype == np.int64
            assert not got.flags.writeable
            assert got.tolist() == expected
        assert subgraph_arcs_original(sub) == brute_force_induce(g, ids)[1]
        for i in range(sub.num_nodes):
            row = slice(sub.row_offsets[i], sub.row_offsets[i + 1])
            assert np.all(np.diff(sub.col_indices[row]) > 0)
            assert np.all(np.diff(sub.arc_origin[row]) > 0)


def two_pass_induce(g, ids) -> tuple[np.ndarray, ...]:
    """``induced_subgraph`` as written before its one-pass row offsets
    (per-candidate row IDs, then a bincount and a cumsum), kept as the
    byte-level reference: nodes, row_offsets, col_indices, arc_origin."""
    ids = np.asarray(ids).ravel().astype(np.int64, copy=False)
    inset = np.zeros(g.num_nodes, dtype=bool)
    inset[ids] = True
    nodes = np.flatnonzero(inset)
    starts = g.row_offsets[nodes]
    counts = g.row_offsets[nodes + 1] - starts
    shift = np.zeros(nodes.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=shift[1:])
    arc_idx = np.repeat(starts - shift, counts) + np.arange(int(counts.sum()), dtype=np.int64)
    cols = g.col_indices[arc_idx]
    keep = inset[cols]
    local = np.empty(g.num_nodes, dtype=np.int64)
    local[nodes] = np.arange(nodes.shape[0], dtype=np.int64)
    local_rows = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), counts)[keep]
    row_offsets = np.zeros(nodes.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(local_rows, minlength=nodes.shape[0]), out=row_offsets[1:])
    return nodes, row_offsets, local[cols[keep]], arc_idx[keep]


@st.composite
def graphs_and_any_node_ids(draw):
    """A small graph (loops and isolated nodes included) and a node ID
    list that may be empty or repeat IDs, as a list or an array."""
    g = draw(small_graphs())
    ids = draw(st.lists(st.integers(0, g.num_nodes - 1), max_size=2 * g.num_nodes + 2))
    return g, (np.array(ids, dtype=np.int64) if draw(st.booleans()) else ids)


class TestInducedSubgraphMatchesTwoPass:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=graphs_and_any_node_ids())
    def test_generated_inputs(self, case):
        g, ids = case
        sub = induced_subgraph(g, ids)
        for got, want in zip((sub.nodes, sub.row_offsets, sub.col_indices, sub.arc_origin), two_pass_induce(g, ids)):
            assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_leading_rows_without_arcs(self):
        # isolated and unselected-neighbour rows first, so the first row
        # boundaries sit at candidate 0
        g = build_graph([(3, 4), (4, 4), (2, 5)], 7)
        for ids in ([0, 1, 3, 4], [0, 2, 4], [6], [0, 1, 6, 3]):
            sub = induced_subgraph(g, ids)
            for got, want in zip((sub.nodes, sub.row_offsets, sub.col_indices, sub.arc_origin), two_pass_induce(g, ids)):
                assert got.tobytes() == want.tobytes()


class TestReverseArcs:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs())
    def test_maps_each_arc_to_its_reverse(self, g):
        rev = reverse_arcs(g)
        rows = arc_source_nodes(g)
        assert rev.dtype == np.int32 and not rev.flags.writeable
        assert rows[rev].tolist() == g.col_indices.tolist()
        assert g.col_indices[rev].tolist() == rows.tolist()
        assert rev[rev].tolist() == list(range(g.num_arcs))

    def test_one_table_per_frozen_graph(self, square_chord):
        first = reverse_arcs(square_chord)
        assert reverse_arcs(square_chord) is first

    def test_writable_copy_rebuilds_the_table(self, square_chord):
        g = fresh_copy(square_chord)  # a new graph of writable copies, frozen as it is built
        first = reverse_arcs(g)
        assert reverse_arcs(g) is first and first is not reverse_arcs(square_chord)
        assert first.tolist() == reverse_arcs(square_chord).tolist()
