"""Normalization coefficients: counters, closed forms, unbiasedness."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgcn import (
    NormCoeffs,
    SamplerConfig,
    build_graph,
    estimate_coeffs,
    make_rng,
)
from subgcn.engine import _arc_values, build_batch
from subgcn.graph import arc_source_nodes, induced_subgraph
from subgcn.samplers import budget_probabilities, draw_plan, edge_weights, node_weights

from conftest import (
    CALLER_KINDS,
    analytic_coeffs_edge,
    assert_read_only,
    caller_array,
    change_kept,
    fresh_copy,
    random_graph,
    random_pairs_graph,
    small_graphs,
)

COEFF_ARRAYS = ("alpha", "lam", "node_counts", "edge_counts")


def star_graph(leaves: int):
    return build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def analytic_reference(g, m):
    """Independent per-edge oracle evaluated with plain python loops:
    p_e proportional to w_e, capped at 1, and water-filled (edges that
    reach the cap take 1 each, and the rest share what is left of m)."""
    w = {tuple(e): 1.0 / g.degrees[e[0]] + 1.0 / g.degrees[e[1]] for e in g.edge_endpoints.tolist()}
    p_e, free, budget = {}, dict(w), m
    while free:
        total = sum(free.values())
        capped = [e for e, we in free.items() if budget * we / total >= 1.0]
        if not capped:
            p_e.update((e, budget * we / total) for e, we in free.items())
            break
        for e in capped:
            p_e[e] = 1.0
            del free[e]
        budget -= len(capped)
    p_v = {}
    for v in range(g.num_nodes):
        miss = 1.0
        for e in p_e:
            if v in e:
                miss *= 1.0 - p_e[e]
        p_v[v] = 1.0 - miss
    return p_e, p_v


class TestEstimateCoeffs:
    def test_full_sampler_gives_unit_coefficients(self, triangle):
        coeffs, subs = estimate_coeffs(triangle, SamplerConfig(kind="full", seed=0), num_subgraphs=10)
        assert len(subs) == 10
        assert np.allclose(coeffs.alpha, 1.0)
        assert np.allclose(coeffs.lam, 1.0)
        assert coeffs.source == "empirical"
        assert coeffs.num_subgraphs == 10

    def test_never_sampled_node_has_zero_lambda(self):
        g = build_graph([(0, 1)], 3)  # node 2 isolated: node sampler never draws it
        coeffs, _ = estimate_coeffs(g, SamplerConfig(kind="node", n=2, seed=1), num_subgraphs=25)
        assert coeffs.lam[2] == 0.0
        assert coeffs.lam[0] > 0.0 and coeffs.lam[1] > 0.0

    def test_saturated_independent_sampler_on_k3(self, triangle):
        cfg = SamplerConfig(kind="edge_independent", m=3, seed=2)
        coeffs, subs = estimate_coeffs(triangle, cfg, num_subgraphs=5)
        # all p_e = 1: every draw is the full graph
        assert all(s.num_nodes == 3 for s in subs)
        assert np.allclose(coeffs.alpha, 1.0)
        assert np.allclose(coeffs.lam, 1.0)

    def test_counters_exact_ratios(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, max_nodes=40)
        cfg = SamplerConfig(kind="rw", r=3, h=2, seed=5)
        coeffs, subs = estimate_coeffs(g, cfg, num_subgraphs=60)
        rows = arc_source_nodes(g)
        ce = coeffs.edge_counts[g.arc_to_edge]
        cv = coeffs.node_counts[rows]
        sampled = ce > 0
        assert np.allclose(coeffs.alpha[sampled], ce[sampled] / cv[sampled])
        assert np.allclose(coeffs.lam, coeffs.node_counts / 60.0)

    def test_edge_appearance_implies_endpoint_appearance(self):
        rng = np.random.default_rng(9)
        for cfg in (
            SamplerConfig(kind="node", n=6, seed=0),
            SamplerConfig(kind="edge", m=4, seed=0),
            SamplerConfig(kind="mrw", n=8, r=2, seed=0),
        ):
            g = random_graph(rng, max_nodes=50)
            coeffs, _ = estimate_coeffs(g, cfg, num_subgraphs=40)
            ce = coeffs.edge_counts[g.arc_to_edge]
            cv = coeffs.node_counts[arc_source_nodes(g)]
            assert np.all(ce <= cv)

    def test_laplace_fallback_for_unsampled_edges(self, path3):
        # node budget 1 never yields an edge, so every alpha is smoothed
        coeffs, _ = estimate_coeffs(path3, SamplerConfig(kind="node", n=1, seed=0), num_subgraphs=30)
        assert np.all(coeffs.edge_counts == 0)
        cv = coeffs.node_counts[arc_source_nodes(path3)]
        assert np.allclose(coeffs.alpha, 1.0 / (cv + 1.0))
        assert np.all(coeffs.alpha > 0.0)

    def test_adaptive_subgraph_count(self):
        g = star_graph(9)  # 10 nodes
        # rw and mrw have no closed form, so they keep the adaptive rule
        cfg = SamplerConfig(kind="mrw", n=5, r=2, seed=4)
        coeffs, subs = estimate_coeffs(g, cfg)
        avg = np.mean([s.num_nodes for s in subs[:10]])
        assert len(subs) == max(10, int(np.ceil(50.0 * 10 / avg)))
        assert coeffs.num_subgraphs == len(subs)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_draw_count_must_be_a_positive_integer(self, triangle, count):
        with pytest.raises(ValueError, match="num_subgraphs"):
            estimate_coeffs(triangle, SamplerConfig(kind="edge", m=1, seed=0), num_subgraphs=count)


@st.composite
def sampler_configs(draw):
    kind = draw(st.sampled_from(["node", "edge", "edge_independent", "rw", "mrw", "full"]))
    budget = st.integers(1, 8)
    if kind == "node":
        fields = {"n": draw(budget)}
    elif kind in ("edge", "edge_independent"):
        fields = {"m": draw(budget)}
    elif kind == "rw":
        fields = {"r": draw(budget), "h": draw(st.integers(1, 3))}
    elif kind == "mrw":
        r = draw(budget)
        fields = {"r": r, "n": r + draw(budget)}
    else:
        fields = {}
    return SamplerConfig(kind=kind, seed=draw(st.integers(0, 2**16)), **fields)


class TestEstimateCoeffsProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs(max_nodes=16, min_pairs=1), cfg=sampler_configs(), n=st.integers(1, 6))
    def test_counts_match_brute_force_over_returned_subgraphs(self, g, cfg, n):
        coeffs, subs = estimate_coeffs(g, cfg, num_subgraphs=n)
        node_counts = np.zeros(g.num_nodes, dtype=np.int64)
        edge_counts = np.zeros(g.num_edges, dtype=np.int64)
        for sub in subs:
            members = set(sub.nodes.tolist())
            node_counts[list(members)] += 1
            for e, (u, v) in enumerate(g.edge_endpoints.tolist()):
                if u in members and v in members:  # self-loops included
                    edge_counts[e] += 1
        assert coeffs.node_counts.tolist() == node_counts.tolist()
        assert coeffs.edge_counts.tolist() == edge_counts.tolist()


def enumerated_probabilities(g, cfg):
    """Exhaustive oracle: p_v and p_e of the induced subgraph, summed over
    every outcome of the sampler with its probability (all |V|^n node
    tuples, all |E|^m edge sequences, all 2^|E| edge subsets)."""
    edges = [tuple(e) for e in g.edge_endpoints.tolist()]
    outcomes = []  # (probability, covered node set)
    if cfg.kind == "node":
        pi = node_weights(g).probabilities()
        for tup in itertools.product(range(g.num_nodes), repeat=cfg.n):
            outcomes.append((float(np.prod(pi[list(tup)])), set(tup)))
    elif cfg.kind == "edge":
        t = edge_weights(g).probabilities()
        for seq in itertools.product(range(g.num_edges), repeat=cfg.m):
            outcomes.append((float(np.prod(t[list(seq)])), {x for e in seq for x in edges[e]}))
    else:
        p = budget_probabilities(edge_weights(g).weights, cfg.m)
        for bits in itertools.product((False, True), repeat=g.num_edges):
            prob = float(np.prod([p[e] if b else 1.0 - p[e] for e, b in enumerate(bits)]))
            outcomes.append((prob, {x for e, b in enumerate(bits) if b for x in edges[e]}))
    p_v = np.zeros(g.num_nodes)
    p_e = np.zeros(g.num_edges)
    for prob, covered in outcomes:
        p_v[list(covered)] += prob
        for e, (u, v) in enumerate(edges):
            if u in covered and v in covered:
                p_e[e] += prob
    return p_v, p_e


def assert_matches_enumeration(g, cfg):
    coeffs, subs = estimate_coeffs(g, cfg)
    assert subs == [] and coeffs.source == "exact" and coeffs.num_subgraphs == 0
    assert not coeffs.node_counts.any() and not coeffs.edge_counts.any()
    # what NormCoeffs checks on construction
    assert np.all(np.isfinite(coeffs.alpha) & (coeffs.alpha > 0.0))
    assert np.all((coeffs.lam >= 0.0) & (coeffs.lam <= 1.0))
    p_v, p_e = enumerated_probabilities(g, cfg)
    np.testing.assert_allclose(coeffs.lam, p_v, rtol=1e-12, atol=0.0)
    p_arc = p_e[g.arc_to_edge]
    rows = arc_source_nodes(g)
    want = np.ones(g.num_arcs)  # arcs no subgraph holds get alpha 1
    held = p_arc > 0.0
    want[held] = p_arc[held] / p_v[rows[held]]
    np.testing.assert_allclose(coeffs.alpha, want, rtol=1e-12, atol=0.0)


def five_nodes():
    """Triangle 0-1-2, chord 2-3, self-loop on 3, isolated node 4."""
    return build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)], 5)


class TestExactCoeffs:
    @pytest.mark.parametrize(
        "kind, budget",
        [("node", 1), ("node", 2), ("node", 3), ("edge", 1), ("edge", 2), ("edge", 3),
         ("edge_independent", 1), ("edge_independent", 3), ("edge_independent", 5)],
    )
    def test_matches_enumeration(self, kind, budget):
        field = "n" if kind == "node" else "m"
        assert_matches_enumeration(five_nodes(), SamplerConfig(kind=kind, **{field: budget}))

    def test_edge_cases_on_five_nodes(self):
        g = five_nodes()
        loop_arc = g.row_offsets[3] + int(np.flatnonzero(g.col_indices[g.row_offsets[3] : g.row_offsets[4]] == 3)[0])
        for cfg in (SamplerConfig(kind="node", n=1), SamplerConfig(kind="edge", m=2),
                    SamplerConfig(kind="edge_independent", m=5)):
            coeffs, _ = estimate_coeffs(g, cfg)
            assert coeffs.lam[4] == 0.0  # isolated
            assert np.all(coeffs.lam[:4] > 0.0)  # every other node can be drawn
            assert coeffs.alpha[loop_arc] == 1.0  # p_vv = p_v
        # one node per draw: no arc but the loop is ever in a batch
        coeffs, _ = estimate_coeffs(g, SamplerConfig(kind="node", n=1))
        assert np.all(coeffs.alpha == 1.0)
        # m = 5 saturates edge (0, 1): both endpoints are always present
        p = budget_probabilities(edge_weights(g).weights, 5)
        assert p[0] == 1.0 and p[1] < 1.0
        coeffs, _ = estimate_coeffs(g, SamplerConfig(kind="edge_independent", m=5))
        assert coeffs.lam[0] == coeffs.lam[1] == 1.0
        assert coeffs.alpha[g.row_offsets[0]] == 1.0

    def test_edge_independent_lambda_reads_the_draw_plan(self):
        # lambda_v = 1 - prod over the edges at v of (1 - p_e), with p_e the
        # rates the draws use; a self-loop counts once
        g = build_graph(np.random.default_rng(12).integers(0, 40, size=(90, 2)), 40)  # loops kept
        cfg = SamplerConfig(kind="edge_independent", m=9)
        p = draw_plan(g, cfg)
        log_keep = np.zeros(g.num_nodes)
        for (u, v), lk in zip(g.edge_endpoints, np.log1p(-p)):
            log_keep[u] += lk
            if v != u:
                log_keep[v] += lk
        coeffs, _ = estimate_coeffs(g, cfg)
        np.testing.assert_allclose(coeffs.lam, -np.expm1(log_keep), rtol=1e-14, atol=0.0)

    def test_full_sampler_is_exactly_one(self):
        g = five_nodes()
        coeffs, subs = estimate_coeffs(g, SamplerConfig(kind="full"))
        assert subs == [] and coeffs.source == "exact"
        assert np.all(coeffs.alpha == 1.0) and np.all(coeffs.lam == 1.0)

    def test_walk_samplers_stay_empirical(self, triangle):
        coeffs, subs = estimate_coeffs(triangle, SamplerConfig(kind="rw", r=1, h=1))
        assert coeffs.source == "empirical" and coeffs.num_subgraphs == len(subs) > 0

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs(max_nodes=5, min_pairs=1), kind=st.sampled_from(["node", "edge", "edge_independent"]),
           budget=st.integers(1, 3))
    def test_matches_enumeration_on_small_graphs(self, g, kind, budget):
        size = {"node": g.num_nodes**budget, "edge": g.num_edges**budget, "edge_independent": 2**g.num_edges}
        if size[kind] > 4096:
            return
        field = "n" if kind == "node" else "m"
        assert_matches_enumeration(g, SamplerConfig(kind=kind, **{field: budget}))

    @pytest.mark.parametrize("kind", ["node", "edge"])
    def test_small_probabilities_keep_full_precision(self, kind):
        # On 20 000 nodes one draw covers a node with probability ~1e-4,
        # where 1 - q_u - q_v + q_uv would lose ~4 digits to cancellation.
        g = random_pairs_graph(20_000, 40_000, seed=5)
        k = 2
        cfg = SamplerConfig(kind=kind, n=k, m=k)
        coeffs, _ = estimate_coeffs(g, cfg)
        rows = arc_source_nodes(g)
        if kind == "node":
            mass = [Fraction(x) for x in node_weights(g).probabilities()]
            both = lambda a: Fraction(0)
        else:
            t = [Fraction(x) for x in edge_weights(g).probabilities()]
            mass = [Fraction(0)] * g.num_nodes
            for e, (u, v) in enumerate(g.edge_endpoints.tolist()):
                mass[u] += t[e]
                mass[v] += t[e]
            both = lambda a: t[g.arc_to_edge[a]]
        for a in np.random.default_rng(0).choice(g.num_arcs, 40, replace=False).tolist():
            u, v = int(rows[a]), int(g.col_indices[a])
            su, sv = mass[u], mass[v]
            p_u = 1 - (1 - su) ** k
            p_uv = p_u - (1 - sv) ** k + (1 - su - sv + both(a)) ** k
            assert abs(Fraction(coeffs.lam[u]) / p_u - 1) < 1e-12
            assert abs(Fraction(coeffs.alpha[a]) / (p_uv / p_u) - 1) < 1e-12

    @pytest.mark.parametrize("kind", ["node", "edge", "edge_independent"])
    def test_matches_induced_counts(self, kind):
        # the counters see node induction; so must the closed form
        g = build_graph([(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9)], 12)
        cfg = SamplerConfig(kind=kind, n=4, m=3, seed=21)
        exact, _ = estimate_coeffs(g, cfg)
        draws = 6_000
        emp, _ = estimate_coeffs(g, cfg, num_subgraphs=draws)
        p_e = np.zeros(g.num_edges)
        p_e[g.arc_to_edge] = exact.alpha * exact.lam[arc_source_nodes(g)]
        for p, count in ((exact.lam, emp.node_counts), (p_e, emp.edge_counts)):
            z = (count / draws - p) / np.sqrt(p * (1.0 - p) / draws)
            assert np.abs(z).max() < 4.5


class TestAnalyticCoeffs:
    def test_single_edge(self, single_edge):
        coeffs = analytic_coeffs_edge(single_edge, 1)
        assert np.allclose(coeffs.alpha, 1.0)
        assert np.allclose(coeffs.lam, 1.0)  # p_v = 1

    def test_square_with_chord_node0(self, square_chord):
        coeffs = analytic_coeffs_edge(square_chord, 1)
        p_e, p_v = analytic_reference(square_chord, 1)
        assert p_v[0] == pytest.approx(1 / 3, abs=1e-12)
        # node 0's only arc is (0, 1): alpha = p_{01} / p_0 = 1
        arc0 = square_chord.row_offsets[0]
        assert square_chord.col_indices[arc0] == 1
        assert coeffs.alpha[arc0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(coeffs.lam, [p_v[v] for v in range(4)])

    def test_saturated_budget_on_regular_graph(self):
        g = build_graph([(i, (i + 1) % 6) for i in range(6)], 6)
        coeffs = analytic_coeffs_edge(g, g.num_edges)
        assert np.allclose(coeffs.alpha, 1.0)
        assert np.allclose(coeffs.lam, 1.0)  # p_v = 1

    def test_matches_loop_oracle_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            g = random_graph(rng, max_nodes=30)
            m = int(rng.integers(1, g.num_edges + 1))
            coeffs = analytic_coeffs_edge(g, m)
            p_e, p_v = analytic_reference(g, m)
            rows = arc_source_nodes(g)
            for a in range(g.num_arcs):
                e = tuple(g.edge_endpoints[g.arc_to_edge[a]])
                assert coeffs.alpha[a] == pytest.approx(p_e[e] / p_v[int(rows[a])], rel=1e-12)
            for v in range(g.num_nodes):
                assert coeffs.lam[v] == pytest.approx(p_v[v], rel=1e-12)


def coeffs_of(g, alpha, lam, source="exact") -> NormCoeffs:
    return NormCoeffs(
        alpha=alpha,
        lam=lam,
        node_counts=np.zeros(g.num_nodes, dtype=np.int64),
        edge_counts=np.zeros(g.num_edges, dtype=np.int64),
        num_subgraphs=0,
        source=source,
    )


def batch_of(g, nodes, coeffs):
    """The training batch of the subgraph induced by ``nodes``."""
    n = g.num_nodes
    sub = induced_subgraph(g, nodes)
    return build_batch(g, sub, np.zeros((n, 1)), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), coeffs)


class TestNormalizedArcValue:
    """The batch adjacency holds norm_values / alpha of each parent arc,
    and its transpose the value of each arc's reverse; NormCoeffs itself
    refuses an alpha that would make it undefined."""

    def test_identity_when_alpha_is_one(self, triangle):
        cfg = SamplerConfig(kind="full", seed=0)
        for c in (estimate_coeffs(triangle, cfg, num_subgraphs=3)[0], estimate_coeffs(triangle, cfg)[0]):
            batch = batch_of(triangle, [0, 1, 2], c)
            assert np.array_equal(batch.adjacency.data, triangle.norm_values[batch.subgraph.arc_origin])

    def test_division(self, triangle):
        alpha = np.full(triangle.num_arcs, 0.5)
        alpha[1] = 0.25
        batch = batch_of(triangle, [0, 1, 2], coeffs_of(triangle, alpha, np.ones(3)))
        assert batch.adjacency.data.tolist() == [1.0, 2.0, 1.0, 1.0, 1.0, 1.0]  # norm_values are all 0.5
        # arc 1 is (0, 2); its reverse (2, 0) is arc 4, the transpose's entry (2, 0)
        assert batch.adjacency_t.data.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 1.0]
        assert batch.adjacency_t.toarray().tolist() == batch.adjacency.toarray().T.tolist()

    def test_transpose_on_a_path_with_unequal_degrees(self, square_chord):
        alpha = np.linspace(0.3, 0.9, square_chord.num_arcs)
        batch = batch_of(square_chord, [0, 1, 3], coeffs_of(square_chord, alpha, np.ones(4)))
        want = np.zeros((3, 3))
        for a, (u, v) in zip(batch.subgraph.arc_origin, [(0, 1), (1, 0), (1, 2), (2, 1)]):
            want[u, v] = square_chord.norm_values[a] / alpha[a]
        assert batch.adjacency.toarray().tolist() == want.tolist()
        assert batch.adjacency_t.toarray().tolist() == want.T.tolist()

    def test_undefined_alpha_signals(self, triangle):
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            alpha = np.full(triangle.num_arcs, 0.5)
            alpha[1] = bad
            with pytest.raises(ValueError, match="arc 1 "):
                coeffs_of(triangle, alpha, np.ones(3))


class TestNormCoeffsChecks:
    @pytest.mark.parametrize("bad", [np.nan, -3.0, 1.5, -np.inf])
    def test_lambda_outside_unit_interval_rejected(self, triangle, bad):
        lam = np.array([0.0, 1.0, 0.5])
        lam[2] = bad
        with pytest.raises(ValueError, match="node 2 has lambda"):
            coeffs_of(triangle, np.ones(triangle.num_arcs), lam)

    def test_first_bad_arc_is_named(self, triangle):
        alpha = np.array([1.0, 1.0, 0.0, np.nan, 1.0, -1.0])
        with pytest.raises(ValueError, match="arc 2 has alpha 0.0"):
            coeffs_of(triangle, alpha, np.ones(3))

    @pytest.mark.parametrize("source", ["analytic", "Exact", ""])
    def test_unknown_source_rejected(self, triangle, source):
        with pytest.raises(ValueError, match="is not 'exact' or 'empirical'"):
            coeffs_of(triangle, np.ones(triangle.num_arcs), np.ones(3), source)

    def test_boundary_values_accepted(self, triangle):
        tiny = np.full(triangle.num_arcs, 5e-324)
        coeffs_of(triangle, tiny, np.array([0.0, 1.0, 0.5]))


class TestNormCoeffsFrozen:
    """NormCoeffs keeps read-only arrays, so its checks hold for its
    lifetime and the batch value tables kept on it cannot go stale."""

    @pytest.mark.parametrize("field", ["alpha", "lam", "node_counts", "edge_counts"])
    def test_writes_raise(self, triangle, field):
        coeffs = estimate_coeffs(triangle, SamplerConfig(kind="edge", m=1, seed=0))[0]
        with pytest.raises(ValueError, match="read-only"):
            getattr(coeffs, field)[0] = 2.0

    def test_owned_array_is_frozen_in_place(self, triangle):
        alpha = np.full(triangle.num_arcs, 0.5)
        coeffs = coeffs_of(triangle, alpha, np.ones(3))
        assert coeffs.alpha.base is alpha and not alpha.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs.alpha[1] = 0.0  # would bypass the check that alpha > 0
        with pytest.raises(ValueError, match="WRITEABLE"):
            coeffs.alpha.setflags(write=True)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs(), field=st.sampled_from(COEFF_ARRAYS), kind=st.sampled_from(CALLER_KINDS),
           seed=st.integers(0, 2**16))
    def test_arrays_are_read_only_and_caller_writes_never_reach_them(self, g, field, kind, seed):
        rng = np.random.default_rng(seed)
        want = dict(alpha=rng.uniform(0.25, 1.0, g.num_arcs), lam=rng.uniform(0.0, 1.0, g.num_nodes),
                    node_counts=rng.integers(0, 9, g.num_nodes), edge_counts=rng.integers(0, 9, g.num_edges))
        arg, kept = caller_array(want[field], kind)
        coeffs = NormCoeffs(**{**want, field: arg}, num_subgraphs=0, source="exact")
        vals = _arc_values(g, coeffs)[0].tobytes()
        for name in COEFF_ARRAYS:
            assert_read_only(getattr(coeffs, name))
        change_kept(kept, kind)
        for name in COEFF_ARRAYS:
            assert getattr(coeffs, name).tobytes() == want[name].tobytes()
        assert _arc_values(g, coeffs)[0].tobytes() == vals == (g.norm_values / want["alpha"]).tobytes()

    def test_view_of_a_writable_array_is_copied(self, triangle):
        base = np.full(2 * triangle.num_arcs, 0.5)
        coeffs = coeffs_of(triangle, base[: triangle.num_arcs], np.ones(3))
        base[0] = -1.0  # the caller still holds the writable base
        assert coeffs.alpha[0] == 0.5 and not coeffs.alpha.flags.writeable
        assert not np.shares_memory(coeffs.alpha, base)

    def test_loaded_coefficients_are_frozen(self, triangle, tmp_path):
        from subgcn.data_io import load_coeffs, save_coeffs

        save_coeffs(tmp_path / "c.bin", triangle, estimate_coeffs(triangle, SamplerConfig(kind="node", n=2, seed=0))[0])
        coeffs = load_coeffs(tmp_path / "c.bin", triangle)
        assert not any(getattr(coeffs, f).flags.writeable for f in ("alpha", "lam", "node_counts", "edge_counts"))


class TestArcValueTables:
    """The per-arc value tables are built once per graph and
    coefficients, and never reused for another graph."""

    def test_one_pair_of_tables_per_frozen_graph(self, square_chord):
        coeffs = estimate_coeffs(square_chord, SamplerConfig(kind="edge", m=2, seed=0))[0]
        vals, vals_t = _arc_values(square_chord, coeffs)
        assert _arc_values(square_chord, coeffs)[0] is vals
        assert vals.tobytes() == (square_chord.norm_values / coeffs.alpha).tobytes()
        rows = arc_source_nodes(square_chord)
        for a in range(square_chord.num_arcs):
            (r,) = np.flatnonzero((rows == square_chord.col_indices[a]) & (square_chord.col_indices == rows[a]))
            assert vals_t[a] == vals[r]
        assert not vals.flags.writeable and not vals_t.flags.writeable

    def test_tables_are_not_reused_for_another_graph(self, triangle):
        path4 = build_graph([(0, 1), (1, 2), (2, 3)], 4)  # 6 arcs, like the triangle
        alpha = np.linspace(0.2, 0.7, 6)
        coeffs = coeffs_of(path4, alpha, np.ones(4))
        for g in (triangle, path4, triangle):
            batch = batch_of(g, [0, 1, 2], coeffs)
            origin = batch.subgraph.arc_origin
            assert batch.adjacency.data.tolist() == (g.norm_values[origin] / alpha[origin]).tolist()

    def test_writable_graph_gets_fresh_tables(self, square_chord):
        coeffs = estimate_coeffs(square_chord, SamplerConfig(kind="edge", m=2, seed=0))[0]
        first = _arc_values(square_chord, coeffs)[0]
        g = fresh_copy(square_chord)  # a new graph of writable copies, frozen as it is built
        fresh = _arc_values(g, coeffs)[0]
        assert fresh is not first and fresh.tobytes() == first.tobytes()
        assert _arc_values(g, coeffs)[0] is fresh
        assert _arc_values(square_chord, coeffs)[0] is not first  # one graph at a time: built again


class TestUnbiasedness:
    """Monte-Carlo checks of the conditional aggregation estimator and
    the loss normalization, against independent dense-math targets.

    Masks are drawn directly (the pre-induction edge set the closed
    form describes); node presence is derived from the masks.
    """

    def _setup(self, seed, n=20, p=0.3, f=4, m=8):
        g = None
        s = seed
        while g is None or g.degrees.min() == 0:
            rng = np.random.default_rng(s)
            iu, iv = np.triu_indices(n, k=1)
            mask = rng.random(iu.shape[0]) < p
            g = build_graph(np.stack([iu[mask], iv[mask]], axis=1), n)
            s += 1
        rng = np.random.default_rng(seed + 1000)
        feats = rng.standard_normal((n, f))
        w = rng.standard_normal((f, f))
        return g, feats, w, m

    def test_conditional_aggregation_matches_full_graph(self):
        g, feats, w, m = self._setup(seed=25)
        coeffs = analytic_coeffs_edge(g, m)
        p_e = budget_probabilities(edge_weights(g).weights, m)
        xt = feats @ w
        rows = arc_source_nodes(g)
        vals = g.norm_values / coeffs.alpha

        # target: independent dense evaluation of the full aggregation
        target = np.zeros((g.num_nodes, xt.shape[1]))
        for a in range(g.num_arcs):
            target[rows[a]] += g.norm_values[a] * xt[g.col_indices[a]]

        trials = 40_000
        rng = make_rng(99, 0)
        masks = rng.random((trials, g.num_edges)) < p_e
        # per-edge contribution matrix K: edge -> flattened (node, dim)
        k = np.zeros((g.num_edges, g.num_nodes * xt.shape[1]))
        for a in range(g.num_arcs):
            e = g.arc_to_edge[a]
            block = vals[a] * xt[g.col_indices[a]]
            k[e, rows[a] * xt.shape[1] : (rows[a] + 1) * xt.shape[1]] += block
        zeta = (masks @ k).reshape(trials, g.num_nodes, xt.shape[1])
        incidence = np.zeros((g.num_edges, g.num_nodes))
        for e, (u, v) in enumerate(g.edge_endpoints):
            incidence[e, u] = 1.0
            incidence[e, v] = 1.0
        covered = (masks @ incidence) > 0

        counts = covered.sum(axis=0)
        assert np.all(counts > 100)
        cond_sum = np.einsum("tvd,tv->vd", zeta, covered.astype(float))
        cond_mean = cond_sum / counts[:, None]
        cond_sq = np.einsum("tvd,tv->vd", zeta**2, covered.astype(float))
        cond_var = cond_sq / counts[:, None] - cond_mean**2
        stderr = np.sqrt(np.maximum(cond_var, 0.0) / counts[:, None])

        diff = np.abs(cond_mean - target)
        rel_ok = diff <= 0.03 * np.abs(target)
        sigma_ok = diff <= 4.0 * stderr
        assert np.all(rel_ok | sigma_ok)

    def test_loss_normalization_is_unbiased(self):
        g, feats, w, m = self._setup(seed=31)
        coeffs = analytic_coeffs_edge(g, m)
        p_e = budget_probabilities(edge_weights(g).weights, m)
        rng = np.random.default_rng(7)
        losses = rng.uniform(0.1, 2.0, size=g.num_nodes)  # fixed per-node losses

        trials = 100_000
        masks = make_rng(41, 0).random((trials, g.num_edges)) < p_e
        incidence = np.zeros((g.num_edges, g.num_nodes))
        for e, (u, v) in enumerate(g.edge_endpoints):
            incidence[e, u] = 1.0
            incidence[e, v] = 1.0
        covered = (masks @ incidence) > 0
        batch_losses = covered @ (losses / coeffs.lam)
        target = losses.sum()
        assert abs(batch_losses.mean() - target) <= 0.02 * target


class TestEmpiricalMatchesAnalytic:
    def test_convergence_on_induction_neutral_graph(self):
        # On a star, induced edges equal the drawn edges, so the
        # pre-induction closed form is exact for the counters too.
        g = star_graph(12)
        m = 4
        cfg = SamplerConfig(kind="edge_independent", m=m, seed=6)
        emp, _ = estimate_coeffs(g, cfg, num_subgraphs=20_000)
        ana = analytic_coeffs_edge(g, m)
        assert np.all(np.abs(emp.alpha / ana.alpha - 1.0) < 0.05)
        assert np.all(np.abs(emp.lam / ana.lam - 1.0) < 0.05)

    def test_induction_inflates_edge_rates_on_a_cycle(self):
        # documented discrepancy: on a cycle the induction step adds
        # edges beyond the drawn ones, so the empirical edge rate
        # exceeds the pre-induction p_e
        g = build_graph([(i, (i + 1) % 12) for i in range(12)], 12)
        m = 3
        p_e = budget_probabilities(edge_weights(g).weights, m)
        cfg = SamplerConfig(kind="edge_independent", m=m, seed=10)
        emp, _ = estimate_coeffs(g, cfg, num_subgraphs=20_000)
        rates = emp.edge_counts / emp.num_subgraphs
        assert np.all(rates > p_e + 0.02)
