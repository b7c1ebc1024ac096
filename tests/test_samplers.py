"""Samplers: distributions, draw frequencies, validity, determinism."""

import numpy as np
import pytest

from subgcn import (
    SamplerConfig,
    SubgraphProducer,
    build_graph,
    draw_plan,
    edge_weights,
    make_rng,
    node_weights,
    sample,
    sample_edge_approx,
    sample_edge_independent,
    sample_mrw,
    sample_node,
    sample_rw,
    samplers,
)
from subgcn.samplers import budget_probabilities

from conftest import brute_force_induce, random_graph, subgraph_arcs_original


def column_walk_node_weights(g) -> np.ndarray:
    """Independent oracle: w_u = sum over arcs (v, u) of (1/deg(v))^2."""
    w = np.zeros(g.num_nodes)
    for v in range(g.num_nodes):
        deg = g.row_offsets[v + 1] - g.row_offsets[v]
        for a in range(g.row_offsets[v], g.row_offsets[v + 1]):
            w[g.col_indices[a]] += (1.0 / deg) ** 2
    return w


def degree_sum_edge_weights(g) -> np.ndarray:
    """Independent oracle: w_e = 1/deg(u) + 1/deg(v) from the edge table."""
    w = np.zeros(g.num_edges)
    for e, (u, v) in enumerate(g.edge_endpoints):
        w[e] = 1.0 / g.degrees[u] + 1.0 / g.degrees[v]
    return w


class TestNodeWeights:
    def test_regular_graph_uniform(self):
        g = build_graph([(i, (i + 1) % 8) for i in range(8)], 8)  # 2-regular cycle
        p = node_weights(g).probabilities()
        assert np.allclose(p, 1.0 / 8, atol=1e-12)

    def test_star_center_dominates(self):
        g = build_graph([(0, 1), (0, 2), (0, 3)], 4)
        p = node_weights(g).probabilities()
        # center column collects 3 * (1/1)^2 = 3; each leaf (1/3)^2
        assert p[0] == pytest.approx(0.9, abs=1e-12)
        assert np.allclose(p[1:], 0.1 / 3, atol=1e-12)

    def test_path_distribution(self, path3):
        p = node_weights(path3).probabilities()
        assert p[1] == pytest.approx(0.8, abs=1e-12)
        assert p[0] == pytest.approx(0.1, abs=1e-12)
        assert p[2] == pytest.approx(0.1, abs=1e-12)

    def test_matches_column_walk_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            g = random_graph(rng, max_nodes=80)
            assert np.allclose(node_weights(g).weights, column_walk_node_weights(g), atol=1e-12)

    def test_all_isolated_rejected(self):
        g = build_graph([], 4)
        with pytest.raises(ValueError):
            node_weights(g)


class TestEdgeWeights:
    def test_regular_graph_uniform(self):
        g = build_graph([(i, (i + 1) % 10) for i in range(10)], 10)
        p = edge_weights(g).probabilities()
        assert np.allclose(p, 0.1, atol=1e-12)

    def test_square_with_chord(self, square_chord):
        ew = edge_weights(square_chord)
        probs = {tuple(e): p for e, p in zip(square_chord.edge_endpoints.tolist(), ew.probabilities())}
        assert probs[(0, 1)] == pytest.approx(1 / 3, abs=1e-12)
        assert probs[(1, 2)] == pytest.approx(5 / 24, abs=1e-12)
        assert probs[(1, 3)] == pytest.approx(5 / 24, abs=1e-12)
        assert probs[(2, 3)] == pytest.approx(1 / 4, abs=1e-12)

    def test_single_edge(self, single_edge):
        assert np.array_equal(edge_weights(single_edge).probabilities(), [1.0])

    def test_matches_degree_sum_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            g = random_graph(rng, max_nodes=80)
            assert np.allclose(edge_weights(g).weights, degree_sum_edge_weights(g), atol=1e-12)

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            edge_weights(build_graph([], 3))


class _TopUniform:
    """Stub generator whose every uniform is the largest double below 1."""

    def random(self, k):
        return np.full(k, 1.0 - 2.0**-53)


class TestCategoricalDraw:
    @staticmethod
    def gapped_graph(num_nodes):
        """300 nodes with random edges, whose weights' pairwise sum
        exceeds their running sum; nodes past 300 are isolated."""
        pairs = np.random.default_rng(6).integers(0, 300, size=(1500, 2))
        return build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes)

    def test_top_uniform_maps_to_last_index(self):
        g = self.gapped_graph(300)
        for dist in (edge_weights(g), node_weights(g)):
            assert dist.total > dist.cumulative[-1]
            assert np.array_equal(dist.draw(_TopUniform(), 2), [len(dist.weights) - 1] * 2)

    def test_top_uniform_skips_trailing_zero_weights(self):
        dist = node_weights(self.gapped_graph(301))
        assert dist.weights[-1] == 0.0 and dist.total > dist.cumulative[-1]
        assert np.array_equal(dist.draw(_TopUniform(), 2), [299, 299])


class TestDrawFrequencies:
    TRIALS = 10_000

    def test_node_draws_match_distribution(self, path3):
        dist = node_weights(path3)
        draws = dist.draw(make_rng(0, 0), self.TRIALS)
        counts = np.bincount(draws, minlength=3)
        for v, p in enumerate(dist.probabilities()):
            sigma = np.sqrt(p * (1 - p) / self.TRIALS)
            assert abs(counts[v] / self.TRIALS - p) <= 3 * sigma + 1e-12

    def test_edge_draws_match_distribution(self, square_chord):
        dist = edge_weights(square_chord)
        draws = dist.draw(make_rng(0, 0), self.TRIALS)
        counts = np.bincount(draws, minlength=square_chord.num_edges)
        for e, p in enumerate(dist.probabilities()):
            sigma = np.sqrt(p * (1 - p) / self.TRIALS)
            assert abs(counts[e] / self.TRIALS - p) <= 3 * sigma

    def test_single_node_draw_frequency_on_path(self, path3):
        dist = node_weights(path3)
        hits = sum(
            sample_node(path3, 1, make_rng(7, i), dist).nodes[0] == 1 for i in range(1000)
        )
        assert abs(hits / 1000 - 0.8) <= 0.05

    def test_independent_inclusion_rates_and_correlation(self, square_chord):
        m = 1
        p = budget_probabilities(edge_weights(square_chord).weights, m)
        rng = make_rng(3, 0)
        masks = np.zeros((self.TRIALS, square_chord.num_edges), dtype=bool)
        for t in range(self.TRIALS):
            masks[t] = sample_edge_independent(square_chord, p, rng)[1]
        rates = masks.mean(axis=0)
        for e in range(square_chord.num_edges):
            sigma = np.sqrt(p[e] * (1 - p[e]) / self.TRIALS)
            assert abs(rates[e] - p[e]) <= 3 * sigma
        corr = np.corrcoef(masks.T.astype(float))
        off_diag = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.05)


class TestNodeSampler:
    def test_complete_graph_budget(self):
        k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
        sub = sample_node(k4, 4, make_rng(0, 0), node_weights(k4))
        assert sub.num_nodes <= 4
        assert subgraph_arcs_original(sub) <= set((u, v) for u in range(4) for v in range(4) if u != v)

    def test_budget_one_gives_single_node(self, triangle):
        sub = sample_node(triangle, 1, make_rng(5, 0), node_weights(triangle))
        assert sub.num_nodes == 1
        assert sub.num_arcs == 0


class TestEdgeSamplers:
    def test_approx_single_edge_graph(self, single_edge):
        sub = sample_edge_approx(single_edge, 3, make_rng(0, 0), edge_weights(single_edge))
        assert np.array_equal(sub.nodes, [0, 1])
        assert sub.num_arcs == 2

    def test_approx_triangle_one_edge(self, triangle):
        sub = sample_edge_approx(triangle, 1, make_rng(2, 0), edge_weights(triangle))
        assert sub.num_nodes == 2
        assert sub.num_arcs == 2

    def test_approx_edge_frequency(self, square_chord):
        trials = 10_000
        draws = edge_weights(square_chord).draw(make_rng(11, 0), trials)
        hits = int(np.sum(draws == 0))  # edge (0,1) is lexicographically first
        assert abs(hits / trials - 1 / 3) <= 0.02

    def test_independent_saturation_returns_full_graph(self):
        g = build_graph([(i, (i + 1) % 6) for i in range(6)], 6)  # regular
        p = budget_probabilities(edge_weights(g).weights, g.num_edges)
        sub, mask = sample_edge_independent(g, p, make_rng(0, 0))
        assert mask.all()
        assert np.array_equal(sub.nodes, np.arange(6))
        assert sub.num_arcs == g.num_arcs

    def test_independent_single_edge_always_selected(self, single_edge):
        p = budget_probabilities(edge_weights(single_edge).weights, 1)
        for i in range(10):
            sub, mask = sample_edge_independent(single_edge, p, make_rng(i, 0))
            assert mask.all()
            assert np.array_equal(sub.nodes, [0, 1])

    def test_independent_empty_draw_gives_empty_subgraph(self, square_chord):
        # with m=1 the inclusion probabilities sum to 1, so all-miss draws exist
        p = budget_probabilities(edge_weights(square_chord).weights, 1)
        seen_empty = False
        for i in range(200):
            sub, mask = sample_edge_independent(square_chord, p, make_rng(i, 0))
            if not mask.any():
                assert sub.num_nodes == 0
                assert sub.num_arcs == 0
                seen_empty = True
                break
        assert seen_empty

    def test_expected_count_bounded_by_budget(self, square_chord):
        for m in (1, 2, 3, 4, 10):
            p = budget_probabilities(edge_weights(square_chord).weights, m)
            assert np.all(p <= 1.0)
            assert p.sum() <= m + 1e-12

    def test_samplers_agree_distributionally_for_small_budgets(self):
        """With m far below the edge count, an edge's chance of
        appearing in a with-replacement draw, 1 - (1 - P_e)^m, matches
        the independent sampler's inclusion probability m * P_e."""
        rng = np.random.default_rng(41)
        g = None
        while g is None or g.num_edges < 80 or g.degrees.min() == 0:
            g = random_graph(rng, max_nodes=60)
        m = 3
        dist = edge_weights(g)
        per_draw = dist.probabilities()
        appear_approx = 1.0 - (1.0 - per_draw) ** m
        p_independent = budget_probabilities(dist.weights, m)
        assert np.all(np.abs(appear_approx / p_independent - 1.0) < 0.02)

        # and the approximate sampler empirically hits its analytic curve
        trials = 10_000
        draws = dist.draw(make_rng(6, 0), trials * m).reshape(trials, m)
        appeared = np.zeros((trials, g.num_edges), dtype=bool)
        np.put_along_axis(appeared, draws, True, axis=1)
        rates = appeared.mean(axis=0)
        sigma = np.sqrt(appear_approx * (1 - appear_approx) / trials)
        assert np.all(np.abs(rates - appear_approx) <= 4.0 * sigma + 1e-12)


class TestRandomWalkSampler:
    def test_single_edge(self, single_edge):
        sub = sample_rw(single_edge, 1, 1, make_rng(0, 0))
        assert np.array_equal(sub.nodes, [0, 1])
        assert sub.num_arcs == 2

    def test_star_walk_from_leaf(self, star6):
        # any walk rooted at a leaf must pass through the center
        for i in range(30):
            sub = sample_rw(star6, 1, 2, make_rng(i, 0))
            if 0 not in sub.nodes:  # root was the center and walked out and back
                continue
            assert sub.num_nodes in (2, 3)

    def test_visits_within_hop_distance(self):
        path10 = build_graph([(i, i + 1) for i in range(9)], 10)
        for i in range(20):
            sub = sample_rw(path10, 1, 3, make_rng(i, 0))
            root = int(make_rng(i, 0).integers(0, 10, size=1)[0])  # replay the root draw
            assert np.all(np.abs(sub.nodes - root) <= 3)  # BFS distance on a path

    def test_budget_bound(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, max_nodes=60)
        sub = sample_rw(g, 4, 3, make_rng(1, 0))
        assert sub.num_nodes <= 4 * (3 + 1)

    def test_isolated_root_terminates(self):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        for i in range(40):
            sub = sample_rw(g, 2, 2, make_rng(i, 0))
            assert sub.num_nodes >= 1  # never raises, partial sample kept


class TestMultiDimRandomWalkSampler:
    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(kind="mrw", n=5, r=5)
        k2 = build_graph([(0, 1)], 2)
        with pytest.raises(ValueError):
            sample_mrw(k2, n=2, r=2, rng=make_rng(0, 0))

    def test_k2_forced_expansion(self):
        k2 = build_graph([(0, 1)], 2)
        sub = sample_mrw(k2, n=2, r=1, rng=make_rng(0, 0))
        assert np.array_equal(sub.nodes, [0, 1])

    def test_k5_complete_induction(self):
        k5 = build_graph([(i, j) for i in range(5) for j in range(i + 1, 5)], 5)
        for i in range(10):
            sub = sample_mrw(k5, n=5, r=2, rng=make_rng(i, 0))
            k = sub.num_nodes
            assert k <= 5
            assert sub.num_arcs == k * (k - 1)

    def test_isolated_frontier_stops_early(self):
        g = build_graph([(0, 1)], 4)  # nodes 2, 3 isolated
        sub = sample_mrw(g, n=4, r=2, rng=make_rng(3, 0))
        assert sub.num_nodes >= 1


ALL_CONFIGS = [
    SamplerConfig(kind="node", n=12, seed=0),
    SamplerConfig(kind="edge", m=9, seed=0),
    SamplerConfig(kind="edge_independent", m=9, seed=0),
    SamplerConfig(kind="rw", r=4, h=3, seed=0),
    SamplerConfig(kind="mrw", n=14, r=4, seed=0),
    SamplerConfig(kind="full", seed=0),
]


class TestSamplerContracts:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.kind)
    def test_output_validity_against_oracle(self, cfg):
        rng = np.random.default_rng(17)
        for _ in range(6):
            g = random_graph(rng, max_nodes=200)
            sub = sample(g, cfg, make_rng(cfg.seed, 0), draw_plan(g, cfg))
            if sub.num_nodes == 0:
                continue
            assert np.all(np.diff(sub.nodes) > 0)  # sorted unique
            got = subgraph_arcs_original(sub)
            _, want = brute_force_induce(g, sub.nodes)
            assert got == want  # node-induced completeness
            # arc_origin points at arcs with matching endpoints
            parent_cols = g.col_indices[sub.arc_origin]
            assert np.array_equal(parent_cols, sub.nodes[sub.col_indices])

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.kind)
    def test_determinism(self, cfg):
        rng = np.random.default_rng(23)
        g = random_graph(rng, max_nodes=100)
        a = sample(g, cfg, make_rng(cfg.seed, 5), draw_plan(g, cfg))
        b = sample(g, cfg, make_rng(cfg.seed, 5), draw_plan(g, cfg))
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert np.array_equal(a.arc_origin, b.arc_origin)

    def test_budget_bounds(self):
        rng = np.random.default_rng(29)
        g = random_graph(rng, max_nodes=150)
        assert sample_node(g, 7, make_rng(0, 1), node_weights(g)).num_nodes <= 7
        assert sample_edge_approx(g, 5, make_rng(0, 2), edge_weights(g)).num_nodes <= 10
        assert sample_mrw(g, 9, 3, make_rng(0, 3)).num_nodes <= 9


class TestSubgraphProducer:
    def test_start_offset_continues_stream(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        cfg = SamplerConfig(kind="node", n=2, seed=9)
        p = SubgraphProducer(g, cfg)
        all_subs = [p.take() for _ in range(10)]
        p = SubgraphProducer(g, cfg, start=5)
        tail = [p.take() for _ in range(5)]
        for a, b in zip(all_subs[5:], tail):
            assert np.array_equal(a.nodes, b.nodes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(kind="bogus")
        with pytest.raises(ValueError):
            SamplerConfig(kind="node")  # missing budget
        with pytest.raises(ValueError):
            SamplerConfig(kind="rw", r=2)  # missing h

    @pytest.mark.parametrize("kwargs, named", [
        ({"kind": "node", "n": 2.5}, "'n'"),
        ({"kind": "node", "n": True}, "'n'"),
        ({"kind": "edge", "m": 3.0}, "'m'"),
        ({"kind": "rw", "r": 2, "h": "2"}, "'h'"),
        ({"kind": "node", "n": 3, "m": 1.5}, "'m'"),  # a budget the kind does not use
        ({"kind": "node", "n": 3, "seed": -1}, "seed"),
        ({"kind": "node", "n": 3, "seed": 1.5}, "seed"),
        ({"kind": "node", "n": 3, "seed": False}, "seed"),
    ])
    def test_config_rejects_non_integer_budget_or_seed(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            SamplerConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        g = build_graph([(0, 1)], 2)
        cfg = SamplerConfig(kind="node", n=np.int64(3), seed=np.uint32(4))
        assert sample(g, cfg, make_rng(cfg.seed, 0), draw_plan(g, cfg)).num_nodes >= 1

    def test_plan_rates_water_filled_once_per_producer(self, monkeypatch):
        g = random_graph(np.random.default_rng(8), max_nodes=40)
        calls = []
        real = samplers.budget_probabilities

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(samplers, "budget_probabilities", counted)
        producer = SubgraphProducer(g, SamplerConfig(kind="edge_independent", m=4, seed=1))
        for _ in range(20):
            producer.take()
        assert len(calls) == 1
