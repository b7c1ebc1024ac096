"""Variance analysis: aggregates, optimal probabilities, closed form,
Monte-Carlo agreement, survival probability."""

import numpy as np
import pytest

from subgcn import (
    Model,
    build_graph,
    edge_aggregates,
    init_model,
    make_rng,
    optimal_edge_probs,
    survival_probability,
    variance,
    variance_closed_form,
    variance_monte_carlo,
)
from subgcn.engine import graph_adjacency
from subgcn.variance import (
    _BLOCK_BYTES,
    EdgeAggregates,
    _candidate_slots,
    _kept_slots,
    _rate_classes,
    budget_probabilities,
)

from conftest import random_graph, random_pairs_graph


def synthetic_aggregates(layer_sums: np.ndarray) -> EdgeAggregates:
    layer_sums = np.asarray(layer_sums, dtype=np.float64)
    return EdgeAggregates(layer_sum=layer_sums, norms=np.linalg.norm(layer_sums, axis=1))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while ``fn()`` runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def large_instance():
    """A 1-layer, 16-wide instance whose (|E| x d) aggregates take over
    8 MiB, and the peak its aggregates may cost: the result, plus one
    ``_BLOCK_BYTES`` of chunk scratch, 32 bytes per edge (its norm and
    two adjacency coefficients, 24 bytes) and 16 d bytes per node (the
    layer product x @ W, 8 d bytes)."""
    g, feats, model = mc_instance(20_000, 70_000, seed=9)
    dim = model.weights[-1].shape[1]
    result = 8 * dim * g.num_edges
    assert result >= 8 << 20
    return g, feats, model, result + _BLOCK_BYTES + 32 * g.num_edges + 16 * dim * g.num_nodes


def random_instance(seed, max_edges=20, dim=4):
    """Random small graph + fixed 1-layer model, edge count <= max_edges."""
    s = seed
    while True:
        rng = np.random.default_rng(s)
        n = int(rng.integers(4, 9))
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < 0.5
        if 2 <= mask.sum() <= max_edges:
            g = build_graph(np.stack([iu[mask], iv[mask]], axis=1), n)
            if g.degrees.min() >= 1:
                feats = rng.standard_normal((n, 3))
                model = init_model((3, dim), "softmax", make_rng(s, 7))
                return g, feats, model
        s += 1


class TestEdgeAggregates:
    def test_zero_features_give_zero_aggregates(self, triangle):
        model = init_model((2, 3), "softmax", make_rng(0, 0))
        agg = edge_aggregates(triangle, np.zeros((3, 2)), model)
        assert np.all(agg.layer_sum == 0.0)
        assert np.all(agg.norms == 0.0)

    def test_single_edge_hand_value(self, single_edge):
        model = Model(weights=[np.array([[1.0]])], head="softmax")
        agg = edge_aggregates(single_edge, np.array([[1.0], [2.0]]), model)
        # both adjacency entries are 1: b = 1*2 + 1*1 = 3
        assert agg.layer_sum[0, 0] == pytest.approx(3.0)
        assert agg.norms[0] == pytest.approx(3.0)

    def test_two_layer_sum(self, single_edge):
        # identical 1x1 identity layers: layer-2 input is relu(A x)
        model = Model(weights=[np.array([[1.0]]), np.array([[1.0]])], head="softmax")
        x = np.array([[1.0], [2.0]])
        agg = edge_aggregates(single_edge, x, model)
        # layer 1: 1*2 + 1*1 = 3; layer 2 inputs are (2, 1): 1*1 + 1*2 = 3
        assert agg.layer_sum[0, 0] == pytest.approx(6.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, max_nodes=20)
        feats = rng.standard_normal((g.num_nodes, 3))
        model = init_model((3, 4), "softmax", make_rng(1, 0))
        agg = edge_aggregates(g, feats, model)

        perm = rng.permutation(g.num_nodes)
        edges2 = np.stack([perm[g.edge_endpoints[:, 0]], perm[g.edge_endpoints[:, 1]]], axis=1)
        g2 = build_graph(edges2, g.num_nodes)
        agg2 = edge_aggregates(g2, feats[np.argsort(perm)], model)

        by_pair = {
            (min(int(perm[u]), int(perm[v])), max(int(perm[u]), int(perm[v]))): agg.layer_sum[e]
            for e, (u, v) in enumerate(g.edge_endpoints)
        }
        for e, (u, v) in enumerate(g2.edge_endpoints):
            assert np.allclose(agg2.layer_sum[e], by_pair[(int(u), int(v))], atol=1e-12)

    @pytest.mark.parametrize("dims", [(6, 4), (6, 4, 4), (6, 8, 8, 8)])
    def test_matches_explicit_layer_loop(self, dims):
        # bitwise against layer inputs relu(A @ (X @ W)); to rounding
        # against those of forward_full's order, which forms (A @ X) @ W
        # for a layer that does not narrow
        g = random_pairs_graph(60, 180, seed=len(dims))
        feats = np.random.default_rng(4).standard_normal((g.num_nodes, 6))
        model = init_model(dims, "softmax", make_rng(2, 0))
        adj = graph_adjacency(g)
        u, v = g.edge_endpoints[:, 0], g.edge_endpoints[:, 1]

        def layer_sum(next_input):
            x, terms = feats, []
            for w in model.weights:
                xt = x @ w
                terms.append(xt[u] * (1.0 / g.degrees[v])[:, None] + xt[v] * (1.0 / g.degrees[u])[:, None])
                x = np.maximum(next_input(x, w, xt), 0.0)
            total = terms[0]
            for t in terms[1:]:
                total = total + t
            return total

        agg = edge_aggregates(g, feats, model)
        want = layer_sum(lambda x, w, xt: adj @ xt)
        assert agg.layer_sum.tobytes() == want.tobytes()
        assert agg.norms.tobytes() == np.linalg.norm(want, axis=1).tobytes()
        old = layer_sum(lambda x, w, xt: adj @ xt if w.shape[1] < w.shape[0] else (adj @ x) @ w)
        np.testing.assert_allclose(agg.layer_sum, old, rtol=1e-12, atol=1e-12 * np.abs(old).max())
        np.testing.assert_allclose(agg.norms, np.linalg.norm(old, axis=1), rtol=1e-12)

    @pytest.mark.parametrize("dims", [(16, 16), (16, 16, 16, 16)])
    def test_chunk_boundaries_change_no_bits(self, dims, monkeypatch):
        g = random_pairs_graph(60, 180, seed=5)
        feats = np.random.default_rng(5).standard_normal((g.num_nodes, 16))
        model = init_model(dims, "softmax", make_rng(5, 0))
        whole = edge_aggregates(g, feats, model)
        rows = 7
        monkeypatch.setattr(variance, "_BLOCK_BYTES", 24 * 16 * rows)
        assert g.num_edges > 3 * rows and g.num_edges % rows  # several chunks, the last one ragged
        chunked = edge_aggregates(g, feats, model)
        assert chunked.layer_sum.tobytes() == whole.layer_sum.tobytes()
        assert chunked.norms.tobytes() == whole.norms.tobytes()

    def test_peak_memory_is_one_result_plus_scratch(self):
        g, feats, model, bound = large_instance()
        assert traced_peak(lambda: edge_aggregates(g, feats, model)) <= bound

    def test_mixed_output_dims_rejected(self, triangle):
        model = Model(weights=[np.zeros((2, 3)), np.zeros((3, 2))], head="softmax")
        with pytest.raises(ValueError):
            edge_aggregates(triangle, np.zeros((3, 2)), model)


class TestOptimalProbs:
    def test_equal_norms_give_uniform(self):
        agg = synthetic_aggregates(np.ones((5, 2)))
        assert np.allclose(optimal_edge_probs(agg, 1), 0.2)

    def test_proportional_split(self):
        agg = synthetic_aggregates([[3.0], [1.0]])
        assert np.allclose(optimal_edge_probs(agg, 1), [0.75, 0.25])

    def test_full_budget_saturates(self):
        agg = synthetic_aggregates(np.random.default_rng(0).standard_normal((6, 3)))
        assert np.allclose(optimal_edge_probs(agg, 6), 1.0)

    def test_water_filling_preserves_budget(self):
        p = budget_probabilities(np.array([10.0, 1.0, 1.0]), 2)
        assert np.allclose(p, [1.0, 0.5, 0.5])
        assert p.sum() == pytest.approx(2.0)

    def test_budget_preserved_generally(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.uniform(0.0, 3.0, size=rng.integers(2, 15))
            if not np.any(w > 0):
                continue
            m = int(rng.integers(1, w.shape[0] + 1))
            p = budget_probabilities(w, m)
            assert np.all((p >= 0) & (p <= 1))
            n_pos = int(np.count_nonzero(w))
            assert p.sum() == pytest.approx(min(m, n_pos), rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            optimal_edge_probs(synthetic_aggregates(np.zeros((3, 2))), 1)


class TestClosedForm:
    def test_certain_inclusion_gives_zero_variance(self):
        agg = synthetic_aggregates(np.random.default_rng(1).standard_normal((4, 3)))
        assert variance_closed_form(agg, np.ones(4)) == 0.0

    def test_hand_value_optimal(self):
        agg = synthetic_aggregates([[3.0], [1.0]])
        assert variance_closed_form(agg, np.array([0.75, 0.25])) == pytest.approx(6.0)

    def test_hand_value_uniform_is_worse(self):
        agg = synthetic_aggregates([[3.0], [1.0]])
        assert variance_closed_form(agg, np.array([0.5, 0.5])) == pytest.approx(10.0)

    def test_zero_probability_with_mass_is_infinite(self):
        agg = synthetic_aggregates([[2.0], [1.0]])
        assert variance_closed_form(agg, np.array([0.0, 1.0])) == np.inf

    def test_invalid_probabilities_rejected(self):
        agg = synthetic_aggregates([[1.0]])
        with pytest.raises(ValueError):
            variance_closed_form(agg, np.array([1.5]))

    def test_nan_probability_rejected(self):
        agg = synthetic_aggregates(np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            variance_closed_form(agg, np.array([0.5, np.nan, 0.5]))

    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_probs_rejected(self, length):
        agg = synthetic_aggregates(np.ones((3, 2)))
        with pytest.raises(ValueError, match="probs must have shape"):
            variance_closed_form(agg, np.full(length, 0.5))

    def test_gradient_matches_finite_differences(self):
        """dVar/dp_e = -||B_e||^2 / p_e^2 at interior points."""
        rng = np.random.default_rng(9)
        agg = synthetic_aggregates(rng.standard_normal((6, 3)))
        p = rng.uniform(0.2, 0.9, 6)
        eps = 1e-6
        for e in range(6):
            up, down = p.copy(), p.copy()
            up[e] += eps
            down[e] -= eps
            fd = (variance_closed_form(agg, up) - variance_closed_form(agg, down)) / (2 * eps)
            analytic = -agg.norms[e] ** 2 / p[e] ** 2
            assert fd == pytest.approx(analytic, rel=1e-5)


def mc_with_se(g, feats, model, probs, total_trials=50_000, batches=10, seed=0):
    """Monte-Carlo variance and its standard error via batch means."""
    estimates = [
        variance_monte_carlo(g, feats, model, probs, total_trials // batches, make_rng(seed, b))
        for b in range(batches)
    ]
    est = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1) / np.sqrt(batches))
    return est, se


class TestMonteCarlo:
    def test_certain_inclusion_variance_is_zero(self):
        g, feats, model = random_instance(seed=1)
        mc = variance_monte_carlo(g, feats, model, np.ones(g.num_edges), 500, make_rng(0, 0))
        assert mc == pytest.approx(0.0, abs=1e-18)

    def test_matches_closed_form_within_3_sigma(self):
        for seed in (2, 5, 8):
            g, feats, model = random_instance(seed=seed)
            agg = edge_aggregates(g, feats, model)
            probs = optimal_edge_probs(agg, 3)
            closed = variance_closed_form(agg, probs)
            est, se = mc_with_se(g, feats, model, probs, seed=seed)
            assert abs(est - closed) <= 3 * se

    def test_mean_of_estimator_is_unbiased(self):
        """MC mean of the edge estimator matches the summed full-graph
        aggregation within 1% (per dimension, where not near zero)."""
        g, feats, model = random_instance(seed=4)
        agg = edge_aggregates(g, feats, model)
        probs = optimal_edge_probs(agg, 4)

        # independent target: sum over layers and arcs of value * xt[col],
        # with the layer inputs propagated through a dense adjacency
        from subgcn.graph import arc_source_nodes

        target = np.zeros(agg.layer_sum.shape[1])
        dense = np.zeros((g.num_nodes, g.num_nodes))
        dense[arc_source_nodes(g), g.col_indices] = g.norm_values
        x = feats
        for w in model.weights:
            xt = x @ w
            for a in range(g.num_arcs):
                target += g.norm_values[a] * xt[g.col_indices[a]]
            x = np.maximum(dense @ xt, 0.0)

        trials = 100_000
        rng = make_rng(11, 0)
        scaled = agg.layer_sum / probs[:, None]
        masks = rng.random((trials, g.num_edges)) < probs
        mean = (masks @ scaled).mean(axis=0)
        scale = np.abs(target).max()
        assert np.all(np.abs(mean - target) <= 0.01 * np.maximum(np.abs(target), 0.05 * scale))

    def test_optimal_beats_uniform_on_asymmetric_instance(self):
        g, feats, model = random_instance(seed=12)
        agg = edge_aggregates(g, feats, model)
        m = 3
        p_opt = optimal_edge_probs(agg, m)
        p_uni = np.full(g.num_edges, m / g.num_edges)
        closed_opt = variance_closed_form(agg, p_opt)
        est_uni, se_uni = mc_with_se(g, feats, model, p_uni, seed=3)
        assert closed_opt <= est_uni - 3 * se_uni or closed_opt <= variance_closed_form(agg, p_uni)


def dense_mc_reference(g, feats, model, probs, trials, rng):
    """The estimator with every trial's mask from one dense
    ``rng.random((trials, |E|))`` draw, reduced in a single block."""
    agg = edge_aggregates(g, feats, model)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(probs[:, None] > 0, agg.layer_sum / probs[:, None], 0.0)
    center = agg.layer_sum.sum(axis=0)
    dev = (rng.random((trials, g.num_edges)) < probs) @ scaled - center
    if trials == 1:
        return 0.0
    s1, s2 = dev.sum(axis=0), (dev**2).sum(axis=0)
    return float(((s2 - s1**2 / trials) / (trials - 1)).sum())


def mc_instance(num_nodes, num_edges, seed):
    """A random graph with about ``num_edges`` edges, 16-dim features
    and a 1-layer, 16-wide model."""
    g = random_pairs_graph(num_nodes, num_edges, seed)
    feats = np.random.default_rng(seed).standard_normal((num_nodes, 16))
    return g, feats, init_model((16, 16), "softmax", make_rng(seed, 0))


def blocks_instance():
    """A 60-node graph whose probabilities include 0, 1 and five rate classes."""
    g, feats, model = mc_instance(60, 150, seed=3)
    probs = np.random.default_rng(8).uniform(0.05, 1.0, g.num_edges)
    probs[:5] = 0.0
    probs[5:10] = 1.0
    return g, feats, model, probs


def batch_mean(estimate, reps):
    """Mean of ``estimate(rep)`` over ``reps`` reps and its standard error."""
    values = np.array([estimate(rep) for rep in range(reps)])
    return values.mean(), values.std(ddof=1) / np.sqrt(reps)


MC_Z = 4.0  # fixed z for the statistical Monte-Carlo checks; the seeds are fixed too
BLOCK_GRID = [(1, None), (7, 3), (1000, 1), (1000, 64), (20_000, None)]
# Reps per grid case: about 6k-20k trials each, fewer where tiny blocks are slow.
BLOCK_REPS = {(1, None): 1, (7, 3): 300, (1000, 1): 6, (1000, 64): 20, (20_000, None): 6}


class TestMonteCarloBlocks:
    """The blocked sparse estimator agrees with a dense draw and with the
    closed form, repeats under a fixed seed and needs a bounded amount of
    memory."""

    @pytest.mark.parametrize("trials, chunk", BLOCK_GRID)
    def test_agrees_with_dense_reference(self, trials, chunk):
        g, feats, model, probs = blocks_instance()
        kwargs = {} if chunk is None else {"chunk": chunk}
        agg = edge_aggregates(g, feats, model)

        def sparse(rep):
            return variance_monte_carlo(g, feats, model, probs, trials, make_rng(5, rep), aggregates=agg, **kwargs)

        def dense(rep):
            return dense_mc_reference(g, feats, model, probs, trials, make_rng(6, rep))

        if trials == 1:
            assert sparse(0) == dense(0) == 0.0
            return
        reps = BLOCK_REPS[(trials, chunk)]
        got, got_se = batch_mean(sparse, reps)
        want, want_se = batch_mean(dense, reps)
        assert abs(got - want) <= MC_Z * np.hypot(got_se, want_se)
        # p = 0 edges are never drawn, so the closed form is that of the others
        drawn = probs > 0
        closed = variance_closed_form(synthetic_aggregates(agg.layer_sum[drawn]), probs[drawn])
        assert abs(got - closed) <= MC_Z * got_se

    @pytest.mark.parametrize("trials, chunk", BLOCK_GRID)
    def test_fixed_seed_repeats(self, trials, chunk):
        g, feats, model, probs = blocks_instance()
        kwargs = {} if chunk is None else {"chunk": chunk}
        first, second = (variance_monte_carlo(g, feats, model, probs, trials, make_rng(5, 1), **kwargs) for _ in range(2))
        assert first == second

    def test_given_aggregates_change_nothing(self):
        g, feats, model, probs = blocks_instance()
        given_rng, computed_rng = make_rng(5, 1), make_rng(5, 1)
        agg = edge_aggregates(g, feats, model)
        before = agg.layer_sum.tobytes(), agg.norms.tobytes()
        given = variance_monte_carlo(g, feats, model, probs, 1000, given_rng, 64, aggregates=agg)
        computed = variance_monte_carlo(g, feats, model, probs, 1000, computed_rng, 64)
        assert given == computed
        assert given_rng.random() == computed_rng.random()
        # the caller's aggregates are read, never scaled in place
        assert (agg.layer_sum.tobytes(), agg.norms.tobytes()) == before

    def test_aggregates_of_another_graph_rejected(self):
        g, feats, model, probs = blocks_instance()
        agg = edge_aggregates(g, feats, model)
        wrong = EdgeAggregates(layer_sum=agg.layer_sum[1:], norms=agg.norms[1:])
        with pytest.raises(ValueError, match="aggregates must have"):
            variance_monte_carlo(g, feats, model, probs, 10, make_rng(0, 0), aggregates=wrong)

    def test_peak_memory_is_bounded(self):
        import tracemalloc

        g, feats, model = mc_instance(400, 2100, seed=1)
        assert g.num_edges >= 2000
        probs = np.full(g.num_edges, 0.5)
        tracemalloc.start()
        try:
            variance_monte_carlo(g, feats, model, probs, 20_000, make_rng(0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_peak_memory_is_one_aggregate_plus_scratch(self):
        g, feats, model, bound = large_instance()
        probs = optimal_edge_probs(edge_aggregates(g, feats, model), g.num_edges / 8)
        assert traced_peak(lambda: variance_monte_carlo(g, feats, model, probs, 64, make_rng(0, 1))) <= bound

    def test_zero_chunk_rejected(self):
        g, feats, model = random_instance(seed=1)
        with pytest.raises(ValueError, match="chunk"):
            variance_monte_carlo(g, feats, model, np.ones(g.num_edges), 10, make_rng(0, 0), chunk=0)

    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan], ids=["above 1", "negative", "nan"])
    def test_probability_outside_unit_interval_rejected(self, bad):
        g, feats, model = random_instance(seed=1)
        probs = np.full(g.num_edges, 0.5)
        probs[0] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            variance_monte_carlo(g, feats, model, probs, 10, make_rng(0, 0))

    def test_wrong_length_probs_rejected(self):
        g, feats, model = random_instance(seed=1)
        with pytest.raises(ValueError, match="probs must have shape"):
            variance_monte_carlo(g, feats, model, np.full(g.num_edges + 1, 0.5), 10, make_rng(0, 0))


def kept_matrix(p, trials, rng):
    """One block's kept (trial, edge) pairs as a trials x |E| 0/1 matrix,
    checking the pairs' order, range and uniqueness on the way."""
    classes = _rate_classes(p)
    kept = np.zeros((trials, p.shape[0]), dtype=bool)
    pairs = 0
    for (trial, col), c in zip(_kept_slots(classes, trials, rng), classes):
        assert np.all(np.diff(trial) >= 0)  # trial order, as the CSR rows need
        assert trial.shape == col.shape
        if trial.size:
            assert 0 <= trial.min() and trial.max() < trials
            assert 0 <= col.min() and col.max() < c.edges.shape[0]
        kept[trial, c.edges[col]] = True
        pairs += trial.shape[0]
    assert pairs == kept.sum()  # no slot kept twice
    return kept


class TestSparseDraw:
    """Each trial keeps edge e with probability p_e, independently of the
    other edges and trials."""

    # 0 and 1, class boundaries (0.5, 0.25, 2^-10) and values inside classes
    P = np.array([0.0, 1.0, 0.5, 0.25, 2.0**-10, 0.7, 0.3, 0.45, 0.12, 0.03, 0.004, 0.999, 0.26])

    def test_rate_classes_bracket_each_probability(self):
        classes = _rate_classes(self.P)
        members = np.concatenate([c.edges for c in classes])
        assert sorted(members) == list(np.flatnonzero((self.P > 0) & (self.P < 1)))
        for c in classes:
            p = self.P[c.edges]
            assert np.all((c.r / 2 <= p) & (p < c.r))
            assert np.all(c.accept == p / c.r)
            assert np.all((0.5 <= c.accept) & (c.accept < 1.0))
        r_of = {int(e): c.r for c in classes for e in c.edges}
        assert (r_of[2], r_of[3], r_of[4]) == (1.0, 0.5, 2.0**-9)

    def test_inclusion_frequencies_match_probabilities(self):
        trials = 40_000
        kept = kept_matrix(self.P, trials, make_rng(21, 0))
        assert not kept[:, 0].any() and kept[:, 1].sum() == 0  # p = 1 edges fold into a constant
        inner = (self.P > 0) & (self.P < 1)
        p = self.P[inner]
        z = np.abs(kept[:, inner].sum(axis=0) - trials * p) / np.sqrt(trials * p * (1 - p))
        assert z.max() <= MC_Z

    @pytest.mark.parametrize(
        "u, v, lag",
        [(2, 5, 0), (3, 6, 0), (5, 8, 0), (9, 11, 0), (12, 3, 1), (11, 2, 1)],
        ids=["same class r=1", "adjacent slots r=0.5", "across classes", "small with large",
             "trial end to next trial start r=0.5", "trial end to next trial start r=1"],
    )
    def test_pairs_are_independent(self, u, v, lag):
        trials = 40_000
        kept = kept_matrix(self.P, trials, make_rng(22, 0))
        both = (kept[: trials - lag, u] & kept[lag:, v]).sum()
        q = self.P[u] * self.P[v]
        n = trials - lag
        assert abs(both - n * q) <= MC_Z * np.sqrt(n * q * (1 - q))

    @pytest.mark.parametrize("tiny", [5e-324, 1e-300, 2.0**-70])
    def test_tiny_probabilities_keep_nothing(self, tiny):
        p = np.array([tiny, 0.3, tiny, tiny])
        trials = 100_000
        kept = kept_matrix(p, trials, make_rng(23, 0))
        assert not kept[:, [0, 2, 3]].any()
        assert abs(kept[:, 1].sum() - 0.3 * trials) <= MC_Z * np.sqrt(trials * 0.21)
        r = _rate_classes(p)[-1].r
        assert r < 2.0**-68 and _candidate_slots(r, trials * 3, make_rng(23, 1)).size == 0


class TestOptimality:
    def test_optimal_not_beaten_by_random_feasible_vectors(self):
        rng = np.random.default_rng(19)
        for seed in range(12):
            g, feats, model = random_instance(seed=100 + seed)
            agg = edge_aggregates(g, feats, model)
            m = min(3, g.num_edges)
            p_opt = optimal_edge_probs(agg, m)
            v_opt = variance_closed_form(agg, p_opt)
            for _ in range(100):
                raw = rng.dirichlet(np.ones(g.num_edges))
                p = budget_probabilities(raw, m)
                if np.any((p == 0) & (agg.norms > 0)):
                    continue
                assert v_opt <= variance_closed_form(agg, p) + 1e-9


class TestSurvivalProbability:
    def test_certain_edge_survives(self):
        for d in (1, 3, 10):
            for layers in (1, 2, 5):
                assert survival_probability(1.0, d, layers) == 1.0

    def test_hand_values(self):
        assert survival_probability(0.5, 1, 2) == pytest.approx(0.5)
        assert survival_probability(0.5, 2, 3) == pytest.approx(0.5625)

    def test_single_layer_always_survives(self):
        assert survival_probability(0.2, 3, 1) == 1.0

    def test_monotone_in_p_and_d(self):
        base = survival_probability(0.3, 2, 3)
        assert survival_probability(0.5, 2, 3) > base
        assert survival_probability(0.3, 4, 3) > base

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            survival_probability(1.5, 2, 2)
        with pytest.raises(ValueError):
            survival_probability(0.5, 0, 2)
        with pytest.raises(ValueError):
            survival_probability(0.5, 2, 0)
