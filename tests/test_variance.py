"""Variance analysis: aggregates, optimal probabilities, closed form,
Monte-Carlo agreement, survival probability."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from subgcn import (
    Model,
    SamplerConfig,
    TrainConfig,
    build_graph,
    edge_aggregates,
    init_model,
    make_rng,
    optimal_edge_probs,
    survival_probability,
    train,
    variance,
    variance_closed_form,
    variance_monte_carlo,
)
from subgcn.engine import graph_adjacency
from subgcn.variance import (
    _BLOCK_BYTES,
    EdgeAggregates,
    _Scratch,
    _candidate_slots,
    _draw_size,
    _kept_slots,
    _rate_classes,
    budget_probabilities,
)

from conftest import fresh_copy, random_graph, random_pairs_graph


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
        monkeypatch.setattr(variance, "_BLOCK_BYTES", 8 * 16 * rows)
        assert g.num_edges > 3 * rows and g.num_edges % rows  # several chunks, the last one ragged
        chunked = edge_aggregates(g, feats, model)
        assert chunked.layer_sum.tobytes() == whole.layer_sum.tobytes()
        assert chunked.norms.tobytes() == whole.norms.tobytes()

    def test_peak_memory_is_one_result_plus_scratch(self):
        g, feats, model, bound = large_instance()
        assert traced_peak(lambda: edge_aggregates(g, feats, model)) <= bound

    def test_three_layer_peak_memory_is_one_result_plus_scratch(self):
        # The first call on a graph, so the incidence and the adjacency
        # are built inside it. Besides the result: one _BLOCK_BYTES chunk
        # product, plus 24 bytes per chunk row of the rows' value and
        # column copies; 48 bytes per edge (its norm 8, the incidence 28,
        # the adjacency's int32 columns 8 for two arcs, 4 to spare); and
        # 24 d + 4 bytes per node (the layer input, the old and the new
        # x @ W while one layer's input becomes the next's, and the
        # adjacency's row pointers).
        g, feats, _ = mc_instance(20_000, 70_000, seed=9)
        model = init_model((16, 16, 16, 16), "softmax", make_rng(9, 0))
        dim, step = 16, _BLOCK_BYTES // (8 * 16)
        result = 8 * dim * g.num_edges
        bound = result + _BLOCK_BYTES + 24 * step + 48 * g.num_edges + (24 * dim + 4) * g.num_nodes
        assert traced_peak(lambda: edge_aggregates(g, feats, model)) <= bound

    def test_mixed_output_dims_rejected(self, triangle):
        model = Model(weights=[np.zeros((2, 3)), np.zeros((3, 2))], head="softmax")
        with pytest.raises(ValueError):
            edge_aggregates(triangle, np.zeros((3, 2)), model)


def loops_and_isolated_graph():
    """90 nodes: random pairs over nodes 0-79 with loops kept, a loop on
    every fifth node, and nodes 80-89 isolated."""
    rng = np.random.default_rng(12)
    pairs = np.concatenate([rng.integers(0, 80, size=(240, 2)), np.repeat(np.arange(0, 80, 5), 2).reshape(-1, 2)])
    g = build_graph(pairs, 90)
    loops = g.edge_endpoints[:, 0] == g.edge_endpoints[:, 1]
    assert loops.sum() >= 16 and np.all(g.degrees[80:] == 0)
    return g


class TestEdgeIncidenceProduct:
    """Each layer's edge terms are one product with the edge-incidence
    matrix, bit for bit the per-edge formula."""

    @pytest.mark.parametrize("dims", [(5, 4), (5, 4, 4, 4)])
    def test_matches_explicit_formula_with_loops_and_isolated_nodes(self, dims):
        g = loops_and_isolated_graph()
        feats = np.random.default_rng(13).standard_normal((g.num_nodes, 5))
        model = init_model(dims, "softmax", make_rng(13, 0))
        # The adjacency as built before it was memoized: int64 indices.
        adj = sp.csr_matrix((g.norm_values, g.col_indices, g.row_offsets), shape=(g.num_nodes, g.num_nodes))
        u, v = g.edge_endpoints[:, 0], g.edge_endpoints[:, 1]
        x, want = feats, None
        for w in model.weights:
            xt = x @ w
            term = xt[u] * (1.0 / g.degrees[v])[:, None] + xt[v] * (1.0 / g.degrees[u])[:, None]
            want = term if want is None else want + term
            x = np.maximum(adj @ xt, 0.0)
        agg = edge_aggregates(g, feats, model)
        assert agg.layer_sum.tobytes() == want.tobytes()
        assert agg.norms.tobytes() == np.linalg.norm(want, axis=1).tobytes()

    def test_incidence_rows(self, square_chord):
        # edges (0,1), (1,2), (1,3), (2,3); degrees 1, 3, 2, 2
        incidence = variance._edge_incidence(square_chord)
        assert incidence.shape == (4, 4)
        assert incidence.indptr.tolist() == [0, 2, 4, 6, 8]
        assert incidence.indices.tolist() == [0, 1, 1, 2, 1, 3, 2, 3]
        assert incidence.data.tolist() == [1 / 3, 1.0, 1 / 2, 1 / 3, 1 / 2, 1 / 3, 1 / 2, 1 / 2]
        assert incidence.indices.dtype == incidence.indptr.dtype == np.int32

    def test_self_loop_row_holds_both_entries(self):
        g = build_graph([(0, 0), (0, 1)], 2)  # degrees 2, 1
        incidence = variance._edge_incidence(g)
        assert incidence.indices[:2].tolist() == [0, 0]
        assert incidence.data[:2].tolist() == [0.5, 0.5]
        xt = np.array([[3.0], [5.0]])
        # loop: 3/2 + 3/2; edge (0, 1): 3/deg(1) + 5/deg(0)
        assert (incidence @ xt).ravel().tolist() == [3.0, 3.0 + 2.5]


class TestEdgeIncidenceMemo:
    """One shared, read-only incidence per graph, built by the first
    variance call."""

    def test_frozen_graph_shares_one_incidence(self, square_chord):
        assert "_incidence" not in square_chord.__dict__
        edge_aggregates(square_chord, np.ones((4, 2)), init_model((2, 2), "softmax", make_rng(0, 0)))
        first = square_chord.__dict__["_incidence"][1]
        assert variance._edge_incidence(square_chord) is first
        assert variance._edge_incidence(square_chord) is first

    def test_graph_of_writable_arrays_shares_one_incidence(self, square_chord):
        degrees = square_chord.degrees.copy()
        g = dataclasses.replace(square_chord, degrees=degrees)
        first = variance._edge_incidence(g)
        assert variance._edge_incidence(g) is first
        with pytest.raises(ValueError, match="read-only"):
            degrees[0] = 7  # frozen when the graph was built, so the incidence cannot go stale
        assert first.data.tobytes() == variance._edge_incidence(square_chord).data.tobytes()

    def test_replace_starts_without_the_incidence(self, square_chord):
        first = variance._edge_incidence(square_chord)
        g = dataclasses.replace(square_chord)
        assert "_incidence" not in g.__dict__
        assert variance._edge_incidence(g) is not first

    @pytest.mark.parametrize("field", ["data", "indices", "indptr"])
    def test_shared_incidence_is_read_only(self, square_chord, field):
        incidence = variance._edge_incidence(square_chord)
        before = getattr(incidence, field).copy()
        with pytest.raises(ValueError, match="read-only"):
            getattr(incidence, field)[0] += 1
        assert np.array_equal(getattr(variance._edge_incidence(square_chord), field), before)

    def test_repeated_calls_equal_a_writable_copy(self):
        g = loops_and_isolated_graph()
        feats = np.random.default_rng(14).standard_normal((g.num_nodes, 5))
        model = init_model((5, 4, 4, 4), "softmax", make_rng(14, 0))
        first, second = edge_aggregates(g, feats, model), edge_aggregates(g, feats, model)
        fresh = edge_aggregates(fresh_copy(g), feats, model)
        for agg in (second, fresh):
            assert agg.layer_sum.tobytes() == first.layer_sum.tobytes()
            assert agg.norms.tobytes() == first.norms.tobytes()

    def test_training_builds_no_incidence(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (1, 3)], 4)
        split = np.array([0, 0, 1, 2])
        cfg = SamplerConfig(kind="edge", m=2, seed=1)
        train(g, np.ones((4, 2)), np.array([0, 1, 0, 1]), split, cfg, TrainConfig(hidden_dims=(2,), epochs=2, seed=1),
              num_classes=2)
        assert "_adjacency" in g.__dict__ and "_incidence" not in g.__dict__


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

    def test_peak_memory_on_the_sparse_path_is_bounded(self):
        # The variance-lab shape: optimal probabilities at m = 50 fall in
        # classes r <= 1/8, so every class takes the skip draw.
        g, feats, model = mc_instance(400, 2100, seed=1)
        agg = edge_aggregates(g, feats, model)
        probs = optimal_edge_probs(agg, 50)
        assert max(c.r for c in _rate_classes(probs)) < 0.5
        # The scaled copy, one block's scratch and 64 bytes per edge for
        # the per-edge vectors (probability masks, class members and
        # ratios). Candidate scratch that grows by doubling exceeds it.
        bound = agg.layer_sum.nbytes + _BLOCK_BYTES + 64 * g.num_edges
        run = lambda: variance_monte_carlo(g, feats, model, probs, 20_000, make_rng(0, 1), aggregates=agg)  # noqa: E731
        assert traced_peak(run) <= bound

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


def geometric_slots(r, slots, rng):
    """The candidate slots as drawn with ``rng.geometric`` skips, the
    reference for the estimator's own skips."""
    parts = []
    end = 0
    while True:
        left = (slots - end) * r
        gaps = rng.geometric(r, size=int(left + 4.0 * math.sqrt(left)) + 1)
        np.minimum(gaps, slots + 1, out=gaps)
        np.cumsum(gaps, out=gaps)
        gaps += end - 1
        parts.append(gaps)
        if gaps[-1] >= slots:
            break
        end = int(gaps[-1]) + 1
    pos = np.concatenate(parts)
    return pos[: np.searchsorted(pos, slots)]


def kept_matrix(p, trials, rng):
    """One block's kept (trial, edge) pairs as a trials x |E| 0/1 matrix,
    checking the pairs' order, range and uniqueness on the way."""
    classes = _rate_classes(p)
    scratch = _Scratch(max((_draw_size(trials * c.edges.shape[0] * c.r) for c in classes), default=0))
    kept = np.zeros((trials, p.shape[0]), dtype=bool)
    pairs = 0
    for c in classes:
        trial, col = _kept_slots(c, trials, rng, scratch)
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

    @pytest.mark.parametrize("make", [
        lambda rng: rng.random(5000) ** 4,
        lambda rng: np.resize(TestSparseDraw.P, 300),
        lambda rng: np.concatenate([np.zeros(3), np.ones(2)]),
        lambda rng: np.array([5e-324, 2.0**-70, 0.75, 5e-324]),
    ], ids=["spread", "cycled", "no-class", "tiny"])
    def test_rate_classes_equal_one_compare_per_class(self, make):
        p = make(np.random.default_rng(5))
        edges = np.flatnonzero((p > 0.0) & (p < 1.0)).astype(np.int32)
        mantissa, exponent = np.frexp(p[edges])
        want = [(edges[exponent == x], float(np.ldexp(1.0, x)), mantissa[exponent == x])
                for x in np.unique(exponent)[::-1]]
        got = _rate_classes(p)
        assert len(got) == len(want)
        for c, (e, r, accept) in zip(got, want):
            assert c.r == r
            assert c.edges.dtype == e.dtype and c.edges.tobytes() == e.tobytes()
            assert c.accept.tobytes() == accept.tobytes()

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

    @pytest.mark.parametrize("r", [0.5, 0.25, 2.0**-5, 2.0**-20, 2.0**-70, 2.0**-1073])
    @pytest.mark.parametrize("slots", [1, 3, 1000, 200_000])
    def test_skips_equal_rng_geometric(self, r, slots):
        # Below r = 1/3 the skips invert standard exponentials as numpy's
        # geometric does; the same positions and the same next draw pin
        # that to the installed numpy.
        for seed in range(40 if slots < 1000 else 2):
            want_rng, got_rng = make_rng(24, seed), make_rng(24, seed)
            got = _candidate_slots(r, slots, got_rng, _Scratch(_draw_size(slots * r)))
            assert np.array_equal(got, geometric_slots(r, slots, want_rng))
            assert got_rng.random() == want_rng.random()

    def test_short_first_draw_continues_identically(self):
        # One slot at r = 2^-5 takes one skip, which lands on slot 0 with
        # probability 1/32; the class then draws again, into grown scratch.
        grown = 0
        for seed in range(300):
            want_rng, got_rng = make_rng(25, seed), make_rng(25, seed)
            scratch = _Scratch(_draw_size(2.0**-5))
            got = _candidate_slots(2.0**-5, 1, got_rng, scratch)
            grown += scratch.pos.shape[0] > 1
            assert np.array_equal(got, geometric_slots(2.0**-5, 1, want_rng))
            assert got_rng.random() == want_rng.random()
        assert grown > 0

    # An unguarded E / -log1p(-r) overflows at subnormal r.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tiny", [5e-324, 1e-300, 2.0**-70])
    def test_tiny_probabilities_keep_nothing(self, tiny):
        p = np.array([tiny, 0.3, tiny, tiny])
        trials = 100_000
        kept = kept_matrix(p, trials, make_rng(23, 0))
        assert not kept[:, [0, 2, 3]].any()
        assert abs(kept[:, 1].sum() - 0.3 * trials) <= MC_Z * np.sqrt(trials * 0.21)
        r = _rate_classes(p)[-1].r
        assert r < 2.0**-68 and _candidate_slots(r, trials * 3, make_rng(23, 1), _Scratch(1)).size == 0


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
