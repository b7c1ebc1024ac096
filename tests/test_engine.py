"""GCN engine: forwards, exact gradients, Adam, F1, training loop."""

import dataclasses
import math
import re

import numpy as np
import pytest

from subgcn import (
    Model,
    SamplerConfig,
    TrainConfig,
    adam_step,
    build_graph,
    f1_micro,
    forward_full,
    forward_subgraph,
    induced_subgraph,
    init_model,
    loss_and_grad,
    make_rng,
    train,
)
from subgcn.engine import (
    AdamState,
    build_batch,
    graph_adjacency,
)
from subgcn.graph import arc_source_nodes
from subgcn.normalization import estimate_coeffs
from subgcn.samplers import budget_probabilities, edge_weights

from conftest import analytic_coeffs_edge, er_graph, fresh_copy, random_graph, random_pairs_graph


def full_coeffs(g):
    """The exact coefficients of the ``full`` sampler: every alpha and lambda is 1."""
    return estimate_coeffs(g, SamplerConfig(kind="full"))[0]


def full_batch(g, features, labels, lam=None, train_mask=None):
    """Batch covering the whole graph with alpha == 1."""
    sub = induced_subgraph(g, np.arange(g.num_nodes))
    split = np.zeros(g.num_nodes, dtype=np.int64)
    batch = build_batch(g, sub, features, labels, split, full_coeffs(g))
    if lam is not None:
        batch.lam = lam
    if train_mask is not None:
        batch.train_mask = train_mask
    return batch


def finite_difference_grads(model, batch, eps=1e-5, dropout=0.0):
    """Central differences of the loss; with ``dropout`` every forward
    draws the same masks from a freshly seeded RNG."""

    def loss():
        rng = make_rng(0, 0) if dropout > 0.0 else None
        s, c = forward_subgraph(model, batch, dropout=dropout, rng=rng)
        return loss_and_grad(model, batch, s, c)[0]

    fd = [np.zeros_like(w) for w in model.weights]
    for l, w in enumerate(model.weights):
        for idx in np.ndindex(*w.shape):
            w[idx] += eps
            lp = loss()
            w[idx] -= 2 * eps
            lm = loss()
            w[idx] += eps
            fd[l][idx] = (lp - lm) / (2 * eps)
    return fd


class TestForward:
    def test_zero_weights_give_zero_scores(self, triangle):
        feats = np.random.default_rng(0).standard_normal((3, 4))
        model = Model(weights=[np.zeros((4, 5)), np.zeros((5, 2))], head="softmax")
        batch = full_batch(triangle, feats, np.zeros(3, dtype=np.int64))
        scores, _ = forward_subgraph(model, batch)
        assert np.all(scores == 0.0)

    def test_isolated_node_aggregates_to_zero(self):
        g = build_graph([(1, 2)], 3)  # node 0 isolated
        feats = np.array([[7.0], [1.0], [2.0]])
        model = Model(weights=[np.array([[1.0]])], head="softmax")
        scores = forward_full(model, g, feats)
        assert scores[0, 0] == 0.0  # empty neighbor sum, not the raw feature

    def test_two_node_copy(self, single_edge):
        model = Model(weights=[np.array([[1.0]])], head="softmax")
        feats = np.array([[3.0], [5.0]])
        scores = forward_full(model, single_edge, feats)
        assert scores[0, 0] == 5.0
        assert scores[1, 0] == 3.0

    def test_triangle_is_mean_of_other_two(self, triangle):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((3, 2))
        w = rng.standard_normal((2, 3))
        model = Model(weights=[w], head="softmax")
        scores = forward_full(model, triangle, feats)
        for v in range(3):
            others = [u for u in range(3) if u != v]
            want = feats[others].mean(axis=0) @ w
            assert np.allclose(scores[v], want, atol=1e-14)

    def test_subgraph_on_full_graph_matches_forward_full_bitwise(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, max_nodes=40)
        feats = rng.standard_normal((g.num_nodes, 6))
        model = init_model((6, 8, 3), "softmax", make_rng(0, 0))
        batch = full_batch(g, feats, np.zeros(g.num_nodes, dtype=np.int64))
        sub_scores, _ = forward_subgraph(model, batch)
        assert np.array_equal(sub_scores, forward_full(model, g, feats))

    def test_deterministic_replay(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, max_nodes=30)
        feats = rng.standard_normal((g.num_nodes, 4))
        model = init_model((4, 5, 2), "sigmoid", make_rng(1, 0))
        a = forward_full(model, g, feats)
        b = forward_full(model, g, feats)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self, triangle):
        model = Model(weights=[np.zeros((5, 2))], head="softmax")
        batch = full_batch(triangle, np.zeros((3, 4)), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            forward_subgraph(model, batch)

    def test_model_rejects_float32_weights(self):
        w = np.zeros((4, 2))
        with pytest.raises(ValueError, match="layer 1: weights must be float64"):
            Model(weights=[np.zeros((3, 4)), w.astype(np.float32)], head="softmax")

    def test_dropout_zeroes_and_rescales(self, triangle):
        feats = np.ones((3, 50))
        model = Model(weights=[np.eye(50)], head="sigmoid")
        batch = full_batch(triangle, feats, np.zeros((3, 50), dtype=np.int64))
        scores, _ = forward_subgraph(model, batch, dropout=0.4, rng=make_rng(0, 0))
        vals = np.unique(np.round(scores, 12))
        # inputs are 0 or 1/(1-p); aggregated means lie between
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0 / 0.6 + 1e-12
        assert not np.allclose(scores, forward_full(model, triangle, feats))


def old_order_loss_grads(model, adj, feats, labels, dropout, rng):
    """Reference forward and backward with every layer as ``(A @ X) @ W``:
    the order before layers did their sparse product on the narrower
    side. Softmax head, every node in the loss with lambda = 1."""
    x, caches, last = feats, [], model.num_layers - 1
    for l, w in enumerate(model.weights):
        mask = (rng.random(x.shape) >= dropout) / (1.0 - dropout)
        agg = adj @ (x * mask)
        x = agg @ w
        if l < last:
            x = np.maximum(x, 0.0)
        caches.append((mask, agg, x))
    shift = x - x.max(axis=1, keepdims=True)
    probs = np.exp(shift) / np.exp(shift).sum(axis=1, keepdims=True)
    dout = probs
    dout[np.arange(len(labels)), labels] -= 1.0
    grads = [None] * model.num_layers
    for l in range(last, -1, -1):
        mask, agg, out = caches[l]
        dz = dout if l == last else dout * (out > 0.0)
        grads[l] = agg.T @ dz
        dout = (adj.T @ (dz @ model.weights[l].T)) * mask
    return x, grads


class TestFullGraphForward:
    """``forward_full`` against an explicit per-layer loop, and the
    working memory of an inference pass."""

    @pytest.mark.parametrize("dims", [(6, 3), (6, 8, 3), (6, 8, 8, 3)])
    def test_matches_explicit_layer_loop_bitwise(self, dims):
        g = random_pairs_graph(60, 180, seed=len(dims))
        feats = np.random.default_rng(4).standard_normal((g.num_nodes, 6))
        model = init_model(dims, "softmax", make_rng(2, 0))
        adj = graph_adjacency(g)
        x = feats
        for l, w in enumerate(model.weights):
            # the sparse product runs on the narrower side of w
            z = adj @ (x @ w) if w.shape[1] < w.shape[0] else (adj @ x) @ w
            x = np.maximum(z, 0.0) if l < model.num_layers - 1 else z
        assert forward_full(model, g, feats).tobytes() == x.tobytes()

    def test_product_order_matches_old_order_to_rounding(self):
        # 16-64-64-4 flips the last layer: scores and the gradients of a
        # dropout batch agree with the all-(A @ X) @ W order to 1e-12
        import tracemalloc

        n = 5000
        g = random_pairs_graph(n, 4 * n, seed=1)
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((n, 16))
        labels = rng.integers(0, 4, n)
        model = init_model((16, 64, 64, 4), "softmax", make_rng(3, 0))

        tracemalloc.start()
        try:
            got = forward_full(model, g, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * 64 * 8  # each layer's input is freed before its dense product
        want, _ = old_order_loss_grads(model, graph_adjacency(g), feats, labels, 0.0, rng)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

        sub = induced_subgraph(g, np.sort(rng.choice(n, 700, replace=False)))
        batch = build_batch(g, sub, feats, labels, np.zeros(n, dtype=np.int64), full_coeffs(g))
        scores, caches = forward_subgraph(model, batch, dropout=0.3, rng=make_rng(0, 0))
        _, grads = loss_and_grad(model, batch, scores, caches)
        _, want_grads = old_order_loss_grads(
            model, batch.adjacency, batch.features, batch.labels, 0.3, make_rng(0, 0)
        )
        for a, b in zip(grads, want_grads):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    def test_inference_peak_memory_below_four_activations(self):
        import tracemalloc

        n = 5000
        g = random_pairs_graph(n, 4 * n, seed=0)
        feats = np.random.default_rng(0).standard_normal((n, 16))
        model = init_model((16, 64, 64, 4), "softmax", make_rng(0, 0))
        tracemalloc.start()
        try:
            forward_full(model, g, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * 64 * 8


class TestLossAndGrad:
    def test_perfect_one_hot_prediction_loss_vanishes(self, single_edge):
        model = Model(weights=[np.eye(2) * 20.0], head="softmax")
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.zeros(2, dtype=np.int64)
        batch = full_batch(single_edge, feats, labels, train_mask=np.array([True, False]))
        scores, caches = forward_subgraph(model, batch)
        loss, _ = loss_and_grad(model, batch, scores, caches)
        assert loss < 1e-8

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    def test_gradients_match_finite_differences(self, layers, head):
        rng = np.random.default_rng(layers * 17 + (head == "sigmoid"))
        g = random_graph(rng, max_nodes=15)
        n, f, c = g.num_nodes, 3, 2
        feats = rng.standard_normal((n, f))
        labels = (
            rng.integers(0, c, n) if head == "softmax" else rng.integers(0, 2, (n, c))
        )
        lam = rng.uniform(0.5, 2.0, n)
        batch = full_batch(g, feats, labels, lam=lam)
        dims = (f,) + (4,) * (layers - 1) + (c,)
        model = init_model(dims, head, make_rng(layers, 1))
        scores, caches = forward_subgraph(model, batch)
        _, grads = loss_and_grad(model, batch, scores, caches)
        fd = finite_difference_grads(model, batch)
        for a, b in zip(grads, fd):
            scale = max(np.abs(b).max(), 1e-12)
            assert np.abs(a - b).max() / scale < 1e-4

    def test_flipped_hidden_layer_gradients_match_finite_differences(self):
        # 3-8-5-2 flips a hidden layer (8 -> 5) and the last one, so the
        # backward through a cached dropped-out input runs with its
        # dropout mask and ReLU
        rng = np.random.default_rng(23)
        g = random_graph(rng, max_nodes=15)
        feats = rng.standard_normal((g.num_nodes, 3))
        labels = rng.integers(0, 2, g.num_nodes)
        batch = full_batch(g, feats, labels, lam=rng.uniform(0.5, 2.0, g.num_nodes))
        model = init_model((3, 8, 5, 2), "softmax", make_rng(4, 1))
        scores, caches = forward_subgraph(model, batch, dropout=0.3, rng=make_rng(0, 0))
        _, grads = loss_and_grad(model, batch, scores, caches)
        fd = finite_difference_grads(model, batch, dropout=0.3)
        for a, b in zip(grads, fd):
            assert np.abs(a - b).max() / np.abs(b).max() < 1e-6

    def test_doubling_lambda_halves_loss_and_grads(self, triangle):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((3, 4))
        labels = np.array([0, 1, 0])
        model = init_model((4, 2), "softmax", make_rng(2, 0))
        b1 = full_batch(triangle, feats, labels, lam=np.ones(3))
        b2 = full_batch(triangle, feats, labels, lam=2.0 * np.ones(3))
        s1, c1 = forward_subgraph(model, b1)
        s2, c2 = forward_subgraph(model, b2)
        l1, g1 = loss_and_grad(model, b1, s1, c1)
        l2, g2 = loss_and_grad(model, b2, s2, c2)
        assert l2 == pytest.approx(l1 / 2.0, rel=1e-15)
        for a, b in zip(g1, g2):
            assert np.allclose(b, a / 2.0, rtol=1e-15)

    @pytest.mark.parametrize("nodes", [[0, 1, 2], []], ids=["no training node", "empty subgraph"])
    def test_batch_without_contributing_node_is_the_empty_sum(self, triangle, nodes):
        feats = np.random.default_rng(9).standard_normal((3, 2))
        labels = np.array([0, 1, 0])
        split = np.array([1, 2, 1]) if nodes else np.zeros(3, dtype=np.int64)
        sub = induced_subgraph(triangle, nodes)
        batch = build_batch(triangle, sub, feats, labels, split, full_coeffs(triangle))
        model = init_model((2, 3, 2), "softmax", make_rng(0, 0))
        scores, caches = forward_subgraph(model, batch, dropout=0.5, rng=make_rng(0, 1))
        loss, grads = loss_and_grad(model, batch, scores, caches)
        assert loss == 0.0
        assert [g.shape for g in grads] == [w.shape for w in model.weights]
        assert all(not g.any() for g in grads)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        model = Model(weights=[np.full((2, 2), 3.0)], head="softmax")
        state = AdamState.zeros_like(model)
        adam_step(model, [np.zeros((2, 2))], state, lr=0.1)
        assert np.array_equal(model.weights[0], np.full((2, 2), 3.0))

    def test_first_step_direction(self):
        g = np.array([[2.0, -0.5], [0.0, 1e-3]])
        model = Model(weights=[np.zeros((2, 2))], head="softmax")
        state = AdamState.zeros_like(model)
        adam_step(model, [g.copy()], state, lr=0.1)
        want = -0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(model.weights[0], want, atol=1e-12)

    def test_two_step_scalar_hand_trace(self):
        # independent scalar re-implementation of bias-corrected Adam
        lr, b1, b2, eps, grad = 0.1, 0.9, 0.999, 1e-8, 0.5
        w, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in (1, 2):
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            trace.append(w)

        model = Model(weights=[np.array([[1.0]])], head="softmax")
        state = AdamState.zeros_like(model)
        got = []
        for _ in range(2):
            adam_step(model, [np.array([[grad]])], state, lr=lr)
            got.append(float(model.weights[0][0, 0]))
        assert got == pytest.approx(trace, rel=1e-15)


class TestF1Micro:
    def test_perfect_single(self):
        scores = np.array([[0.1, 2.0], [3.0, -1.0]])
        assert f1_micro(scores, np.array([1, 0])) == 1.0

    def test_all_wrong_single(self):
        scores = np.array([[0.1, 2.0], [3.0, -1.0]])
        assert f1_micro(scores, np.array([0, 1])) == 0.0

    def test_multi_label_hand_counts(self):
        # 2 nodes x 2 classes: TP=1, FP=1, FN=1 -> 2/(2+1+1) = 0.5
        scores = np.array([[2.0, 1.5], [-1.0, -2.0]])
        labels = np.array([[1, 0], [1, 0]])
        assert f1_micro(scores, labels) == pytest.approx(0.5)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            f1_micro(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_single_label_equals_accuracy(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((50, 4))
        labels = rng.integers(0, 4, 50)
        acc = float(np.mean(scores.argmax(axis=1) == labels))
        assert f1_micro(scores, labels) == acc
        predict_0 = np.tile([[1.0, 0.0]], (80, 1))
        for n in range(1, 81):  # the same bits as the mean for every hit count
            for hits in range(n + 1):
                labels = np.r_[np.zeros(hits, dtype=np.int64), np.ones(n - hits, dtype=np.int64)]
                got = f1_micro(predict_0[:n], labels)
                assert type(got) is float and got == float(np.mean(labels == 0))


def small_dataset(seed=0, n=30):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=n)
    n = g.num_nodes
    feats = rng.standard_normal((n, 4))
    labels = rng.integers(0, 2, n)
    split = rng.integers(0, 3, n)
    split[:3] = (0, 1, 2)  # keep every split populated
    return g, feats, labels, split


class TestTrainLoop:
    def test_full_sampler_reproduces_manual_full_batch_loop(self):
        g, feats, labels, split = small_dataset(seed=10)
        cfg = TrainConfig(hidden_dims=(5,), lr=0.02, epochs=6, seed=3)
        result = train(g, feats, labels, split, SamplerConfig(kind="full"), cfg, num_classes=2)
        logged_losses = [float(line.split()[3]) for line in result.log if line.startswith("iter")]

        # independent full-batch loop: alpha = lambda = 1, sum loss
        model = init_model((4, 5, 2), "softmax", make_rng(3, 0))
        state = AdamState.zeros_like(model)
        batch = full_batch(g, feats, labels, train_mask=split == 0)
        manual = []
        for _ in range(6):
            scores, caches = forward_subgraph(model, batch)
            loss, grads = loss_and_grad(model, batch, scores, caches)
            adam_step(model, grads, state, lr=0.02)
            manual.append(loss)
        assert logged_losses == manual  # bitwise identical trajectories
        assert np.array_equal(result.checkpoint.weights[0], model.weights[0])

    def test_metric_log_reproducible(self):
        g, feats, labels, split = small_dataset(seed=11)
        scfg = SamplerConfig(kind="edge", m=6, seed=4)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=5, batches_per_epoch=2, seed=9, dropout=0.2)
        r1 = train(g, feats, labels, split, scfg, tcfg, num_classes=2)
        r2 = train(g, feats, labels, split, scfg, tcfg, num_classes=2)
        assert r1.log == r2.log
        for a, b in zip(r1.model.weights, r2.model.weights):
            assert np.array_equal(a, b)

    def test_log_format(self):
        g, feats, labels, split = small_dataset(seed=12)
        scfg = SamplerConfig(kind="rw", r=3, h=2, seed=1)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=3, seed=2, eval_every=1)
        result = train(g, feats, labels, split, scfg, tcfg, num_classes=2)
        assert len(result.log) == 4  # 3 evals + test line
        for line in result.log[:-1]:
            toks = line.split()
            assert toks[0] == "iter" and toks[2] == "loss" and toks[4] == "val_f1"
            int(toks[1]), float(toks[3]), float(toks[5])
        assert result.log[-1].startswith("test_f1 ")
        assert result.test_f1 == float(result.log[-1].split()[1])

    def test_keeps_best_validation_model(self):
        g, feats, labels, split = small_dataset(seed=13)
        scfg = SamplerConfig(kind="edge", m=5, seed=0)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=8, seed=5)
        result = train(g, feats, labels, split, scfg, tcfg, num_classes=2)
        vals = [float(line.split()[5]) for line in result.log if line.startswith("iter")]
        assert result.checkpoint.best_val_f1 == max(vals)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        from subgcn.engine import NumericError

        g, feats, labels, split = small_dataset(seed=14)
        feats = np.full_like(feats, np.nan)  # poisoned input data
        scfg = SamplerConfig(kind="full")
        tcfg = TrainConfig(hidden_dims=(4,), lr=10.0, epochs=3, seed=1)
        with pytest.raises(NumericError):
            train(g, feats, labels, split, scfg, tcfg, num_classes=2)

    def test_non_finite_gradient_aborts_naming_layer(self, monkeypatch):
        from subgcn import engine

        real = engine.loss_and_grad

        def poisoned(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            assert np.isfinite(loss)
            grads[1] = np.full_like(grads[1], np.inf)
            return loss, grads

        monkeypatch.setattr(engine, "loss_and_grad", poisoned)
        g, feats, labels, split = small_dataset(seed=14)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=3, seed=1)
        with pytest.raises(engine.NumericError, match=r"gradient in layer 1 at iteration 1 "):
            train(g, feats, labels, split, SamplerConfig(kind="full"), tcfg, num_classes=2)

    def test_sampled_training_beats_feature_only_baseline(self):
        from subgcn import SbmSpec, generate_sbm

        ds = generate_sbm(
            SbmSpec(blocks=2, block_size=150, p_intra=0.06, p_inter=0.006, noise=1.0, seed=21)
        )
        test = ds.split == 2
        baseline = f1_micro(ds.features[test], ds.labels[test])
        result = train(
            ds.graph, ds.features, ds.labels, ds.split,
            SamplerConfig(kind="edge", m=250, seed=2),
            TrainConfig(hidden_dims=(16,), epochs=12, batches_per_epoch=3, seed=4),
            num_classes=2,
        )
        # neighborhood aggregation must add signal beyond the raw features
        assert result.test_f1 >= baseline + 0.1

    def test_training_with_self_loops_end_to_end(self):
        rng = np.random.default_rng(19)
        base = random_graph(rng, max_nodes=25)
        loops = np.repeat(np.arange(base.num_nodes), 2).reshape(-1, 2)
        g = build_graph(np.concatenate([base.edge_endpoints, loops]), base.num_nodes)
        n = g.num_nodes
        feats = rng.standard_normal((n, 3))
        labels = rng.integers(0, 2, n)
        split = rng.integers(0, 3, n)
        split[:3] = (0, 1, 2)
        for kind, kwargs in (
            ("edge", {"m": 6}),
            ("rw", {"r": 3, "h": 2}),
            ("node", {"n": 8}),
        ):
            scfg = SamplerConfig(kind=kind, seed=2, **kwargs)
            tcfg = TrainConfig(hidden_dims=(4,), epochs=3, seed=5, num_norm_subgraphs=5)
            result = train(g, feats, labels, split, scfg, tcfg, num_classes=2)
            assert np.isfinite(result.test_f1)

    def test_multi_label_training_end_to_end(self):
        rng = np.random.default_rng(18)
        g = random_graph(rng, max_nodes=30)
        n = g.num_nodes
        feats = rng.standard_normal((n, 4))
        labels = rng.integers(0, 2, (n, 3))  # three independent classes
        split = rng.integers(0, 3, n)
        split[:3] = (0, 1, 2)
        scfg = SamplerConfig(kind="edge", m=8, seed=1)
        tcfg = TrainConfig(hidden_dims=(5,), epochs=4, seed=4, num_norm_subgraphs=5)
        result = train(g, feats, labels, split, scfg, tcfg)
        assert result.model.head == "sigmoid"
        assert result.model.weights[-1].shape[1] == 3
        assert 0.0 <= result.test_f1 <= 1.0
        assert result.log[-1].startswith("test_f1 ")

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_features_of_any_dtype_train_as_float64(self, dtype):
        g, feats, labels, split = small_dataset(seed=16)
        feats = (4.0 * feats).astype(dtype)
        scfg = SamplerConfig(kind="edge", m=6, seed=2)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=3, seed=3)
        got = train(g, feats, labels, split, scfg, tcfg, num_classes=2)
        want = train(g, feats.astype(np.float64), labels, split, scfg, tcfg, num_classes=2)
        assert got.log == want.log
        for a, b in zip(got.model.weights + got.checkpoint.weights,
                        want.model.weights + want.checkpoint.weights):
            assert a.dtype == np.float64 and np.array_equal(a, b)

    def test_resume_leaves_the_checkpoint_unchanged(self):
        g, feats, labels, split = small_dataset(seed=16)
        scfg = SamplerConfig(kind="edge", m=6, seed=2)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=4, seed=3)
        ckpt = train(g, feats, labels, split, scfg, tcfg, num_classes=2, stop_after_epoch=2).checkpoint
        groups = (ckpt.weights, ckpt.adam_m, ckpt.adam_v, ckpt.best_weights)
        before = [[a.copy() for a in group] for group in groups]
        train(g, feats, labels, split, scfg, tcfg, num_classes=2, resume=ckpt)
        for group, saved in zip(groups, before):
            for a, b in zip(group, saved):
                assert np.array_equal(a, b)

    def test_resume_refuses_other_layer_shapes(self, monkeypatch):
        from subgcn import engine

        g, feats, labels, split = small_dataset(seed=16)
        scfg = SamplerConfig(kind="edge", m=6, seed=2)
        ckpt = train(g, feats, labels, split, scfg, TrainConfig(hidden_dims=(8,), epochs=2, seed=3),
                     num_classes=2, stop_after_epoch=1).checkpoint

        def no_estimate(*args, **kwargs):
            raise AssertionError("coefficients estimated before the checkpoint was checked")

        monkeypatch.setattr(engine, "estimate_coeffs", no_estimate)
        tcfg = TrainConfig(hidden_dims=(32, 16), epochs=2, seed=3)
        with pytest.raises(ValueError, match=re.escape("[(4, 8), (8, 2)] do not match the requested "
                                                       "[(4, 32), (32, 16), (16, 2)]")):
            train(g, feats, labels, split, scfg, tcfg, num_classes=2, resume=ckpt)
        with pytest.raises(ValueError, match=re.escape("[(4, 8), (8, 2)] do not match the requested [(4, 8), (8, 3)]")):
            train(g, feats, labels, split, scfg, dataclasses.replace(tcfg, hidden_dims=(8,)), num_classes=3,
                  resume=ckpt)

    @pytest.mark.parametrize("stop, resume_at", [(0, None), (-1, None), (1, 2)],
                             ids=["zero", "negative", "below resume"])
    def test_stop_after_epoch(self, stop, resume_at):
        g, feats, labels, split = small_dataset(seed=16)
        scfg = SamplerConfig(kind="edge", m=6, seed=2)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=3, seed=3)
        resume = None
        if resume_at is not None:
            resume = train(g, feats, labels, split, scfg, tcfg, num_classes=2,
                           stop_after_epoch=resume_at).checkpoint
        if stop < 0 or resume is not None:
            with pytest.raises(ValueError, match="before the"):
                train(g, feats, labels, split, scfg, tcfg, num_classes=2, resume=resume,
                      stop_after_epoch=stop)
            return
        result = train(g, feats, labels, split, scfg, tcfg, num_classes=2, stop_after_epoch=stop)
        assert result.log == []
        assert (result.checkpoint.epochs_done, result.checkpoint.iteration) == (0, 0)
        fresh = init_model((4, 4, 2), "softmax", make_rng(3, 0))
        for a, b in zip(result.checkpoint.weights, fresh.weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("field, value", [("dropout", 1.0), ("num_norm_subgraphs", 0), ("seed", -1),
                                              ("seed", 1.5), ("seed", True),
                                              ("hidden_dims", (0,)), ("hidden_dims", (-1,)), ("hidden_dims", (4, 2.5)),
                                              ("lr", math.nan), ("lr", math.inf), ("lr", 0.0),
                                              ("epochs", 2.5), ("epochs", 0), ("batches_per_epoch", 0),
                                              ("eval_every", True), ("num_norm_subgraphs", 2.5)])
    def test_config_rejects_out_of_range_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("num_norm_subgraphs, draws", [(None, 6), (4, 6), (10, 10)])
    def test_sampler_draws_per_run(self, monkeypatch, num_norm_subgraphs, draws):
        # exact coefficients draw nothing before training; empirical ones
        # draw N subgraphs that serve as the first N minibatches
        from subgcn import samplers

        calls = []
        real = samplers.sample

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(samplers, "sample", counted)
        g, feats, labels, split = small_dataset(seed=20)
        scfg = SamplerConfig(kind="edge", m=6, seed=3)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=3, batches_per_epoch=2, seed=1,
                           num_norm_subgraphs=num_norm_subgraphs)
        result = train(g, feats, labels, split, scfg, tcfg, num_classes=2)
        assert len(calls) == draws
        assert result.coeffs.source == ("exact" if num_norm_subgraphs is None else "empirical")

    @pytest.mark.parametrize("resumed", [False, True])
    def test_trained_draws_are_released(self, monkeypatch, resumed):
        # empirical draws serve as the first minibatches; once an epoch
        # is over its draws (and those before a resume point) are freed
        import weakref

        from subgcn import engine

        g, feats, labels, split = small_dataset(seed=21)
        scfg = SamplerConfig(kind="rw", r=3, h=2, seed=5)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=4, batches_per_epoch=3, seed=2,
                           num_norm_subgraphs=12)
        resume = None
        if resumed:
            resume = train(g, feats, labels, split, scfg, tcfg, num_classes=2,
                           stop_after_epoch=1).checkpoint

        refs = []
        real_estimate, real_forward = engine.estimate_coeffs, engine.forward_full

        def recording_estimate(*args, **kwargs):
            coeffs, cached = real_estimate(*args, **kwargs)
            refs.extend(weakref.ref(sub) for sub in cached)
            return coeffs, cached

        alive_at_validation = []

        def recording_forward(*args, **kwargs):
            alive_at_validation.append([i for i, r in enumerate(refs) if r() is not None])
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(engine, "estimate_coeffs", recording_estimate)
        monkeypatch.setattr(engine, "forward_full", recording_forward)
        train(g, feats, labels, split, scfg, tcfg, num_classes=2, resume=resume)

        first = 2 if resumed else 1
        assert len(refs) == 12
        for epoch, alive in zip(range(first, 5), alive_at_validation):
            done = 3 * epoch  # draws 0 .. done - 1 have been trained on
            assert all(i >= done - 1 for i in alive)  # at most the last step's draw remains
            assert set(range(done, 12)) <= set(alive)
        assert [r() for r in refs] == [None] * 12

    @pytest.mark.parametrize("kind, budget", [("node", {"n": 2}), ("edge_independent", {"m": 1})],
                             ids=["node n 2", "edge_independent m 1"])
    def test_skips_every_batch_without_a_training_node(self, kind, budget):
        from subgcn import SubgraphProducer

        g, feats, labels, split = small_dataset(seed=22)
        scfg = SamplerConfig(kind=kind, seed=4, **budget)
        tcfg = TrainConfig(hidden_dims=(4,), epochs=16, seed=6, dropout=0.2)
        result = train(g, feats, labels, split, scfg, tcfg, num_classes=2)

        # one batch per epoch: recount the skips from the same stream
        producer = SubgraphProducer(g, scfg)
        skip = [
            not np.any((split[sub.nodes] == 0) & (result.coeffs.lam[sub.nodes] > 0.0))
            for sub in (producer.take() for _ in range(16))
        ]
        assert 0 < sum(skip) < 16
        assert result.skipped_batches == sum(skip)
        assert result.checkpoint.adam_t == 16 - sum(skip)
        losses = [float(line.split()[3]) for line in result.log if line.startswith("iter")]
        assert [np.isnan(loss) for loss in losses] == skip

    def test_loss_invariant_under_node_relabeling(self):
        g, feats, labels, split = small_dataset(seed=15)
        perm = np.random.default_rng(1).permutation(g.num_nodes)
        inv = np.argsort(perm)
        # relabel: node v becomes perm[v]
        edges = np.stack([perm[g.edge_endpoints[:, 0]], perm[g.edge_endpoints[:, 1]]], axis=1)
        g2 = build_graph(edges, g.num_nodes)
        feats2, labels2, split2 = feats[inv], labels[inv], split[inv]

        model = init_model((4, 3, 2), "softmax", make_rng(7, 0))
        b1 = full_batch(g, feats, labels, train_mask=split == 0)
        b2 = full_batch(g2, feats2, labels2, train_mask=split2 == 0)
        s1, c1 = forward_subgraph(model, b1)
        s2, c2 = forward_subgraph(model, b2)
        l1, _ = loss_and_grad(model, b1, s1, c1)
        l2, _ = loss_and_grad(model, b2, s2, c2)
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert np.allclose(s1, s2[perm], atol=1e-12)


class TestEstimatorConsistency:
    def test_expected_minibatch_gradient_direction(self):
        """Mean gradient over 1e5 independent-edge minibatches (analytic
        coefficients, fixed 1-layer model) aligns with the full-batch
        gradient at cosine >= 0.99.

        The per-layer aggregation is exactly unbiased; pushing it
        through the nonlinear loss leaves a residual bias that shrinks
        with edge coverage, so the budget is set high enough (mean
        inclusion ~0.89) for the direction claim.
        """
        n, f, c, m = 30, 5, 3, 80
        g = er_graph(n, 0.2, seed=3)
        assert g.degrees.min() >= 1
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((n, f))
        w = 0.5 * rng.standard_normal((f, c))
        y = rng.integers(0, c, n)
        onehot = np.eye(c)[y]
        coeffs = analytic_coeffs_edge(g, m)
        p_e = budget_probabilities(edge_weights(g).weights, m)
        rows = arc_source_nodes(g)
        vals = g.norm_values / coeffs.alpha
        xw = feats @ w
        ne = g.num_edges

        k_scores = np.zeros((ne, n * c))
        k_agg = np.zeros((ne, n * f))
        for a in range(g.num_arcs):
            e, r, col = g.arc_to_edge[a], rows[a], g.col_indices[a]
            k_scores[e, r * c : (r + 1) * c] += vals[a] * xw[col]
            k_agg[e, r * f : (r + 1) * f] += vals[a] * feats[col]
        incidence = np.zeros((ne, n))
        for e, (u, v) in enumerate(g.edge_endpoints):
            incidence[e, u] = 1.0
            incidence[e, v] = 1.0

        acc = np.zeros((f, c))
        trials, done = 100_000, 0
        mrng = make_rng(5, 0)
        while done < trials:
            k = min(20_000, trials - done)
            masks = mrng.random((k, ne)) < p_e
            scores = (masks @ k_scores).reshape(k, n, c)
            agg = (masks @ k_agg).reshape(k, n, f)
            covered = (masks @ incidence) > 0
            soft = np.exp(scores - scores.max(axis=2, keepdims=True))
            soft /= soft.sum(axis=2, keepdims=True)
            dscores = (soft - onehot) * (covered / coeffs.lam)[:, :, None]
            acc += np.einsum("tvf,tvc->fc", agg, dscores)
            done += k
        grad_mc = acc / trials

        adj = graph_adjacency(g)
        full_scores = adj @ xw
        soft = np.exp(full_scores - full_scores.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        grad_full = (adj @ feats).T @ (soft - onehot)
        cos = float(
            (grad_mc * grad_full).sum()
            / (np.linalg.norm(grad_mc) * np.linalg.norm(grad_full))
        )
        assert cos >= 0.99


class TestGraphAdjacencyMemo:
    """One shared, read-only full-graph adjacency per graph."""

    def test_frozen_graph_shares_one_matrix(self, square_chord):
        first = graph_adjacency(square_chord)
        assert graph_adjacency(square_chord) is first
        assert np.shares_memory(first.data, square_chord.norm_values)  # no copy of the values
        assert first.indices.dtype == first.indptr.dtype == np.int32
        assert first.indices.tolist() == square_chord.col_indices.tolist()
        assert first.indptr.tolist() == square_chord.row_offsets.tolist()

    def test_graph_of_writable_arrays_shares_one_matrix(self, square_chord):
        values = square_chord.norm_values.copy()
        g = dataclasses.replace(square_chord, norm_values=values)
        first = graph_adjacency(g)
        assert graph_adjacency(g) is first
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.25  # frozen when the graph was built, so the matrix cannot go stale
        assert first.data[0] == square_chord.norm_values[0]

    def test_replace_starts_without_the_matrix(self, square_chord):
        first = graph_adjacency(square_chord)
        g = dataclasses.replace(square_chord)
        assert "_adjacency" not in g.__dict__
        assert graph_adjacency(g) is not first

    @pytest.mark.parametrize("field", ["data", "indices", "indptr"])
    def test_shared_matrix_is_read_only(self, square_chord, field):
        adjacency = graph_adjacency(square_chord)
        before = getattr(adjacency, field).copy()
        with pytest.raises(ValueError, match="read-only"):
            getattr(adjacency, field)[0] += 1
        with pytest.raises(ValueError, match="read-only"):
            adjacency *= 2
        assert np.array_equal(getattr(graph_adjacency(square_chord), field), before)

    def test_forward_full_repeats_and_equals_a_writable_copy(self):
        g = random_pairs_graph(50, 150, seed=21)
        feats = np.random.default_rng(21).standard_normal((g.num_nodes, 6))
        model = init_model((6, 8, 3, 3), "softmax", make_rng(21, 0))
        first, second = forward_full(model, g, feats), forward_full(model, g, feats)
        assert second.tobytes() == first.tobytes()
        assert forward_full(model, fresh_copy(g), feats).tobytes() == first.tobytes()


class TestLayer0AggregateMemo:
    """``forward_full`` keeps layer 0's ``A @ features`` on the graph,
    next to the read-only features it came from, and computes it anew
    in every other case."""

    @staticmethod
    def frozen_inputs():
        g = random_pairs_graph(50, 150, seed=22)
        feats = np.random.default_rng(22).standard_normal((g.num_nodes, 6))
        feats.setflags(write=False)
        return g, feats

    @staticmethod
    def fresh(model, g, feats):
        """``forward_full`` on copies, which nothing is kept for: a new
        graph and writable features."""
        return forward_full(model, fresh_copy(g), feats.copy())

    @staticmethod
    def poison(g, feats):
        """Store a zero aggregate for ``feats``: a forward that reads it
        gives zero scores."""
        zeros = np.zeros((g.num_nodes, feats.shape[1]))
        zeros.setflags(write=False)
        g.__dict__["_layer0_aggregate"] = (feats, zeros)

    def test_second_forward_reuses_the_stored_aggregate(self):
        g, feats = self.frozen_inputs()
        model = init_model((6, 8, 3), "softmax", make_rng(22, 0))
        first = forward_full(model, g, feats)
        owner, aggregate = g.__dict__["_layer0_aggregate"]
        assert owner is feats and not aggregate.flags.writeable
        assert aggregate.tobytes() == (graph_adjacency(g) @ feats).tobytes()
        second = forward_full(model, g, feats)
        assert g.__dict__["_layer0_aggregate"][1] is aggregate
        assert second.tobytes() == first.tobytes() == self.fresh(model, g, feats).tobytes()

    def test_the_stored_aggregate_is_what_layer_0_reads(self):
        g, feats = self.frozen_inputs()
        model = init_model((6, 8, 3), "softmax", make_rng(22, 0))
        self.poison(g, feats)
        assert not forward_full(model, g, feats).any()

    def test_writable_features_are_recomputed(self):
        g, feats = self.frozen_inputs()
        model = init_model((6, 8, 3), "softmax", make_rng(22, 0))
        writable = feats.copy()
        self.poison(g, writable)
        got = forward_full(model, g, writable)
        assert got.tobytes() == self.fresh(model, g, feats).tobytes()
        writable[0] += 1.0  # no stale aggregate after an in-place change
        assert forward_full(model, g, writable).tobytes() == self.fresh(model, g, writable).tobytes()

    def test_features_made_writable_after_the_first_call_are_recomputed(self):
        g, feats = self.frozen_inputs()
        model = init_model((6, 8, 3), "softmax", make_rng(22, 0))
        forward_full(model, g, feats)
        feats.setflags(write=True)
        feats[3] -= 2.0
        assert forward_full(model, g, feats).tobytes() == self.fresh(model, g, feats).tobytes()

    def test_another_features_object_gets_its_own_aggregate(self):
        g, feats = self.frozen_inputs()
        model = init_model((6, 8, 3), "softmax", make_rng(22, 0))
        self.poison(g, feats)
        other = feats.copy()
        other.setflags(write=False)
        assert forward_full(model, g, other).tobytes() == self.fresh(model, g, feats).tobytes()
        assert g.__dict__["_layer0_aggregate"][0] is other

    def test_writable_copy_of_the_graph_is_recomputed(self):
        g, feats = self.frozen_inputs()
        model = init_model((6, 8, 3), "softmax", make_rng(22, 0))
        want = forward_full(model, g, feats)
        self.poison(g, feats)
        assert forward_full(model, fresh_copy(g), feats).tobytes() == want.tobytes()

    def test_narrowing_layer_0_does_not_use_the_memo(self):
        g, feats = self.frozen_inputs()
        model = init_model((6, 4, 3), "softmax", make_rng(22, 0))
        forward_full(model, g, feats)
        assert "_layer0_aggregate" not in g.__dict__
        self.poison(g, feats)
        assert forward_full(model, g, feats).tobytes() == self.fresh(model, g, feats).tobytes()


def loops_and_isolated_graph():
    """30 nodes: random pairs among the first 25, a self-loop on every
    third of them, and nodes 25-29 isolated."""
    rng = np.random.default_rng(31)
    pairs = rng.integers(0, 25, size=(70, 2))
    loops = np.repeat(np.arange(0, 25, 3), 2).reshape(-1, 2)
    return build_graph(np.concatenate([pairs, loops]), 30)


def transposed_view_loss_and_grad(model, batch, scores, caches):
    """``loss_and_grad`` as written before batches carried their
    transpose: every ``A^T`` product runs on scipy's transposed view
    ``batch.adjacency.T``. The bitwise reference of the CSR transpose."""
    contributing = batch.train_mask & (batch.lam > 0.0)
    node_w = np.zeros(scores.shape[0])
    node_w[contributing] = 1.0 / batch.lam[contributing]
    shift = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shift).sum(axis=1))
    losses = log_z - shift[np.arange(scores.shape[0]), batch.labels]
    dscores = np.exp(shift - log_z[:, None])
    dscores[np.arange(scores.shape[0]), batch.labels] -= 1.0
    dout = dscores * node_w[:, None]
    grads, last = [None] * model.num_layers, model.num_layers - 1
    for l in range(last, -1, -1):
        w = model.weights[l]
        mask, left, out = caches[l]
        dz = dout if l == last else dout * (out > 0.0)
        flipped = w.shape[1] < w.shape[0]
        if flipped:
            dz = batch.adjacency.T @ dz
        grads[l] = left.T @ dz
        if l > 0:
            dxd = dz @ w.T
            if not flipped:
                dxd = batch.adjacency.T @ dxd
            dout = dxd * mask if mask is not None else dxd
    return float((losses * node_w).sum()), grads


class TestBatchTranspose:
    """A batch's ``adjacency_t`` is the exact transpose of its adjacency,
    on the same int32 index arrays, and the backward through it gives
    the bits of the backward through scipy's transposed view."""

    @pytest.mark.parametrize("coeffs", ["exact", "full"])
    def test_transpose_equals_the_transposed_view(self, coeffs):
        g = loops_and_isolated_graph()
        c = estimate_coeffs(g, SamplerConfig(kind="edge", m=20, seed=0))[0] if coeffs == "exact" else full_coeffs(g)
        rng = np.random.default_rng(4)
        feats, labels, split = np.zeros((30, 2)), np.zeros(30, dtype=np.int64), np.zeros(30, dtype=np.int64)
        for ids in ([], [26], [0, 3], np.arange(30), rng.choice(30, 18), rng.choice(30, 9)):
            batch = build_batch(g, induced_subgraph(g, ids), feats, labels, split, c)
            a, at = batch.adjacency, batch.adjacency_t
            assert at.format == "csr" and at.shape == a.shape
            assert np.array_equal(at.toarray(), a.T.toarray())
            assert np.shares_memory(at.indptr, a.indptr)  # one copy of the index arrays
            assert a.nnz == 0 or np.shares_memory(at.indices, a.indices)
            assert a.indices.dtype == a.indptr.dtype == np.int32
            assert not a.indices.flags.writeable and not a.indptr.flags.writeable
            assert a.indices.tolist() == batch.subgraph.col_indices.tolist()
            assert a.indptr.tolist() == batch.subgraph.row_offsets.tolist()

    @pytest.mark.parametrize(
        "dims",
        [(5, 3), (5, 6), (5, 8, 3), (5, 5, 5), (5, 3, 7, 3), (5, 9, 9, 3), (5, 4, 2, 3)],
        ids=["1-flipped", "1-unflipped", "2-widen", "2-equal", "3-narrow-widen", "3-widen-equal", "3-narrow"],
    )
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_loss_and_grad_bytes_match_the_transposed_view(self, dims, dropout):
        g = loops_and_isolated_graph()
        coeffs = estimate_coeffs(g, SamplerConfig(kind="edge", m=20, seed=0))[0]
        rng = np.random.default_rng(len(dims) * 10 + dims[1])
        feats = rng.standard_normal((30, dims[0]))
        labels = rng.integers(0, dims[-1], 30)
        split = rng.integers(0, 3, 30)
        split[:5] = 0
        ids = np.concatenate([rng.choice(25, 15), [0, 3, 27, 29]])  # loops and isolated nodes
        batch = build_batch(g, induced_subgraph(g, ids), feats, labels, split, coeffs)
        model = init_model(dims, "softmax", make_rng(7, 0))
        scores, caches = forward_subgraph(model, batch, dropout=dropout, rng=make_rng(7, 2))
        loss, grads = loss_and_grad(model, batch, scores, caches)
        want_loss, want_grads = transposed_view_loss_and_grad(model, batch, scores, caches)
        assert loss.hex() == want_loss.hex()
        for got, want in zip(grads, want_grads):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
