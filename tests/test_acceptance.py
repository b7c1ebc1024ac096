"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a single pass/fail line (visible with ``pytest -s``).
"""

import time

import numpy as np

from subgcn import (
    SamplerConfig,
    SbmSpec,
    TrainConfig,
    build_graph,
    edge_aggregates,
    edge_weights,
    estimate_coeffs,
    forward_full,
    generate_sbm,
    init_model,
    load_dataset,
    make_rng,
    node_weights,
    optimal_edge_probs,
    save_dataset,
    survival_probability,
    train,
    variance_closed_form,
    variance_monte_carlo,
)
from subgcn.data_io import (
    load_checkpoint,
    load_coeffs,
    load_subgraphs,
    save_checkpoint,
    save_coeffs,
    save_subgraphs,
    graph_hash,
)
from subgcn.graph import arc_source_nodes
from conftest import analytic_coeffs_edge, circulant, er_graph
from subgcn.samplers import SubgraphProducer, sample_edge_independent
from subgcn.variance import budget_probabilities


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def er_50_instance():
    """Frozen 50-node ER(p=0.15) instance with no isolated node."""
    g = er_graph(50, 0.15, seed=1)
    assert g.degrees.min() >= 1
    rng = np.random.default_rng(42)
    features = rng.standard_normal((50, 8))
    weights = rng.standard_normal((8, 8))
    return g, features, weights


def incidence_matrix(g):
    inc = np.zeros((g.num_edges, g.num_nodes))
    for e, (u, v) in enumerate(g.edge_endpoints):
        inc[e, u] = 1.0
        inc[e, v] = 1.0
    return inc


class TestCriterion1Unbiasedness:
    def test_conditional_aggregation_matches_full_graph(self):
        start = time.perf_counter()
        g, features, w = er_50_instance()
        m = 20
        coeffs = analytic_coeffs_edge(g, m)
        p_e = budget_probabilities(edge_weights(g).weights, m)
        xt = features @ w
        d = xt.shape[1]
        n = g.num_nodes
        rows = arc_source_nodes(g)
        vals = g.norm_values / coeffs.alpha

        # full-graph aggregation target, evaluated independently
        target = np.zeros((n, d))
        for a in range(g.num_arcs):
            target[rows[a]] += g.norm_values[a] * xt[g.col_indices[a]]

        contrib = np.zeros((g.num_edges, n * d))
        for a in range(g.num_arcs):
            e = g.arc_to_edge[a]
            contrib[e, rows[a] * d : (rows[a] + 1) * d] += vals[a] * xt[g.col_indices[a]]
        inc = incidence_matrix(g)

        trials = 100_000
        rng = make_rng(7, 0)
        s1 = np.zeros((n, d))
        s2 = np.zeros((n, d))
        counts = np.zeros(n)
        done = 0
        while done < trials:
            k = min(10_000, trials - done)
            masks = rng.random((k, g.num_edges)) < p_e
            zeta = (masks @ contrib).reshape(k, n, d)
            covered = (masks @ inc) > 0
            cov = covered.astype(float)
            s1 += np.einsum("tvd,tv->vd", zeta, cov)
            s2 += np.einsum("tvd,tv->vd", zeta**2, cov)
            counts += cov.sum(axis=0)
            done += k

        assert np.all(counts > 1000)
        mean = s1 / counts[:, None]
        var = np.maximum(s2 / counts[:, None] - mean**2, 0.0)
        stderr = np.sqrt(var / counts[:, None])
        diff = np.abs(mean - target)
        ok_entry = (diff <= 0.02 * np.abs(target)) | (diff <= 4.0 * stderr)
        elapsed = time.perf_counter() - start
        worst = float((diff / np.maximum(np.abs(target), 1e-12)).max())
        report(
            "1 unbiasedness",
            bool(np.all(ok_entry)) and elapsed < 60.0,
            f"worst rel {worst:.4f}, {elapsed:.1f}s",
        )


class TestCriterion2LossNormalization:
    def test_minibatch_loss_mean_matches_full_mean(self):
        start = time.perf_counter()
        g, features, _ = er_50_instance()
        m = 20
        coeffs = analytic_coeffs_edge(g, m)
        p_e = budget_probabilities(edge_weights(g).weights, m)

        # fixed random classifier: per-node softmax cross-entropy losses
        rng = np.random.default_rng(3)
        classifier = init_model((8, 4), "softmax", make_rng(3, 0))
        labels = rng.integers(0, 4, g.num_nodes)
        scores = forward_full(classifier, g, features)
        shift = scores - scores.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shift).sum(axis=1))
        losses = log_z - shift[np.arange(g.num_nodes), labels]

        inc = incidence_matrix(g)
        trials = 100_000
        masks = make_rng(8, 0).random((trials, g.num_edges)) < p_e
        covered = (masks @ inc) > 0
        batch_losses = covered @ (losses / coeffs.lam)
        target = losses.sum()
        rel = abs(batch_losses.mean() - target) / target
        elapsed = time.perf_counter() - start
        report("2 loss normalization", rel < 0.02 and elapsed < 60.0, f"rel {rel:.4f}, {elapsed:.1f}s")


class TestCriterion3Optimality:
    @staticmethod
    def _instance(seed):
        s = seed
        while True:
            rng = np.random.default_rng(s)
            n = int(rng.integers(4, 9))
            iu, iv = np.triu_indices(n, k=1)
            mask = rng.random(iu.shape[0]) < 0.5
            if 3 <= mask.sum() <= 20:
                g = build_graph(np.stack([iu[mask], iv[mask]], axis=1), n)
                if g.degrees.min() >= 1:
                    feats = rng.standard_normal((n, 3))
                    model = init_model((3, 4), "softmax", make_rng(s, 1))
                    return g, feats, model
            s += 1

    def test_optimal_probabilities_minimize_variance(self):
        start = time.perf_counter()
        m = 3
        rng = np.random.default_rng(555)
        all_beaten = True
        all_mc_ok = True
        worst_z = 0.0
        for i in range(50):
            g, feats, model = self._instance(seed=1000 + 37 * i)
            agg = edge_aggregates(g, feats, model)
            p_opt = optimal_edge_probs(agg, m)
            v_opt = variance_closed_form(agg, p_opt)

            for _ in range(100):
                raw = rng.dirichlet(np.ones(g.num_edges))
                p = budget_probabilities(raw, m)
                if np.any((p == 0) & (agg.norms > 0)):
                    continue
                if v_opt > variance_closed_form(agg, p) + 1e-9:
                    all_beaten = False

            # Monte-Carlo agreement at 1e5 trials, 3 sigma via batch means
            batches = 10
            ests = [
                variance_monte_carlo(g, feats, model, p_opt, 10_000, make_rng(2000 + i, b))
                for b in range(batches)
            ]
            est = float(np.mean(ests))
            se = float(np.std(ests, ddof=1) / np.sqrt(batches))
            z = abs(est - v_opt) / se if se > 0 else 0.0
            worst_z = max(worst_z, z)
            if z > 3.0:
                all_mc_ok = False
        elapsed = time.perf_counter() - start
        report(
            "3 optimal edge probabilities",
            all_beaten and all_mc_ok and elapsed < 300.0,
            f"worst |z| {worst_z:.2f}, {elapsed:.1f}s",
        )


class TestCriterion4GradientCorrectness:
    def test_finite_difference_agreement(self):
        from subgcn.engine import build_batch, forward_subgraph, loss_and_grad
        from subgcn.graph import induced_subgraph

        eps = 1e-5
        worst = 0.0
        for layers in (1, 2, 3, 4):
            for head in ("softmax", "sigmoid"):
                for seed in range(20):
                    rng = np.random.default_rng(9000 + 97 * seed + 7 * layers + (head == "sigmoid"))
                    g = er_graph(10, 0.4, seed=int(rng.integers(1 << 30)))
                    n, f, c = g.num_nodes, 3, 2
                    feats = rng.standard_normal((n, f))
                    labels = (
                        rng.integers(0, c, n) if head == "softmax" else rng.integers(0, 2, (n, c))
                    )
                    sub = induced_subgraph(g, np.arange(n))
                    split = np.zeros(n, dtype=np.int64)
                    batch = build_batch(g, sub, feats, labels, split, estimate_coeffs(g, SamplerConfig(kind="full"))[0])
                    batch.lam = rng.uniform(0.5, 2.0, n)
                    dims = (f,) + (3,) * (layers - 1) + (c,)
                    model = init_model(dims, head, make_rng(seed, layers))

                    scores, caches = forward_subgraph(model, batch)
                    _, grads = loss_and_grad(model, batch, scores, caches)
                    for l, w in enumerate(model.weights):
                        fd = np.zeros_like(w)
                        for idx in np.ndindex(*w.shape):
                            w[idx] += eps
                            s, cc = forward_subgraph(model, batch)
                            lp, _ = loss_and_grad(model, batch, s, cc)
                            w[idx] -= 2 * eps
                            s, cc = forward_subgraph(model, batch)
                            lm, _ = loss_and_grad(model, batch, s, cc)
                            w[idx] += eps
                            fd[idx] = (lp - lm) / (2 * eps)
                        scale = max(float(np.abs(fd).max()), 1e-12)
                        worst = max(worst, float(np.abs(grads[l] - fd).max()) / scale)
        report("4 gradient correctness", worst < 1e-4, f"max rel err {worst:.2e}")


class TestCriterion5EndToEndLearning:
    def test_sampled_training_matches_full_batch(self):
        start = time.perf_counter()
        ds = generate_sbm(
            SbmSpec(blocks=2, block_size=500, p_intra=0.05, p_inter=0.005, noise=1.0, seed=6)
        )
        tcfg = TrainConfig(
            hidden_dims=(64,), lr=0.01, epochs=30, batches_per_epoch=5, eval_every=3, seed=17
        )
        sampled = train(
            ds.graph, ds.features, ds.labels, ds.split,
            SamplerConfig(kind="edge", m=1500, seed=8), tcfg, num_classes=2,
        )
        full = train(
            ds.graph, ds.features, ds.labels, ds.split,
            SamplerConfig(kind="full", seed=8), tcfg, num_classes=2,
        )
        gap = abs(sampled.test_f1 - full.test_f1)
        above_majority = sampled.test_f1 - 0.5
        elapsed = time.perf_counter() - start
        report(
            "5 end-to-end learning",
            gap <= 0.03 and above_majority >= 0.2 and elapsed < 300.0,
            f"sampled {sampled.test_f1:.3f}, full {full.test_f1:.3f}, {elapsed:.1f}s",
        )


class TestCriterion6SamplerDistributions:
    TRIALS = 10_000

    def _binomial_ok(self, rate, p):
        sigma = np.sqrt(p * (1.0 - p) / self.TRIALS)
        return abs(rate - p) <= 3.0 * sigma

    def test_hand_computed_distributions(self):
        ok = True
        # star: center 0.9, leaves 1/30
        star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
        dist = node_weights(star)
        counts = np.bincount(dist.draw(make_rng(21, 0), self.TRIALS), minlength=4)
        for v, p in [(0, 0.9), (1, 0.1 / 3), (2, 0.1 / 3), (3, 0.1 / 3)]:
            ok &= self._binomial_ok(counts[v] / self.TRIALS, p)

        # path: 0.1 / 0.8 / 0.1
        path = build_graph([(0, 1), (1, 2)], 3)
        counts = np.bincount(node_weights(path).draw(make_rng(22, 0), self.TRIALS), minlength=3)
        for v, p in [(0, 0.1), (1, 0.8), (2, 0.1)]:
            ok &= self._binomial_ok(counts[v] / self.TRIALS, p)

        # square with chord, lexicographic edges (0,1),(1,2),(1,3),(2,3)
        sq = build_graph([(0, 1), (1, 2), (2, 3), (1, 3)], 4)
        counts = np.bincount(edge_weights(sq).draw(make_rng(23, 0), self.TRIALS), minlength=4)
        for e, p in enumerate([1 / 3, 5 / 24, 5 / 24, 1 / 4]):
            ok &= self._binomial_ok(counts[e] / self.TRIALS, p)

        # independent inclusion rates on the same graph at m = 1
        p_e = budget_probabilities(edge_weights(sq).weights, 1)
        rng = make_rng(24, 0)
        hits = np.zeros(4)
        for _ in range(self.TRIALS):
            hits += sample_edge_independent(sq, p_e, rng)[1]
        for e in range(4):
            ok &= self._binomial_ok(hits[e] / self.TRIALS, p_e[e])

        report("6 sampler distributions", ok)


class TestCriterion7SurvivalProbability:
    def test_closed_form_and_simulation(self):
        exact = (
            survival_probability(1.0, 3, 4) == 1.0
            and survival_probability(0.5, 1, 2) == 0.5
            and survival_probability(0.5, 2, 3) == 0.5625
        )

        # simulate per-layer independent edge sampling on a 2-regular graph
        g = circulant(20, (1,))
        p, layers = 0.4, 2
        trials = 10_000
        root = 0
        deg = int(g.degrees[root])
        assert deg == 2
        rng = make_rng(31, 0)
        survived = (rng.random((trials, deg)) < p).any(axis=1)
        rate = survived.mean()
        want = survival_probability(p, deg, layers)
        sigma = np.sqrt(want * (1.0 - want) / trials)
        report(
            "7 survival probability",
            exact and abs(rate - want) <= 3.0 * sigma,
            f"rate {rate:.4f} vs {want:.4f}",
        )


class TestCriterion8DeterminismAndRoundTrips:
    def test_byte_identical_runs_and_round_trips(self, tmp_path):
        from subgcn.cli import main

        ok = True

        # fixed-seed training runs are byte-identical
        ds = generate_sbm(SbmSpec(blocks=2, block_size=25, p_intra=0.3, p_inter=0.03, noise=0.8, seed=2))
        data_dir = tmp_path / "data"
        save_dataset(ds, data_dir)
        argv = [
            "train", "--data", str(data_dir), "--sampler", "edge",
            "--m", "40", "--layers", "2", "--hidden", "8", "--epochs", "5",
            "--seed", "13", "--num-norm-subgraphs", "6",
        ]
        assert main(argv + ["--out", str(tmp_path / "run1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "run2")]) == 0
        for name in ("metrics.log", "best.ckpt", "final.ckpt"):
            ok &= (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()

        # serialization round trips are identity
        ds2 = load_dataset(data_dir)
        ok &= graph_hash(ds2.graph) == graph_hash(ds.graph)
        ok &= np.array_equal(ds2.features, ds.features)

        cfg = SamplerConfig(kind="mrw", n=10, r=2, seed=3)
        producer = SubgraphProducer(ds.graph, cfg)
        subs = [producer.take() for _ in range(5)]
        save_subgraphs(tmp_path / "subs.bin", ds.graph, cfg, subs)
        cfg2, subs2 = load_subgraphs(tmp_path / "subs.bin", ds.graph)
        ok &= cfg2 == cfg
        ok &= all(
            np.array_equal(a.nodes, b.nodes) and np.array_equal(a.arc_origin, b.arc_origin)
            for a, b in zip(subs, subs2)
        )

        coeffs, _ = estimate_coeffs(ds.graph, cfg, num_subgraphs=10)
        save_coeffs(tmp_path / "c.bin", ds.graph, coeffs, cfg)
        loaded = load_coeffs(tmp_path / "c.bin", ds.graph)
        ok &= np.array_equal(coeffs.alpha, loaded.alpha) and np.array_equal(coeffs.lam, loaded.lam)

        ckpt = load_checkpoint(tmp_path / "run1" / "final.ckpt", ds.graph)
        save_checkpoint(tmp_path / "resaved.ckpt", ds.graph, ckpt)
        ok &= (tmp_path / "resaved.ckpt").read_bytes() == (tmp_path / "run1" / "final.ckpt").read_bytes()

        report("8a determinism and round trips", ok)

    def test_empirical_coefficients_converge_to_analytic(self):
        # star: the node-induced edge set equals the drawn edge set, so
        # the pre-induction closed form is exact here
        g = build_graph([(0, i) for i in range(1, 20)], 20)
        m = 5
        cfg = SamplerConfig(kind="edge_independent", m=m, seed=12)
        emp, _ = estimate_coeffs(g, cfg, num_subgraphs=100_000)
        ana = analytic_coeffs_edge(g, m)
        alpha_rel = float(np.abs(emp.alpha / ana.alpha - 1.0).max())
        lam_rel = float(np.abs(emp.lam / ana.lam - 1.0).max())
        report(
            "8b empirical vs analytic coefficients",
            alpha_rel < 0.05 and lam_rel < 0.05,
            f"alpha rel {alpha_rel:.4f}, lambda rel {lam_rel:.4f}",
        )
