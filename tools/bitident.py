"""Digests of subgcn's observable outputs, to show that a change keeps
them bit-identical.

    python tools/bitident.py <checkout> [--data DIR]

imports ``subgcn`` from ``<checkout>/src`` and prints one line
``<group> <sha256>`` per group of outputs:

- ``data_io.load_dataset``: the fields ``graph`` (its arrays
  included), ``features``, ``labels``, ``split`` and ``num_classes`` of
  the loaded ``Dataset``, by name, so that checkouts whose ``Dataset``
  has other fields besides compare alike;
- ``graph.build``: every ``Graph`` field of ``build_graph`` on random
  pairs with duplicates, reversed pairs and loops in an unsorted order,
  on an empty edge list, and on the 4-regular circulant on 30 nodes
  with edges (i, i + 1) and (i, i + 2) mod 30, which lists every edge
  once in an unsorted order. The loader only ever passes canonical
  sorted edges, so ``data_io.load_dataset`` does not reach these
  inputs;
- ``samplers.serial`` / ``samplers.workers2``: draws of all six sampler
  kinds, serially and from a 2-worker producer;
- ``coeffs``: every field of the empirical ``NormCoeffs``;
- ``exact``: every field of the exact ``NormCoeffs`` of the ``node``,
  ``edge``, ``edge_independent`` and ``full`` samplers, and
  ``metrics.log`` plus the reloaded checkpoints of one ``subgcn train``
  run (edge sampler) on exact coefficients, i.e. without
  ``--num-norm-subgraphs``;
- ``caches``: the loaded objects (not the file bytes) of a
  ``save_subgraphs`` -> ``load_subgraphs`` round trip of each sampler
  kind's draws and of a ``save_coeffs`` -> ``load_coeffs`` round trip;
- ``cli.train``: ``metrics.log`` and the reloaded checkpoint arrays of
  two ``subgcn train`` runs (edge sampler; rw sampler with dropout);
- ``train.skips``: the same, also with ``--num-norm-subgraphs 8``, for
  two ``subgcn train`` runs that skip batches with no training node
  (edge_independent sampler with m 1 and dropout; node sampler with
  n 2);
- ``containers.bytes``: the file bytes, the graph hash in each header
  included, of the ``caches`` group's ``save_subgraphs`` and
  ``save_coeffs`` files and of the ``final.ckpt`` and ``best.ckpt``
  that the ``cli.train`` runs write;
- ``forward``: ``forward_full`` scores;
- ``forward.reused``: two ``forward_full`` calls on the dataset as
  ``load_dataset`` returns it, for a model whose first layer widens, so
  the second call may reuse the first one's layer-0 aggregate, then
  ``evaluate`` on every split that has nodes with that model's
  checkpoint after ``save_checkpoint`` and ``load_checkpoint``;
- ``grads``: the loss and weight gradients of ``loss_and_grad`` on one
  edge-sampler batch with exact coefficients and dropout, for a model
  whose hidden and last layers both narrow;
- ``grads.widening``: the same for a model with hidden widths 16, 16
  and 32, whose hidden layers widen or keep their width, so their
  backward multiplies the transpose by ``dz W^T`` instead of by ``dz``;
- ``edge_aggregates.f_16``, ``edge_aggregates.f_2_2`` and
  ``edge_aggregates.f_16_16_16``: ``edge_aggregates`` of models with
  those dimensions, f being the feature width;
- ``variance.closed_form``: both closed-form variances;
- ``monte_carlo``: the Monte-Carlo estimates rounded to 12 significant
  digits, and the generator state after each call. The unrounded
  estimates follow on a ``#`` line, since a change of summation order
  may move them in the last bits.
- ``monte_carlo.given_aggregates``: the same estimates with
  ``aggregates=`` passed, as ``subgcn variance-check`` does, as exact
  bytes (``float.hex``), the generator state after each call, and the
  passed aggregates after the calls.
- ``monte_carlo.hidden``: estimates without ``aggregates=`` on a
  16-16-16 model, as exact bytes, and the generator state after each
  call. That path propagates through hidden layers and sums the later
  layers' edge terms in chunks, which no other Monte-Carlo group does.
- ``monte_carlo.rate_classes``: estimates as exact bytes and the
  generator state after each call, for a hand-made probability vector
  that reaches every branch of the draw: p = 0, p = 1, the classes
  r = 1 and r = 1/2, ordinary classes, 2^-70 and the subnormal 5e-324.

Every ``subgcn train`` digest also holds the number of skipped batches
that the run prints, whatever the wording of that line.

Run it on two checkouts and diff the outputs. The dataset is a 2-block
SBM made in memory, or the text dataset in ``--data`` (for example a
benchmark input written by ``perfbench/gen.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

DRAWS = 12  # subgraphs drawn per sampler kind
DATASET_FIELDS = ("graph", "features", "labels", "split", "num_classes")
AGGREGATE_DIMS = ((16,), (2, 2), (16, 16, 16))  # the layer widths after the features
WIDENING_DIMS = (16, 16, 32)  # hidden widths of ``grads.widening``
# Cycled over the edges by ``monte_carlo.rate_classes``: p = 0 and 1, the
# classes r = 1 (p in [1/2, 1)) and r = 1/2, ordinary classes, and rates
# far below any one draw.
RATE_CLASS_PROBS = (0.0, 1.0, 0.7, 0.999, 0.5, 0.3, 0.26, 0.2, 0.1, 0.03, 0.004, 2.0**-70, 5e-324)


class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            a = np.ascontiguousarray(value)
            self._h.update(f"{a.dtype.str}{a.shape}".encode())
            self._h.update(a.tobytes())
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                self._h.update(f.name.encode())
                self.add(getattr(value, f.name))
        elif isinstance(value, dict):
            self.add(sorted(value.items()))
        elif isinstance(value, (list, tuple)):
            self._h.update(f"{type(value).__name__}{len(value)}".encode())
            for v in value:
                self.add(v)
        elif isinstance(value, bytes):
            self._h.update(value)
        else:
            self._h.update(repr(value).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _import_subgcn(checkout: Path):
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import subgcn

    if not Path(subgcn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"subgcn was imported from {subgcn.__file__}, not from {src}")
    return subgcn


def _sampler_configs(subgcn, g, seed: int):
    n, e = g.num_nodes, g.num_edges
    budgets = {
        "node": dict(n=max(2, n // 10)),
        "edge": dict(m=max(1, e // 20)),
        "edge_independent": dict(m=max(1, e // 20)),
        "rw": dict(r=max(1, n // 20), h=2),
        "mrw": dict(n=max(2, n // 10), r=max(1, n // 40)),
        "full": {},
    }
    return [subgcn.SamplerConfig(kind=k, seed=seed, **b) for k, b in budgets.items()]


def _graph_build(subgcn) -> str:
    rng = np.random.default_rng(17)
    pairs = rng.integers(0, 40, size=(200, 2))
    loops = np.repeat(np.arange(0, 40, 5), 2).reshape(-1, 2)
    pairs = np.concatenate([pairs, pairs[:60, ::-1], pairs[60:90], loops])
    d = Digest()
    d.add(subgcn.build_graph(pairs[rng.permutation(pairs.shape[0])], 40))
    d.add(subgcn.build_graph(np.zeros((0, 2), dtype=np.int64), 5))
    ring = np.arange(30)
    d.add(subgcn.build_graph(np.concatenate([np.stack([ring, (ring + k) % 30], axis=1) for k in (1, 2)]), 30))
    return d.hexdigest()


def _draws(subgcn, g, seed: int, workers: int) -> str:
    d = Digest()
    for cfg in _sampler_configs(subgcn, g, seed):
        with subgcn.SubgraphProducer(g, cfg, workers=workers) as producer:
            for _ in range(DRAWS):
                d.add(producer.take())
    return d.hexdigest()


def _caches(subgcn, g, seed: int, coeffs, work: Path) -> tuple[str, Digest]:
    """Digest of the loaded caches, and a Digest of the written files' bytes."""
    from subgcn import data_io

    d, files = Digest(), Digest()
    path = work / "subgraphs.bin"
    for cfg in _sampler_configs(subgcn, g, seed):
        with subgcn.SubgraphProducer(g, cfg) as producer:
            data_io.save_subgraphs(path, g, cfg, [producer.take() for _ in range(DRAWS)])
        files.add(path.read_bytes())
        d.add(data_io.load_subgraphs(path, g))
    path = work / "coeffs.bin"
    data_io.save_coeffs(path, g, coeffs)
    files.add(path.read_bytes())
    d.add(data_io.load_coeffs(path, g))
    return d.hexdigest(), files


def _cli_train(data_dir: Path, work: Path, runs=("edge", "rw"), norm=("--num-norm-subgraphs", "8")) -> str:
    """Digest of ``metrics.log``, the reloaded checkpoints and the
    printed skip count of the named ``subgcn train`` runs, each given
    the ``norm`` flags."""
    from subgcn import data_io
    from subgcn.cli import main

    ds = data_io.load_dataset(data_dir)
    flags = {
        "edge": ["--sampler", "edge", "--m", str(max(1, ds.graph.num_edges // 20)), "--layers", "3"],
        "rw": ["--sampler", "rw", "--r", str(max(1, ds.graph.num_nodes // 20)), "--h", "2",
               "--layers", "2", "--dropout", "0.2"],
        "edge_independent": ["--sampler", "edge-independent", "--m", "1", "--layers", "2", "--dropout", "0.2"],
        "node": ["--sampler", "node", "--n", "2", "--layers", "2"],
    }
    d = Digest()
    for name in runs:
        out = work / name
        argv = ["train", "--data", str(data_dir), *flags[name], "--hidden", "16", "--epochs", "4",
                "--batches-per-epoch", "3", *norm, "--seed", "7", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(argv)
        if code != 0:
            raise SystemExit(f"subgcn {' '.join(argv)} exited {code}")
        skipped = re.search(r"^skipped (\d+) ", stdout.getvalue(), re.MULTILINE)
        d.add(int(skipped.group(1)) if skipped else 0)
        d.add((out / "metrics.log").read_bytes())
        for ckpt in ("final.ckpt", "best.ckpt"):
            d.add(data_io.load_checkpoint(out / ckpt, ds.graph))
    return d.hexdigest()


def _forward_reused(data_dir: Path, seed: int) -> str:
    """Digest of two ``forward_full`` calls on a freshly loaded dataset
    and of ``evaluate`` with a save/load round trip of that model."""
    from subgcn import data_io, engine, samplers

    ds = data_io.load_dataset(data_dir)
    g, feats = ds.graph, ds.features
    dims = (feats.shape[1], 2 * feats.shape[1], ds.num_classes)  # layer 0 widens
    model = engine.init_model(dims, "softmax", samplers.make_rng(seed, 1))
    d = Digest()
    for _ in range(2):
        d.add(engine.forward_full(model, g, feats))
    zeros = [np.zeros_like(w) for w in model.weights]
    ckpt = engine.Checkpoint(head=model.head, weights=model.weights, adam_m=zeros, adam_v=zeros, adam_t=0,
                             epochs_done=0, iteration=0, best_weights=model.weights, best_val_f1=-1.0)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "model.ckpt"
        data_io.save_checkpoint(path, g, ckpt)
        loaded = data_io.load_checkpoint(path, g)
    model = engine.Model(weights=loaded.weights, head=loaded.head)
    for which in (engine.TRAIN, engine.VAL, engine.TEST):
        if np.any(ds.split == which):
            d.add(engine.evaluate(model, g, feats, ds.labels, ds.split, which).hex())
    return d.hexdigest()


def digests(subgcn, data_dir: Path, seed: int = 3) -> tuple[dict[str, str], list[float]]:
    """Group name -> digest, and the raw Monte-Carlo estimates."""
    from subgcn import data_io, engine, normalization, samplers, variance

    ds = data_io.load_dataset(data_dir)
    g, feats = ds.graph, ds.features
    d = Digest()
    for name in DATASET_FIELDS:
        d.add(name)
        d.add(getattr(ds, name))
    out = {
        "data_io.load_dataset": d.hexdigest(),
        "graph.build": _graph_build(subgcn),
        "samplers.serial": _draws(subgcn, g, seed, workers=0),
        "samplers.workers2": _draws(subgcn, g, seed, workers=2),
    }

    configs = _sampler_configs(subgcn, g, seed)
    coeffs, _ = normalization.estimate_coeffs(g, configs[1], num_subgraphs=20)
    d = Digest()
    d.add(coeffs)
    out["coeffs"] = d.hexdigest()

    with tempfile.TemporaryDirectory() as work:
        d = Digest()
        for cfg in configs:
            if cfg.kind in ("node", "edge", "edge_independent", "full"):
                d.add(normalization.estimate_coeffs(g, cfg))
        d.add(_cli_train(data_dir, Path(work) / "exact", runs=("edge",), norm=()))
        out["exact"] = d.hexdigest()
        out["caches"], files = _caches(subgcn, g, seed, coeffs, Path(work))
        out["cli.train"] = _cli_train(data_dir, Path(work))
        out["train.skips"] = _cli_train(data_dir, Path(work) / "skips", runs=("edge_independent", "node"))
        for run in ("edge", "rw"):
            for ckpt in ("final.ckpt", "best.ckpt"):
                files.add((Path(work) / run / ckpt).read_bytes())
        out["containers.bytes"] = files.hexdigest()

    model = engine.init_model((feats.shape[1], 32, 32, ds.num_classes), "softmax", samplers.make_rng(seed, 0))
    d = Digest()
    d.add(engine.forward_full(model, g, feats))
    out["forward"] = d.hexdigest()
    out["forward.reused"] = _forward_reused(data_dir, seed)

    with subgcn.SubgraphProducer(g, configs[1]) as producer:
        sub = producer.take()
    batch = engine.build_batch(g, sub, feats, ds.labels, ds.split, normalization.estimate_coeffs(g, configs[1])[0])
    for group, hidden in (("grads", (32, 8)), ("grads.widening", WIDENING_DIMS)):
        model = engine.init_model((feats.shape[1], *hidden, ds.num_classes), "softmax", samplers.make_rng(seed, 0))
        scores, caches = engine.forward_subgraph(model, batch, dropout=0.2, rng=samplers.make_rng(seed, 2))
        d = Digest()
        d.add(engine.loss_and_grad(model, batch, scores, caches))
        out[group] = d.hexdigest()

    for hidden in AGGREGATE_DIMS:
        model = engine.init_model((feats.shape[1], *hidden), "softmax", samplers.make_rng(seed, 0))
        d = Digest()
        d.add(variance.edge_aggregates(g, feats, model))
        out["edge_aggregates.f_" + "_".join(map(str, hidden))] = d.hexdigest()

    model = engine.init_model((feats.shape[1], 16), "softmax", samplers.make_rng(seed, 0))
    agg = variance.edge_aggregates(g, feats, model)
    m = max(1, g.num_edges // 40)
    probs = [variance.optimal_edge_probs(agg, m), variance.budget_probabilities(samplers.edge_weights(g).weights, m)]
    d = Digest()
    d.add([variance.variance_closed_form(agg, p) for p in probs])
    out["variance.closed_form"] = d.hexdigest()

    d = Digest()
    estimates = []
    for chunk in (64, 20_000):
        rng = samplers.make_rng(seed, 1)
        for p in probs:
            estimates.append(variance.variance_monte_carlo(g, feats, model, p, 2_000, rng, chunk))
            d.add(f"{estimates[-1]:.11e}")
            d.add(rng.bit_generator.state)
    out["monte_carlo"] = d.hexdigest()

    d = Digest()
    for chunk in (64, 20_000):
        rng = samplers.make_rng(seed, 1)
        for p in probs:
            d.add(variance.variance_monte_carlo(g, feats, model, p, 2_000, rng, chunk, aggregates=agg).hex())
            d.add(rng.bit_generator.state)
    d.add(agg)
    out["monte_carlo.given_aggregates"] = d.hexdigest()

    deep = engine.init_model((feats.shape[1], 16, 16, 16), "softmax", samplers.make_rng(seed, 0))
    deep_probs = [variance.optimal_edge_probs(variance.edge_aggregates(g, feats, deep), m), probs[1]]
    d = Digest()
    for chunk in (64, 20_000):
        rng = samplers.make_rng(seed, 1)
        for p in deep_probs:
            d.add(variance.variance_monte_carlo(g, feats, deep, p, 2_000, rng, chunk).hex())
            d.add(rng.bit_generator.state)
    out["monte_carlo.hidden"] = d.hexdigest()

    p = np.resize(np.array(RATE_CLASS_PROBS), g.num_edges)
    d = Digest()
    for chunk in (64, 20_000):
        rng = samplers.make_rng(seed, 1)
        # b_e / 5e-324 overflows to inf; such an edge is never drawn.
        with np.errstate(over="ignore"):
            d.add(variance.variance_monte_carlo(g, feats, model, p, 2_000, rng, chunk, aggregates=agg).hex())
        d.add(rng.bit_generator.state)
    out["monte_carlo.rate_classes"] = d.hexdigest()
    return out, estimates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="a subgcn source tree (holding src/subgcn)")
    parser.add_argument("--data", type=Path, help="text dataset directory (default: a 120-node SBM)")
    args = parser.parse_args(argv)
    subgcn = _import_subgcn(args.checkout)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = args.data
        if data_dir is None:
            data_dir = Path(tmp) / "data"
            spec = subgcn.SbmSpec(blocks=2, block_size=60, p_intra=0.15, p_inter=0.02, noise=1.0, seed=11)
            subgcn.save_dataset(subgcn.generate_sbm(spec), data_dir)
        groups, estimates = digests(subgcn, data_dir)
    for name, digest in groups.items():
        print(f"{name} {digest}")
    print("# monte_carlo estimates " + " ".join(repr(v) for v in estimates))
    return 0


if __name__ == "__main__":
    sys.exit(main())
