"""Command-line entry point.

Subcommands are thin adapters over the library: ``gen`` (synthetic
SBM datasets), ``sample`` (pre-sampled subgraph caches), ``estimate``
(normalization coefficient caches), ``train`` / ``eval`` (the training
loop and checkpoint evaluation), and ``variance-check`` (optimal
versus topology edge probabilities).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import data_io, engine, samplers, variance
from .data_io import CacheMismatchError, DataFormatError
from .engine import NumericError, TrainConfig
from .normalization import estimate_coeffs
from .samplers import SamplerConfig

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); spec wants 1
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sampler",
        required=True,
        choices=[kind.replace("_", "-") for kind in samplers.SAMPLER_KINDS],
    )
    p.add_argument("--n", type=int, help="node budget (node, mrw)")
    p.add_argument("--m", type=int, help="edge budget (edge, edge-independent)")
    p.add_argument("--r", type=int, help="root count (rw, mrw)")
    p.add_argument("--h", type=int, help="walk length in hops (rw)")


def _sampler_cfg(args) -> SamplerConfig:
    return SamplerConfig(
        kind=args.sampler.replace("-", "_"),
        n=args.n,
        m=args.m,
        r=args.r,
        h=args.h,
        seed=args.seed,
    )


def _at_least(low: int):
    """argparse type: an integer count no smaller than ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, found {value}")
        return value

    return count


def _build_parser() -> _Parser:
    parser = _Parser(prog="subgcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic SBM dataset")
    p.add_argument("--kind", required=True, choices=["sbm"])
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--block-size", type=int, default=100)
    p.add_argument("--p-intra", type=float, default=0.05)
    p.add_argument("--p-inter", type=float, default=0.005)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="write a cache of sampled subgraphs")
    p.add_argument("--data", required=True)
    _add_sampler_flags(p)
    p.add_argument("--count", type=_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="estimate and cache normalization coefficients")
    p.add_argument("--data", required=True)
    _add_sampler_flags(p)
    p.add_argument(
        "--num-subgraphs",
        type=int,
        default=None,
        help="estimate from this many draws (default: exact coefficients for node, edge, "
        "edge-independent and full, with no draws; ceil(50|V|/mean|V_s|) draws for rw and mrw)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train on sampled minibatches")
    p.add_argument("--data", required=True)
    _add_sampler_flags(p)
    p.add_argument("--layers", type=_at_least(1), default=2)
    p.add_argument("--hidden", type=_at_least(1), default=128)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batches-per-epoch", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--eval-every", type=int, default=1)
    p.add_argument(
        "--num-norm-subgraphs",
        type=int,
        default=None,
        help="estimate the coefficients from this many draws, reused as the first minibatches "
        "(default: exact coefficients for node, edge, edge-independent and full, with no "
        "pre-processing draws; ceil(50|V|/mean|V_s|) draws for rw and mrw)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")

    p = sub.add_parser("variance-check", help="compare optimal and topology edge probabilities")
    p.add_argument("--data", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=_at_least(2), default=100_000)
    p.add_argument("--layers", type=_at_least(1), default=1)
    p.add_argument("--hidden", type=_at_least(1), default=16)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_gen(args) -> int:
    out = Path(args.out)
    spec = data_io.SbmSpec(
        blocks=args.blocks,
        block_size=args.block_size,
        p_intra=args.p_intra,
        p_inter=args.p_inter,
        noise=args.noise,
        seed=args.seed,
    )
    data_io.save_dataset(data_io.generate_sbm(spec), out)
    print(f"wrote {args.kind} artifacts to {out}")
    return 0


def _cmd_sample(args) -> int:
    ds = data_io.load_dataset(args.data)
    cfg = _sampler_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    producer = samplers.SubgraphProducer(ds.graph, cfg)
    subs = [producer.take() for _ in range(args.count)]
    path = out / "subgraphs.bin"
    data_io.save_subgraphs(path, ds.graph, cfg, subs)
    sizes = [s.num_nodes for s in subs]
    print(f"wrote {len(subs)} subgraphs to {path} (mean size {np.mean(sizes):.1f})")
    return 0


def _cmd_estimate(args) -> int:
    ds = data_io.load_dataset(args.data)
    cfg = _sampler_cfg(args)
    coeffs, _ = estimate_coeffs(ds.graph, cfg, num_subgraphs=args.num_subgraphs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "coeffs.bin"
    data_io.save_coeffs(path, ds.graph, coeffs, cfg)
    if coeffs.source == "exact":
        print(f"wrote exact coefficients (closed form, no draws) to {path}")
    else:
        print(f"wrote coefficients from {coeffs.num_subgraphs} subgraphs to {path}")
    return 0


def _cmd_train(args) -> int:
    ds = data_io.load_dataset(args.data)
    cfg = _sampler_cfg(args)
    train_cfg = TrainConfig(
        hidden_dims=(args.hidden,) * (args.layers - 1),
        lr=args.lr,
        dropout=args.dropout,
        epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch,
        eval_every=args.eval_every,
        seed=args.seed,
        num_norm_subgraphs=args.num_norm_subgraphs,
    )
    result = engine.train(
        ds.graph, ds.features, ds.labels, ds.split, cfg, train_cfg, num_classes=ds.num_classes
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.log").write_text("\n".join(result.log) + "\n")
    data_io.save_checkpoint(out / "final.ckpt", ds.graph, result.checkpoint)
    best = dataclasses.replace(result.checkpoint, weights=result.model.weights)
    data_io.save_checkpoint(out / "best.ckpt", ds.graph, best)
    for line in result.log:
        print(line)
    if result.skipped_batches:
        print(f"skipped {result.skipped_batches} batches with no training node")
    return 0


def _check_checkpoint_fits(path, ckpt: engine.Checkpoint, ds: data_io.Dataset) -> None:
    """CacheMismatchError unless the checkpoint's input width, class
    count and head fit the dataset (the graph hash binds only the graph)."""
    for what, found, expected in (
        ("input width", ckpt.weights[0].shape[0], ds.features.shape[1]),
        ("class count", ckpt.weights[-1].shape[1], ds.num_classes),
        ("head", ckpt.head, engine.head_for(ds.labels)),
    ):
        if found != expected:
            raise CacheMismatchError(
                f"{path}: checkpoint {what} {found} does not match the dataset's {expected}"
            )


def _cmd_eval(args) -> int:
    ds = data_io.load_dataset(args.data)
    ckpt = data_io.load_checkpoint(args.checkpoint, ds.graph)
    _check_checkpoint_fits(args.checkpoint, ckpt, ds)
    model = engine.Model(weights=ckpt.weights, head=ckpt.head)
    which = {"train": engine.TRAIN, "val": engine.VAL, "test": engine.TEST}[args.split]
    if not np.any(ds.split == which):
        raise DataFormatError(Path(args.data) / "split.txt", None, f"no {args.split} nodes (tag {which}) to evaluate")
    f1 = engine.evaluate(model, ds.graph, ds.features, ds.labels, ds.split, which)
    print(f"{args.split}_f1 {f1!r}")
    return 0


def _cmd_variance_check(args) -> int:
    ds = data_io.load_dataset(args.data)
    g = ds.graph
    model = engine.init_model(
        (ds.features.shape[1],) + (args.hidden,) * (args.layers - 1) + (args.hidden,),
        "softmax",
        samplers.make_rng(args.seed, 0),
    )
    agg = variance.edge_aggregates(g, ds.features, model)
    p_opt = variance.optimal_edge_probs(agg, args.m)
    p_topo = variance.budget_probabilities(samplers.edge_weights(g).weights, args.m)

    print(f"{'edge':>6} {'u':>6} {'v':>6} {'norm':>12} {'p_optimal':>12} {'p_topology':>12}")
    for e in range(g.num_edges):
        u, v = g.edge_endpoints[e]
        print(f"{e:>6} {u:>6} {v:>6} {agg.norms[e]:>12.6f} {p_opt[e]:>12.6f} {p_topo[e]:>12.6f}")
    rng = samplers.make_rng(args.seed, 1)
    print(f"closed_form_optimal {variance.variance_closed_form(agg, p_opt)!r}")
    print(f"closed_form_topology {variance.variance_closed_form(agg, p_topo)!r}")
    print(f"mc_optimal {variance.variance_monte_carlo(g, ds.features, model, p_opt, args.trials, rng, aggregates=agg)!r}")
    print(f"mc_topology {variance.variance_monte_carlo(g, ds.features, model, p_topo, args.trials, rng, aggregates=agg)!r}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "variance-check": _cmd_variance_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0  # downstream consumer closed the pipe
    except (DataFormatError, CacheMismatchError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
