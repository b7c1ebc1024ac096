"""The benchmark's workloads: seeded inputs plus the sampler, training
and variance-check settings each run uses."""

from __future__ import annotations

from dataclasses import dataclass

from gen import SbmInput


@dataclass(frozen=True)
class VarianceCheck:
    """Settings of the ``subgcn variance-check`` path (a 1-layer model,
    16 wide)."""

    m: int
    trials: int
    chunk: int = 20_000  # Monte-Carlo trials per mask block; bounds memory on big graphs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: SbmInput
    sampler: dict  # SamplerConfig fields except the seed
    train: dict  # TrainConfig fields except the seed
    variance: VarianceCheck
    shares: dict  # share of --seconds per timed task (see harness._timed_run); the variance check gets the rest


_GRAPH = dict(blocks=4, block_size=1250, intra_degree=12.0, inter_degree=6.0)
# On ~45 k edges the check runs few trials in small blocks, so its masks stay small.
_SMALL_CHECK = VarianceCheck(m=375, trials=256, chunk=64)
_TRAINING_SHARES = {"setup": 0.1, "pass": 0.6, "checkpoint": 0.05, "eval": 0.05}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="edge-serial",
            why="edge sampler, serial: pre-processing draws and induction dominate train_s (graph, samplers, normalization)",
            data=SbmInput(**_GRAPH, feature_dim=16, noise=3.0),
            sampler=dict(kind="edge", m=375),
            train=dict(hidden_dims=(64, 64), epochs=10, batches_per_epoch=25),
            variance=_SMALL_CHECK,
            shares=_TRAINING_SHARES,
        ),
        Workload(
            name="wide-gcn",
            why="128-dim features and 256 hidden with fixed N=40: engine steps and full-graph validation dominate; control for sampler work",
            data=SbmInput(**_GRAPH, feature_dim=128, noise=3.0),
            sampler=dict(kind="edge", m=375),
            train=dict(hidden_dims=(256, 256), epochs=5, batches_per_epoch=20, num_norm_subgraphs=40),
            variance=_SMALL_CHECK,
            shares=_TRAINING_SHARES,
        ),
        # Runs by hand only: not in BENCHMARK.json, see README.md.
        Workload(
            name="rw-pool",
            why="rw sampler in a 2-thread SubgraphProducer pool: per-hop Python loop under the GIL, unlike edge-serial's vectorised draws",
            data=SbmInput(**_GRAPH, feature_dim=16, noise=3.0),
            sampler=dict(kind="rw", r=250, h=2),
            train=dict(hidden_dims=(64, 64), epochs=10, batches_per_epoch=25, workers=2),
            variance=_SMALL_CHECK,
            shares=_TRAINING_SHARES,
        ),
        Workload(
            name="variance-lab",
            why="variance-check at 2e4 Monte-Carlo trials on a 400-node SBM: the only heavy use of variance; memory-bound trial x edge masks",
            data=SbmInput(blocks=2, block_size=200, intra_degree=10.5, inter_degree=0.5, feature_dim=16, noise=1.0),
            sampler=dict(kind="edge", m=50),
            train=dict(hidden_dims=(16,), epochs=30, batches_per_epoch=10),
            variance=VarianceCheck(m=50, trials=20_000),
            shares={"setup": 0.05, "pass": 0.15, "checkpoint": 0.03, "eval": 0.02},
        ),
    )
}
