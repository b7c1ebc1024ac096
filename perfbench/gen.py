"""Seeded O(|E|) stochastic-block-model datasets in the subgcn text format.

Each block pair draws its edge count from a binomial over its candidate
pairs, then that many uniform pairs; self-pairs and duplicates are
dropped. Node features are a random sign vector per block plus
Gaussian noise; labels are block IDs; the split is a uniform 60/20/20
permutation. The generator is independent of
``subgcn.data_io.generate_sbm`` so that a change there cannot change a
workload's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SbmInput:
    blocks: int
    block_size: int
    intra_degree: float  # expected neighbours inside the node's block
    inter_degree: float  # expected neighbours in all other blocks together
    feature_dim: int
    noise: float


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def sbm_edges(spec: SbmInput, rng: np.random.Generator) -> np.ndarray:
    """Sorted unique (u, v) pairs with u < v."""
    s, k = spec.block_size, spec.blocks
    p_intra = min(1.0, spec.intra_degree / max(1, s - 1))
    p_inter = min(1.0, spec.inter_degree / max(1, s * (k - 1))) if k > 1 else 0.0
    keys = []
    n = s * k
    for a in range(k):
        for b in range(a, k):
            pairs = s * (s - 1) // 2 if a == b else s * s
            count = int(rng.binomial(pairs, p_intra if a == b else p_inter))
            u = a * s + rng.integers(0, s, size=count)
            v = b * s + rng.integers(0, s, size=count)
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            keep = lo != hi
            keys.append(lo[keep] * n + hi[keep])
    keys = np.unique(np.concatenate(keys))
    return np.stack([keys // n, keys % n], axis=1)


def write_sbm(spec: SbmInput, seed: int, directory: Path) -> dict:
    """Write graph.txt, features.txt, labels.txt and split.txt; return
    the input fingerprint."""
    n = spec.blocks * spec.block_size
    edges = sbm_edges(spec, _rng(seed, 1))
    labels = np.repeat(np.arange(spec.blocks), spec.block_size)
    rng = _rng(seed, 2)
    means = rng.choice([-1.0, 1.0], size=(spec.blocks, spec.feature_dim))
    feats = means[labels] + spec.noise * rng.standard_normal((n, spec.feature_dim))
    perm = _rng(seed, 3).permutation(n)
    split = np.zeros(n, dtype=np.int64)
    split[perm[round(0.6 * n) : round(0.8 * n)]] = 1
    split[perm[round(0.8 * n) :]] = 2

    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "graph.txt", "w") as f:
        f.write(f"{n} {edges.shape[0]}\n")
        np.savetxt(f, edges, fmt="%d")
    with open(directory / "features.txt", "w") as f:
        f.write(f"{n} {spec.feature_dim}\n")
        np.savetxt(f, feats, fmt="%.17g")
    with open(directory / "labels.txt", "w") as f:
        f.write(f"single {spec.blocks}\n")
        np.savetxt(f, labels, fmt="%d")
    np.savetxt(directory / "split.txt", split, fmt="%d")
    return {"nodes": n, "edges": int(edges.shape[0]), "feature_dim": spec.feature_dim}
