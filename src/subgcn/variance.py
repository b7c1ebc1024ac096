"""Variance analysis of the independent edge sampler.

The whole-graph estimator studied here sums, over layers and selected
edges, the per-edge aggregate b_e / p_e; under independent per-edge
Bernoulli sampling its variance has the closed form

    sum_e ||sum_l b_e^(l)||^2 / p_e  -  sum_e ||sum_l b_e^(l)||^2

summed over dimensions, and the probabilities minimizing it under a
fixed expected edge count m are proportional to ||sum_l b_e^(l)||.
This module computes the aggregates from a full-graph forward pass,
evaluates the closed form, draws Monte-Carlo estimates to cross-check
it, and exposes the survival probability of the contrasting per-layer
sampling scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Model, layer_inputs_full
from .graph import Graph

__all__ = [
    "EdgeAggregates",
    "edge_aggregates",
    "budget_probabilities",
    "optimal_edge_probs",
    "variance_closed_form",
    "variance_monte_carlo",
    "survival_probability",
]

# Bytes of one Monte-Carlo block of uniforms (rows x edges, float64). Chosen
# from a sweep of 1-32 MiB on the benchmark's inputs (256 trials on 44.7k
# edges, 2e4 trials on 2.1k edges; 2-vCPU VM, 30-60 interleaved calls each):
# below 8 MiB the 44.7k-edge check is no faster than unblocked 64-row chunks
# (medians: 4 MiB, 11 rows, 165 vs 165 ms; 2 MiB 174 vs 157 ms), because each
# block's ``block @ scaled`` repacks all of ``scaled``; 8 MiB (23 rows) takes
# 153 ms against 165. On 2.1k edges 1-16 MiB all take 450-485 ms, 32 MiB
# 511 ms. Every extra MiB stays resident for the whole check.
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class EdgeAggregates:
    """Per-edge aggregate vectors summed over layers, and their norms.

    For edge e = (u, v) and layer l, the aggregate is
    A_{v,u} * xt_u^(l) + A_{u,v} * xt_v^(l) where xt^(l) is the layer-l
    input activation multiplied by the layer weights. All layers must
    share one output dimension so the layer sum is well formed.
    """

    layer_sum: np.ndarray
    norms: np.ndarray


def edge_aggregates(g: Graph, features: np.ndarray, model: Model) -> EdgeAggregates:
    """Layer-summed aggregate vectors for every undirected edge."""
    out_dims = {w.shape[1] for w in model.weights}
    if len(out_dims) != 1:
        raise ValueError("edge aggregates require all layers to share one output dimension")
    inputs = layer_inputs_full(model, g, features)

    u = g.edge_endpoints[:, 0]
    v = g.edge_endpoints[:, 1]
    # Coefficient on the u-side term is the adjacency entry of row v.
    coef_u = 1.0 / g.degrees[v]
    coef_v = 1.0 / g.degrees[u]

    layer_sum = None
    for x, w in zip(inputs, model.weights):
        # Promote before the in-place products, as a float64 broadcast would.
        xt = np.asarray(x @ w, dtype=np.float64)
        term = xt[u]
        term *= coef_u[:, None]
        v_side = xt[v]
        v_side *= coef_v[:, None]
        term += v_side
        if layer_sum is None:
            layer_sum = term
        else:
            layer_sum += term
    norms = np.linalg.norm(layer_sum, axis=1)
    return EdgeAggregates(layer_sum=layer_sum, norms=norms)


def budget_probabilities(weights: np.ndarray, m: float) -> np.ndarray:
    """Probabilities proportional to ``weights`` with sum m, clipped to 1.

    Mass lost to clipping is redistributed among the unsaturated edges
    (water-filling) until the sum reaches m or every positive-weight
    edge is saturated. Zero-weight edges get probability 0.
    """
    w = np.asarray(weights, dtype=np.float64)
    if m <= 0:
        raise ValueError("budget must be positive")
    if not np.all(w >= 0):
        raise ValueError("weights must be non-negative")
    if not np.any(w > 0):
        raise ValueError("all weights are zero")
    p = np.zeros(w.shape[0])
    active = w > 0
    remaining = float(m)
    while remaining > 0 and active.any():
        scaled = w * (remaining / w[active].sum())
        saturated = active & (scaled >= 1.0)
        if not saturated.any():
            p[active] = scaled[active]
            break
        p[saturated] = 1.0
        remaining -= int(saturated.sum())
        active &= ~saturated
    return np.minimum(p, 1.0)


def optimal_edge_probs(aggregates: EdgeAggregates, m: float) -> np.ndarray:
    """Variance-minimizing probabilities for expected edge count m."""
    if not np.any(aggregates.norms > 0):
        raise ValueError("all edge aggregates are zero; optimal probabilities undefined")
    return budget_probabilities(aggregates.norms, m)


def variance_closed_form(aggregates: EdgeAggregates, probs: np.ndarray) -> float:
    """Exact variance of the edge estimator, summed over dimensions.

    Returns inf when some edge with a nonzero aggregate has probability
    zero (the estimator is then undefined on that edge).
    """
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    sq = aggregates.norms**2
    if np.any((p == 0) & (sq > 0)):
        return float("inf")
    active = sq > 0
    return float((sq[active] / p[active]).sum() - sq.sum())


def variance_monte_carlo(
    g: Graph,
    features: np.ndarray,
    model: Model,
    probs: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    chunk: int = 20_000,
) -> float:
    """Empirical variance of the edge estimator under independent
    sampling, summed over dimensions.

    Trials are drawn in blocks of at most ``chunk`` rows (a cap, not a
    block size), and of at most as many rows as fit one ``_BLOCK_BYTES``
    (8 MiB) block of uniforms, but at least one. One buffer of that size
    holds a block's uniforms and then, compared in place, its 0/1 edge
    mask, so the scratch memory is at most max(8 MiB, 8|E| bytes)
    whatever ``trials`` is, besides the per-edge arrays.
    Trial t takes uniforms t*|E| .. (t+1)*|E| - 1 of ``rng``'s stream
    whatever the block size, so the masks, and the stream position on
    return, are those of one ``rng.random((trials, |E|))`` draw; only
    the summation order depends on the block size.

    Accumulation is centered on the exact mean (the sum of layer sums),
    which keeps the two-pass variance stable when streamed in blocks.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (g.num_edges,):
        raise ValueError(f"probs must have shape ({g.num_edges},), got {p.shape}")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both comparisons
        raise ValueError("probabilities must lie in [0, 1]")
    layer_sum = edge_aggregates(g, features, model).layer_sum
    center = layer_sum.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(p[:, None] > 0, layer_sum / p[:, None], 0.0)
    del layer_sum  # the blocks below reuse its memory

    rows = min(max(_BLOCK_BYTES // (8 * max(g.num_edges, 1)), 1), chunk, trials)
    block = np.empty((rows, g.num_edges))
    s1 = np.zeros(center.shape[0])
    s2 = np.zeros(center.shape[0])
    done = 0
    while done < trials:
        k = min(rows, trials - done)
        rng.random(out=block[:k])
        np.less(block[:k], p, out=block[:k])  # uniforms -> 1.0 where the edge is kept, else 0.0
        dev = block[:k] @ scaled - center
        s1 += dev.sum(axis=0)
        s2 += (dev**2).sum(axis=0)
        done += k
    if trials == 1:
        return 0.0
    var = (s2 - s1**2 / trials) / (trials - 1)
    return float(var.sum())


def survival_probability(p: float, d: int, num_layers: int) -> float:
    """Chance that an input node stays connected through per-layer
    independent edge sampling on a degree-d graph:
    (1 - (1 - p)^d) ** (num_layers - 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if d < 1 or num_layers < 1:
        raise ValueError("d and num_layers must be at least 1")
    return (1.0 - (1.0 - p) ** d) ** (num_layers - 1)
