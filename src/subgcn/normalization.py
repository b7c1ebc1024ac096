"""Bias-eliminating normalization coefficients for subgraph training.

Aggregation over a sampled subgraph favors frequently sampled edges;
dividing each adjacency entry by alpha = P(edge sampled) / P(node
sampled) makes per-node aggregation unbiased, and weighting each node's
loss by 1 / lambda with lambda_v = P(v in V_s) makes the minibatch loss
an unbiased estimate of the full-graph sum of training-node losses.
Both sources below use this one lambda, so their coefficients are
interchangeable. ``NormCoeffs`` checks what both define on
construction: every alpha finite and positive, every lambda in [0, 1].

Coefficients come from one of two sources:

- ``estimate_coeffs`` runs the sampler N times and counts node / edge
  appearances; the drawn subgraphs are returned so training can reuse
  them as its first N minibatches.
- ``analytic_coeffs_edge`` evaluates the closed form for independent
  edge sampling (pre-induction: the extra edges contributed by node
  induction are not modeled, so empirical estimation is the default
  whenever induction matters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Subgraph, arc_source_nodes
from .samplers import SamplerConfig, SubgraphProducer, edge_weights, inclusion_probabilities

__all__ = [
    "NormCoeffs",
    "estimate_coeffs",
    "analytic_coeffs_edge",
]


@dataclass(frozen=True)
class NormCoeffs:
    """Per-arc aggregator normalization and per-node loss normalization.

    Attributes
    ----------
    alpha : ndarray of float64, shape (num_arcs,)
        Aggregator normalization per arc; the arc value used during
        subgraph propagation is norm_values / alpha. Empirical source:
        edge counter over the arc's row-node counter, with a Laplace
        fallback (C_e + 1) / (C_v + 1) for never-sampled edges so the
        division is always defined.
    lam : ndarray of float64, shape (num_nodes,)
        Loss normalization per node: lambda_v = P(v in V_s), estimated
        as C_v / N empirically and p_v analytically. Weighting node
        losses by 1 / lambda makes the minibatch loss estimate the
        full-graph sum of training-node losses. Zero for never-sampled
        nodes, which are then excluded from minibatch losses.
    node_counts, edge_counts : ndarray of int64
        Appearance counters C_v (per node) and C_e (per undirected
        edge); zeros for the analytic source.
    num_subgraphs : int
        N, the number of pre-processing draws (0 for analytic).
    source : str
        "empirical" or "analytic".

    Raises
    ------
    ValueError
        Naming the first arc whose alpha is not finite and positive, or
        the first node whose lambda lies outside [0, 1] (NaN included).
    """

    alpha: np.ndarray
    lam: np.ndarray
    node_counts: np.ndarray
    edge_counts: np.ndarray
    num_subgraphs: int
    source: str

    def __post_init__(self) -> None:
        bad_alpha = ~(np.isfinite(self.alpha) & (self.alpha > 0.0))
        if bad_alpha.any():
            a = int(np.argmax(bad_alpha))
            raise ValueError(f"arc {a} has alpha {self.alpha[a]}; alpha must be finite and positive")
        bad_lam = ~((self.lam >= 0.0) & (self.lam <= 1.0))
        if bad_lam.any():
            v = int(np.argmax(bad_lam))
            raise ValueError(f"node {v} has lambda {self.lam[v]}; lambda must lie in [0, 1]")


def _coeffs_from_counts(g: Graph, node_counts: np.ndarray, edge_counts: np.ndarray, n: int) -> NormCoeffs:
    arc_ce = edge_counts[g.arc_to_edge].astype(np.float64)
    arc_cv = node_counts[arc_source_nodes(g)].astype(np.float64)
    alpha = np.where(arc_ce > 0, arc_ce / np.maximum(arc_cv, 1.0), (arc_ce + 1.0) / (arc_cv + 1.0))
    lam = node_counts / float(n)
    return NormCoeffs(
        alpha=alpha,
        lam=lam,
        node_counts=node_counts,
        edge_counts=edge_counts,
        num_subgraphs=n,
        source="empirical",
    )


def estimate_coeffs(
    g: Graph,
    cfg: SamplerConfig,
    num_subgraphs: int | None = None,
    workers: int = 0,
) -> tuple[NormCoeffs, list[Subgraph]]:
    """Estimate coefficients by running the sampler repeatedly.

    Counts, per drawn subgraph, each node present (C_v) and each
    undirected edge present (C_e), then sets alpha = C_e / C_v per arc
    and lambda = C_v / N. The drawn subgraphs are returned for reuse as
    the first training minibatches, which is what keeps pre-processing
    cheap.

    With ``num_subgraphs`` None, N follows the adaptive rule
    N = ceil(50 |V| / mean |V_s|), the mean taken over ten pilot draws
    (which count toward N).

    Draw i uses RNG stream (cfg.seed, i); ``workers`` > 0 parallelizes
    production without changing the result.
    """
    node_counts = np.zeros(g.num_nodes, dtype=np.int64)
    edge_counts = np.zeros(g.num_edges, dtype=np.int64)
    subgraphs: list[Subgraph] = []
    # An induced subgraph holds both arcs of each non-loop edge and the
    # one arc of a self-loop, so counting only arcs with row <= col
    # counts each present edge exactly once.
    canonical = arc_source_nodes(g) <= g.col_indices

    def absorb(sub: Subgraph) -> None:
        node_counts[sub.nodes] += 1
        arcs = sub.arc_origin
        edge_counts[g.arc_to_edge[arcs[canonical[arcs]]]] += 1

    with SubgraphProducer(g, cfg, workers=workers) as producer:
        if num_subgraphs is None:
            pilot = 10
            target = pilot
            while len(subgraphs) < target:
                sub = producer.take()
                subgraphs.append(sub)
                absorb(sub)
                if len(subgraphs) == pilot:
                    avg = max(1.0, float(np.mean([s.num_nodes for s in subgraphs])))
                    target = max(pilot, math.ceil(50.0 * g.num_nodes / avg))
        else:
            if num_subgraphs < 1:
                raise ValueError("num_subgraphs must be positive")
            for _ in range(num_subgraphs):
                sub = producer.take()
                subgraphs.append(sub)
                absorb(sub)

    return _coeffs_from_counts(g, node_counts, edge_counts, len(subgraphs)), subgraphs


def analytic_coeffs_edge(g: Graph, m: int) -> NormCoeffs:
    """Closed-form coefficients for independent edge sampling.

    With p_e = min(1, m * w_e / sum(w)) the node inclusion probability
    is p_v = 1 - prod_{e incident to v} (1 - p_e); then alpha = p_e /
    p_v per arc and lambda = p_v. The node-induction step is not
    modeled (the closed form describes the drawn edge set only).
    """
    p_e = inclusion_probabilities(g, m, edge_weights(g))
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-p_e)  # -inf where p_e == 1
    u, v = g.edge_endpoints[:, 0], g.edge_endpoints[:, 1]
    nonloop = u != v
    acc = np.bincount(u, weights=log_miss, minlength=g.num_nodes)
    acc += np.bincount(v[nonloop], weights=log_miss[nonloop], minlength=g.num_nodes)
    p_v = -np.expm1(acc)
    p_v[g.degrees == 0] = 0.0

    rows = arc_source_nodes(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = p_e[g.arc_to_edge] / p_v[rows]
    return NormCoeffs(
        alpha=alpha,
        lam=p_v,
        node_counts=np.zeros(g.num_nodes, dtype=np.int64),
        edge_counts=np.zeros(g.num_edges, dtype=np.int64),
        num_subgraphs=0,
        source="analytic",
    )

