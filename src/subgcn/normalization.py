"""Bias-eliminating normalization coefficients for subgraph training.

Aggregation over a sampled subgraph favors frequently sampled edges;
dividing each adjacency entry by alpha = P(edge sampled) / P(node
sampled) makes per-node aggregation unbiased, and weighting each node's
loss by 1 / lambda with lambda_v = P(v in V_s) makes the minibatch loss
an unbiased estimate of the full-graph sum of training-node losses.
Every source below uses this one lambda, so their coefficients are
interchangeable. ``NormCoeffs`` checks what all define on
construction: one of the two sources below, every alpha finite and
positive, every lambda in [0, 1]; it then keeps its arrays read-only,
so no later write can bypass those checks.

``estimate_coeffs`` is the entry point. It has two sources:

- exact (``node``, ``edge``, ``edge_independent`` and ``full`` when no
  draw count is given): p_v and p_uv of the *induced* subgraph in
  closed form, O(|E|) and with no sampler draws. An arc is in an
  induced subgraph iff both endpoints are, so both follow from the
  probabilities q that a node, or a pair of nodes, is missed.
- empirical (``rw`` and ``mrw``, or any kind given a draw count): run
  the sampler N times and count node / edge appearances; the drawn
  subgraphs are returned so training can reuse them as its first N
  minibatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Subgraph, arc_source_nodes, read_only
from .samplers import SamplerConfig, SubgraphProducer, _check_count, draw_plan

__all__ = [
    "NormCoeffs",
    "estimate_coeffs",
]


@dataclass(frozen=True)
class NormCoeffs:
    """Per-arc aggregator normalization and per-node loss normalization.

    Attributes
    ----------
    alpha : ndarray of float64, shape (num_arcs,)
        Aggregator normalization per arc; the arc value used during
        subgraph propagation is norm_values / alpha. Exact source:
        p_uv / p_u for the arc (u, v), and 1 for an arc that no
        subgraph can hold (p_uv = 0), whose value is never read.
        Empirical source: edge counter over the arc's row-node counter,
        with a Laplace fallback (C_e + 1) / (C_v + 1) for never-sampled
        edges so the division is always defined.
    lam : ndarray of float64, shape (num_nodes,)
        Loss normalization per node: lambda_v = P(v in V_s), p_v for
        the exact source and C_v / N empirically.
        Weighting node losses by 1 / lambda makes the minibatch loss
        estimate the full-graph sum of training-node losses. Zero for
        nodes no subgraph holds (exact: only isolated nodes;
        empirical: every never-sampled node), which are then excluded
        from minibatch losses.
    node_counts, edge_counts : ndarray of int64
        Appearance counters C_v (per node) and C_e (per undirected
        edge); zeros for the exact source.
    num_subgraphs : int
        N, the number of pre-processing draws (0 for exact).
    source : str
        "exact" or "empirical".

    The four arrays are read-only from construction on, as a ``Graph``'s
    are (``graph.read_only``), so writing to ``coeffs.alpha`` raises
    ValueError and the checks below hold for the object's lifetime.

    Raises
    ------
    ValueError
        Naming the first arc whose alpha is not finite and positive, or
        the first node whose lambda lies outside [0, 1] (NaN included),
        or an unknown source.
    """

    alpha: np.ndarray
    lam: np.ndarray
    node_counts: np.ndarray
    edge_counts: np.ndarray
    num_subgraphs: int
    source: str

    def __post_init__(self) -> None:
        for name in ("alpha", "lam", "node_counts", "edge_counts"):
            object.__setattr__(self, name, read_only(getattr(self, name)))  # the dataclass is frozen
        if self.source not in ("exact", "empirical"):
            raise ValueError(f"source {self.source!r:.40} is not 'exact' or 'empirical'")
        bad_alpha = ~(np.isfinite(self.alpha) & (self.alpha > 0.0))
        if bad_alpha.any():
            a = int(np.argmax(bad_alpha))
            raise ValueError(f"arc {a} has alpha {self.alpha[a]}; alpha must be finite and positive")
        bad_lam = ~((self.lam >= 0.0) & (self.lam <= 1.0))
        if bad_lam.any():
            v = int(np.argmax(bad_lam))
            raise ValueError(f"node {v} has lambda {self.lam[v]}; lambda must lie in [0, 1]")


EXACT_KINDS = ("node", "edge", "edge_independent", "full")


def _incident_sum(g: Graph, per_edge: np.ndarray) -> np.ndarray:
    """Per-node sum of a per-edge quantity over the incident edges; a
    self-loop counts once."""
    u, v = g.edge_endpoints[:, 0], g.edge_endpoints[:, 1]
    nonloop = u != v
    acc = np.bincount(u, weights=per_edge, minlength=g.num_nodes)
    acc += np.bincount(v[nonloop], weights=per_edge[nonloop], minlength=g.num_nodes)
    return acc


def _covered_by_draws(k: int, s_u, s_v, t):
    """P(k i.i.d. draws cover both u and v), where one draw covers u
    with probability ``s_u``, v with ``s_v`` and both with ``t``.

    Evaluated as p_u p_v - q_u q_v (1 - exp(-d)) with d = log(q_u q_v /
    q_uv), not as 1 - q_u - q_v + q_uv, which cancels catastrophically
    when p_uv is small. The one subtraction left is bounded by how much
    covering u makes v less likely, about a factor k / (k - 1); one
    draw covers both only through t, so k = 1 returns t as it is.
    """
    if k == 1:
        return np.array(t, dtype=np.float64)
    rest = (1.0 - s_u) - (s_v - t)  # one draw covers neither
    with np.errstate(divide="ignore", invalid="ignore"):
        log_qu, log_qv = k * np.log1p(-s_u), k * np.log1p(-s_v)
        # q_u q_v / q_uv = ((1 - s_u)(1 - s_v) / rest)^k; q_uv = 0 where rest is
        d = np.where(rest > 0.0, k * np.log1p((s_u - t) * (s_v - t) / rest - t), np.inf)
        return np.expm1(log_qu) * np.expm1(log_qv) + np.exp(log_qu + log_qv) * np.expm1(-d)


def _exact_coeffs(g: Graph, cfg: SamplerConfig) -> NormCoeffs:
    """Exact induced coefficients of the node, edge, edge_independent
    and full samplers, from the distribution their draws read
    (``draw_plan``).

    A node is in V_s iff a draw covers it, and an arc (u, v) iff both
    endpoints are. With q the probability of missing a node or a pair:

    - node (n draws from pi): q_v = (1 - pi_v)^n, q_uv = (1 - pi_u - pi_v)^n;
    - edge (m draws from w / W, s_v = sum of w_e / W over e at v):
      q_v = (1 - s_v)^m, q_uv = (1 - s_u - s_v + w_uv / W)^m;
    - edge_independent: q_v = prod over e at v of (1 - p_e),
      q_uv = q_u q_v / (1 - p_uv), so p_uv = p_e + (1 - p_e) p'_u p'_v
      with p'_u = 1 - q_u / (1 - p_e), and 1 for a saturated p_e = 1;
    - full: alpha = lambda = 1.

    Then p_v = 1 - q_v, alpha = p_uv / p_u per arc (u, v), lambda =
    p_v. A self-loop arc has p_vv = p_v; an isolated node has lambda 0.
    An arc with p_uv = 0 (``node`` with n = 1) is in no subgraph, so it
    gets alpha 1, a value no batch reads.
    """
    rows = arc_source_nodes(g)
    if cfg.kind == "full":
        p_v = np.ones(g.num_nodes)
        p_pair = np.ones(g.num_edges)
    else:
        u, v = g.edge_endpoints[:, 0], g.edge_endpoints[:, 1]
        plan = draw_plan(g, cfg)
        with np.errstate(divide="ignore", invalid="ignore"):
            if cfg.kind == "node":
                pi = plan.probabilities()
                p_v = -np.expm1(cfg.n * np.log1p(-pi))
                p_pair = _covered_by_draws(cfg.n, pi[u], pi[v], np.zeros(g.num_edges))
            elif cfg.kind == "edge":
                t = plan.probabilities()
                # rounding can lift a hub's incident mass past 1
                s = np.minimum(_incident_sum(g, t), 1.0)
                p_v = -np.expm1(cfg.m * np.log1p(-s))
                p_pair = _covered_by_draws(cfg.m, s[u], s[v], t)
            else:
                p_e = plan
                log_keep = np.log1p(-p_e)
                log_q = _incident_sum(g, log_keep)  # log P(v has no drawn edge)
                p_v = -np.expm1(log_q)
                others = np.expm1(log_q[u] - log_keep) * np.expm1(log_q[v] - log_keep)
                p_pair = np.where(p_e < 1.0, p_e + (1.0 - p_e) * others, 1.0)
        loops = u == v
        p_pair[loops] = p_v[u[loops]]
    p_arc = p_pair[g.arc_to_edge]
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(p_arc == 0.0, 1.0, p_arc / p_v[rows])  # a NaN stays for NormCoeffs to reject
    return NormCoeffs(
        alpha=alpha,
        lam=p_v,
        node_counts=np.zeros(g.num_nodes, dtype=np.int64),
        edge_counts=np.zeros(g.num_edges, dtype=np.int64),
        num_subgraphs=0,
        source="exact",
    )


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
) -> tuple[NormCoeffs, list[Subgraph]]:
    """Normalization coefficients of ``cfg``'s sampler on ``g``, and the
    subgraphs drawn to get them.

    With ``num_subgraphs`` None, the ``node``, ``edge``,
    ``edge_independent`` and ``full`` kinds get their exact induced
    coefficients (``source`` "exact") and no subgraphs: nothing is
    drawn. Every other case is estimated empirically: the sampler runs
    N times, each node present (C_v) and each undirected edge present
    (C_e) is counted per drawn subgraph, and alpha = C_e / C_v per arc
    and lambda = C_v / N. The drawn subgraphs are returned for reuse as
    the first training minibatches.

    For ``rw`` and ``mrw`` with ``num_subgraphs`` None, N follows the
    adaptive rule N = ceil(50 |V| / mean |V_s|), the mean taken over
    ten pilot draws (which count toward N).

    Draw i uses RNG stream (cfg.seed, i), drawn in the calling thread.
    """
    if num_subgraphs is not None:
        _check_count("num_subgraphs", num_subgraphs)
    if num_subgraphs is None and cfg.kind in EXACT_KINDS:
        return _exact_coeffs(g, cfg), []
    node_counts = np.zeros(g.num_nodes, dtype=np.int64)
    edge_counts = np.zeros(g.num_edges, dtype=np.int64)
    subgraphs: list[Subgraph] = []
    # An induced subgraph holds both arcs of each non-loop edge and the
    # one arc of a self-loop, so counting only arcs with row <= col
    # counts each present edge exactly once.
    canonical = arc_source_nodes(g) <= g.col_indices
    pilot = 10
    target = pilot if num_subgraphs is None else num_subgraphs
    producer = SubgraphProducer(g, cfg)
    while len(subgraphs) < target:
        sub = producer.take()
        subgraphs.append(sub)
        node_counts[sub.nodes] += 1
        arcs = sub.arc_origin
        edge_counts[g.arc_to_edge[arcs[canonical[arcs]]]] += 1
        if num_subgraphs is None and len(subgraphs) == pilot:
            avg = max(1.0, float(np.mean([s.num_nodes for s in subgraphs])))
            target = max(pilot, math.ceil(50.0 * g.num_nodes / avg))

    return _coeffs_from_counts(g, node_counts, edge_counts, len(subgraphs)), subgraphs
