"""Variance analysis of the independent edge sampler.

The whole-graph estimator studied here sums, over layers and selected
edges, the per-edge aggregate b_e / p_e; under independent per-edge
Bernoulli sampling its variance has the closed form

    sum_e ||sum_l b_e^(l)||^2 / p_e  -  sum_e ||sum_l b_e^(l)||^2

summed over dimensions, and the probabilities minimizing it under a
fixed expected edge count m are proportional to ||sum_l b_e^(l)||.
This module computes the aggregates from a full-graph propagation,
evaluates the closed form, draws Monte-Carlo estimates to cross-check
it, and exposes the survival probability of the contrasting per-layer
sampling scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import Model, graph_adjacency
from .graph import Graph, _freeze, index_dtype, memoized
from .samplers import budget_probabilities

__all__ = [
    "EdgeAggregates",
    "edge_aggregates",
    "budget_probabilities",
    "optimal_edge_probs",
    "variance_closed_form",
    "variance_monte_carlo",
    "survival_probability",
]

# Scratch bytes of one Monte-Carlo block. Chosen from a sweep of 0.5-16 MiB
# on the benchmark's seed-7 inputs (both estimates of one check, budgets
# interleaved in one process, 15 reps, median ms; 2-vCPU VM): 2.1k edges at
# 2e4 trials took 311, 267, 235, 231, 250 and 282 ms at 0.5, 1, 2, 4, 8 and
# 16 MiB; 44.7k edges at 256 trials (64-row chunks) 74, 67, 66 and 65 ms at
# 0.5-4 MiB. Below 2 MiB the per-class, per-block calls dominate; 4 MiB is
# no faster and keeps twice the memory resident.
_BLOCK_BYTES = 2 << 20
# Bytes per expected candidate slot, which with the (rows x d) sums set a
# block's rows; the estimate depends on the rows, so this value stays.
# The candidate scratch (``_Scratch``) takes 33 bytes per slot of the
# largest class's first draw in a full block, which is a share of the
# block's expected candidates over all classes, so 32 bounds it unless
# one class holds almost all of them.
_CANDIDATE_BYTES = 32


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


def _edge_incidence(g: Graph) -> sp.csr_matrix:
    """The (|E| x |V|) matrix whose row e = (u, v), u <= v, holds
    A[v, u] = 1/deg(v) at column u, then A[u, v] = 1/deg(u) at column v,
    so ``incidence @ xt`` is every edge's aggregate of ``xt``.

    Every row holds two entries (a self-loop both in one column, which
    the product adds), so ``indptr`` is 0, 2, 4, ... and rows s..t-1 are
    the entries 2s..2t-1. Built once per frozen graph
    (``graph.memoized``), on the first call: two float64 values, two
    int32 columns and one int32 row pointer per edge, 28 bytes, all
    read-only.
    """

    def build() -> sp.csr_matrix:
        num_edges = g.num_edges
        idx = index_dtype(max(2 * num_edges, g.num_nodes))
        data = np.empty(2 * num_edges)
        # Coefficient on the u-side term is the adjacency entry of row v.
        np.divide(1.0, g.degrees[g.edge_endpoints[:, 1]], out=data[0::2])
        np.divide(1.0, g.degrees[g.edge_endpoints[:, 0]], out=data[1::2])
        columns = np.ascontiguousarray(g.edge_endpoints, dtype=idx).reshape(-1)
        indptr = np.arange(0, 2 * num_edges + 1, 2, dtype=idx)
        incidence = sp.csr_matrix((data, columns, indptr), shape=(num_edges, g.num_nodes))
        _freeze(incidence.data, incidence.indices, incidence.indptr)
        return incidence

    return memoized(g, "_incidence", build)


def _chunk_edges(dim: int) -> int:
    """Edges per chunk whose (rows x dim) float64 block fills ``_BLOCK_BYTES``."""
    return max(_BLOCK_BYTES // (8 * dim), 1)


def _layer_sum(g: Graph, features: np.ndarray, model: Model) -> np.ndarray:
    """The (|E| x d) layer sum of the edge terms ``incidence @ xt``
    (see :func:`edge_aggregates`), without norms."""
    out_dims = {w.shape[1] for w in model.weights}
    if len(out_dims) != 1:
        raise ValueError("edge aggregates require all layers to share one output dimension")
    step = _chunk_edges(out_dims.pop())
    incidence = _edge_incidence(g)
    last = model.num_layers - 1
    adjacency = graph_adjacency(g) if last else None
    x = features
    for l, w in enumerate(model.weights):
        xt = x @ w
        if l == 0:
            layer_sum = incidence @ xt
        else:
            for start in range(0, g.num_edges, step):
                stop = min(start + step, g.num_edges)
                # Rows start..stop-1 as views: every row holds two entries.
                rows = sp.csr_matrix(
                    (incidence.data[2 * start : 2 * stop], incidence.indices[2 * start : 2 * stop],
                     incidence.indptr[: stop - start + 1]),
                    shape=(stop - start, g.num_nodes),
                )
                layer_sum[start:stop] += rows @ xt
        if l < last:
            x = adjacency @ xt
            np.maximum(x, 0.0, out=x)
    return layer_sum


def edge_aggregates(g: Graph, features: np.ndarray, model: Model) -> EdgeAggregates:
    """Layer-summed aggregate vectors for every undirected edge.

    Propagates over the full graph itself: each layer forms
    ``xt = x @ W_l`` and its edge terms ``incidence @ xt``, one sparse
    product with the (|E| x |V|) edge-incidence matrix (two entries a
    row, A[v, u] and A[u, v] for edge (u, v)), and every layer but the
    last then sets ``x = relu(A @ xt)`` with the shared
    ``graph_adjacency``. The layer inputs equal those of ``forward_full``
    where every hidden layer narrows the width, and agree with them to
    rounding otherwise. Each row's sum is formed as
    ``(0 + A[v, u] * xt[u]) + A[u, v] * xt[v]``, so it equals the
    explicit per-edge formula bit for bit.

    The first layer's product is the result; each later layer adds its
    product into it in chunks of edges, and the norms are taken in
    chunks too. Besides the result it holds about 2 MiB
    (``_BLOCK_BYTES``) of chunk scratch, the norms, the (|V| x d) layer
    products and, built on the graph's first call and kept with it, the
    incidence matrix (28 bytes per edge).
    """
    layer_sum = _layer_sum(g, features, model)
    step = _chunk_edges(layer_sum.shape[1])
    norms = np.empty(g.num_edges)
    for start in range(0, g.num_edges, step):
        norms[start : start + step] = np.linalg.norm(layer_sum[start : start + step], axis=1)
    return EdgeAggregates(layer_sum=layer_sum, norms=norms)


def optimal_edge_probs(aggregates: EdgeAggregates, m: float) -> np.ndarray:
    """Variance-minimizing probabilities for expected edge count m."""
    if not np.any(aggregates.norms > 0):
        raise ValueError("all edge aggregates are zero; optimal probabilities undefined")
    return budget_probabilities(aggregates.norms, m)


def _checked_probs(probs, num_edges: int) -> np.ndarray:
    """``probs`` as a float64 vector of ``num_edges`` values in [0, 1]."""
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (num_edges,):
        raise ValueError(f"probs must have shape ({num_edges},), got {p.shape}")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both comparisons
        raise ValueError("probabilities must lie in [0, 1]")
    return p


def variance_closed_form(aggregates: EdgeAggregates, probs: np.ndarray) -> float:
    """Exact variance of the edge estimator, summed over dimensions.

    Returns inf when some edge with a nonzero aggregate has probability
    zero (the estimator is then undefined on that edge).
    """
    sq = aggregates.norms**2
    p = _checked_probs(probs, sq.shape[0])
    if np.any((p == 0) & (sq > 0)):
        return float("inf")
    active = sq > 0
    return float((sq[active] / p[active]).sum() - sq.sum())


@dataclass(frozen=True)
class _RateClass:
    """Edges with p_e in [r/2, r), r = 2^e, and their acceptance ratios
    p_e / r in [1/2, 1)."""

    edges: np.ndarray
    r: float
    accept: np.ndarray


def _rate_classes(p: np.ndarray) -> list[_RateClass]:
    """The edges with 0 < p < 1 grouped by the power of two above p,
    highest rate first. Edge IDs are int32 below 2^31 edges."""
    edges = np.flatnonzero((p > 0.0) & (p < 1.0)).astype(index_dtype(p.shape[0]))
    if not edges.size:
        return []
    mantissa, exponent = np.frexp(p[edges])  # p = mantissa * 2^exponent, mantissa in [1/2, 1)
    # One stable sort by descending exponent groups every class, highest
    # rate first, each keeping its edges in ascending order. The
    # exponents of 0 < p < 1 lie in [-1073, 0], so int16 keys, which
    # numpy sorts stably by radix, hold them.
    order = np.argsort(-exponent.astype(np.int16), kind="stable")
    edges, mantissa, exponent = edges[order], mantissa[order], exponent[order]
    bounds = [0, *(np.flatnonzero(exponent[1:] != exponent[:-1]) + 1).tolist(), edges.shape[0]]
    return [
        _RateClass(edges=edges[lo:hi], r=float(np.ldexp(1.0, exponent[lo])), accept=mantissa[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _draw_size(left: float) -> int:
    """Skips to draw for ``left`` expected candidates still to place:
    four standard deviations above that, so one draw almost always ends
    the class."""
    return int(left + 4.0 * math.sqrt(left)) + 1


class _Scratch:
    """The candidate buffers of one ``variance_monte_carlo`` call, reused
    by every class of every block: 33 bytes per slot.

    - ``draw``: a draw's standard exponentials, then the class's
      uniforms, then (as int64) the trials it keeps;
    - ``pos``: the candidate positions, then their trials, then (as
      float64) the ones of the CSR matrix;
    - ``col``: the candidates' columns, then (with the class edges'
      dtype, int32 below 2^31 edges) the kept edge IDs;
    - ``accept``: the candidates' acceptance ratios, then (as int64)
      the kept columns;
    - ``keep``: the keep mask.
    """

    def __init__(self, size: int) -> None:
        self._allocate(size)

    def _allocate(self, size: int) -> None:
        self.draw = np.empty(size)
        self.pos = np.empty(size, dtype=np.int64)
        self.col = np.empty(size, dtype=np.int64)
        self.accept = np.empty(size)
        self.keep = np.empty(size, dtype=bool)

    def reserve(self, size: int, filled: int) -> None:
        """Hold at least ``size`` slots, keeping the first ``filled``
        positions. Only a class whose first draw fell short of its slots
        can need more than the call's first size."""
        if size > self.pos.shape[0]:
            pos = self.pos[:filled]
            self._allocate(size)
            self.pos[:filled] = pos


def _candidate_slots(r: float, slots: int, rng: np.random.Generator, scratch: _Scratch) -> np.ndarray:
    """Ascending slots of 0 .. slots-1, each present independently with
    probability r < 1, placed by geometric skips; a view of
    ``scratch.pos``.

    Below r = 1/3, numpy's ``Generator.geometric`` inverts one standard
    exponential E per skip, as ceil(E / -log1p(-r)). The skips here are
    drawn that way, with the logarithm taken once, so they equal
    ``rng.geometric(r)``'s and leave the generator in the same state. At
    r = 1/2 numpy searches instead, so that class keeps
    ``rng.geometric``.
    """
    scale = -math.log1p(-r)
    filled = 0  # positions drawn so far
    end = 0  # one past the last candidate so far
    while True:
        size = _draw_size((slots - end) * r)
        scratch.reserve(filled + size, filled)
        gaps = scratch.pos[filled : filled + size]
        # A gap of slots + 1 passes the last slot from any start, so
        # clipping there keeps the draw exact and the cumulative sum from
        # wrapping.
        if r >= 1.0 / 3.0:
            np.minimum(rng.geometric(r, size=size), slots + 1, out=gaps)
        else:
            skips = scratch.draw[:size]
            rng.standard_exponential(out=skips)
            with np.errstate(over="ignore"):  # inf for subnormal r
                skips /= scale
            np.ceil(skips, out=skips)
            # Clipped while float64, so the cast into gaps is exact.
            np.minimum(skips, slots + 1, out=skips)
            gaps[...] = skips
        np.cumsum(gaps, out=gaps)
        gaps += end - 1
        filled += size
        if gaps[-1] >= slots:
            break
        end = int(gaps[-1]) + 1
    pos = scratch.pos[:filled]
    return pos[: np.searchsorted(pos, slots)]


def _kept_slots(c: _RateClass, k: int, rng: np.random.Generator, scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """One block of k trials of class ``c``: the (trial, index into
    ``c.edges``) pairs the trials keep, in trial order. Below r = 1 both
    are views of ``scratch``, valid until its next use.

    Edge e of the class is kept in each trial independently with
    probability r * p_e / r = p_e: a candidate with probability r,
    accepted with probability p_e / r.
    """
    n = c.edges.shape[0]
    if c.r == 1.0:  # every slot is a candidate
        return np.nonzero(rng.random((k, n)) < c.accept)
    trial = _candidate_slots(c.r, k * n, rng, scratch)
    size = trial.shape[0]
    col = scratch.col[:size]
    np.divmod(trial, n, out=(trial, col))
    uniform = scratch.draw[:size]
    rng.random(out=uniform)
    # The indices are in range; mode "raise" would buffer ``out``.
    accept = np.take(c.accept, col, out=scratch.accept[:size], mode="clip")
    kept = np.flatnonzero(np.less(uniform, accept, out=scratch.keep[:size]))
    # Into the buffers of the uniforms and ratios, which np.less consumed.
    return (
        np.take(trial, kept, out=scratch.draw.view(np.int64)[: kept.shape[0]], mode="clip"),
        np.take(col, kept, out=scratch.accept.view(np.int64)[: kept.shape[0]], mode="clip"),
    )


def variance_monte_carlo(
    g: Graph,
    features: np.ndarray,
    model: Model,
    probs: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    chunk: int = 20_000,
    *,
    aggregates: EdgeAggregates | None = None,
) -> float:
    """Empirical variance of the edge estimator under independent
    sampling, summed over dimensions.

    Each trial draws only the edges it keeps. Edges with p = 1 are in
    every trial and fold into one constant; edges with p = 0 are in
    none. The rest are grouped by r = 2^e with p_e in [r/2, r). Within
    a class, candidates over the trial-major (trial, edge) slots are
    placed by geometric skips with rate r and accepted with probability
    p_e / r >= 1/2, so a trial costs O(sum p) draws, not O(|E|). Below
    r = 1/3 a skip is ceil(E / -log1p(-r)) of one standard exponential
    E, numpy's own inversion, so the skips and the generator's state
    equal those of ``rng.geometric``, which the r = 1/2 class still
    calls. A block's trial sums are, per class, a sparse (block rows x
    |E|) 0/1 matrix on the class's edge columns times the b_e / p_e
    rows, added class by class.

    Trials are drawn in blocks of at most ``chunk`` rows (a cap, not a
    block size), and of at most as many rows as keep the block's
    expected candidate scratch and its (rows x d) sums within
    ``_BLOCK_BYTES`` (2 MiB), but at least one. So the block scratch
    stays about 2 MiB whatever ``trials`` is. The estimate depends on
    the seed, ``trials`` and ``chunk``. The candidate scratch is
    allocated once per call and reused by every class and block: four
    8-byte buffers and one mask, 33 bytes per slot of the largest
    class's first draw in a full block. It grows only for a class whose
    first draw falls short, about four standard deviations out.

    ``aggregates`` may pass ``edge_aggregates(g, features, model)`` when
    the caller already has it, which saves the recompute. Otherwise the
    estimator computes the layer sums alone, through the graph's shared
    adjacency and incidence matrices, without the norms it never reads.
    Besides its blocks and per-edge vectors, it holds one scaled
    (|E| x d) array of b_e / p_e: a new array divided from the given
    aggregates, which it never writes, or else its own layer sums scaled
    in place, so no array beyond them. The rows of the p = 1 edges are
    also gathered once, for the constant. The trial matrices take int32
    edge IDs and row pointers below 2^31 edges, which scipy uses without
    a scan or a copy.

    Accumulation is centered on the exact mean (the sum of layer sums),
    which keeps the two-pass variance stable when streamed in blocks.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    p = _checked_probs(probs, g.num_edges)
    given = aggregates is not None
    layer_sum = aggregates.layer_sum if given else _layer_sum(g, features, model)
    if layer_sum.shape[0] != g.num_edges:
        raise ValueError(f"aggregates must have {g.num_edges} rows, got {layer_sum.shape[0]}")
    dim = layer_sum.shape[1]
    base = layer_sum[p == 1.0].sum(axis=0) - layer_sum.sum(axis=0)
    # b_e / p_e, into a new array for the caller's aggregates or in place
    # in the estimator's own. Rows with p = 1 divide by 1 and keep their
    # bits; rows with p = 0 turn inf or NaN, but no trial matrix has
    # their column, so none is read.
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.divide(layer_sum, p[:, None], out=None if given else layer_sum)
    classes = _rate_classes(p)
    candidates_per_trial = sum(c.r * c.edges.shape[0] for c in classes)

    row_bytes = _CANDIDATE_BYTES * candidates_per_trial + 16 * dim
    rows = min(max(int(_BLOCK_BYTES // row_bytes), 1), chunk, trials)
    # A class's first draw in a full block is its largest; an r = 1 class
    # keeps at most its rows x n slots, which this also covers.
    scratch = _Scratch(max((_draw_size(rows * c.edges.shape[0] * c.r) for c in classes), default=0))
    # The trial matrices' indices have the class edges' dtype, int32
    # below 2^31 edges, which scipy takes as they are; int64 ones it
    # would scan and copy in every matrix.
    idx = index_dtype(g.num_edges)
    indptr = np.zeros(rows + 1, dtype=idx)
    dev_rows = np.empty((rows, dim))
    s1 = np.zeros(dim)
    s2 = np.zeros(dim)
    done = 0
    while done < trials:
        k = min(rows, trials - done)
        dev = dev_rows[:k]
        dev[...] = base
        for c in classes:
            trial, col = _kept_slots(c, k, rng, scratch)
            kept = col.shape[0]
            np.cumsum(np.bincount(trial, minlength=k), out=indptr[1 : k + 1])
            edge = np.take(c.edges, col, out=scratch.col.view(idx)[:kept], mode="clip")
            ones = scratch.pos.view(np.float64)[:kept]
            ones.fill(1.0)
            dev += sp.csr_matrix((ones, edge, indptr[: k + 1]), shape=(k, g.num_edges)) @ scaled
        s1 += dev.sum(axis=0)
        s2 += np.multiply(dev, dev, out=dev).sum(axis=0)
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
