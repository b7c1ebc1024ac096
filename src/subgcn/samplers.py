"""Subgraph samplers and the discrete distributions they draw from.

Five samplers produce node multisets that are induced into subgraphs:

- ``node``: i.i.d. nodes weighted by squared column norms of the
  normalized adjacency.
- ``edge``: m edges with replacement, weighted by the sum of inverse
  endpoint degrees (the fast approximate edge sampler).
- ``edge_independent``: one Bernoulli decision per edge with inclusion
  probability proportional to w_e, capped at 1, the mass above the cap
  refilled into the other edges so that the expected count is m (or
  every edge, if m >= |E|); the exact object of the variance analysis.
- ``rw``: r uniform roots, each walking h uniform-neighbor hops.
- ``mrw``: a degree-weighted frontier of r walkers expanded to a node
  budget n.

A degenerate ``full`` kind returns the whole graph and backs full-batch
baselines and normalization sanity checks.

A producer computes each kind's distribution once per (graph, config),
as its ``draw_plan``; the exact normalization coefficients read the same.

Every draw is a pure function of (graph, config, stream index): stream
i uses a counter-based Philox generator keyed by (seed, i), so a stream
resumed at element i repeats the uninterrupted one from there on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Subgraph, induced_subgraph

__all__ = [
    "SamplerConfig",
    "Categorical",
    "make_rng",
    "node_weights",
    "edge_weights",
    "budget_probabilities",
    "draw_plan",
    "sample_node",
    "sample_edge_approx",
    "sample_edge_independent",
    "sample_rw",
    "sample_mrw",
    "sample",
    "SubgraphProducer",
]

logger = logging.getLogger(__name__)

SAMPLER_KINDS = ("node", "edge", "edge_independent", "rw", "mrw", "full")


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the given seed and stream key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def _is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer >= 1."""
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, found {value!r:.40}")


def _check_seed(seed) -> None:
    """ValueError naming ``seed`` unless it is a non-negative integer."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, found {seed!r:.40}")


@dataclass(frozen=True)
class SamplerConfig:
    """Tagged sampler choice with its budgets.

    ``n`` is the node budget (node, mrw), ``m`` the edge budget (edge,
    edge_independent), ``r`` the root count (rw, mrw) and ``h`` the walk
    length in hops (rw). Budgets are integers (not bools) and upper
    bounds on the subgraph size, not exact sizes; ``seed`` is a
    non-negative integer.
    """

    kind: str
    n: int | None = None
    m: int | None = None
    r: int | None = None
    h: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}")
        need = {
            "node": ("n",),
            "edge": ("m",),
            "edge_independent": ("m",),
            "rw": ("r", "h"),
            "mrw": ("n", "r"),
            "full": (),
        }[self.kind]
        for name in ("n", "m", "r", "h"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise ValueError(f"sampler budget {name!r} must be an integer, found {value!r:.40}")
            if name in need and (value is None or value < 1):
                raise ValueError(f"sampler {self.kind!r} requires positive budget {name!r}")
        _check_seed(self.seed)
        if self.kind == "mrw" and not self.r < self.n:
            raise ValueError("mrw requires r < n")
        # Plain ints: the caches store the config as JSON, which has no numpy integer.
        for name in ("n", "m", "r", "h", "seed"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, int(value))  # the dataclass is frozen


@dataclass(frozen=True)
class Categorical:
    """Categorical distribution over 0..len(weights)-1 with probabilities
    proportional to ``weights``, precomputed once per graph.

    ``total`` is ``weights.sum()``, not ``cumulative[-1]``: the pairwise
    and the running sum differ in the last bits, and every draw scales
    by ``total``. A uniform that lands in that gap maps to ``last``, the
    last index of positive weight, not one past the end.
    """

    weights: np.ndarray
    cumulative: np.ndarray
    total: float
    last: int

    @classmethod
    def of(cls, w: np.ndarray) -> Categorical:
        """The distribution of non-negative ``w`` with a positive weight."""
        last = int(np.flatnonzero(w)[-1])
        return cls(weights=w, cumulative=np.cumsum(w), total=float(w.sum()), last=last)

    def probabilities(self) -> np.ndarray:
        return self.weights / self.total

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        u = rng.random(k) * self.total
        return np.minimum(np.searchsorted(self.cumulative, u, side="right"), self.last)


def node_weights(g: Graph) -> Categorical:
    """Weight of node u is the squared column norm sum_v (1/deg(v))^2
    over arcs (v, u).

    Raises ValueError when every node is isolated (total weight zero).
    """
    w = np.bincount(g.col_indices, weights=g.norm_values**2, minlength=g.num_nodes)
    if not w.sum() > 0.0:
        raise ValueError("node distribution undefined: all nodes are isolated")
    return Categorical.of(w)


def edge_weights(g: Graph) -> Categorical:
    """Weight of edge (u, v) is 1/deg(u) + 1/deg(v).

    A self-loop counts both orientations of its single stored arc.
    """
    if g.num_edges == 0:
        raise ValueError("edge distribution undefined: graph has no edges")
    w = np.bincount(g.arc_to_edge, weights=g.norm_values, minlength=g.num_edges)
    loops = g.edge_endpoints[:, 0] == g.edge_endpoints[:, 1]
    w[loops] *= 2.0
    return Categorical.of(w)


def sample_node(g: Graph, n: int, rng: np.random.Generator, dist: Categorical) -> Subgraph:
    """Draw n nodes i.i.d. from ``dist`` (:func:`node_weights`) and induce."""
    if n < 1:
        raise ValueError("node budget must be positive")
    return induced_subgraph(g, dist.draw(rng, n))


def sample_edge_approx(g: Graph, m: int, rng: np.random.Generator, dist: Categorical) -> Subgraph:
    """Draw m edges with replacement from ``dist`` (:func:`edge_weights`)
    and induce over their endpoints."""
    if m < 1:
        raise ValueError("edge budget must be positive")
    eids = dist.draw(rng, m)
    return induced_subgraph(g, g.edge_endpoints[eids].ravel())


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


def sample_edge_independent(
    g: Graph, p: np.ndarray, rng: np.random.Generator
) -> tuple[Subgraph, np.ndarray]:
    """Independent per-edge Bernoulli sampling with per-edge rates ``p``
    (the edge weights water-filled to the budget by
    :func:`budget_probabilities`).

    Returns the subgraph induced over the endpoints of the selected
    edges together with the realized boolean inclusion mask (needed by
    the variance analysis, which reasons about the pre-induction edge
    set). A draw that selects no edge induces the subgraph of no nodes.
    """
    mask = rng.random(p.shape[0]) < p
    return induced_subgraph(g, g.edge_endpoints[mask].ravel()), mask


def sample_rw(g: Graph, r: int, h: int, rng: np.random.Generator) -> Subgraph:
    """r uniform roots (with replacement), each walking h uniform hops.

    A walker stranded on an isolated node stops early; this is recorded
    at debug level and the partial visit set is kept.
    """
    if r < 1 or h < 1:
        raise ValueError("rw requires r >= 1 and h >= 1")
    roots = rng.integers(0, g.num_nodes, size=r)
    visits = list(roots)
    stopped = 0
    for root in roots:
        u = int(root)
        for _ in range(h):
            d = int(g.degrees[u])
            if d == 0:
                stopped += 1
                break
            u = int(g.col_indices[g.row_offsets[u] + rng.integers(d)])
            visits.append(u)
    if stopped:
        logger.debug("rw sampler: %d of %d walkers stopped early at isolated nodes", stopped, r)
    return induced_subgraph(g, visits)


def sample_mrw(g: Graph, n: int, r: int, rng: np.random.Generator) -> Subgraph:
    """Frontier sampler: expand r degree-weighted walkers to budget n.

    Each step picks a frontier slot with probability proportional to
    its degree and moves it to a uniform neighbor; the sample is every
    node that ever enters the frontier (r roots plus n - r moves, so
    |V_s| <= n). Stops early (recorded) if the whole frontier becomes
    isolated.
    """
    if r < 1 or not r < n:
        raise ValueError("mrw requires 1 <= r < n")
    frontier = rng.integers(0, g.num_nodes, size=r)
    visits = list(frontier)
    for _ in range(n - r):
        degs = g.degrees[frontier]
        total = int(degs.sum())
        if total == 0:
            logger.debug("mrw sampler: frontier all isolated after %d nodes", len(visits))
            break
        j = int(np.searchsorted(np.cumsum(degs), rng.random() * total, side="right"))
        u = int(frontier[j])
        nb = int(g.col_indices[g.row_offsets[u] + rng.integers(degs[j])])
        frontier[j] = nb
        visits.append(nb)
    return induced_subgraph(g, visits)


def draw_plan(g: Graph, cfg: SamplerConfig) -> Categorical | np.ndarray | None:
    """What each draw of ``cfg``'s sampler on ``g`` reads, as do the exact
    coefficients: the ``node_weights`` or ``edge_weights`` distribution
    (``node``, ``edge``), the edge weights water-filled to m by
    ``budget_probabilities`` (``edge_independent``), or None."""
    if cfg.kind == "node":
        return node_weights(g)
    if cfg.kind == "edge":
        return edge_weights(g)
    if cfg.kind == "edge_independent":
        return budget_probabilities(edge_weights(g).weights, cfg.m)
    return None


def sample(
    g: Graph, cfg: SamplerConfig, rng: np.random.Generator, plan: Categorical | np.ndarray | None
) -> Subgraph:
    """Dispatch one draw of the configured sampler; ``plan`` is
    ``draw_plan(g, cfg)``."""
    if cfg.kind == "node":
        return sample_node(g, cfg.n, rng, plan)
    if cfg.kind == "edge":
        return sample_edge_approx(g, cfg.m, rng, plan)
    if cfg.kind == "edge_independent":
        return sample_edge_independent(g, plan, rng)[0]
    if cfg.kind == "rw":
        return sample_rw(g, cfg.r, cfg.h, rng)
    if cfg.kind == "mrw":
        return sample_mrw(g, cfg.n, cfg.r, rng)
    return induced_subgraph(g, np.arange(g.num_nodes))


class SubgraphProducer:
    """Deterministic stream of subgraphs, drawn in the calling thread.

    Stream element i is always the draw with RNG stream (cfg.seed, i);
    ``take`` returns elements in stream order, starting at ``start``.
    """

    def __init__(self, graph: Graph, cfg: SamplerConfig, start: int = 0):
        self._graph = graph
        self._cfg = cfg
        self._plan = draw_plan(graph, cfg)
        self._next = start

    def take(self) -> Subgraph:
        """Next subgraph in stream order."""
        sub = sample(self._graph, self._cfg, make_rng(self._cfg.seed, self._next), self._plan)
        self._next += 1
        return sub
