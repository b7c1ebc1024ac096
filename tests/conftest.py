"""Shared graph fixtures and independent test oracles."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import strategies as st

from subgcn import SbmSpec, build_graph, generate_sbm
from subgcn.graph import arc_source_nodes
from subgcn.samplers import budget_probabilities, edge_weights


@pytest.fixture
def single_edge():
    return build_graph([(0, 1)], 2)


@pytest.fixture
def triangle():
    return build_graph([(0, 1), (1, 2), (0, 2)], 3)


@pytest.fixture
def path3():
    return build_graph([(0, 1), (1, 2)], 3)


@pytest.fixture
def square_chord():
    """Square with a chord: edges (0,1), (1,2), (2,3), (1,3); degrees 1,3,2,2."""
    return build_graph([(0, 1), (1, 2), (2, 3), (1, 3)], 4)


@pytest.fixture
def star6():
    """Star with center 0 and five leaves."""
    return build_graph([(0, i) for i in range(1, 6)], 6)


def parent_edge_set(g) -> set[tuple[int, int]]:
    """All arcs of g as a set of (row, col) pairs, read straight off the CSR."""
    pairs = set()
    for v in range(g.num_nodes):
        for a in range(g.row_offsets[v], g.row_offsets[v + 1]):
            pairs.add((v, int(g.col_indices[a])))
    return pairs


def brute_force_induce(g, node_ids) -> tuple[np.ndarray, set[tuple[int, int]]]:
    """O(k^2) all-pairs induction oracle: unique nodes and the arc set
    (in original IDs) that the induced subgraph must contain."""
    nodes = np.unique(np.asarray(list(node_ids), dtype=np.int64))
    arcs = parent_edge_set(g)
    kept = {(int(u), int(v)) for u in nodes for v in nodes if (int(u), int(v)) in arcs}
    return nodes, kept


def subgraph_arcs_original(sub) -> set[tuple[int, int]]:
    """Arc set of a Subgraph mapped back to original node IDs."""
    out = set()
    for i in range(sub.num_nodes):
        for a in range(sub.row_offsets[i], sub.row_offsets[i + 1]):
            out.add((int(sub.nodes[i]), int(sub.nodes[sub.col_indices[a]])))
    return out


@pytest.fixture
def induction_oracle():
    return brute_force_induce


@pytest.fixture
def subgraph_arc_reader():
    return subgraph_arcs_original


def random_graph(rng: np.random.Generator, max_nodes: int = 200):
    """Random ER-style graph with at least one edge."""
    n = int(rng.integers(2, max_nodes + 1))
    p = float(rng.uniform(0.02, 0.3))
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    if not mask.any():
        mask[rng.integers(iu.shape[0])] = True
    return build_graph(np.stack([iu[mask], iv[mask]], axis=1), n)


def er_graph(n: int, p: float, seed: int = 0):
    """Erdos-Renyi G(n, p): the graph of a one-block SBM."""
    return generate_sbm(SbmSpec(blocks=1, block_size=n, p_intra=p, p_inter=0.0, seed=seed)).graph


def circulant(n: int, offsets):
    """Graph on n nodes with an edge (i, (i + k) mod n) for each offset k."""
    ring = np.arange(n)
    return build_graph(np.concatenate([np.stack([ring, (ring + k) % n], axis=1) for k in offsets]), n)


def random_pairs_graph(num_nodes: int, num_pairs: int, seed: int):
    """Graph from ``num_pairs`` uniform node pairs, loops dropped and
    duplicates merged: sparse, with about ``num_pairs`` edges."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, num_nodes, size=(num_pairs, 2))
    return build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes)


def fresh_copy(g):
    """A new ``Graph`` of copies of ``g``'s arrays: no value derived from
    ``g`` is memoized on it, so it is the unmemoized reference."""
    arrays = {f.name: getattr(g, f.name).copy() for f in fields(g) if isinstance(getattr(g, f.name), np.ndarray)}
    return replace(g, **arrays)


CALLER_KINDS = ("owned", "view", "read-only view")


def caller_array(a: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """``(arg, kept)``: a copy of ``a`` as a caller may pass it, and the
    array the caller keeps and may write to later. ``owned``: the
    argument itself. ``view`` and ``read-only view``: a slice of a
    writable base, which is what the caller keeps."""
    if kind == "owned":
        arg = a.copy()
        return arg, arg
    kept = np.empty((2, *a.shape), a.dtype)
    kept[0] = a
    arg = kept[0]
    if kind == "read-only view":
        arg.setflags(write=False)
    return arg, kept


def assert_read_only(a: np.ndarray) -> None:
    """An in-place write to ``a`` raises, and so does making it writable."""
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0
    with pytest.raises(ValueError, match="WRITEABLE"):
        a.setflags(write=True)


def change_kept(kept: np.ndarray, kind: str) -> None:
    """Write to the array a caller kept (:func:`caller_array`). The
    owned array was passed itself, so the write must raise."""
    if kind == "owned":
        with pytest.raises(ValueError, match="read-only"):
            kept += 1
    else:
        kept += 1


@pytest.fixture
def random_graph_factory():
    return random_graph


@st.composite
def graph_inputs(draw, max_nodes: int = 24, min_pairs: int = 0):
    """``(pairs, num_nodes)`` arguments of ``build_graph`` from arbitrary
    pair lists: duplicate and reversed pairs, loops in the input,
    isolated nodes, and, when a drawn flag is set, a loop (v, v)
    appended for every node."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=min_pairs, max_size=3 * n))
    if draw(st.booleans()):
        pairs += [(v, v) for v in range(n)]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), n


def small_graphs(max_nodes: int = 24, min_pairs: int = 0):
    """Small graphs built from ``graph_inputs``."""
    return graph_inputs(max_nodes, min_pairs).map(lambda args: build_graph(*args))


@dataclass(frozen=True)
class EdgeMaskCoeffs:
    """Per-arc alpha and per-node lambda of a drawn edge set."""

    alpha: np.ndarray
    lam: np.ndarray


def analytic_coeffs_edge(g, m: int) -> EdgeMaskCoeffs:
    """Pre-induction closed-form coefficients for independent edge
    sampling: the oracle of the edge-mask unbiasedness checks.

    With p_e the edge weights w_e water-filled to the budget m
    (proportional to w_e, capped at 1, the excess refilled into the
    other edges; ``budget_probabilities``) the node inclusion
    probability is p_v = 1 - prod_{e incident to v} (1 - p_e); then
    alpha = p_e / p_v per arc and lambda = p_v. This describes the
    drawn edge set only: an arc that node induction adds (both
    endpoints drawn through other edges) is not counted, so alpha here
    is below the induced p_uv / p_v that ``estimate_coeffs`` returns
    for ``edge_independent``. lambda is the same. The checks that use
    it draw edge sets, not induced subgraphs.
    """
    p_e = budget_probabilities(edge_weights(g).weights, m)
    u, v = g.edge_endpoints[:, 0], g.edge_endpoints[:, 1]
    nonloop = u != v  # a self-loop counts once
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-p_e)
    log_q = np.bincount(u, weights=log_miss, minlength=g.num_nodes)
    log_q += np.bincount(v[nonloop], weights=log_miss[nonloop], minlength=g.num_nodes)
    p_v = -np.expm1(log_q)
    p_v[g.degrees == 0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = p_e[g.arc_to_edge] / p_v[arc_source_nodes(g)]
    return EdgeMaskCoeffs(alpha=alpha, lam=p_v)
