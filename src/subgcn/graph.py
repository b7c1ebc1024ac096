"""Immutable CSR representation of an undirected training graph.

The adjacency is stored as directed arcs: every undirected edge (u, v)
with u != v contributes the two arcs (u, v) and (v, u); a self-loop
(v, v) is stored as a single arc. Arc values hold the row-normalized
adjacency (each row divided by the node degree), so the value matrix is
row-stochastic on non-isolated nodes but not symmetric.

A ``Graph`` cannot change: its arrays are read-only from construction
on (:func:`read_only`), so it may be shared freely across threads, and
each value derived from it is computed once and kept on it
(:func:`memoized`): its hash, full-graph adjacency, reverse-arc table
and edge-incidence matrix, and the layer-0 aggregate ``A @ features``
of one read-only features array at a time (``engine.forward_full``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

__all__ = [
    "Graph",
    "Subgraph",
    "build_graph",
    "induced_subgraph",
    "arc_source_nodes",
]

T = TypeVar("T")

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class Graph:
    """CSR adjacency of an undirected graph with row-stochastic values.

    Attributes
    ----------
    num_nodes : int
        Node count; IDs are dense integers in [0, num_nodes).
    num_edges : int
        Undirected edge count. Self-loops count once.
    row_offsets : ndarray of int64, shape (num_nodes + 1,)
        Arc range of node v is [row_offsets[v], row_offsets[v + 1]).
    col_indices : ndarray of int64, shape (num_arcs,)
        Neighbor IDs, strictly increasing within each row.
    norm_values : ndarray of float64, shape (num_arcs,)
        Row-normalized adjacency entry per arc (1 / degree of the row
        node), so each non-empty row sums to 1.
    degrees : ndarray of int64, shape (num_nodes,)
        Arc count per row (self-loop arcs count once).
    edge_endpoints : ndarray of int64, shape (num_edges, 2)
        Undirected edge table, each row (u, v) with u <= v, sorted
        lexicographically. Row index is the undirected edge ID.
    arc_to_edge : ndarray of int64, shape (num_arcs,)
        Undirected edge ID of each arc (both arcs of an edge share it).
    """

    num_nodes: int
    num_edges: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    norm_values: np.ndarray
    degrees: np.ndarray
    edge_endpoints: np.ndarray
    arc_to_edge: np.ndarray

    def __post_init__(self) -> None:
        for name in _GRAPH_ARRAYS:
            object.__setattr__(self, name, read_only(getattr(self, name)))  # the dataclass is frozen

    @property
    def num_arcs(self) -> int:
        return int(self.col_indices.shape[0])


@dataclass(frozen=True)
class Subgraph:
    """Node-induced subgraph in local IDs with back-references.

    Attributes
    ----------
    nodes : ndarray of int64
        Original node IDs, sorted and unique. Local ID i maps to
        nodes[i].
    row_offsets, col_indices : ndarray of int64
        Local CSR over local IDs.
    arc_origin : ndarray of int64
        For each local arc, the arc index in the parent graph.
    """

    nodes: np.ndarray
    row_offsets: np.ndarray
    col_indices: np.ndarray
    arc_origin: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def num_arcs(self) -> int:
        return int(self.col_indices.shape[0])


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _frozen(arr) -> bool:
    """Whether ``arr`` and every array it views are read-only, down to
    one that owns its data."""
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


_GRAPH_ARRAYS = ("row_offsets", "col_indices", "norm_values", "degrees", "edge_endpoints", "arc_to_edge")


def read_only(a) -> np.ndarray:
    """``a`` as an array no one can write through: frozen in place if it
    owns its data, else copied first unless it is frozen down to its
    owner (:func:`_frozen`), so no later write by the caller reaches it.
    The result is a read-only view, which numpy refuses to make writable.
    """
    a = np.asarray(a)
    if not _frozen(a):
        if a.base is not None:
            a = a.copy()
        a.setflags(write=False)
    return a.view()


def memoized(owner, key: str, build: Callable[..., T], source: object = None) -> T:
    """``build(owner)``, or ``build(owner, source)``, computed once per
    ``owner`` and ``source`` and kept in ``owner.__dict__`` under ``key``
    (not a field, so ``dataclasses.replace`` starts without it).

    ``owner`` cannot change: a ``Graph``, or a ``NormCoeffs``. ``source``
    is the one other object the value derives from, compared with
    ``is``: a call with another one builds and keeps a value in its
    place. It must not change in place either. Pass a module function
    as ``build``; a closure made per call costs more than the lookup.
    Two threads racing on a first call may each build; both values are
    identical, and the last one stored stays.
    """
    memo = owner.__dict__.get(key)
    if memo is None or memo[0] is not source:
        value = build(owner) if source is None else build(owner, source)
        memo = owner.__dict__[key] = (source, value)  # the dataclass is frozen; its __dict__ is not
    return memo[1]


def index_dtype(size: int) -> type[np.integer]:
    """int32, the index type scipy's sparse kernels take without a
    copy, when every index and count up to ``size`` fits; else int64."""
    return np.int32 if size <= _INT32_MAX else np.int64


def reverse_arcs(g: Graph) -> np.ndarray:
    """Index of the reverse arc (v, u) of every arc (u, v); a self-loop
    arc is its own reverse. Read-only, in ``index_dtype``, and computed
    once per graph (:func:`memoized`).

    Arcs are stored row-major, so a stable sort by column lists them
    column-major: its k-th arc (v, u) is the reverse of arc k, whose key
    (u, v) has the same rank among the row-major keys. The permutation
    is an involution, so that sort is the table itself.
    """
    return memoized(g, "_reverse_arcs", _build_reverse_arcs)


def _build_reverse_arcs(g: Graph) -> np.ndarray:
    rev = np.argsort(g.col_indices, kind="stable").astype(index_dtype(g.num_arcs))
    _freeze(rev)
    return rev


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` of a 1-D array by one sort and a neighbour compare.

    Same values and dtype. numpy 2.x routes integer ``np.unique``
    through a hash table, which costs far more than the sort.
    """
    a = np.sort(a)
    first = np.ones(a.shape[0], dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _check_integer(what: str, a: np.ndarray) -> None:
    """Refuse a non-integer dtype (bool included) instead of casting it."""
    if a.dtype.kind not in "iu":
        raise ValueError(f"{what} must have an integer dtype, got {a.dtype}")


def build_graph(
    edge_list: Iterable[tuple[int, int]] | np.ndarray,
    num_nodes: int,
) -> Graph:
    """Build the immutable CSR graph from an undirected edge list.

    Duplicate pairs and both orientations of the same edge are
    deduplicated. Loops (v, v) in the input are kept as single-arc
    edges, so a graph with a loop on every node passes every (v, v).

    Cost: one sort of the k input edge keys and one argsort of the
    arc keys, plus O(k + num_nodes) linear passes.

    Parameters
    ----------
    edge_list : iterable of (u, v) pairs or (k, 2) array
        Integer endpoints. An empty list of any dtype or shape is the
        graph with no edges.
    num_nodes : int
        Must be positive; all endpoints must lie in [0, num_nodes).

    Raises
    ------
    ValueError
        On an empty graph (num_nodes <= 0), a non-empty edge list that
        is not integer (bool included) or not shaped (k, 2), or an
        out-of-range endpoint.
    """
    if num_nodes <= 0:
        raise ValueError("graph must have at least one node")
    pairs = np.asarray(list(edge_list) if not isinstance(edge_list, np.ndarray) else edge_list)
    if pairs.size:
        _check_integer("edge list", pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edge list must have shape (k, 2), got {pairs.shape}")
    pairs = pairs.reshape(-1, 2).astype(np.int64, copy=False)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= num_nodes).any(axis=1)][0]
        raise ValueError(f"edge ({bad[0]},{bad[1]}) out of range for {num_nodes} nodes")

    n = np.int64(num_nodes)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])

    # Dedup + canonical lexicographic edge order via a scalar key.
    keys = sorted_unique(lo * n + hi)
    lo, hi = np.divmod(keys, n)
    num_edges = int(keys.shape[0])
    edge_endpoints = np.stack([lo, hi], axis=1)

    nonloop = lo != hi
    edge_ids = np.arange(num_edges, dtype=np.int64)
    rows = np.concatenate([lo, hi[nonloop]])
    cols = np.concatenate([hi, lo[nonloop]])
    arc_eid = np.concatenate([edge_ids, edge_ids[nonloop]])
    # Row-major arc order. Every arc key is unique (a loop has one arc,
    # and a forward arc u < v never equals a reverse one), so any sort
    # gives the one permutation that lexsort((cols, rows)) gives.
    order = np.argsort(rows * n + cols)
    rows, cols, arc_eid = rows[order], cols[order], arc_eid[order]

    degrees = np.bincount(rows, minlength=num_nodes).astype(np.int64)
    row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    norm_values = 1.0 / degrees[rows].astype(np.float64) if rows.size else np.zeros(0)

    return Graph(
        num_nodes=num_nodes,
        num_edges=num_edges,
        row_offsets=row_offsets,
        col_indices=cols,
        norm_values=norm_values,
        degrees=degrees,
        edge_endpoints=edge_endpoints,
        arc_to_edge=arc_eid,
    )


def induced_subgraph(g: Graph, node_ids: Iterable[int] | np.ndarray) -> Subgraph:
    """Extract the subgraph induced by a multiset of node IDs.

    The local CSR contains exactly the parent arcs with both endpoints
    in the set; repeated IDs count once. An empty set induces the
    subgraph of no nodes (a sampler draw that selected nothing).

    Cost: one pass over the candidate arcs (every parent arc of a
    selected row) finds the kept ones; the row offsets are a binary
    search of the candidate-row boundaries among the kept positions,
    and only the kept columns are localized. Each call also allocates
    O(|V|) scratch memory of its own: a boolean membership mask and an
    uninitialized global-to-local ID map (only the entries of selected
    nodes are written or read).

    Raises
    ------
    ValueError
        On a non-empty ID list that is not integer (bool included), or
        an out-of-range ID.
    """
    ids = np.asarray(list(node_ids) if not isinstance(node_ids, np.ndarray) else node_ids)
    if ids.size:
        _check_integer("node IDs", ids)
    ids = ids.ravel().astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= g.num_nodes):
        raise ValueError("node ID out of range")
    inset = np.zeros(g.num_nodes, dtype=bool)
    inset[ids] = True
    nodes = np.flatnonzero(inset)  # sorted and unique, like np.unique(ids)

    k = nodes.shape[0]
    counts = g.degrees[nodes]
    ends = np.cumsum(counts)  # where each selected row's candidates end
    total = int(ends[-1]) if k else 0
    # Concatenate the parent arc ranges of all selected rows.
    first = g.row_offsets[nodes]
    first -= ends - counts
    arc_idx = np.arange(total, dtype=np.int64)
    arc_idx += np.repeat(first, counts)
    cols = g.col_indices[arc_idx]
    kept = np.flatnonzero(inset[cols])  # candidate positions, ascending
    # Local row i ends after the kept candidates before its row's end.
    row_offsets = np.zeros(k + 1, dtype=np.int64)
    row_offsets[1:] = np.searchsorted(kept, ends)
    local = np.empty(g.num_nodes, dtype=np.int64)
    local[nodes] = np.arange(k, dtype=np.int64)
    arc_origin = arc_idx[kept]
    local_cols = local[cols[kept]]

    _freeze(nodes, row_offsets, local_cols, arc_origin)
    return Subgraph(nodes=nodes, row_offsets=row_offsets, col_indices=local_cols, arc_origin=arc_origin)


def arc_source_nodes(g: Graph) -> np.ndarray:
    """Row (aggregating) node of every arc, aligned with col_indices."""
    return np.repeat(np.arange(g.num_nodes, dtype=np.int64), np.diff(g.row_offsets))
