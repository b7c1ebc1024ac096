"""Dataset files, artifact caches, and synthetic graph generators.

Datasets live in a directory of four text files, chosen for desk-scale
inspectability:

- ``graph.txt``: line 1 ``num_nodes num_edges``, then one ``u v`` per
  undirected edge, 0-based, u < v, strictly ascending lexicographic.
- ``features.txt``: line 1 ``num_nodes feature_dim``, then one row of
  space-separated decimal floats per node.
- ``labels.txt``: line 1 ``mode num_classes`` with mode in {single,
  multi}, then per node either one class ID or a 0/1 vector.
- ``split.txt``: one tag per node from {0=train, 1=val, 2=test}.

Subgraph caches, coefficient caches and model checkpoints use a binary
container (magic bytes, version, little-endian 64-bit payloads) bound
to their graph by a BLAKE2b (8-byte digest) hash over the node and arc
counts and the CSR arrays. The container is at version 3, which stores
four arrays per cached subgraph; loaders refuse any other version, and
files of an older version must be regenerated. All writers are
byte-deterministic; loaders reject malformed input with the offending
file and line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .engine import Checkpoint
from .graph import Graph, Subgraph, build_graph
from .normalization import NormCoeffs
from .samplers import SamplerConfig, make_rng

__all__ = [
    "Dataset",
    "SbmSpec",
    "DataFormatError",
    "CacheMismatchError",
    "load_dataset",
    "save_dataset",
    "load_graph_txt",
    "save_graph_txt",
    "graph_hash",
    "save_subgraphs",
    "load_subgraphs",
    "save_coeffs",
    "load_coeffs",
    "save_checkpoint",
    "load_checkpoint",
    "generate_sbm",
    "generate_regular",
    "generate_er",
]


class DataFormatError(ValueError):
    """A file violates the expected grammar or is inconsistent."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


class CacheMismatchError(ValueError):
    """A cached artifact does not belong to the given graph."""


@dataclass
class Dataset:
    """Graph plus node features, labels, and a train/val/test split."""

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    num_classes: int
    label_mode: str  # "single" | "multi"


@dataclass(frozen=True)
class SbmSpec:
    """Planted-community random graph for desk-scale experiments."""

    blocks: int
    block_size: int
    p_intra: float
    p_inter: float
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.blocks < 1 or self.block_size < 1:
            raise ValueError("blocks and block_size must be positive")
        for p in (self.p_intra, self.p_inter):
            if not 0.0 <= p <= 1.0:
                raise ValueError("edge probabilities must lie in [0, 1]")
        if self.noise < 0.0:
            raise ValueError("noise level must be non-negative")


# ----------------------------------------------------------------------
# Text dataset files
# ----------------------------------------------------------------------


def _read_lines(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(path, None, f"cannot read: {exc}") from exc
    return text.splitlines()


def _ints(path: Path, lineno: int, line: str, count: int | None = None) -> list[int]:
    toks = line.split()
    if count is not None and len(toks) != count:
        raise DataFormatError(path, lineno, f"expected {count} integers, found {len(toks)}")
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise DataFormatError(path, lineno, f"invalid integer in {line!r}") from None


def load_graph_txt(path) -> Graph:
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(path, 1, "missing header")
    num_nodes, num_edges = _ints(path, 1, lines[0], 2)
    if num_nodes < 1:
        raise DataFormatError(path, 1, "num_nodes must be positive")
    body = lines[1:]
    if len(body) != num_edges:
        raise DataFormatError(path, 1, f"header claims {num_edges} edges, body has {len(body)}")
    edges = np.zeros((num_edges, 2), dtype=np.int64)
    prev = (-1, -1)
    for i, line in enumerate(body):
        u, v = _ints(path, i + 2, line, 2)
        if not 0 <= u < v < num_nodes:
            raise DataFormatError(path, i + 2, f"edge ({u},{v}) must satisfy 0 <= u < v < {num_nodes}")
        if (u, v) <= prev:
            raise DataFormatError(path, i + 2, "edges must be strictly ascending lexicographic")
        prev = (u, v)
        edges[i] = (u, v)
    return build_graph(edges, num_nodes)


def save_graph_txt(path, g: Graph) -> None:
    if np.any(g.edge_endpoints[:, 0] == g.edge_endpoints[:, 1]):
        raise ValueError("graph text format cannot represent self-loops")
    out = [f"{g.num_nodes} {g.num_edges}"]
    out.extend(f"{u} {v}" for u, v in g.edge_endpoints)
    Path(path).write_text("\n".join(out) + "\n")


def _parse_features(path: Path, num_nodes: int) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(path, 1, "missing header")
    n, dim = _ints(path, 1, lines[0], 2)
    if n != num_nodes:
        raise DataFormatError(path, 1, f"feature rows {n} do not match graph nodes {num_nodes}")
    if dim < 1:
        raise DataFormatError(path, 1, "feature_dim must be positive")
    if len(lines) - 1 != n:
        raise DataFormatError(path, 1, f"header claims {n} rows, body has {len(lines) - 1}")
    feats = np.zeros((n, dim))
    for i, line in enumerate(lines[1:]):
        toks = line.split()
        if len(toks) != dim:
            raise DataFormatError(path, i + 2, f"expected {dim} values, found {len(toks)}")
        try:
            feats[i] = [float(t) for t in toks]
        except ValueError:
            raise DataFormatError(path, i + 2, "invalid float") from None
    return feats


def _parse_labels(path: Path, num_nodes: int) -> tuple[np.ndarray, str, int]:
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(path, 1, "missing header")
    toks = lines[0].split()
    if len(toks) != 2 or toks[0] not in ("single", "multi"):
        raise DataFormatError(path, 1, "header must be 'single|multi num_classes'")
    mode = toks[0]
    try:
        num_classes = int(toks[1])
    except ValueError:
        raise DataFormatError(path, 1, "invalid class count") from None
    if num_classes < 1:
        raise DataFormatError(path, 1, "num_classes must be positive")
    if len(lines) - 1 != num_nodes:
        raise DataFormatError(path, 1, f"expected {num_nodes} label rows, found {len(lines) - 1}")
    if mode == "single":
        labels = np.zeros(num_nodes, dtype=np.int64)
        for i, line in enumerate(lines[1:]):
            vals = _ints(path, i + 2, line)
            if len(vals) != 1:
                raise DataFormatError(
                    path, i + 2, f"single-label row must hold one class ID, found {len(vals)} values"
                )
            if not 0 <= vals[0] < num_classes:
                raise DataFormatError(path, i + 2, f"class ID {vals[0]} out of range")
            labels[i] = vals[0]
    else:
        labels = np.zeros((num_nodes, num_classes), dtype=np.int64)
        for i, line in enumerate(lines[1:]):
            vals = _ints(path, i + 2, line)
            if len(vals) != num_classes:
                raise DataFormatError(
                    path, i + 2, f"multi-label row must hold {num_classes} indicators, found {len(vals)}"
                )
            if any(vv not in (0, 1) for vv in vals):
                raise DataFormatError(path, i + 2, "multi-label indicators must be 0 or 1")
            labels[i] = vals
    return labels, mode, num_classes


def _parse_split(path: Path, num_nodes: int) -> np.ndarray:
    lines = _read_lines(path)
    if len(lines) != num_nodes:
        raise DataFormatError(path, 1, f"expected {num_nodes} split rows, found {len(lines)}")
    split = np.zeros(num_nodes, dtype=np.int64)
    for i, line in enumerate(lines):
        vals = _ints(path, i + 1, line, 1)
        if vals[0] not in (0, 1, 2):
            raise DataFormatError(path, i + 1, "split tag must be 0, 1 or 2")
        split[i] = vals[0]
    if not np.any(split == 0):
        raise DataFormatError(path, None, "split contains no training nodes")
    return split


def load_dataset(directory) -> Dataset:
    """Load and cross-validate a dataset directory."""
    d = Path(directory)
    graph = load_graph_txt(d / "graph.txt")
    features = _parse_features(d / "features.txt", graph.num_nodes)
    labels, mode, num_classes = _parse_labels(d / "labels.txt", graph.num_nodes)
    split = _parse_split(d / "split.txt", graph.num_nodes)
    return Dataset(
        graph=graph,
        features=features,
        labels=labels,
        split=split,
        num_classes=num_classes,
        label_mode=mode,
    )


def save_dataset(ds: Dataset, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    save_graph_txt(d / "graph.txt", ds.graph)

    rows = [f"{ds.graph.num_nodes} {ds.features.shape[1]}"]
    rows.extend(" ".join(repr(float(x)) for x in row) for row in ds.features)
    (d / "features.txt").write_text("\n".join(rows) + "\n")

    rows = [f"{ds.label_mode} {ds.num_classes}"]
    if ds.label_mode == "single":
        rows.extend(str(int(y)) for y in ds.labels)
    else:
        rows.extend(" ".join(str(int(x)) for x in row) for row in ds.labels)
    (d / "labels.txt").write_text("\n".join(rows) + "\n")

    (d / "split.txt").write_text("\n".join(str(int(s)) for s in ds.split) + "\n")


# ----------------------------------------------------------------------
# Binary container
# ----------------------------------------------------------------------

_VERSION = 3
_MAGIC_SUB = b"SGCNSUBG"
_MAGIC_COEF = b"SGCNCOEF"
_MAGIC_CKPT = b"SGCNCKPT"

_DTYPES = {b"i": "<i8", b"f": "<f8"}


def graph_hash(g: Graph) -> int:
    """BLAKE2b (8-byte digest) over the node and arc counts and the CSR
    arrays, read as a little-endian unsigned 64-bit int; binds caches to
    their graph."""
    h = hashlib.blake2b(struct.pack("<2Q", g.num_nodes, g.num_arcs), digest_size=8)
    for arr, code in (
        (g.row_offsets, "<i8"),
        (g.col_indices, "<i8"),
        (g.norm_values, "<f8"),
        (g.degrees, "<i8"),
    ):
        h.update(np.ascontiguousarray(arr, dtype=code))
    return int.from_bytes(h.digest(), "little")


def _write_array(f, arr: np.ndarray) -> None:
    code = b"f" if arr.dtype.kind == "f" else b"i"
    data = np.ascontiguousarray(arr, dtype=_DTYPES[code])
    f.write(code)
    f.write(struct.pack("<B", data.ndim))
    f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
    f.write(data.tobytes())


def _read_exact(f, n: int, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DataFormatError(path, None, "truncated binary file")
    return data


def _read_array(f, path) -> np.ndarray:
    code = _read_exact(f, 1, path)
    if code not in _DTYPES:
        raise DataFormatError(path, None, f"unknown array tag {code!r}")
    (ndim,) = struct.unpack("<B", _read_exact(f, 1, path))
    if ndim > 2:
        raise DataFormatError(path, None, f"array rank {ndim}; containers hold only vectors and matrices")
    shape = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim, path))
    count = math.prod(shape)
    if 8 * count > os.fstat(f.fileno()).st_size - f.tell():
        raise DataFormatError(path, None, f"array shape {shape} exceeds the rest of the file")
    data = np.frombuffer(_read_exact(f, 8 * count, path), dtype=_DTYPES[code])
    return data.reshape(shape).copy()


def _write_header(f, magic: bytes, g_hash: int, meta: dict) -> None:
    blob = json.dumps(meta, sort_keys=True).encode()
    f.write(magic)
    f.write(struct.pack("<IQI", _VERSION, g_hash, len(blob)))
    f.write(blob)


def _read_header(f, magic: bytes, path, g: Graph | None) -> dict:
    if _read_exact(f, 8, path) != magic:
        raise DataFormatError(path, None, f"bad magic; expected {magic.decode()} container")
    version, g_hash, meta_len = struct.unpack("<IQI", _read_exact(f, 16, path))
    if version != _VERSION:
        raise DataFormatError(
            path, None, f"unsupported container version {version} (expected {_VERSION}); regenerate the file"
        )
    try:
        meta = json.loads(_read_exact(f, meta_len, path).decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
        raise DataFormatError(path, None, f"malformed container header: {exc}") from None
    if not isinstance(meta, dict):
        raise DataFormatError(path, None, "malformed container header: not a JSON object")
    if g is not None and g_hash != graph_hash(g):
        raise CacheMismatchError(f"{path}: cached artifact belongs to a different graph")
    return meta


_META_KINDS = {int: "non-negative integer", float: "number", str: "string", dict: "JSON object"}


def _meta_field(meta: dict, key: str, kind: type, path):
    """``meta[key]`` if it is a ``kind``, else a DataFormatError naming the
    file and the key. Integer fields are counts, so they must be
    non-negative; a float field also takes an integer; ``bool`` is never
    a number."""
    if key not in meta:
        raise DataFormatError(path, None, f"container header lacks key {key!r}")
    value = meta[key]
    ok = isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)
    if not ok or (kind is int and value < 0):
        raise DataFormatError(
            path, None, f"container header key {key!r} must be a {_META_KINDS[kind]}, found {value!r:.40}"
        )
    return value


def _cfg_meta(cfg: SamplerConfig | None) -> dict | None:
    return asdict(cfg) if cfg is not None else None


def save_subgraphs(path, g: Graph, cfg: SamplerConfig, subgraphs: list[Subgraph]) -> None:
    """Cache pre-sampled minibatch subgraphs."""
    with open(path, "wb") as f:
        _write_header(f, _MAGIC_SUB, graph_hash(g), {"sampler": _cfg_meta(cfg), "count": len(subgraphs)})
        for sub in subgraphs:
            for arr in (sub.nodes, sub.row_offsets, sub.col_indices, sub.arc_origin):
                _write_array(f, arr)


def load_subgraphs(path, g: Graph) -> tuple[SamplerConfig, list[Subgraph]]:
    with open(path, "rb") as f:
        meta = _read_header(f, _MAGIC_SUB, path, g)
        sampler = _meta_field(meta, "sampler", dict, path)
        try:
            cfg = SamplerConfig(**sampler)
        except (TypeError, ValueError) as exc:
            raise DataFormatError(path, None, f"container header key 'sampler' is invalid: {exc}") from None
        subs = []
        for _ in range(_meta_field(meta, "count", int, path)):
            nodes, offsets, cols, origin = (_read_array(f, path) for _ in range(4))
            subs.append(Subgraph(nodes=nodes, row_offsets=offsets, col_indices=cols, arc_origin=origin))
    return cfg, subs


def save_coeffs(path, g: Graph, coeffs: NormCoeffs, cfg: SamplerConfig | None = None) -> None:
    """Cache normalization coefficients (lambda, alpha, raw counters)."""
    meta = {"source": coeffs.source, "num_subgraphs": coeffs.num_subgraphs, "sampler": _cfg_meta(cfg)}
    with open(path, "wb") as f:
        _write_header(f, _MAGIC_COEF, graph_hash(g), meta)
        for arr in (coeffs.lam, coeffs.alpha, coeffs.node_counts, coeffs.edge_counts):
            _write_array(f, arr)


def load_coeffs(path, g: Graph) -> NormCoeffs:
    with open(path, "rb") as f:
        meta = _read_header(f, _MAGIC_COEF, path, g)
        lam, alpha, node_counts, edge_counts = (_read_array(f, path) for _ in range(4))
    return NormCoeffs(
        alpha=alpha,
        lam=lam,
        node_counts=node_counts,
        edge_counts=edge_counts,
        num_subgraphs=_meta_field(meta, "num_subgraphs", int, path),
        source=_meta_field(meta, "source", str, path),
    )


def save_checkpoint(path, g: Graph, ckpt: Checkpoint) -> None:
    meta = {
        "head": ckpt.head,
        "layers": len(ckpt.weights),
        "adam_t": ckpt.adam_t,
        "epochs_done": ckpt.epochs_done,
        "iteration": ckpt.iteration,
        "best_val_f1": ckpt.best_val_f1,
    }
    with open(path, "wb") as f:
        _write_header(f, _MAGIC_CKPT, graph_hash(g), meta)
        for group in (ckpt.weights, ckpt.adam_m, ckpt.adam_v, ckpt.best_weights):
            for arr in group:
                _write_array(f, arr)


def load_checkpoint(path, g: Graph) -> Checkpoint:
    with open(path, "rb") as f:
        meta = _read_header(f, _MAGIC_CKPT, path, g)
        layers = _meta_field(meta, "layers", int, path)
        groups = [[_read_array(f, path) for _ in range(layers)] for _ in range(4)]
    return Checkpoint(
        head=_meta_field(meta, "head", str, path),
        weights=groups[0],
        adam_m=groups[1],
        adam_v=groups[2],
        adam_t=_meta_field(meta, "adam_t", int, path),
        epochs_done=_meta_field(meta, "epochs_done", int, path),
        iteration=_meta_field(meta, "iteration", int, path),
        best_weights=groups[3],
        best_val_f1=_meta_field(meta, "best_val_f1", float, path),
    )


# ----------------------------------------------------------------------
# Synthetic generators
# ----------------------------------------------------------------------


def generate_sbm(spec: SbmSpec) -> Dataset:
    """Stochastic block model dataset.

    Node features are the one-hot block indicator plus Gaussian noise
    scaled by ``spec.noise``; labels are block IDs; the split is
    60/20/20 stratified by block.
    """
    rng = make_rng(spec.seed)
    n = spec.blocks * spec.block_size
    labels = np.repeat(np.arange(spec.blocks, dtype=np.int64), spec.block_size)

    iu, iv = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[iv], spec.p_intra, spec.p_inter)
    mask = rng.random(iu.shape[0]) < p
    graph = build_graph(np.stack([iu[mask], iv[mask]], axis=1), n)

    features = np.zeros((n, spec.blocks))
    features[np.arange(n), labels] = 1.0
    if spec.noise > 0.0:
        features += spec.noise * rng.standard_normal((n, spec.blocks))

    split = np.zeros(n, dtype=np.int64)
    for b in range(spec.blocks):
        idx = np.flatnonzero(labels == b)
        perm = idx[rng.permutation(idx.shape[0])]
        n_train = round(0.6 * idx.shape[0])
        n_val = round(0.2 * idx.shape[0])
        split[perm[:n_train]] = 0
        split[perm[n_train : n_train + n_val]] = 1
        split[perm[n_train + n_val :]] = 2

    return Dataset(
        graph=graph,
        features=features,
        labels=labels,
        split=split,
        num_classes=spec.blocks,
        label_mode="single",
    )


def generate_regular(d: int, n: int, seed: int = 0, max_tries: int = 2000) -> Graph:
    """Simple d-regular graph via the retried configuration model."""
    if n < 1 or d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError(f"infeasible degree sequence: n*d = {n * d} is odd")
    if d == 0:
        return build_graph(np.zeros((0, 2), dtype=np.int64), n)
    rng = make_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.unique(lo * np.int64(n) + hi).shape[0] != pairs.shape[0]:
            continue
        return build_graph(pairs, n)
    raise RuntimeError(f"could not sample a simple {d}-regular graph on {n} nodes")


def generate_er(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if n < 1:
        raise ValueError("need at least one node")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = make_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return build_graph(np.stack([iu[mask], iv[mask]], axis=1), n)
