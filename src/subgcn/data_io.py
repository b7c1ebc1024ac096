"""Dataset files, artifact caches, and the synthetic SBM dataset generator.

Datasets live in a directory of four ASCII text files, chosen for
desk-scale inspectability. Each line is a row of whitespace-separated
tokens: integers are decimal (optional sign, no ``_``, within int64)
and floats are what ``numpy.loadtxt`` reads, finite only.

- ``graph.txt``: line 1 ``num_nodes num_edges``, then one ``u v`` per
  undirected edge, 0-based, u < v, strictly ascending lexicographic.
- ``features.txt``: line 1 ``num_nodes feature_dim``, then one row of
  ``feature_dim`` floats per node.
- ``labels.txt``: line 1 ``mode num_classes`` with mode in {single,
  multi}, then per node either one class ID or a 0/1 vector.
- ``split.txt``: one tag per node from {0=train, 1=val, 2=test}.

Every malformed row is reported as ``file:line``; ``load_dataset``
sizes no array by a header count before the rows confirm it, and
returns read-only arrays.

Subgraph caches, coefficient caches and model checkpoints use a binary
container (magic bytes, version, little-endian 64-bit payloads) bound
to their graph by a BLAKE2b (8-byte digest) hash over the node and arc
counts and the CSR arrays. The hash is computed once per ``Graph``,
on its first container read or write, and kept on it. The container
is at version 4: a cached subgraph is stored as its sorted node IDs
and induced again on load. Loaders refuse any other version, and
files of an older version must be regenerated. All writers are
byte-deterministic; loaders reject malformed input with the offending
file and line, and refuse node vectors that are not sorted unique node
IDs of the graph, coefficients that ``NormCoeffs`` rejects, arrays
whose lengths or shapes disagree with the graph or with each other,
checkpoints with a non-finite value or a negative Adam second moment,
and bytes after the last array. A loader (``_Reader``) checks the
fixed 24-byte prefix first, then reads the rest with one ``read``, so
its peak memory is about the file size plus the arrays parsed from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .engine import HEADS, Checkpoint
from .graph import Graph, Subgraph, build_graph, induced_subgraph, memoized, read_only
from .normalization import NormCoeffs
from .samplers import SamplerConfig, make_rng

__all__ = [
    "Dataset",
    "SbmSpec",
    "DataFormatError",
    "CacheMismatchError",
    "load_dataset",
    "save_dataset",
    "save_graph_txt",
    "graph_hash",
    "save_subgraphs",
    "load_subgraphs",
    "save_coeffs",
    "load_coeffs",
    "save_checkpoint",
    "load_checkpoint",
    "generate_sbm",
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
    """Graph plus node features, labels, and a train/val/test split.

    ``labels`` holds one class ID per node (single-label) or a 0/1 row
    of ``num_classes`` indicators per node (multi-label).
    """

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    num_classes: int


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
        data = path.read_bytes()
    except OSError as exc:
        raise DataFormatError(path, None, f"cannot read: {exc}") from exc
    try:  # numpy's text parser may crash on high code points, so none reach it
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("ascii") + "?").splitlines())
        raise DataFormatError(path, line, f"non-ASCII byte {data[exc.start]:#04x}") from None
    if not lines:
        raise DataFormatError(path, 1, "empty file")
    return lines


def _loadtxt(lines: list[str], dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data": blank lines only
        return np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)


def _table(path: Path, lines: list[str], first: int, width: int, dtype) -> np.ndarray:
    """The ``(len(lines), width)`` array of ``dtype`` held by ``lines``,
    which are lines ``first, first + 1, ...`` of ``path``. Otherwise a
    DataFormatError at the first line that the same parser, applied to
    that line alone, does not read as ``width`` values."""

    def parses(block: list[str]) -> np.ndarray | None:
        try:
            table = _loadtxt(block, dtype)
        except ValueError:
            return None
        return table if table.shape == (len(block), width) else None

    if not lines:
        return np.zeros((0, width), dtype)
    table = parses(lines)
    if table is not None:
        return table
    # A block of k lines parses to (k, width) exactly when each of its
    # lines does, so bisect with lines[:lo] parsing and lines[lo:hi] not:
    # each step parses half of what is left, about one more pass in all.
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if parses(lines[lo:mid]) is not None else (lo, mid)
    line = lines[lo]
    try:
        found = _loadtxt([line], dtype).size
    except ValueError:
        kind = "integer" if np.dtype(dtype).kind == "i" else "float"
        raise DataFormatError(path, first + lo, f"invalid {kind} in {line!r:.80}") from None
    if found != width:
        raise DataFormatError(path, first + lo, f"expected {width} values, found {found}")
    raise AssertionError(f"{path}:{first + lo}: the line parses alone but not in its table")


def _check_rows(path: Path, ok: np.ndarray, first: int, message) -> None:
    """DataFormatError ``message(i)`` at the first row ``i`` not ``ok``."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise DataFormatError(path, first + i, message(i))


def _read_graph(path: Path) -> tuple[np.ndarray, int]:
    """The checked edge rows and node count of a ``graph.txt``."""
    lines = _read_lines(path)
    num_nodes, num_edges = _table(path, lines[:1], 1, 2, np.int64)[0].tolist()
    if num_nodes < 1:
        raise DataFormatError(path, 1, "num_nodes must be positive")
    if len(lines) - 1 != num_edges:
        raise DataFormatError(path, 1, f"header claims {num_edges} edges, body has {len(lines) - 1}")
    edges = _table(path, lines[1:], 2, 2, np.int64)
    u, v = edges.T
    _check_rows(path, (0 <= u) & (u < v) & (v < num_nodes), 2,
                lambda i: f"edge ({u[i]},{v[i]}) must satisfy 0 <= u < v < {num_nodes}")
    ascending = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
    _check_rows(path, ascending, 3, lambda i: "edges must be strictly ascending lexicographic")
    return edges, num_nodes


def save_graph_txt(path, g: Graph) -> None:
    if np.any(g.edge_endpoints[:, 0] == g.edge_endpoints[:, 1]):
        raise ValueError("graph text format cannot represent self-loops")
    out = [f"{g.num_nodes} {g.num_edges}"]
    out.extend(f"{u} {v}" for u, v in g.edge_endpoints.tolist())
    Path(path).write_text("\n".join(out) + "\n")


def _parse_features(path: Path, num_nodes: int) -> np.ndarray:
    lines = _read_lines(path)
    n, dim = _table(path, lines[:1], 1, 2, np.int64)[0].tolist()
    if n != num_nodes:
        raise DataFormatError(path, 1, f"feature rows {n} do not match graph nodes {num_nodes}")
    if dim < 1:
        raise DataFormatError(path, 1, "feature_dim must be positive")
    if len(lines) - 1 != n:
        raise DataFormatError(path, 1, f"header claims {n} rows, body has {len(lines) - 1}")
    feats = _table(path, lines[1:], 2, dim, np.float64)
    _check_rows(path, np.isfinite(feats).all(axis=1), 2, lambda i: "feature values must be finite")
    return feats


def _parse_labels(path: Path, num_nodes: int) -> tuple[np.ndarray, int]:
    lines = _read_lines(path)
    toks = lines[0].split()
    if len(toks) != 2 or toks[0] not in ("single", "multi"):
        raise DataFormatError(path, 1, "header must be 'single|multi num_classes'")
    mode = toks[0]
    num_classes = int(_table(path, toks[1:], 1, 1, np.int64)[0, 0])
    if num_classes < 1:
        raise DataFormatError(path, 1, "num_classes must be positive")
    if len(lines) - 1 != num_nodes:
        raise DataFormatError(path, 1, f"expected {num_nodes} label rows, found {len(lines) - 1}")
    width, high = (1, num_classes) if mode == "single" else (num_classes, 2)
    labels = _table(path, lines[1:], 2, width, np.int64)
    _check_rows(path, ((0 <= labels) & (labels < high)).all(axis=1), 2,
                lambda i: f"{mode}-label row {labels[i].tolist()!s:.40} has a value outside [0, {high})")
    return (labels.reshape(-1) if mode == "single" else labels), num_classes


def _parse_split(path: Path, num_nodes: int) -> np.ndarray:
    lines = _read_lines(path)
    if len(lines) != num_nodes:
        raise DataFormatError(path, 1, f"expected {num_nodes} split rows, found {len(lines)}")
    split = _table(path, lines, 1, 1, np.int64).reshape(-1)
    _check_rows(path, (0 <= split) & (split <= 2), 1, lambda i: "split tag must be 0, 1 or 2")
    if not np.any(split == 0):
        raise DataFormatError(path, None, "split contains no training nodes")
    return split


def load_dataset(directory) -> Dataset:
    """Load and cross-validate a dataset directory. The graph is built
    last, once the other files' rows confirm its node count.

    ``features``, ``labels`` and ``split`` are read-only, as the graph's
    arrays are (``graph.read_only``): an in-place write raises, so values
    derived from them can be kept. The full-graph forward keeps its
    layer-0 aggregate ``A @ features`` on the graph
    (``engine.forward_full``), so every later validation or evaluation
    of the same loaded dataset skips that product. Copy an array to
    change it."""
    d = Path(directory)
    edges, num_nodes = _read_graph(d / "graph.txt")
    features = _parse_features(d / "features.txt", num_nodes)
    labels, num_classes = _parse_labels(d / "labels.txt", num_nodes)
    split = _parse_split(d / "split.txt", num_nodes)
    return Dataset(graph=build_graph(edges, num_nodes), features=read_only(features), labels=read_only(labels),
                   split=read_only(split), num_classes=num_classes)


def save_dataset(ds: Dataset, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    save_graph_txt(d / "graph.txt", ds.graph)

    # Rows go through .tolist(): Python floats and ints format the same
    # text as the element-wise repr(float(x)) / str(int(x)), much faster.
    rows = [f"{ds.graph.num_nodes} {ds.features.shape[1]}"]
    rows.extend(" ".join(map(repr, row)) for row in ds.features.astype(np.float64, copy=False).tolist())
    (d / "features.txt").write_text("\n".join(rows) + "\n")

    single = ds.labels.ndim == 1
    rows = [f"{'single' if single else 'multi'} {ds.num_classes}"]
    labels = ds.labels.astype(np.int64, copy=False).tolist()
    if single:
        rows.extend(map(str, labels))
    else:
        rows.extend(" ".join(map(str, row)) for row in labels)
    (d / "labels.txt").write_text("\n".join(rows) + "\n")

    split = ds.split.astype(np.int64, copy=False).tolist()
    (d / "split.txt").write_text("\n".join(map(str, split)) + "\n")


# ----------------------------------------------------------------------
# Binary container
# ----------------------------------------------------------------------

_VERSION = 4
_MAGIC_SUB = b"SGCNSUBG"
_MAGIC_COEF = b"SGCNCOEF"
_MAGIC_CKPT = b"SGCNCKPT"

_DTYPES = {b"i": np.dtype("<i8"), b"f": np.dtype("<f8")}
_SHAPES = [struct.Struct(f"<{ndim}Q") for ndim in range(3)]  # an array's shape, by rank


def graph_hash(g: Graph) -> int:
    """BLAKE2b (8-byte digest) over the node and arc counts and the CSR
    arrays, read as a little-endian unsigned 64-bit int; binds caches to
    their graph.

    Computed once per graph, on its first call, and kept on the
    instance (``graph.memoized``); a graph's arrays cannot change, so
    the stored hash cannot go stale."""
    return memoized(g, "_graph_hash", _digest)


def _digest(g: Graph) -> int:
    h = hashlib.blake2b(struct.pack("<2Q", g.num_nodes, g.num_arcs), digest_size=8)
    for arr, code in ((g.row_offsets, "<i8"), (g.col_indices, "<i8"), (g.norm_values, "<f8"), (g.degrees, "<i8")):
        h.update(np.ascontiguousarray(arr, dtype=code))
    return int.from_bytes(h.digest(), "little")


def _write_array(f, arr: np.ndarray) -> None:
    code = b"f" if arr.dtype.kind == "f" else b"i"
    data = np.ascontiguousarray(arr, dtype=_DTYPES[code])
    f.write(code)
    f.write(struct.pack("<B", data.ndim))
    f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
    f.write(data.tobytes())


def _write_header(f, magic: bytes, g_hash: int, meta: dict) -> None:
    blob = json.dumps(meta, sort_keys=True).encode()
    f.write(magic)
    f.write(struct.pack("<IQI", _VERSION, g_hash, len(blob)))
    f.write(blob)


class _Reader:
    """A container file, parsed front to back: the fixed prefix (magic,
    version, graph hash, header length) is read and checked first, so a
    file of another kind is refused before its body is read; the rest
    is read with one ``read`` and parsed from those bytes: the header
    (:meth:`header`), the arrays in order (:meth:`array`), then
    :meth:`end`, which refuses bytes after the last array. Each array is
    an owned, writable copy of its bytes, so peak memory while loading
    is about the file size plus its arrays. A file too short for what it
    declares is a ``truncated binary file``."""

    def __init__(self, path, magic: bytes) -> None:
        self.path = path
        with open(path, "rb", buffering=0) as f:  # two reads in all need no buffer
            prefix = f.read(24)
            if len(prefix) >= 8 and prefix[:8] != magic:
                raise self._error(f"bad magic; expected {magic.decode()} container")
            if len(prefix) < 24:
                raise self._error("truncated binary file")
            version, self.g_hash, self.meta_len = struct.unpack_from("<IQI", prefix, 8)
            if version != _VERSION:
                raise self._error(f"unsupported container version {version} (expected {_VERSION}); regenerate the file")
            self.data = f.read()
        self.pos = 0

    def _error(self, message: str) -> DataFormatError:
        return DataFormatError(self.path, None, message)

    def _next(self, n: int) -> int:
        """Move past the next ``n`` bytes; return the offset they start at."""
        start = self.pos
        if n > len(self.data) - start:
            raise self._error("truncated binary file")
        self.pos = start + n
        return start

    def header(self, g: Graph) -> dict:
        """The header's JSON object, once the graph hash is checked."""
        at = self._next(self.meta_len)  # outside the try: its DataFormatError is a ValueError too
        try:
            meta = json.loads(self.data[at : at + self.meta_len].decode())
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
            raise self._error(f"malformed container header: {exc}") from None
        if not isinstance(meta, dict):
            raise self._error("malformed container header: not a JSON object")
        if self.g_hash != graph_hash(g):
            raise CacheMismatchError(f"{self.path}: cached artifact belongs to a different graph")
        return meta

    def array(self) -> np.ndarray:
        at = self._next(1)
        code = self.data[at : at + 1]
        if code not in _DTYPES:
            raise self._error(f"unknown array tag {code!r}")
        ndim = self.data[self._next(1)]
        if ndim > 2:
            raise self._error(f"array rank {ndim}; containers hold only vectors and matrices")
        shape = _SHAPES[ndim].unpack_from(self.data, self._next(8 * ndim))
        count = math.prod(shape)
        if 8 * count > len(self.data) - self.pos:
            raise self._error(f"array shape {shape} exceeds the rest of the file")
        at = self._next(8 * count)
        try:
            return np.ndarray(shape, _DTYPES[code], self.data, at).copy()
        except ValueError:  # an empty shape with a dimension past numpy's limits
            raise self._error(f"array shape {shape} exceeds numpy's limits") from None

    def end(self) -> None:
        left = len(self.data) - self.pos
        if left:
            raise self._error(f"{left} trailing bytes after the last array")


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
    """Cache pre-sampled minibatch subgraphs. An induced subgraph is
    determined by its node set, so only the sorted node IDs are stored."""
    with open(path, "wb") as f:
        _write_header(f, _MAGIC_SUB, graph_hash(g), {"sampler": _cfg_meta(cfg), "count": len(subgraphs)})
        for sub in subgraphs:
            _write_array(f, sub.nodes)


def load_subgraphs(path, g: Graph) -> tuple[SamplerConfig, list[Subgraph]]:
    """The sampler config and the subgraphs of a cache, each induced
    anew on ``g`` from its stored node IDs."""
    f = _Reader(path, _MAGIC_SUB)
    meta = f.header(g)
    sampler = _meta_field(meta, "sampler", dict, path)
    try:
        cfg = SamplerConfig(**sampler)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(path, None, f"container header key 'sampler' is invalid: {exc}") from None
    subs = []
    for i in range(_meta_field(meta, "count", int, path)):
        nodes = f.array()
        if nodes.ndim != 1 or nodes.dtype.kind != "i":
            raise DataFormatError(
                path, None, f"subgraph {i}: nodes must be an integer vector, found {nodes.dtype} {nodes.shape}"
            )
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= g.num_nodes or np.any(nodes[1:] <= nodes[:-1])):
            raise DataFormatError(
                path, None, f"subgraph {i}: nodes must be strictly increasing in [0, {g.num_nodes})"
            )
        subs.append(induced_subgraph(g, nodes))
    f.end()
    return cfg, subs


def save_coeffs(path, g: Graph, coeffs: NormCoeffs, cfg: SamplerConfig | None = None) -> None:
    """Cache normalization coefficients (lambda, alpha, raw counters)."""
    meta = {"source": coeffs.source, "num_subgraphs": coeffs.num_subgraphs, "sampler": _cfg_meta(cfg)}
    with open(path, "wb") as f:
        _write_header(f, _MAGIC_COEF, graph_hash(g), meta)
        for arr in (coeffs.lam, coeffs.alpha, coeffs.node_counts, coeffs.edge_counts):
            _write_array(f, arr)


def load_coeffs(path, g: Graph) -> NormCoeffs:
    f = _Reader(path, _MAGIC_COEF)
    meta = f.header(g)
    lam, alpha, node_counts, edge_counts = (f.array() for _ in range(4))
    f.end()
    for name, a, n, what in (
        ("lam", lam, g.num_nodes, "nodes"),
        ("alpha", alpha, g.num_arcs, "arcs"),
        ("node_counts", node_counts, g.num_nodes, "nodes"),
        ("edge_counts", edge_counts, g.num_edges, "edges"),
    ):
        if a.shape != (n,):
            raise DataFormatError(path, None, f"{name} has shape {a.shape}; the graph has {n} {what}")
    num_subgraphs = _meta_field(meta, "num_subgraphs", int, path)
    source = _meta_field(meta, "source", str, path)
    try:
        return NormCoeffs(alpha=alpha, lam=lam, node_counts=node_counts, edge_counts=edge_counts,
                          num_subgraphs=num_subgraphs, source=source)
    except ValueError as exc:
        raise DataFormatError(path, None, str(exc)) from None


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
    f = _Reader(path, _MAGIC_CKPT)
    meta = f.header(g)
    layers = _meta_field(meta, "layers", int, path)
    groups = [[f.array() for _ in range(layers)] for _ in range(4)]
    f.end()
    head = _meta_field(meta, "head", str, path)
    if head not in HEADS:
        raise DataFormatError(path, None, f"unknown head {head!r:.40}; expected one of {HEADS}")
    _check_layer_shapes(path, *groups)
    _check_layer_values(path, *groups)
    best_val_f1 = _meta_field(meta, "best_val_f1", float, path)
    if not math.isfinite(best_val_f1):  # -1.0, the no-validation sentinel, is finite
        raise DataFormatError(path, None, f"container header key 'best_val_f1' must be finite, found {best_val_f1!r}")
    return Checkpoint(
        head=head,
        weights=groups[0],
        adam_m=groups[1],
        adam_v=groups[2],
        adam_t=_meta_field(meta, "adam_t", int, path),
        epochs_done=_meta_field(meta, "epochs_done", int, path),
        iteration=_meta_field(meta, "iteration", int, path),
        best_weights=groups[3],
        best_val_f1=best_val_f1,
    )


def _check_layer_shapes(path, weights, adam_m, adam_v, best_weights) -> None:
    """DataFormatError unless there is a layer, every weight is a float
    matrix whose Adam moments and best copy share its shape, and
    consecutive layers chain."""
    if not weights:
        raise DataFormatError(path, None, "checkpoint holds no layers")
    for l, w in enumerate(weights):
        if w.ndim != 2 or w.dtype.kind != "f":
            raise DataFormatError(path, None, f"layer {l}: weights must be a float matrix, found {w.dtype} {w.shape}")
        for name, group in (("adam_m", adam_m), ("adam_v", adam_v), ("best_weights", best_weights)):
            if group[l].shape != w.shape or group[l].dtype.kind != "f":
                raise DataFormatError(
                    path, None, f"layer {l}: {name} is {group[l].dtype} {group[l].shape}, weights are {w.shape}"
                )
        if l and weights[l - 1].shape[1] != w.shape[0]:
            prev = weights[l - 1].shape
            raise DataFormatError(path, None, f"layer {l}: weights {w.shape} do not chain with layer {l - 1}'s {prev}")


def _check_layer_values(path, weights, adam_m, adam_v, best_weights) -> None:
    """DataFormatError naming the group and the layer of the first
    non-finite entry, or of the first negative ``adam_v`` entry, in the
    order of the arguments."""
    for name, group in (("weights", weights), ("adam_m", adam_m), ("adam_v", adam_v), ("best_weights", best_weights)):
        for l, a in enumerate(group):
            if not np.isfinite(a).all():
                raise DataFormatError(path, None, f"layer {l}: {name} has a non-finite entry")
            if name == "adam_v" and (a < 0.0).any():
                raise DataFormatError(path, None, f"layer {l}: adam_v has a negative entry")


# ----------------------------------------------------------------------
# Synthetic generator
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
    )
