"""Serialization round trips, grammar errors, synthetic generators."""

import dataclasses
import hashlib
import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subgcn import (
    Dataset,
    SamplerConfig,
    SbmSpec,
    TrainConfig,
    build_graph,
    edge_weights,
    estimate_coeffs,
    f1_micro,
    generate_sbm,
    induced_subgraph,
    load_dataset,
    save_dataset,
    train,
)
from subgcn import data_io
from subgcn.engine import Checkpoint, evaluate, forward_full, init_model
from subgcn.data_io import (
    CacheMismatchError,
    DataFormatError,
    graph_hash,
    load_checkpoint,
    load_coeffs,
    load_subgraphs,
    save_checkpoint,
    save_coeffs,
    save_graph_txt,
    save_subgraphs,
)
from subgcn.samplers import SubgraphProducer

from conftest import circulant, er_graph, writable_copy


def minimal_dataset() -> Dataset:
    g = build_graph([(0, 1)], 2)
    return Dataset(
        graph=g,
        features=np.array([[0.125], [-3.5]]),
        labels=np.array([0, 1], dtype=np.int64),
        split=np.array([0, 2], dtype=np.int64),
        num_classes=2,
    )


def dir_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestDatasetRoundTrip:
    def test_minimal_round_trip_bit_exact(self, tmp_path):
        ds = minimal_dataset()
        save_dataset(ds, tmp_path / "a")
        ds2 = load_dataset(tmp_path / "a")
        save_dataset(ds2, tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
        assert np.array_equal(ds.features, ds2.features)
        assert np.array_equal(ds.labels, ds2.labels)
        assert np.array_equal(ds.split, ds2.split)
        assert graph_hash(ds.graph) == graph_hash(ds2.graph)

    def test_multi_label_round_trip(self, tmp_path):
        g = build_graph([(0, 1), (1, 2)], 3)
        ds = Dataset(
            graph=g,
            features=np.random.default_rng(0).standard_normal((3, 2)),
            labels=np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64),
            split=np.array([0, 1, 2], dtype=np.int64),
            num_classes=2,
        )
        save_dataset(ds, tmp_path)
        ds2 = load_dataset(tmp_path)
        assert ds2.labels.shape == (3, 2)
        assert np.array_equal(ds.labels, ds2.labels)
        assert np.array_equal(ds.features, ds2.features)


    @pytest.mark.parametrize("labels, header", [
        (np.array([0, 2, 1]), "single 3"),
        (np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0]]), "multi 3"),
    ], ids=["single", "multi"])
    def test_label_mode_follows_label_rank(self, tmp_path, labels, header):
        # the rank of the labels alone sets the header's mode, and a load gives it back
        ds = Dataset(graph=build_graph([(0, 1), (1, 2)], 3), features=np.zeros((3, 1)),
                     labels=labels, split=np.array([0, 1, 2]), num_classes=3)
        save_dataset(ds, tmp_path)
        assert (tmp_path / "labels.txt").read_text().splitlines()[0] == header
        back = load_dataset(tmp_path)
        assert (back.labels.dtype, back.labels.shape) == (np.int64, labels.shape)
        assert np.array_equal(back.labels, labels)


class TestGrammarErrors:
    def _write_default(self, d: Path):
        save_dataset(minimal_dataset(), d)

    def test_label_mode_mismatch_names_line(self, tmp_path):
        self._write_default(tmp_path)
        (tmp_path / "labels.txt").write_text("single 2\n0 1\n1\n")
        with pytest.raises(DataFormatError, match="labels.txt:2"):
            load_dataset(tmp_path)

    def test_edge_count_mismatch(self, tmp_path):
        self._write_default(tmp_path)
        (tmp_path / "graph.txt").write_text("2 2\n0 1\n")
        with pytest.raises(DataFormatError, match="graph.txt"):
            load_dataset(tmp_path)

    def test_unsorted_edges_rejected(self, tmp_path):
        (tmp_path / "graph.txt").write_text("3 2\n1 2\n0 1\n")
        with pytest.raises(DataFormatError, match="ascending"):
            load_dataset(tmp_path)  # graph.txt alone: it is parsed first

    def test_u_not_less_than_v_rejected(self, tmp_path):
        (tmp_path / "graph.txt").write_text("3 1\n2 1\n")
        with pytest.raises(DataFormatError, match="graph.txt:2"):
            load_dataset(tmp_path)  # graph.txt alone: it is parsed first

    def test_feature_row_count_mismatch(self, tmp_path):
        self._write_default(tmp_path)
        (tmp_path / "features.txt").write_text("3 1\n1.0\n2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="features.txt"):
            load_dataset(tmp_path)

    def test_bad_float_names_line(self, tmp_path):
        self._write_default(tmp_path)
        (tmp_path / "features.txt").write_text("2 1\n1.0\nbogus\n")
        with pytest.raises(DataFormatError, match="features.txt:3"):
            load_dataset(tmp_path)

    def test_split_without_train_rejected(self, tmp_path):
        self._write_default(tmp_path)
        (tmp_path / "split.txt").write_text("1\n2\n")
        with pytest.raises(DataFormatError, match="training"):
            load_dataset(tmp_path)

    def test_class_id_out_of_range(self, tmp_path):
        self._write_default(tmp_path)
        (tmp_path / "labels.txt").write_text("single 2\n0\n5\n")
        with pytest.raises(DataFormatError, match="labels.txt:3"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("token", ["1_0", "0x1", "1.0", "1e0", "99999999999999999999"])
    def test_non_decimal_integer_rejected(self, tmp_path, token):
        self._write_default(tmp_path)
        (tmp_path / "split.txt").write_text(f"0\n{token}\n")
        with pytest.raises(DataFormatError, match="split.txt:2"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("token", ["1_0.5", "0x1p3"])
    def test_non_decimal_float_rejected(self, tmp_path, token):
        self._write_default(tmp_path)
        (tmp_path / "features.txt").write_text(f"2 1\n1.0\n{token}\n")
        with pytest.raises(DataFormatError, match="features.txt:3"):
            load_dataset(tmp_path)

    def test_blank_body_line_names_line(self, tmp_path):
        self._write_default(tmp_path)
        (tmp_path / "split.txt").write_text("0\n \n")
        with pytest.raises(DataFormatError, match="split.txt:2: expected 1 values, found 0"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("raw", [b"\xff", "\u0661".encode(), "\U0010241d\U000f0f14".encode()],
                             ids=["invalid UTF-8", "Arabic-Indic digit", "plane-16 code point"])
    def test_non_ascii_byte_names_line(self, tmp_path, raw):
        self._write_default(tmp_path)
        (tmp_path / "split.txt").write_bytes(b"0\n" + raw + b"\n")
        with pytest.raises(DataFormatError, match="split.txt:2"):
            load_dataset(tmp_path)


class TestTableErrorPath:
    """A bad row is found by bisection, not by parsing line after line."""

    def write_path_graph(self, path: Path, n: int, bad: dict[int, str]) -> None:
        rows = [f"{i} {i + 1}" for i in range(n)]
        for i, text in bad.items():
            rows[i] = text
        path.write_text("\n".join([f"{n + 1} {n}", *rows]) + "\n")

    def test_bad_last_line_takes_logarithmically_many_parses(self, tmp_path, monkeypatch):
        n = 10_000
        self.write_path_graph(tmp_path / "graph.txt", n, {n - 1: "1 x"})
        calls = []
        real = data_io._loadtxt

        def counting(lines, dtype):
            calls.append(len(lines))
            return real(lines, dtype)

        monkeypatch.setattr(data_io, "_loadtxt", counting)
        with pytest.raises(DataFormatError, match=f"graph.txt:{n + 1}: invalid integer in '1 x'"):
            load_dataset(tmp_path)  # graph.txt alone: it is parsed first
        assert len(calls) <= 2 * math.ceil(math.log2(n)) + 2
        assert sum(calls) <= 2 * n + len(calls)  # the header, the table, then halves of what is left

    @pytest.mark.parametrize("bad, message", [
        ({0: "0"}, "graph.txt:2: expected 2 values, found 1"),
        ({2: "2 3 4", 7000: "x"}, "graph.txt:4: expected 2 values, found 3"),
        ({4999: " ", 5000: "1"}, "graph.txt:5001: expected 2 values, found 0"),
        ({9999: "9999"}, "graph.txt:10001: expected 2 values, found 1"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, bad, message):
        self.write_path_graph(tmp_path / "graph.txt", 10_000, bad)
        with pytest.raises(DataFormatError, match=message):
            load_dataset(tmp_path)  # graph.txt alone: it is parsed first


class TestHostileInput:
    """Header claims are data errors until rows confirm them, never allocations."""

    @pytest.mark.parametrize("name, text", [
        ("features.txt", "2 1000000000000000\n0.125\n-3.5\n"),
        ("labels.txt", "multi 1000000000000000\n1 0\n0 1\n"),
    ])
    def test_huge_width_header_is_a_data_error(self, tmp_path, name, text):
        save_dataset(minimal_dataset(), tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(DataFormatError, match=f"{name}:2: expected 1000000000000000 values"):
            load_dataset(tmp_path)

    def test_node_count_checked_before_the_graph_is_built(self, tmp_path):
        save_dataset(minimal_dataset(), tmp_path)
        (tmp_path / "graph.txt").write_text("1000000 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="features.txt:1"):
                load_dataset(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_non_finite_feature_names_first_line(self, tmp_path, token):
        save_dataset(minimal_dataset(), tmp_path)
        (tmp_path / "features.txt").write_text(f"2 2\n1.0 2.0\n3.0 {token}\n")
        with pytest.raises(DataFormatError, match="features.txt:3: feature values must be finite"):
            load_dataset(tmp_path)


# Finite floats with the edge cases of their text form: signed zeros,
# subnormals, and the largest magnitudes.
FEATURE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw) -> Dataset:
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    dim = draw(st.integers(1, 3))
    features = np.array(draw(st.lists(FEATURE_VALUES, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    num_classes = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["single", "multi"]))
    shape = (n,) if mode == "single" else (n, num_classes)
    high = num_classes - 1 if mode == "single" else 1
    labels = np.array(draw(st.lists(st.integers(0, high), min_size=math.prod(shape), max_size=math.prod(shape))))
    split = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    split[draw(st.integers(0, n - 1))] = 0  # at least one training node
    return Dataset(
        graph=build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), n),
        features=features,
        labels=labels.reshape(shape).astype(np.int64),
        split=split.astype(np.int64),
        num_classes=num_classes,
    )


DATASET_FILES = ["graph.txt", "features.txt", "labels.txt", "split.txt"]
CORRUPT_LINES = (
    st.text(alphabet="0123456789 -+.e_xnaif\t", max_size=12)
    | st.sampled_from(["-1", "1000000000000000", "99999999999999999999", "nan", "single 1", "multi 4", ""])
    | st.text(max_size=6)
)


class TestDatasetProperties:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(ds=datasets())
    def test_save_load_round_trip_is_bit_identical(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            save_dataset(ds, a)
            back = load_dataset(a)
            save_dataset(back, b)
            assert dir_bytes(a) == dir_bytes(b)
        assert back.num_classes == ds.num_classes
        for name in ("features", "labels", "split"):
            x, y = getattr(ds, name), getattr(back, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        assert np.array_equal(back.graph.edge_endpoints, ds.graph.edge_endpoints)
        assert graph_hash(back.graph) == graph_hash(ds.graph)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ds=datasets(), name=st.sampled_from(DATASET_FILES), data=st.data())
    def test_corruption_is_a_data_error_naming_a_line_in_the_file(self, ds, name, data):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            save_dataset(ds, d)
            raw = (d / name).read_bytes()
            lines = raw.split(b"\n")[:-1]
            how = data.draw(st.sampled_from(["replace", "insert", "delete", "byte"]))
            if how == "byte":
                at = data.draw(st.integers(0, len(raw) - 1))
                corrupt = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1 :]
            else:
                at = data.draw(st.integers(0, len(lines) - (how != "insert")))
                new = [] if how == "delete" else [data.draw(CORRUPT_LINES).encode()]
                lines[at : at + (how != "insert")] = new
                corrupt = b"".join(line + b"\n" for line in lines)
            (d / name).write_bytes(corrupt)
            try:
                load_dataset(d)
            except DataFormatError as exc:
                num_lines = len(corrupt.decode("ascii", errors="replace").splitlines())
                assert exc.line is None or 1 <= exc.line <= max(1, num_lines), str(exc)


def per_element_text(ds: Dataset) -> dict[str, bytes]:
    """The dataset files as the element-by-element formatter wrote them:
    repr(float(x)) per feature, str(int(x)) per label and split tag."""
    lines = [f"{ds.graph.num_nodes} {ds.graph.num_edges}"]
    lines += [f"{u} {v}" for u, v in ds.graph.edge_endpoints]
    files = {"graph.txt": lines}
    lines = [f"{ds.graph.num_nodes} {ds.features.shape[1]}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in ds.features]
    files["features.txt"] = lines
    mode = "single" if ds.labels.ndim == 1 else "multi"
    lines = [f"{mode} {ds.num_classes}"]
    if mode == "single":
        lines += [str(int(y)) for y in ds.labels]
    else:
        lines += [" ".join(str(int(x)) for x in row) for row in ds.labels]
    files["labels.txt"] = lines
    files["split.txt"] = [str(int(s)) for s in ds.split]
    return {name: ("\n".join(rows) + "\n").encode() for name, rows in sorted(files.items())}


class TestLoadedDatasetIsReadOnly:
    """``load_dataset`` returns read-only arrays, and a full-graph
    evaluation of them gives the bits of one on writable copies."""

    @pytest.fixture
    def loaded(self, tmp_path):
        spec = SbmSpec(blocks=3, block_size=12, p_intra=0.4, p_inter=0.05, noise=0.7, seed=8)
        save_dataset(generate_sbm(spec), tmp_path / "d")
        return load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("name", ["features", "labels", "split"])
    def test_in_place_write_raises(self, loaded, name):
        a = getattr(loaded, name)
        before = a.copy()
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]
        with pytest.raises(ValueError, match="read-only"):
            a += 1
        assert np.array_equal(a, before)

    def test_multi_label_rows_are_read_only(self, tmp_path):
        ds = minimal_dataset()
        save_dataset(dataclasses.replace(ds, labels=np.array([[0, 1], [1, 1]])), tmp_path / "d")
        with pytest.raises(ValueError, match="read-only"):
            load_dataset(tmp_path / "d").labels[0, 0] = 1

    @pytest.mark.parametrize("hidden", [(16,), (2, 8)], ids=["widening", "narrowing"])
    def test_evaluate_equals_writable_copies(self, loaded, hidden):
        ds = loaded
        model = init_model((3, *hidden, 3), "softmax", np.random.default_rng(8))
        copies = [writable_copy(ds.graph), *(a.copy() for a in (ds.features, ds.labels, ds.split))]
        for which in (0, 1, 2):
            for _ in range(2):  # the second evaluation reads what the first kept
                assert evaluate(model, ds.graph, ds.features, ds.labels, ds.split, which).hex() == \
                    evaluate(model, *copies, which).hex()
        assert forward_full(model, ds.graph, ds.features).tobytes() == forward_full(model, *copies[:2]).tobytes()


class TestTextWriterBytes:
    """save_dataset formats whole rows at once; the bytes must be those
    of the element-by-element formatter."""

    @pytest.mark.parametrize("make", [
        minimal_dataset,
        lambda: generate_sbm(SbmSpec(blocks=3, block_size=30, p_intra=0.2, p_inter=0.02, noise=1.0, seed=4)),
        lambda: dataclasses.replace(minimal_dataset(), features=np.array([[0.1], [-2.5]], dtype=np.float32)),
        lambda: Dataset(graph=build_graph([(0, 1), (1, 2)], 3), features=np.arange(6).reshape(3, 2),
                        labels=np.array([[1, 0], [0, 1], [1, 1]]), split=np.array([0, 1, 2]),
                        num_classes=2),
    ])
    def test_same_bytes_as_per_element_formatter(self, tmp_path, make):
        ds = make()
        save_dataset(ds, tmp_path)
        assert dir_bytes(tmp_path) == per_element_text(ds)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ds=datasets())
    def test_same_bytes_on_drawn_datasets(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(ds, tmp)
            assert dir_bytes(Path(tmp)) == per_element_text(ds)


class TestArtifactCaches:
    def test_subgraph_cache_round_trip(self, tmp_path):
        g = er_graph(25, 0.2, seed=1)
        cfg = SamplerConfig(kind="rw", r=3, h=2, seed=5)
        with SubgraphProducer(g, cfg) as producer:
            subs = [producer.take() for _ in range(7)]
        path = tmp_path / "subs.bin"
        save_subgraphs(path, g, cfg, subs)
        cfg2, subs2 = load_subgraphs(path, g)
        assert cfg2 == cfg
        assert len(subs2) == 7
        for a, b in zip(subs, subs2):
            assert np.array_equal(a.nodes, b.nodes)
            assert np.array_equal(a.row_offsets, b.row_offsets)
            assert np.array_equal(a.col_indices, b.col_indices)
            assert np.array_equal(a.arc_origin, b.arc_origin)

    def test_numpy_integer_config_is_cached_as_plain_ints(self, tmp_path):
        g = er_graph(20, 0.25, seed=2)
        cfg = SamplerConfig(kind="edge", m=np.int64(5), seed=np.int64(3))
        assert (type(cfg.m), type(cfg.seed)) == (int, int)
        with SubgraphProducer(g, cfg) as producer:
            subs = [producer.take() for _ in range(3)]
        save_subgraphs(tmp_path / "subs.bin", g, cfg, subs)
        assert load_subgraphs(tmp_path / "subs.bin", g)[0] == SamplerConfig(kind="edge", m=5, seed=3)
        save_coeffs(tmp_path / "coeffs.bin", g, estimate_coeffs(g, cfg, num_subgraphs=2)[0], cfg)
        assert load_coeffs(tmp_path / "coeffs.bin", g).num_subgraphs == 2

    def test_coeffs_cache_round_trip(self, tmp_path):
        g = er_graph(20, 0.25, seed=2)
        cfg = SamplerConfig(kind="edge", m=6, seed=3)
        coeffs, _ = estimate_coeffs(g, cfg, num_subgraphs=15)
        path = tmp_path / "coeffs.bin"
        save_coeffs(path, g, coeffs, cfg)
        loaded = load_coeffs(path, g)
        assert np.array_equal(coeffs.alpha, loaded.alpha)
        assert np.array_equal(coeffs.lam, loaded.lam)
        assert np.array_equal(coeffs.node_counts, loaded.node_counts)
        assert np.array_equal(coeffs.edge_counts, loaded.edge_counts)
        assert loaded.num_subgraphs == 15
        assert loaded.source == "empirical"

    def test_cache_refused_on_graph_mismatch(self, tmp_path):
        g1 = er_graph(20, 0.25, seed=2)
        g2 = er_graph(20, 0.25, seed=3)
        cfg = SamplerConfig(kind="edge", m=6, seed=3)
        coeffs, _ = estimate_coeffs(g1, cfg, num_subgraphs=5)
        path = tmp_path / "coeffs.bin"
        save_coeffs(path, g1, coeffs, cfg)
        with pytest.raises(CacheMismatchError):
            load_coeffs(path, g2)

    def test_wrong_magic_rejected(self, tmp_path):
        g = er_graph(10, 0.3, seed=4)
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="magic"):
            load_coeffs(path, g)

    def _coeffs_file(self, tmp_path):
        g = er_graph(10, 0.3, seed=4)
        coeffs, _ = estimate_coeffs(g, SamplerConfig(kind="edge", m=3, seed=1), num_subgraphs=2)
        path = tmp_path / "coeffs.bin"
        save_coeffs(path, g, coeffs)
        return g, path, bytearray(path.read_bytes())

    def test_old_container_version_rejected(self, tmp_path):
        g, path, data = self._coeffs_file(tmp_path)
        for old in (1, 2):
            data[8:12] = old.to_bytes(4, "little")  # version field after the magic
            path.write_bytes(bytes(data))
            with pytest.raises(DataFormatError, match="version.*regenerate"):
                load_coeffs(path, g)

    def test_malformed_header_rejected(self, tmp_path):
        g, path, data = self._coeffs_file(tmp_path)
        meta_len = int.from_bytes(data[20:24], "little")
        for blob in (b"\xff", b"x", b"[" + b" " * (meta_len - 2) + b"]"):
            bad = bytearray(data)
            bad[24 : 24 + len(blob)] = blob  # the JSON header blob starts at byte 24
            path.write_bytes(bytes(bad))
            with pytest.raises(DataFormatError, match="header"):
                load_coeffs(path, g)

    def test_checkpoint_round_trip(self, tmp_path):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=15, p_intra=0.4, p_inter=0.05, noise=0.5, seed=1))
        cfg = SamplerConfig(kind="edge", m=20, seed=2)
        tcfg = TrainConfig(hidden_dims=(6,), epochs=4, seed=7, num_norm_subgraphs=5)
        result = train(ds.graph, ds.features, ds.labels, ds.split, cfg, tcfg, num_classes=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ds.graph, result.checkpoint)
        loaded = load_checkpoint(path, ds.graph)
        assert loaded.head == result.checkpoint.head
        assert loaded.adam_t == result.checkpoint.adam_t
        assert loaded.iteration == result.checkpoint.iteration
        assert loaded.best_val_f1 == result.checkpoint.best_val_f1
        for a, b in zip(loaded.weights, result.checkpoint.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.adam_m, result.checkpoint.adam_m):
            assert np.array_equal(a, b)

    # The run stops at iteration 8: with 10 cached pre-processing draws it
    # resumes inside them, with 6 past them.
    @pytest.mark.parametrize("workers, num_norm_subgraphs", [(0, 6), (0, 10), (2, 6), (2, 10)])
    def test_checkpoint_resume_reproduces_metric_log(self, tmp_path, workers, num_norm_subgraphs):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=20, p_intra=0.3, p_inter=0.02, noise=0.8, seed=3))
        cfg = SamplerConfig(kind="edge", m=25, seed=4)
        tcfg = TrainConfig(hidden_dims=(8,), epochs=8, batches_per_epoch=2, seed=11, dropout=0.1,
                           workers=workers, num_norm_subgraphs=num_norm_subgraphs)

        full = train(ds.graph, ds.features, ds.labels, ds.split, cfg, tcfg, num_classes=2)

        part1 = train(ds.graph, ds.features, ds.labels, ds.split, cfg, tcfg,
                      num_classes=2, stop_after_epoch=4)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, ds.graph, part1.checkpoint)
        restored = load_checkpoint(path, ds.graph)
        part2 = train(ds.graph, ds.features, ds.labels, ds.split, cfg, tcfg,
                      num_classes=2, resume=restored)

        assert part1.log + part2.log == full.log
        for a, b in zip(part2.model.weights, full.model.weights):
            assert np.array_equal(a, b)

    def test_checkpoint_resume_on_exact_coefficients(self, tmp_path):
        # No pre-processing draws: every minibatch comes from the producer,
        # one epoch at a time. A run stopped at epoch 3 and resumed, and a
        # pooled run, see the same subgraphs as one serial run.
        ds = generate_sbm(SbmSpec(blocks=2, block_size=20, p_intra=0.3, p_inter=0.02, noise=0.8, seed=3))
        cfg = SamplerConfig(kind="edge", m=25, seed=4)
        runs = {}
        for workers in (0, 2):
            tcfg = TrainConfig(hidden_dims=(8,), epochs=6, batches_per_epoch=3, seed=11, dropout=0.1,
                               workers=workers)
            full = train(ds.graph, ds.features, ds.labels, ds.split, cfg, tcfg, num_classes=2)
            assert full.coeffs.source == "exact"
            part1 = train(ds.graph, ds.features, ds.labels, ds.split, cfg, tcfg,
                          num_classes=2, stop_after_epoch=3)
            path = tmp_path / f"resume{workers}.ckpt"
            save_checkpoint(path, ds.graph, part1.checkpoint)
            part2 = train(ds.graph, ds.features, ds.labels, ds.split, cfg, tcfg,
                          num_classes=2, resume=load_checkpoint(path, ds.graph))
            assert part1.log + part2.log == full.log
            for name in ("weights", "adam_m", "adam_v", "best_weights"):
                for a, b in zip(getattr(part2.checkpoint, name), getattr(full.checkpoint, name)):
                    assert np.array_equal(a, b), name
            assert (part2.checkpoint.iteration, part2.checkpoint.adam_t) == (18, full.checkpoint.adam_t)
            runs[workers] = full
        serial, pooled = runs[0], runs[2]
        assert serial.log == pooled.log
        for a, b in zip(serial.checkpoint.weights, pooled.checkpoint.weights):
            assert np.array_equal(a, b)



LOADERS = {"subgraphs": load_subgraphs, "coeffs": load_coeffs, "checkpoint": load_checkpoint}


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """One graph and the bytes of a subgraph cache, a coefficient cache
    and a checkpoint written for it."""
    ds = generate_sbm(SbmSpec(blocks=2, block_size=8, p_intra=0.5, p_inter=0.1, noise=0.5, seed=1))
    g = ds.graph
    cfg = SamplerConfig(kind="edge", m=6, seed=2)
    d = tmp_path_factory.mktemp("containers")
    with SubgraphProducer(g, cfg) as producer:
        save_subgraphs(d / "subgraphs", g, cfg, [producer.take() for _ in range(3)])
    coeffs, _ = estimate_coeffs(g, cfg, num_subgraphs=4)
    save_coeffs(d / "coeffs", g, coeffs, cfg)
    tcfg = TrainConfig(hidden_dims=(3,), epochs=1, seed=3, num_norm_subgraphs=2)
    result = train(g, ds.features, ds.labels, ds.split, cfg, tcfg, num_classes=2)
    save_checkpoint(d / "checkpoint", g, result.checkpoint)
    return g, {kind: (d / kind).read_bytes() for kind in LOADERS}


def header_blob(data: bytes) -> bytes:
    meta_len = int.from_bytes(data[20:24], "little")
    return data[24 : 24 + meta_len]


def with_header(data: bytes, blob: bytes) -> bytes:
    """``data`` with its JSON header blob (and the blob's length field) replaced."""
    return data[:20] + len(blob).to_bytes(4, "little") + blob + data[24 + len(header_blob(data)) :]


class TestGraphHash:
    def test_matches_blake2b_over_counts_and_csr_bytes(self, square_chord):
        for g in (square_chord, build_graph([(0, 1), (0, 0), (1, 1), (2, 2)], 3), er_graph(30, 0.2, seed=1)):
            parts = [struct.pack("<2Q", g.num_nodes, g.num_arcs)]
            parts += [a.astype(code).tobytes() for a, code in (
                (g.row_offsets, "<i8"), (g.col_indices, "<i8"), (g.norm_values, "<f8"), (g.degrees, "<i8"))]
            digest = hashlib.blake2b(b"".join(parts), digest_size=8).digest()
            assert graph_hash(g) == int.from_bytes(digest, "little")

    def test_is_a_64_bit_unsigned_int(self):
        for seed in range(5):
            h = graph_hash(er_graph(20, 0.3, seed=seed))
            assert type(h) is int
            assert 0 <= h < 2**64

    def test_one_ulp_in_norm_values_changes_hash(self, square_chord):
        values = square_chord.norm_values.copy()
        values[3] = np.nextafter(values[3], np.inf)
        moved = dataclasses.replace(square_chord, norm_values=values)
        assert graph_hash(moved) != graph_hash(square_chord)

    def test_same_arc_count_different_row_offsets(self, square_chord):
        assert square_chord.row_offsets.tolist() == [0, 1, 4, 6, 8]
        shifted = dataclasses.replace(square_chord, row_offsets=np.array([0, 2, 4, 6, 8], dtype=np.int64))
        assert shifted.num_arcs == square_chord.num_arcs
        assert graph_hash(shifted) != graph_hash(square_chord)


@pytest.fixture
def blake2b_calls(monkeypatch):
    """A list that gains one entry per ``hashlib.blake2b`` constructed by ``data_io``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return hashlib.blake2b(*args, **kwargs)

    monkeypatch.setattr(data_io, "hashlib", SimpleNamespace(blake2b=counting))
    return calls


class TestGraphHashMemo:
    """A frozen graph is hashed once; a writable or replaced one is not trusted to a stored value."""

    def test_container_io_hashes_each_graph_once(self, tmp_path, monkeypatch, blake2b_calls):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=10, p_intra=0.5, p_inter=0.1, noise=0.5, seed=1))
        save_dataset(ds, tmp_path / "data")
        cfg = SamplerConfig(kind="edge", m=6, seed=2)
        other = load_dataset(tmp_path / "data").graph  # same edges, its own memo
        with SubgraphProducer(other, cfg) as producer:
            save_subgraphs(tmp_path / "subs", other, cfg, [producer.take() for _ in range(3)])
        blake2b_calls.clear()

        hash_calls = []
        original = data_io.graph_hash
        monkeypatch.setattr(data_io, "graph_hash", lambda g: hash_calls.append(1) or original(g))

        loaded = load_dataset(tmp_path / "data")
        g = loaded.graph
        tcfg = TrainConfig(hidden_dims=(3,), epochs=1, seed=3)
        result = train(g, loaded.features, loaded.labels, loaded.split, cfg, tcfg, num_classes=2)
        coeffs, _ = estimate_coeffs(g, cfg)
        assert blake2b_calls == [] and hash_calls == []

        for call in (
            lambda: save_checkpoint(tmp_path / "final", g, result.checkpoint),
            lambda: save_checkpoint(tmp_path / "best", g, result.checkpoint),
            lambda: load_checkpoint(tmp_path / "final", g),
            lambda: save_coeffs(tmp_path / "coeffs", g, coeffs, cfg),
            lambda: load_subgraphs(tmp_path / "subs", g),
        ):
            before = len(hash_calls)
            call()
            assert len(hash_calls) > before  # every container still asks data_io.graph_hash
        assert len(blake2b_calls) == 1
        assert graph_hash(g) == graph_hash(other)

    def test_writable_array_changed_in_place_changes_the_hash(self, square_chord, blake2b_calls):
        g = dataclasses.replace(square_chord, norm_values=square_chord.norm_values.copy())
        before = graph_hash(g)
        g.norm_values[3] = np.nextafter(g.norm_values[3], np.inf)
        assert graph_hash(g) != before
        assert len(blake2b_calls) == 2

    def test_read_only_view_of_a_writable_array_is_hashed_on_every_call(self, square_chord):
        values = square_chord.norm_values.copy()
        view = values.view()
        view.setflags(write=False)
        g = dataclasses.replace(square_chord, norm_values=view)
        before = graph_hash(g)
        values[3] = np.nextafter(values[3], np.inf)
        assert graph_hash(g) != before

    def test_array_unfrozen_after_hashing_is_hashed_again(self, square_chord):
        before = graph_hash(square_chord)
        square_chord.norm_values.setflags(write=True)
        square_chord.norm_values[3] = np.nextafter(square_chord.norm_values[3], np.inf)
        assert graph_hash(square_chord) != before

    def test_replace_does_not_carry_the_stored_hash(self, square_chord):
        before = graph_hash(square_chord)
        values = square_chord.norm_values.copy()
        values[3] = np.nextafter(values[3], np.inf)
        values.setflags(write=False)
        moved = dataclasses.replace(square_chord, norm_values=values)
        assert graph_hash(moved) != before

    def test_stored_hash_equals_a_fresh_build(self, blake2b_calls):
        for g in (build_graph([(0, 1), (0, 0), (1, 1), (2, 2)], 3), er_graph(30, 0.2, seed=1)):
            first = graph_hash(g)
            blake2b_calls.clear()
            assert graph_hash(g) == first
            assert blake2b_calls == []  # the second call was answered from the stored value
            assert graph_hash(build_graph(g.edge_endpoints, g.num_nodes)) == first


class TestContainerValidation:
    @pytest.mark.parametrize("kind", LOADERS)
    def test_truncated_header_blob_names_the_file_once(self, containers, kind, tmp_path):
        g, files = containers
        data = bytearray(files[kind])
        data[20:24] = (0xFFFFFFFF).to_bytes(4, "little")  # the header blob's length
        path = tmp_path / kind
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError) as exc_info:
            LOADERS[kind](path, g)
        assert str(exc_info.value) == f"{path}: truncated binary file"

    @pytest.mark.parametrize("kind", LOADERS)
    def test_version_3_rejected(self, containers, kind, tmp_path):
        g, files = containers
        data = bytearray(files[kind])
        assert int.from_bytes(data[8:12], "little") == 4
        data[8:12] = (3).to_bytes(4, "little")
        path = tmp_path / kind
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version 3 .*regenerate"):
            LOADERS[kind](path, g)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_empty_header_rejected(self, containers, kind, tmp_path):
        g, files = containers
        path = tmp_path / kind
        path.write_bytes(with_header(files[kind], b"{}"))
        with pytest.raises(DataFormatError, match="lacks key") as exc_info:
            LOADERS[kind](path, g)
        assert exc_info.value.path == str(path)

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("checkpoint", "layers", "2"),
            ("checkpoint", "layers", -1),
            ("checkpoint", "layers", True),
            ("checkpoint", "adam_t", 1.5),
            ("checkpoint", "head", 3),
            ("checkpoint", "best_val_f1", "0.5"),
            ("checkpoint", "best_val_f1", None),
            ("coeffs", "num_subgraphs", [4]),
            ("coeffs", "source", None),
            ("subgraphs", "count", -1),
            ("subgraphs", "sampler", None),
            ("subgraphs", "sampler", {"kind": "bogus"}),
            ("subgraphs", "sampler", {"kind": "edge", "m": "6"}),
            ("subgraphs", "sampler", {"kind": "edge", "m": 6, "extra": 1}),
            ("subgraphs", "sampler", {"kind": "edge", "m": 2.5}),
            ("subgraphs", "sampler", {"kind": "edge", "m": 6, "seed": -1}),
        ],
    )
    def test_wrongly_typed_key_rejected(self, containers, kind, key, value, tmp_path):
        g, files = containers
        meta = json.loads(header_blob(files[kind]))
        meta[key] = value
        path = tmp_path / kind
        path.write_bytes(with_header(files[kind], json.dumps(meta).encode()))
        with pytest.raises(DataFormatError, match=repr(key)) as exc_info:
            LOADERS[kind](path, g)
        assert exc_info.value.path == str(path)

    def test_unknown_coefficient_source_rejected(self, containers, tmp_path):
        g, files = containers
        meta = json.loads(header_blob(files["coeffs"]))
        meta["source"] = "analytic"
        path = tmp_path / "coeffs"
        path.write_bytes(with_header(files["coeffs"], json.dumps(meta).encode()))
        with pytest.raises(DataFormatError, match="source 'analytic' is not 'exact' or 'empirical'"):
            load_coeffs(path, g)

    def test_unparseable_header_blob_rejected(self, containers, tmp_path):
        g, files = containers
        path = tmp_path / "checkpoint"
        for blob in (b'{"layers": ' + b"1" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000):
            path.write_bytes(with_header(files["checkpoint"], blob))
            with pytest.raises(DataFormatError, match="header"):
                load_checkpoint(path, g)

    @pytest.mark.parametrize("shape", [(2**36, 1), (2**61, 8)])
    def test_oversized_array_shape_rejected(self, containers, shape, tmp_path):
        g, files = containers
        data = bytearray(files["checkpoint"])
        at = 24 + len(header_blob(data))  # tag, ndim, then the shape of the first weight matrix
        assert data[at : at + 2] == b"f\x02"
        data[at + 2 : at + 18] = struct.pack("<2Q", *shape)
        path = tmp_path / "checkpoint"
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="exceeds"):
            load_checkpoint(path, g)

    @pytest.mark.parametrize("shape", [(0, 2**62), (2**64 - 1, 0)])
    def test_empty_array_past_numpy_limits_rejected(self, containers, shape, tmp_path):
        g, files = containers
        data = files["coeffs"]
        at = 24 + len(header_blob(data))  # tag, ndim and shape of the first array
        path = tmp_path / "coeffs"
        path.write_bytes(data[:at] + b"f\x02" + struct.pack("<2Q", *shape))
        with pytest.raises(DataFormatError) as exc_info:
            load_coeffs(path, g)
        assert str(exc_info.value) == f"{path}: array shape {shape} exceeds numpy's limits"

    def test_array_rank_above_two_rejected(self, containers, tmp_path):
        g, files = containers
        data = files["coeffs"]
        at = 24 + len(header_blob(data))  # tag and ndim of the first array
        path = tmp_path / "coeffs"
        path.write_bytes(data[:at] + b"f" + bytes([65]) + bytes(8 * 65))  # 65 zero dims: no elements
        with pytest.raises(DataFormatError, match="rank"):
            load_coeffs(path, g)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_trailing_bytes_rejected(self, containers, kind, tmp_path):
        g, files = containers
        path = tmp_path / kind
        path.write_bytes(files[kind] + bytes(7))
        with pytest.raises(DataFormatError) as exc_info:
            LOADERS[kind](path, g)
        assert str(exc_info.value) == f"{path}: 7 trailing bytes after the last array"

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("at, field, match", [(0, b"NOTMAGIC", "bad magic"), (8, (3).to_bytes(4, "little"), "version 3 ")],
                             ids=["magic", "version"])
    def test_foreign_prefix_rejected_before_the_body_is_read(self, containers, kind, at, field, match, tmp_path,
                                                             monkeypatch):
        g, files = containers
        data = bytearray(files[kind] + bytes(1 << 20))  # a body far longer than the 24-byte prefix
        data[at : at + len(field)] = field
        path = tmp_path / kind
        path.write_bytes(bytes(data))
        got = []

        class CountingFile:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def read(self, *size):
                chunk = self.f.read(*size)
                got.append(len(chunk))
                return chunk

        monkeypatch.setattr(data_io, "open", lambda *a, **k: CountingFile(open(*a, **k)), raising=False)
        with pytest.raises(DataFormatError, match=match):
            LOADERS[kind](path, g)
        assert sum(got) <= 24


# Each case replaces the stored node vector of the induced subgraph of
# nodes {1, 2, 3} of the square with a chord.
BAD_SUBGRAPHS = {
    "repeated node": ("nodes", [1, 1, 3], "nodes must be strictly increasing"),
    "unsorted nodes": ("nodes", [3, 2, 1], "nodes must be strictly increasing"),
    "node past the graph": ("nodes", [1, 2, 4], r"nodes must be strictly increasing in \[0, 4\)"),
    "negative node": ("nodes", [-1, 2, 3], "nodes must be strictly increasing"),
    "float nodes": ("nodes", [1.0, 2.0, 3.0], "nodes must be an integer vector"),
    "matrix nodes": ("nodes", [[1, 2, 3]], "nodes must be an integer vector"),
}


def checkpoint_of(weights, **groups) -> Checkpoint:
    """Checkpoint of a model with ``weights``; Adam moments and the best
    copy are zeros of the same shapes unless given."""
    fill = {name: groups.get(name, [np.zeros_like(w) for w in weights])
            for name in ("adam_m", "adam_v", "best_weights")}
    return Checkpoint(head=groups.get("head", "softmax"), weights=weights, adam_t=1, epochs_done=1,
                      iteration=1, best_val_f1=0.5, **fill)


class TestCacheValidation:
    """Well-formed containers whose arrays disagree with the graph or
    with each other are data errors."""

    @pytest.fixture
    def square_sub(self, square_chord):
        sub = induced_subgraph(square_chord, [1, 2, 3])
        assert sub.row_offsets.tolist() == [0, 2, 4, 6]
        assert sub.col_indices.tolist() == [1, 2, 0, 2, 0, 1]
        assert sub.arc_origin.tolist() == [2, 3, 4, 5, 6, 7]
        return sub

    def test_valid_subgraphs_load(self, square_chord, square_sub, tmp_path):
        cfg = SamplerConfig(kind="node", n=3)
        no_arcs = induced_subgraph(square_chord, [0, 2])
        save_subgraphs(tmp_path / "subs", square_chord, cfg, [square_sub, no_arcs, induced_subgraph(square_chord, [])])
        _, loaded = load_subgraphs(tmp_path / "subs", square_chord)
        for want, got in zip([square_sub, no_arcs, induced_subgraph(square_chord, [])], loaded, strict=True):
            for name in ("nodes", "row_offsets", "col_indices", "arc_origin"):
                assert getattr(got, name).dtype == np.int64
                assert getattr(got, name).tolist() == getattr(want, name).tolist()
        assert loaded[1].num_arcs == 0
        assert loaded[2].num_nodes == 0 and loaded[2].row_offsets.tolist() == [0]

    def test_cache_stores_only_node_ids(self, square_chord, square_sub, tmp_path):
        path = tmp_path / "subs"
        save_subgraphs(path, square_chord, SamplerConfig(kind="node", n=3), [square_sub])
        data = path.read_bytes()
        body = data[24 + len(header_blob(data)) :]
        assert body == b"i" + struct.pack("<BQ", 1, 3) + np.array([1, 2, 3], dtype="<i8").tobytes()

    @pytest.mark.parametrize("case", BAD_SUBGRAPHS)
    def test_bad_subgraph_rejected(self, square_chord, square_sub, case, tmp_path):
        field, value, match = BAD_SUBGRAPHS[case]
        bad = dataclasses.replace(square_sub, **{field: np.array(value)})
        path = tmp_path / "subs"
        save_subgraphs(path, square_chord, SamplerConfig(kind="node", n=3), [square_sub, bad])
        with pytest.raises(DataFormatError, match="subgraph 1: " + match) as exc_info:
            load_subgraphs(path, square_chord)
        assert exc_info.value.path == str(path)

    @pytest.mark.parametrize("field", ["lam", "alpha", "node_counts", "edge_counts"])
    def test_coefficient_length_mismatch_rejected(self, square_chord, field, tmp_path):
        coeffs, _ = estimate_coeffs(square_chord, SamplerConfig(kind="edge", m=2, seed=1), num_subgraphs=3)
        path = tmp_path / "coeffs"
        save_coeffs(path, square_chord, dataclasses.replace(coeffs, **{field: getattr(coeffs, field)[:-1]}))
        with pytest.raises(DataFormatError, match=f"{field} has shape"):
            load_coeffs(path, square_chord)

    @pytest.mark.parametrize("field, index, value, match", [
        *(("alpha", 5, v, "arc 5 has alpha") for v in (0.0, -1.0, np.nan, np.inf, -np.inf)),
        *(("lam", 2, v, "node 2 has lambda") for v in (np.nan, -3.0, 1.5)),
    ])
    def test_invalid_coefficient_value_rejected(self, square_chord, field, index, value, match, tmp_path):
        coeffs, _ = estimate_coeffs(square_chord, SamplerConfig(kind="edge", m=2, seed=1), num_subgraphs=3)
        path = tmp_path / "coeffs"
        save_coeffs(path, square_chord, coeffs)
        data = bytearray(path.read_bytes())
        at = 24 + len(header_blob(data))  # lam, then alpha; each is a tag, a rank, a length, the values
        if field == "alpha":
            at += 10 + 8 * square_chord.num_nodes
        at += 10 + 8 * index
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match=match) as exc_info:
            load_coeffs(path, square_chord)
        assert exc_info.value.path == str(path)

    @pytest.mark.parametrize(
        "ckpt, match",
        [
            pytest.param(checkpoint_of([np.zeros(4), np.zeros((4, 2))]),
                         "layer 0: weights must be a float matrix", id="vector weights"),
            pytest.param(checkpoint_of([np.zeros((3, 4), dtype=np.int64)]),
                         "layer 0: weights must be a float matrix", id="integer weights"),
            pytest.param(checkpoint_of([np.zeros((3, 4)), np.zeros((4, 2))],
                                       adam_m=[np.zeros((3, 4)), np.zeros((2, 4))]),
                         "layer 1: adam_m", id="adam_m shape"),
            pytest.param(checkpoint_of([np.zeros((3, 4)), np.zeros((4, 2))],
                                       adam_v=[np.zeros((1, 12)), np.zeros((4, 2))]),
                         "layer 0: adam_v", id="adam_v shape"),
            pytest.param(checkpoint_of([np.zeros((3, 4))], best_weights=[np.zeros(12)]),
                         "layer 0: best_weights", id="best_weights rank"),
            pytest.param(checkpoint_of([np.zeros((3, 4)), np.zeros((5, 2))]),
                         "layer 1: weights .* do not chain", id="layers do not chain"),
            pytest.param(checkpoint_of([]), "no layers", id="no layers"),
            pytest.param(checkpoint_of([np.zeros((3, 4))], head="bogus"), "unknown head", id="unknown head"),
        ],
    )
    def test_inconsistent_checkpoint_rejected(self, square_chord, ckpt, match, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, square_chord, ckpt)
        with pytest.raises(DataFormatError, match=match) as exc_info:
            load_checkpoint(path, square_chord)
        assert exc_info.value.path == str(path)

    def test_rewritten_weight_shape_rejected(self, containers, tmp_path):
        g, files = containers
        data = bytearray(files["checkpoint"])
        at = 24 + len(header_blob(data))  # tag, ndim, then the shape of the first weight matrix
        assert data[at : at + 2] == b"f\x02"
        rows, cols = struct.unpack("<2Q", data[at + 2 : at + 18])
        data[at + 2 : at + 18] = struct.pack("<2Q", 1, rows * cols)  # same byte count
        path = tmp_path / "checkpoint"
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="layer 0"):
            load_checkpoint(path, g)

    @pytest.mark.parametrize("group, layer, value, match", [
        ("weights", 0, np.nan, "layer 0: weights has a non-finite entry"),
        ("weights", 1, np.inf, "layer 1: weights has a non-finite entry"),
        ("adam_m", 1, -np.inf, "layer 1: adam_m has a non-finite entry"),
        ("adam_v", 0, np.nan, "layer 0: adam_v has a non-finite entry"),
        ("adam_v", 1, -1e-300, "layer 1: adam_v has a negative entry"),
        ("best_weights", 1, np.nan, "layer 1: best_weights has a non-finite entry"),
    ])
    def test_non_finite_checkpoint_value_rejected(self, square_chord, group, layer, value, match, tmp_path):
        ckpt = checkpoint_of([np.ones((3, 4)), np.ones((4, 2))])
        getattr(ckpt, group)[layer][2, 1] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, square_chord, ckpt)
        with pytest.raises(DataFormatError) as exc_info:
            load_checkpoint(path, square_chord)
        assert str(exc_info.value) == f"{path}: {match}"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_best_val_f1_rejected(self, square_chord, value, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, square_chord, dataclasses.replace(checkpoint_of([np.ones((3, 4))]), best_val_f1=value))
        with pytest.raises(DataFormatError, match="'best_val_f1' must be finite"):
            load_checkpoint(path, square_chord)

    def test_no_validation_sentinel_loads(self, square_chord, tmp_path):
        ckpt = dataclasses.replace(checkpoint_of([np.ones((3, 4)), -np.ones((4, 2))]), best_val_f1=-1.0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, square_chord, ckpt)
        loaded = load_checkpoint(path, square_chord)
        assert loaded.best_val_f1 == -1.0
        assert [w.tolist() for w in loaded.weights] == [w.tolist() for w in ckpt.weights]


JSON_KEYS = st.sampled_from(
    ["layers", "head", "adam_t", "epochs_done", "iteration", "best_val_f1", "count", "sampler",
     "num_subgraphs", "source", "kind", "n", "m", "r", "h", "seed"]
) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["edge", "rw", "softmax", "empirical"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=8,
)


class TestContainerFuzz:
    """Corrupt containers load or fail with a data error, never anything else."""

    @pytest.mark.parametrize("kind", LOADERS)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_corruption_is_a_data_error(self, containers, tmp_path_factory, kind, data):
        g, files = containers
        raw = files[kind]
        how = data.draw(st.sampled_from(["truncate", "flip", "header"]))
        if how == "truncate":
            corrupt = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif how == "flip":
            buf = bytearray(raw)
            for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)):
                buf[bit // 8] ^= 1 << (bit % 8)
            corrupt = bytes(buf)
        else:
            meta = json.loads(header_blob(raw))
            for key in data.draw(st.sets(st.sampled_from(sorted(meta)))):
                del meta[key]
            meta.update(data.draw(st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=3)))
            corrupt = with_header(raw, json.dumps(meta).encode())
        path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
        path.write_bytes(corrupt)
        try:
            LOADERS[kind](path, g)
        except (DataFormatError, CacheMismatchError):
            pass


class TestSbmGenerator:
    def test_zero_inter_probability_keeps_components_within_blocks(self):
        ds = generate_sbm(SbmSpec(blocks=3, block_size=12, p_intra=0.4, p_inter=0.0, seed=5))
        g = ds.graph
        blocks = ds.labels
        for u, v in g.edge_endpoints:
            assert blocks[u] == blocks[v]

    def test_noise_free_features_are_separable(self):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=20, p_intra=0.3, p_inter=0.05, noise=0.0, seed=6))
        # one-hot features: the identity classifier is already perfect
        assert f1_micro(ds.features, ds.labels) == 1.0
        # and a quickly fitted logistic model reaches it too
        w = np.zeros((2, 2))
        y = np.eye(2)[ds.labels]
        for _ in range(200):
            s = ds.features @ w
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            w -= 0.5 * ds.features.T @ (p - y) / len(y)
        assert f1_micro(ds.features @ w, ds.labels) == 1.0

    def test_fixed_seed_identical_bytes(self, tmp_path):
        spec = SbmSpec(blocks=2, block_size=15, p_intra=0.3, p_inter=0.02, noise=0.7, seed=9)
        save_dataset(generate_sbm(spec), tmp_path / "a")
        save_dataset(generate_sbm(spec), tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_split_is_stratified(self):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=50, p_intra=0.2, p_inter=0.02, seed=10))
        for b in range(2):
            in_block = ds.split[ds.labels == b]
            assert np.sum(in_block == 0) == 30
            assert np.sum(in_block == 1) == 10
            assert np.sum(in_block == 2) == 10

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SbmSpec(blocks=2, block_size=0, p_intra=0.1, p_inter=0.1)
        with pytest.raises(ValueError):
            SbmSpec(blocks=2, block_size=5, p_intra=1.5, p_inter=0.1)


class TestGraphGenerators:
    def test_er_full_probability_is_complete(self):
        g = er_graph(8, 1.0, seed=3)
        assert g.num_edges == 8 * 7 // 2

    def test_regular_graph_feeds_uniform_edge_distribution(self):
        g = circulant(12, (1, 6))
        assert np.all(g.degrees == 3)
        p = edge_weights(g).probabilities()
        assert np.allclose(p, 1.0 / g.num_edges, atol=1e-12)

    def test_graph_txt_round_trip(self, tmp_path):
        g = er_graph(15, 0.3, seed=5)
        ds = Dataset(graph=g, features=np.zeros((15, 1)), labels=np.zeros(15, dtype=np.int64),
                     split=np.zeros(15, dtype=np.int64), num_classes=1)
        save_dataset(ds, tmp_path)  # writes graph.txt through save_graph_txt
        assert graph_hash(load_dataset(tmp_path).graph) == graph_hash(g)

    def test_self_loops_not_representable(self, tmp_path):
        g = build_graph([(0, 1), (0, 0), (1, 1)], 2)
        with pytest.raises(ValueError):
            save_graph_txt(tmp_path / "graph.txt", g)
