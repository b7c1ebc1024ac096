"""Serialization round trips, grammar errors, synthetic generators."""

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

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
    generate_er,
    generate_regular,
    generate_sbm,
    load_dataset,
    save_dataset,
    train,
)
from subgcn.data_io import (
    CacheMismatchError,
    DataFormatError,
    graph_hash,
    load_checkpoint,
    load_coeffs,
    load_graph_txt,
    load_subgraphs,
    save_checkpoint,
    save_coeffs,
    save_graph_txt,
    save_subgraphs,
)
from subgcn.samplers import SubgraphProducer


def minimal_dataset() -> Dataset:
    g = build_graph([(0, 1)], 2)
    return Dataset(
        graph=g,
        features=np.array([[0.125], [-3.5]]),
        labels=np.array([0, 1], dtype=np.int64),
        split=np.array([0, 2], dtype=np.int64),
        num_classes=2,
        label_mode="single",
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
            label_mode="multi",
        )
        save_dataset(ds, tmp_path)
        ds2 = load_dataset(tmp_path)
        assert ds2.label_mode == "multi"
        assert np.array_equal(ds.labels, ds2.labels)
        assert np.array_equal(ds.features, ds2.features)


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
            load_graph_txt(tmp_path / "graph.txt")

    def test_u_not_less_than_v_rejected(self, tmp_path):
        (tmp_path / "graph.txt").write_text("3 1\n2 1\n")
        with pytest.raises(DataFormatError, match="graph.txt:2"):
            load_graph_txt(tmp_path / "graph.txt")

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


class TestArtifactCaches:
    def test_subgraph_cache_round_trip(self, tmp_path):
        g = generate_er(25, 0.2, seed=1)
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

    def test_coeffs_cache_round_trip(self, tmp_path):
        g = generate_er(20, 0.25, seed=2)
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
        g1 = generate_er(20, 0.25, seed=2)
        g2 = generate_er(20, 0.25, seed=3)
        cfg = SamplerConfig(kind="edge", m=6, seed=3)
        coeffs, _ = estimate_coeffs(g1, cfg, num_subgraphs=5)
        path = tmp_path / "coeffs.bin"
        save_coeffs(path, g1, coeffs, cfg)
        with pytest.raises(CacheMismatchError):
            load_coeffs(path, g2)

    def test_wrong_magic_rejected(self, tmp_path):
        g = generate_er(10, 0.3, seed=4)
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="magic"):
            load_coeffs(path, g)

    def _coeffs_file(self, tmp_path):
        g = generate_er(10, 0.3, seed=4)
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

    def test_checkpoint_resume_reproduces_metric_log(self, tmp_path):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=20, p_intra=0.3, p_inter=0.02, noise=0.8, seed=3))
        cfg = SamplerConfig(kind="edge", m=25, seed=4)
        tcfg = TrainConfig(hidden_dims=(8,), epochs=8, batches_per_epoch=2, seed=11,
                           dropout=0.1, num_norm_subgraphs=6)

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
        for g in (square_chord, build_graph([(0, 1)], 3, self_loops=True), generate_er(30, 0.2, seed=1)):
            parts = [struct.pack("<2Q", g.num_nodes, g.num_arcs)]
            parts += [a.astype(code).tobytes() for a, code in (
                (g.row_offsets, "<i8"), (g.col_indices, "<i8"), (g.norm_values, "<f8"), (g.degrees, "<i8"))]
            digest = hashlib.blake2b(b"".join(parts), digest_size=8).digest()
            assert graph_hash(g) == int.from_bytes(digest, "little")

    def test_is_a_64_bit_unsigned_int(self):
        for seed in range(5):
            h = graph_hash(generate_er(20, 0.3, seed=seed))
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


class TestContainerValidation:
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

    def test_array_rank_above_two_rejected(self, containers, tmp_path):
        g, files = containers
        data = files["coeffs"]
        at = 24 + len(header_blob(data))  # tag and ndim of the first array
        path = tmp_path / "coeffs"
        path.write_bytes(data[:at] + b"f" + bytes([65]) + bytes(8 * 65))  # 65 zero dims: no elements
        with pytest.raises(DataFormatError, match="rank"):
            load_coeffs(path, g)


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
        assert f1_micro(ds.features, ds.labels, "single") == 1.0
        # and a quickly fitted logistic model reaches it too
        w = np.zeros((2, 2))
        y = np.eye(2)[ds.labels]
        for _ in range(200):
            s = ds.features @ w
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            w -= 0.5 * ds.features.T @ (p - y) / len(y)
        assert f1_micro(ds.features @ w, ds.labels, "single") == 1.0

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
    def test_regular_graph_degrees(self):
        g = generate_regular(2, 14, seed=1)
        assert np.all(g.degrees == 2)  # union of cycles

    def test_regular_higher_degree(self):
        g = generate_regular(4, 20, seed=2)
        assert np.all(g.degrees == 4)
        # simple: no duplicate edges by construction
        assert g.num_edges == 40

    def test_infeasible_degree_sequence_rejected(self):
        with pytest.raises(ValueError):
            generate_regular(3, 5, seed=0)  # odd n*d
        with pytest.raises(ValueError):
            generate_regular(5, 5, seed=0)  # d >= n

    def test_er_full_probability_is_complete(self):
        g = generate_er(8, 1.0, seed=3)
        assert g.num_edges == 8 * 7 // 2

    def test_regular_graph_feeds_uniform_edge_distribution(self):
        g = generate_regular(3, 12, seed=4)
        p = edge_weights(g).probabilities()
        assert np.allclose(p, 1.0 / g.num_edges, atol=1e-12)

    def test_graph_txt_round_trip(self, tmp_path):
        g = generate_er(15, 0.3, seed=5)
        save_graph_txt(tmp_path / "graph.txt", g)
        g2 = load_graph_txt(tmp_path / "graph.txt")
        assert graph_hash(g) == graph_hash(g2)

    def test_self_loops_not_representable(self, tmp_path):
        g = build_graph([(0, 1)], 2, self_loops=True)
        with pytest.raises(ValueError):
            save_graph_txt(tmp_path / "graph.txt", g)
