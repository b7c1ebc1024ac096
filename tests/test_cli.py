"""CLI contracts: artifacts, formats, determinism, exit codes."""

import re

import numpy as np
import pytest

from subgcn import SamplerConfig, SbmSpec, generate_sbm, save_dataset
from subgcn.cli import main
from subgcn.data_io import save_subgraphs
from subgcn.samplers import SubgraphProducer


@pytest.fixture
def dataset_dir(tmp_path):
    ds = generate_sbm(SbmSpec(blocks=2, block_size=20, p_intra=0.3, p_inter=0.03, noise=0.8, seed=1))
    d = tmp_path / "data"
    save_dataset(ds, d)
    return d


class TestGen:
    def test_sbm_dataset_loads_back(self, tmp_path):
        out = tmp_path / "ds"
        code = main([
            "gen", "--kind", "sbm", "--blocks", "2", "--block-size", "10",
            "--p-intra", "0.4", "--p-inter", "0.05", "--noise", "0.5",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        for name in ("graph.txt", "features.txt", "labels.txt", "split.txt"):
            assert (out / name).exists()

    def test_regular_graph(self, tmp_path):
        out = tmp_path / "g"
        assert main(["gen", "--kind", "regular", "--d", "2", "--nodes", "10", "--out", str(out)]) == 0
        assert (out / "graph.txt").exists()


class TestTrainCommand:
    def test_contract_artifacts_and_log_format(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run1"
        code = main([
            "train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
            "--layers", "2", "--hidden", "8", "--epochs", "4", "--seed", "7",
            "--num-norm-subgraphs", "5", "--out", str(out),
        ])
        assert code == 0
        log = (out / "metrics.log").read_text().splitlines()
        assert (out / "best.ckpt").exists()
        assert (out / "final.ckpt").exists()
        line = re.compile(r"^iter \d+ loss \S+ val_f1 \S+$")
        for entry in log[:-1]:
            assert line.match(entry)
        assert log[-1].startswith("test_f1 ")

    def test_cli_matches_library_call(self, dataset_dir, tmp_path):
        from subgcn import TrainConfig, load_dataset, train

        out = tmp_path / "run"
        main([
            "train", "--data", str(dataset_dir), "--sampler", "rw", "--r", "4", "--h", "2",
            "--layers", "2", "--hidden", "8", "--epochs", "3", "--seed", "5",
            "--num-norm-subgraphs", "4", "--out", str(out),
        ])
        ds = load_dataset(dataset_dir)
        result = train(
            ds.graph, ds.features, ds.labels, ds.split,
            SamplerConfig(kind="rw", r=4, h=2, seed=5),
            TrainConfig(hidden_dims=(8,), epochs=3, seed=5, num_norm_subgraphs=4),
            num_classes=ds.num_classes,
        )
        assert (out / "metrics.log").read_text() == "\n".join(result.log) + "\n"


class TestSampleCommand:
    def test_identical_cache_bytes_across_runs(self, dataset_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["sample", "--data", str(dataset_dir), "--sampler", "rw",
                "--r", "10", "--h", "2", "--count", "100", "--seed", "1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "subgraphs.bin").read_bytes() == (b / "subgraphs.bin").read_bytes()

    def test_cache_matches_library_artifact(self, dataset_dir, tmp_path):
        from subgcn import load_dataset

        out = tmp_path / "out"
        main(["sample", "--data", str(dataset_dir), "--sampler", "node", "--n", "8",
              "--count", "11", "--seed", "2", "--out", str(out)])
        ds = load_dataset(dataset_dir)
        cfg = SamplerConfig(kind="node", n=8, seed=2)
        with SubgraphProducer(ds.graph, cfg) as producer:
            subs = [producer.take() for _ in range(11)]
        ref = tmp_path / "ref.bin"
        save_subgraphs(ref, ds.graph, cfg, subs)
        assert ref.read_bytes() == (out / "subgraphs.bin").read_bytes()

    def test_threads_do_not_change_bytes(self, dataset_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["sample", "--data", str(dataset_dir), "--sampler", "mrw",
                "--n", "12", "--r", "3", "--count", "40", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(["--threads", "4"] + argv + ["--out", str(b)]) == 0
        assert (a / "subgraphs.bin").read_bytes() == (b / "subgraphs.bin").read_bytes()


class TestEstimateAndEval:
    def test_estimate_writes_cache(self, dataset_dir, tmp_path):
        from subgcn import load_dataset
        from subgcn.data_io import load_coeffs

        out = tmp_path / "est"
        code = main(["estimate", "--data", str(dataset_dir), "--sampler", "edge", "--m", "20",
                     "--num-subgraphs", "12", "--seed", "3", "--out", str(out)])
        assert code == 0
        ds = load_dataset(dataset_dir)
        coeffs = load_coeffs(out / "coeffs.bin", ds.graph)
        assert coeffs.num_subgraphs == 12

    def test_eval_prints_f1(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
              "--layers", "1", "--epochs", "3", "--seed", "1",
              "--num-norm-subgraphs", "4", "--out", str(out)])
        capsys.readouterr()
        code = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(out / "best.ckpt"),
                     "--split", "test"])
        assert code == 0
        printed = capsys.readouterr().out
        match = re.search(r"test_f1 (\S+)", printed)
        assert match and 0.0 <= float(match.group(1)) <= 1.0


class TestVarianceCheckCommand:
    def test_table_and_summary(self, dataset_dir, capsys):
        code = main(["variance-check", "--data", str(dataset_dir), "--m", "5",
                     "--trials", "2000", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p_optimal" in out and "p_topology" in out
        assert "closed_form_optimal" in out
        assert "mc_topology" in out
        closed = float(re.search(r"closed_form_optimal (\S+)", out).group(1))
        mc = float(re.search(r"mc_optimal (\S+)", out).group(1))
        assert closed >= 0.0 and mc >= 0.0


class TestBenchCommand:
    def test_reports_timing(self, dataset_dir, capsys):
        code = main(["bench", "--data", str(dataset_dir), "--sampler", "edge",
                     "--m", "10", "--count", "20"])
        assert code == 0
        assert "mean" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["train", "--bogus"]) == 1

    def test_unknown_sampler_flag_combination_is_1(self, dataset_dir, tmp_path):
        # rw without --h is a config validation error
        assert main(["sample", "--data", str(dataset_dir), "--sampler", "rw", "--r", "2",
                     "--count", "1", "--out", str(tmp_path / "x")]) == 1

    def test_missing_data_is_2(self, tmp_path):
        assert main(["sample", "--data", str(tmp_path / "nope"), "--sampler", "edge",
                     "--m", "2", "--count", "1", "--out", str(tmp_path / "x")]) == 2

    def test_malformed_data_is_2(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "graph.txt").write_text("not a header\n")
        assert main(["sample", "--data", str(d), "--sampler", "edge", "--m", "2",
                     "--count", "1", "--out", str(tmp_path / "x")]) == 2

    def test_malformed_checkpoint_header_is_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--layers", "1", "--epochs", "1", "--num-norm-subgraphs", "2",
                     "--out", str(out)]) == 0
        ckpt = out / "best.ckpt"
        data = bytearray(ckpt.read_bytes())
        data[24] = ord("x")  # the opening brace of the JSON header blob
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(ckpt)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_header_key_is_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--layers", "1", "--epochs", "1", "--num-norm-subgraphs", "2",
                     "--out", str(out)]) == 0
        ckpt = out / "best.ckpt"
        data = bytearray(ckpt.read_bytes())
        meta_len = int.from_bytes(data[20:24], "little")
        data[24 : 24 + meta_len] = b"{}" + b" " * (meta_len - 2)  # a JSON object with no keys
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(ckpt)]) == 2
        assert "lacks key" in capsys.readouterr().err

    def test_numeric_failure_is_3(self, tmp_path):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=10, p_intra=0.5, p_inter=0.1, noise=0.5, seed=2))
        ds.features[:] = np.nan
        d = tmp_path / "nan_data"
        save_dataset(ds, d)
        assert main(["train", "--data", str(d), "--sampler", "full", "--epochs", "1",
                     "--layers", "1", "--num-norm-subgraphs", "2",
                     "--out", str(tmp_path / "run")]) == 3
