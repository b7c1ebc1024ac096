"""CLI contracts: artifacts, formats, determinism, exit codes."""

import dataclasses
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

    @pytest.mark.parametrize("kind", ["regular", "er"])
    def test_graph_only_kinds_are_usage_errors(self, tmp_path, kind, capsys):
        out = tmp_path / "g"
        assert main(["gen", "--kind", kind, "--out", str(out)]) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


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

    def test_reports_skipped_batches(self, dataset_dir, tmp_path, capsys):
        code = main([
            "train", "--data", str(dataset_dir), "--sampler", "node", "--n", "1",
            "--hidden", "8", "--epochs", "12", "--seed", "3", "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        nan_epochs = sum(" loss nan " in line for line in out.splitlines())
        assert nan_epochs > 0  # one batch per epoch: a skipped batch leaves its epoch no loss
        assert f"skipped {nan_epochs} batches with no training node" in out

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
        producer = SubgraphProducer(ds.graph, cfg)
        subs = [producer.take() for _ in range(11)]
        ref = tmp_path / "ref.bin"
        save_subgraphs(ref, ds.graph, cfg, subs)
        assert ref.read_bytes() == (out / "subgraphs.bin").read_bytes()


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

    def test_estimate_without_count_writes_exact_cache(self, dataset_dir, tmp_path, capsys):
        from subgcn import estimate_coeffs, load_dataset
        from subgcn.data_io import load_coeffs

        out = tmp_path / "est"
        code = main(["estimate", "--data", str(dataset_dir), "--sampler", "edge-independent",
                     "--m", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "wrote exact coefficients" in capsys.readouterr().out
        ds = load_dataset(dataset_dir)
        coeffs = load_coeffs(out / "coeffs.bin", ds.graph)
        assert (coeffs.source, coeffs.num_subgraphs) == ("exact", 0)
        want, _ = estimate_coeffs(ds.graph, SamplerConfig(kind="edge_independent", m=20, seed=3))
        assert np.array_equal(coeffs.alpha, want.alpha) and np.array_equal(coeffs.lam, want.lam)

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


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["train", "--bogus"]) == 1

    def test_removed_single_precision_flag_is_1(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--epochs", "1", "--single-precision", "--out", str(tmp_path / "run")]) == 1
        assert "unrecognized arguments: --single-precision" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_removed_mean_loss_flag_is_1(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--epochs", "1", "--mean-loss", "--out", str(tmp_path / "run")]) == 1
        assert "unrecognized arguments: --mean-loss" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["variance-check", "--m", "5", "--layers", "0"], "argument --layers: must be at least",
                     id="variance-check layers 0"),
        pytest.param(["variance-check", "--m", "5", "--layers", "-4"], "argument --layers: must be at least",
                     id="variance-check layers -4"),
        pytest.param(["variance-check", "--m", "5", "--hidden", "0"], "argument --hidden: must be at least",
                     id="variance-check hidden 0"),
        pytest.param(["variance-check", "--m", "5", "--trials", "1"], "argument --trials: must be at least",
                     id="variance-check trials 1"),
        pytest.param(["train", "--sampler", "edge", "--m", "30", "--layers", "0"], "argument --layers: must be at least",
                     id="train layers 0"),
        pytest.param(["train", "--sampler", "edge", "--m", "30", "--hidden", "0"], "argument --hidden: must be at least",
                     id="train hidden 0"),
        pytest.param(["sample", "--sampler", "edge", "--m", "2", "--count", "0"], "argument --count: must be at least",
                     id="sample count 0"),
        pytest.param(["train", "--sampler", "edge", "--m", "30", "--lr", "nan"], "lr must be finite and positive",
                     id="train lr nan"),
    ])
    def test_out_of_range_count_is_1(self, dataset_dir, tmp_path, capsys, argv, message):
        out = ["--out", str(tmp_path / "x")] if "variance-check" not in argv else []
        assert main([*argv, "--data", str(dataset_dir), *out]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_is_1(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--epochs", "1", "--seed", "-1", "--out", str(tmp_path / "run")]) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("name, header", [
        ("features.txt", "40 1000000000000000"),
        ("labels.txt", "multi 1000000000000000"),
    ])
    def test_hostile_width_header_is_2(self, dataset_dir, tmp_path, capsys, name, header):
        path = dataset_dir / name
        path.write_text("\n".join([header, *path.read_text().splitlines()[1:]]) + "\n")
        assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(tmp_path / "any.ckpt"),
                     "--split", "test"]) == 2
        assert f"{name}:2: expected 1000000000000000 values" in capsys.readouterr().err

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

    def test_inconsistent_checkpoint_shapes_is_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--layers", "2", "--hidden", "2", "--epochs", "1", "--num-norm-subgraphs", "2",
                     "--out", str(out)]) == 0
        ckpt = out / "best.ckpt"
        data = bytearray(ckpt.read_bytes())
        at = 24 + int.from_bytes(data[20:24], "little")  # the first weight array follows the header blob
        assert data[at : at + 18] == b"f\x02" + (2).to_bytes(8, "little") * 2  # a (2, 2) matrix
        data[at + 2 : at + 18] = (1).to_bytes(8, "little") + (4).to_bytes(8, "little")  # now (1, 4)
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(ckpt)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_non_finite_checkpoint_is_2(self, dataset_dir, tmp_path, capsys):
        from subgcn import load_dataset
        from subgcn.data_io import load_checkpoint, save_checkpoint

        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--layers", "2", "--hidden", "4", "--epochs", "1", "--num-norm-subgraphs", "2",
                     "--out", str(out)]) == 0
        g = load_dataset(dataset_dir).graph
        ckpt = load_checkpoint(out / "best.ckpt", g)
        ckpt.weights[0][1, 2] = np.nan
        save_checkpoint(out / "best.ckpt", g, ckpt)
        capsys.readouterr()
        assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(out / "best.ckpt")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "layer 0: weights has a non-finite entry" in err

    @pytest.mark.parametrize(
        "refit, named",
        [
            (lambda ds: dataclasses.replace(ds, features=np.hstack([ds.features, ds.features[:, :1]])),
             "input width 2 does not match the dataset's 3"),
            (lambda ds: dataclasses.replace(ds, num_classes=3), "class count 2 does not match the dataset's 3"),
            (lambda ds: dataclasses.replace(ds, labels=np.eye(2, dtype=np.int64)[ds.labels]),
             "head softmax does not match the dataset's sigmoid"),
        ],
        ids=["feature width", "class count", "head"],
    )
    def test_checkpoint_not_fitting_dataset_is_2(self, dataset_dir, tmp_path, capsys, refit, named):
        from subgcn import load_dataset

        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--sampler", "edge", "--m", "30",
                     "--layers", "1", "--epochs", "1", "--num-norm-subgraphs", "2",
                     "--out", str(out)]) == 0
        other = tmp_path / "other"
        save_dataset(refit(load_dataset(dataset_dir)), other)  # same graph, so the hash still matches
        capsys.readouterr()
        assert main(["eval", "--data", str(other), "--checkpoint", str(out / "best.ckpt")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "best.ckpt" in err and named in err

    def test_eval_on_split_without_nodes_is_2(self, tmp_path, capsys):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=20, p_intra=0.3, p_inter=0.03, noise=0.8, seed=1))
        ds.split[ds.split == 1] = 2  # no validation nodes
        d = tmp_path / "no_val"
        save_dataset(ds, d)
        out = tmp_path / "run"
        assert main(["train", "--data", str(d), "--sampler", "edge", "--m", "30", "--layers", "1",
                     "--epochs", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--data", str(d), "--checkpoint", str(out / "best.ckpt"), "--split", "val"]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "split.txt" in err and "no val nodes" in err
        assert main(["eval", "--data", str(d), "--checkpoint", str(out / "best.ckpt"), "--split", "test"]) == 0

    def test_numeric_failure_is_3(self, tmp_path):
        ds = generate_sbm(SbmSpec(blocks=2, block_size=10, p_intra=0.5, p_inter=0.1, noise=0.5, seed=2))
        ds.features[:] = 1e308  # finite, so it loads, but the loss overflows
        d = tmp_path / "huge_data"
        save_dataset(ds, d)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["train", "--data", str(d), "--sampler", "full", "--epochs", "1",
                         "--layers", "1", "--num-norm-subgraphs", "2",
                         "--out", str(tmp_path / "run")]) == 3
