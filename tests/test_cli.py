"""CLI surface: file outputs, reproducibility, exit codes."""

import json
import math
import re
import shutil
import struct
from dataclasses import MISSING, fields

import numpy as np
import pytest

from conftest import edit_header
import la2.bench
import la2.cli
from la2 import data as data_mod
from la2.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from la2.model import (CheckpointError, ModelConfig, init_model, load_checkpoint,
                       save_checkpoint)
from la2.tensor import TensorError
from la2.training import TrainConfig, TrainingError


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "darcy8"
    rc = main(["generate", "--task", "darcy", "--n", "12", "--grid", "8",
               "--seed", "7", "--out", str(path)])
    assert rc == EXIT_OK
    return path


def run_train(dataset_dir, out, extra=()):
    return main(["train", "--data", str(dataset_dir), "--out", str(out),
                 "--layers", "2", "--hidden", "8", "-K", "4",
                 "--epochs", "2", "--batch-size", "4", "--seed", "3", *extra])


def tiny_checkpoint(path):
    save_checkpoint(init_model(ModelConfig(1, 2, 1, k=4, layers=1, hidden=8)), path)
    return path


def sidecar_runs(csv_path):
    """(layers, hidden, k) per run; asserts each run config is fully resolved."""
    side = json.loads(csv_path.with_name(csv_path.name + ".config.json").read_text())
    for run in side["runs"]:
        assert set(run["model"]) == {f.name for f in fields(ModelConfig)}
        assert set(run["train"]) == {f.name for f in fields(TrainConfig)}
    return [(r["model"]["layers"], r["model"]["hidden"], r["model"]["k"])
            for r in side["runs"]]


class TestGenerate:
    def test_writes_four_files(self, dataset_dir):
        names = sorted(p.name for p in dataset_dir.iterdir())
        assert names == ["geometry.la2t", "inputs.la2t", "manifest.json",
                         "outputs.la2t"]

    def test_byte_identical_repeat(self, dataset_dir, tmp_path):
        other = tmp_path / "again"
        rc = main(["generate", "--task", "darcy", "--n", "12", "--grid", "8",
                   "--seed", "7", "--out", str(other)])
        assert rc == EXIT_OK
        for name in ("geometry.la2t", "inputs.la2t", "outputs.la2t",
                     "manifest.json"):
            assert (dataset_dir / name).read_bytes() == (other / name).read_bytes()

    def test_small_grid_rejected(self, tmp_path):
        rc = main(["generate", "--task", "darcy", "--n", "2", "--grid", "4",
                   "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    def test_pointcloud_task(self, tmp_path):
        rc = main(["generate", "--task", "pointcloud", "--n", "3", "--points",
                   "32", "--seed", "1", "--out", str(tmp_path / "pc")])
        assert rc == EXIT_OK

    def test_unknown_task_rejected(self, tmp_path):
        rc = main(["generate", "--task", "wave", "--n", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE


class TestTrain:
    def test_outputs_and_flags_honored(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(dataset_dir, out) == EXIT_OK
        assert "final test rel L2" in capsys.readouterr().out
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == ("epoch,train_loss,test_rel_l2,"
                             "sigma_s_1,sigma_s_2,epoch_seconds")
        assert len(report) == 3
        ckpt = load_checkpoint(out / "final.la2c")
        assert ckpt.config.layers == 2 and ckpt.config.hidden == 8
        sidecar = json.loads((out / "report.csv.config.json").read_text())
        assert sidecar["model"]["layers"] == 2
        assert (out / "best.la2c").exists()

    def test_missing_dataset(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "o"), "--epochs", "1"])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layers": 2, "hidden": 8, "k": 4,
                                   "epochs": 1, "batch_size": 4}))
        out = tmp_path / "run"
        rc = main(["train", "--data", str(dataset_dir), "--out", str(out),
                   "--config", str(cfg), "--epochs", "2", "--seed", "5"])
        assert rc == EXIT_OK
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 3  # flag epochs=2 beat the file's 1

    def test_unknown_config_key(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layrs": 2}))
        rc = main(["train", "--data", str(dataset_dir), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seed", 5), ("data", "elsewhere"), ("out", "elsewhere"),
        ("loss_variant", "root-ratio"), ("beta1", 0.9), ("beta2", 0.999),
        ("eps", 1e-8)])
    def test_non_config_keys_rejected(self, dataset_dir, tmp_path, capsys,
                                      key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["train", "--data", str(dataset_dir), "--out",
                   str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, epochs", [
        ("train", 50), ("ablate-window", 10), ("scale-study", 10)])
    def test_help_defaults_match_dataclasses(self, capsys, command, epochs):
        assert main([command, "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        groups = text.split(" model: ", 1)[1]  # the model and training flags
        defaults = {f.name.replace("_", "-"): f.default
                    for cls in (ModelConfig, TrainConfig) for f in fields(cls)}
        shown = {}
        for chunk in re.split(r" (?=--?[a-zA-Z])", groups):
            m = re.match(r"--([a-z-]+) \S+ [^(]*\(default ([^)]+)\)", chunk)
            if m:
                shown[m[1]] = m[2]
        flags = re.findall(r"--([a-z-]+)", groups)
        assert {"layers", "hidden", "k", "lr", "epochs"} <= set(flags)
        expected = {flag: str(epochs if defaults[flag] is MISSING else defaults[flag])
                    for flag in flags if defaults[flag] is not None}
        assert shown == expected

    BAD_FLAGS = {"odd-hidden": ["--hidden", "7"], "k-exceeds-m": ["-K", "999"],
                 "nan-lr": ["--lr", "nan"], "inf-alpha": ["--alpha", "inf"]}
    # Config-file values that do not already have their field's type, or are
    # not finite. Each overrides a small valid run config and no flag is given.
    BAD_FILES = {"config-file-value": {"alpha": "sharp"},
                 "float-for-int": {"layers": 1.7},
                 "string-for-int": {"hidden": "8"},
                 "bool-for-int": {"layers": True},
                 "null-for-float": {"lr": None},
                 "null-for-int": {"hidden": None},
                 "json-nan": {"clip_norm": math.nan}}

    @pytest.mark.parametrize("case", [*BAD_FLAGS, *BAD_FILES, "channel-mismatch",
                                      "empty-split"])
    def test_bad_input_exits_usage(self, dataset_dir, tmp_path, capsys, case):
        if case in self.BAD_FLAGS:
            rc = run_train(dataset_dir, tmp_path / "o", self.BAD_FLAGS[case])
        elif case in self.BAD_FILES:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"layers": 2, "hidden": 8, "k": 4, "epochs": 1,
                                       "batch_size": 4, **self.BAD_FILES[case]}))
            rc = main(["train", "--data", str(dataset_dir), "--out",
                       str(tmp_path / "o"), "--config", str(cfg)])
        else:  # a 1-sample pointcloud has 2 input channels and no test split
            data = tmp_path / "d"
            task = (["pointcloud", "--points", "32"] if case == "channel-mismatch"
                    else ["darcy", "--grid", "8"])
            assert main(["generate", "--task", *task, "--n", "1",
                         "--out", str(data)]) == EXIT_OK
            rc = main(["eval", "--data", str(data), "--checkpoint",
                       str(tiny_checkpoint(tmp_path / "m.la2c"))])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err
        if case in self.BAD_FILES:              # the message names the key
            (key,) = self.BAD_FILES[case]
            assert key.replace("_", " ") in err
        assert not (tmp_path / "o" / "report.csv").exists()

    def test_final_rate_above_peak_exits_usage(self, dataset_dir, tmp_path, capsys):
        # --lr below the default final rate of 1e-5 is rejected, naming both.
        assert run_train(dataset_dir, tmp_path / "o", ["--lr", "1e-6"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "lr_min=1e-05" in err and "lr=1e-06" in err
        assert not (tmp_path / "o" / "report.csv").exists()

    def test_config_file_types_kept(self):
        # Ints widen to float fields, and ff_hidden alone takes null.
        tcfg = la2.cli._build(TrainConfig, {"epochs": 1, "lr": 1})
        assert type(tcfg.lr) is float and tcfg.lr == 1.0
        mcfg = la2.cli._build(ModelConfig, {"hidden": 8, "ff_hidden": None},
                              in_channels=1, coord_channels=2, out_channels=1)
        assert mcfg.ff_hidden == 16

    @pytest.mark.parametrize("command, flag", [("train", ["--loss-variant", "root-ratio"]),
                                               ("bench", ["--memory-cap", "64"])])
    def test_removed_flags_rejected(self, dataset_dir, tmp_path, capsys, command, flag):
        args = ["--out", str(tmp_path / "o"), *flag]
        if command == "train":
            args += ["--data", str(dataset_dir)]
        assert main([command, *args]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target, error", [("train", TrainingError),
                                               ("evaluate", TensorError)])
    def test_numeric_failure_exits_runtime(self, dataset_dir, tmp_path,
                                           monkeypatch, capsys, target, error):
        def diverge(*args, **kwargs):
            raise error("non-finite values")

        monkeypatch.setattr(la2.cli, target, diverge)
        if target == "train":
            rc = run_train(dataset_dir, tmp_path / "run")
        else:
            rc = main(["eval", "--data", str(dataset_dir), "--checkpoint",
                       str(tiny_checkpoint(tmp_path / "m.la2c"))])
        assert rc == EXIT_RUNTIME
        assert "non-finite values" in capsys.readouterr().err

    def test_reproducible_reports(self, dataset_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_train(dataset_dir, a)
        run_train(dataset_dir, b)

        def numeric(path):
            rows = []
            for line in (path / "report.csv").read_text().splitlines()[1:]:
                cells = line.split(",")
                rows.append(tuple(cells[:-1]))  # drop wall time
            return rows

        assert numeric(a) == numeric(b)


class TestEval:
    def test_eval_checkpoint(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(dataset_dir, out)
        capsys.readouterr()
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint",
                   str(out / "best.la2c"), "--split", "test"])
        assert rc == EXIT_OK
        assert "rel L2" in capsys.readouterr().out

    def test_zero_target_field_exits_2(self, tmp_path, capsys):
        ds = data_mod.generate_darcy(n=6, g=8, seed=1)
        i = int(ds.test_indices[0])
        ds.outputs.data[i] = 0.0
        data_mod.write_dataset(ds, tmp_path / "d")
        rc = main(["eval", "--data", str(tmp_path / "d"), "--checkpoint",
                   str(tiny_checkpoint(tmp_path / "m.la2c")), "--split", "test"])
        assert rc == EXIT_USAGE
        assert f"sample {i}: the target field has zero norm" in capsys.readouterr().err

    def test_bad_checkpoint(self, dataset_dir, tmp_path):
        bad = tmp_path / "bad.la2c"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(bad)])
        assert rc == EXIT_USAGE

    def test_element_count_past_int64(self, dataset_dir, tmp_path, capsys):
        # A header whose element count overflows int64 is a malformed file.
        data = tmp_path / "d"
        shutil.copytree(dataset_dir, data)
        (data / "inputs.la2t").write_bytes(b"LA2T" + struct.pack("<II", 1, 2)
                                           + struct.pack("<2Q", 2 ** 33, 2 ** 31))
        rc = main(["eval", "--data", str(data), "--checkpoint",
                   str(tiny_checkpoint(tmp_path / "m.la2c"))])
        assert rc == EXIT_USAGE
        assert "payload does not match" in capsys.readouterr().err

    def test_malformed_param_entry(self, dataset_dir, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "m.la2c")
        edit_header(path, lambda header: header["params"][0].pop("offset"))
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(path)])
        assert rc == EXIT_USAGE
        assert "malformed checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "dump-mask"])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_non_integer_int_field(self, dataset_dir, tmp_path, capsys, command, value):
        path = tiny_checkpoint(tmp_path / "m.la2c")
        edit_header(path, lambda header: header["config"].update(layers=value))
        data = ["--data", str(dataset_dir)] if command == "eval" else []
        rc = main([command, *data, "--checkpoint", str(path)])
        assert rc == EXIT_USAGE
        assert "layers must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "dump-mask"])
    def test_non_finite_parameter_rejected(self, dataset_dir, tmp_path, capsys, command):
        # A file that holds an inf weight is malformed: both commands exit 2
        # before any work, where eval used to fail at run time and dump-mask
        # to print it.
        m = init_model(ModelConfig(1, 2, 1, k=4, layers=1, hidden=8))
        m.blocks[0].w_qg.data[0, 0] = np.inf
        path = tmp_path / "m.la2c"
        save_checkpoint(m, path)
        data = ["--data", str(dataset_dir)] if command == "eval" else []
        rc = main([command, *data, "--checkpoint", str(path)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "blocks.0.w_qg holds non-finite values" in captured.err
        assert captured.out == ""

    def test_std_too_small_to_divide_by_exits_usage(self, dataset_dir, tmp_path, capsys):
        # The normalized targets would overflow, and eval used to print
        # overflow warnings and a NaN metric and exit 0.
        data = tmp_path / "d"
        shutil.copytree(dataset_dir, data)
        man = json.loads((data / "manifest.json").read_text())
        man["stats"]["output_std"] = [1e-300]
        (data / "manifest.json").write_text(json.dumps(man))
        rc = main(["eval", "--data", str(data), "--checkpoint",
                   str(tiny_checkpoint(tmp_path / "m.la2c"))])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "stats.output_std must be large enough for the values of outputs.la2t" \
            in captured.err
        assert captured.out == ""

    def test_version_1_checkpoint_rejected(self, dataset_dir, tmp_path):
        # Version 1 has the same layout but weights for the old signed global
        # branch; loading it must fail rather than serve a different function.
        path = tiny_checkpoint(tmp_path / "v1.la2c")
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(path)])
        assert rc == EXIT_USAGE


class TestSweeps:
    def test_ablate_window(self, dataset_dir, tmp_path):
        out = tmp_path / "ablate"
        rc = main(["ablate-window", "--data", str(dataset_dir), "--out",
                   str(out), "--k-values", "2,4", "--layers", "2", "--hidden",
                   "8", "--epochs", "1", "--batch-size", "4", "--seed", "2"])
        assert rc == EXIT_OK
        lines = (out / "ablate_window.csv").read_text().splitlines()
        assert lines[0] == "k,test_rel_l2,sigma_s_1,sigma_s_2,epoch_seconds"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4"]
        assert all(0.0 < float(s) < 1.0 for line in lines[1:] for s in line.split(",")[2:4])
        assert sidecar_runs(out / "ablate_window.csv") == [(2, 8, 2), (2, 8, 4)]

    def test_ablate_window_k_too_large(self, dataset_dir, tmp_path):
        rc = main(["ablate-window", "--data", str(dataset_dir), "--out",
                   str(tmp_path / "x"), "--k-values", "9999", "--epochs", "1"])
        assert rc == EXIT_USAGE

    def test_scale_study(self, dataset_dir, tmp_path):
        out = tmp_path / "scale"
        rc = main(["scale-study", "--data", str(dataset_dir), "--out", str(out),
                   "--widths", "8,12", "--depths", "1,2", "--layers", "2",
                   "--hidden", "8", "-K", "4", "--epochs", "1",
                   "--batch-size", "4", "--seed", "2"])
        assert rc == EXIT_OK
        lines = (out / "scale_study.csv").read_text().splitlines()
        assert lines[0] == ("sweep,layers,hidden,test_rel_l2,sigma_s_1,sigma_s_2,"
                            "epoch_seconds")
        labels = [line.split(",")[:3] for line in lines[1:]]
        assert labels == [["width", "2", "8"], ["width", "2", "12"],
                          ["depth", "1", "8"], ["depth", "2", "8"]]
        # The depth-1 run has no second layer: its sigma_s_2 cell is blank.
        sigmas = [line.split(",")[4:6] for line in lines[1:]]
        assert [s[1] == "" for s in sigmas] == [False, False, True, False]
        assert all(0.0 < float(v) < 1.0 for s in sigmas for v in s if v)
        assert sidecar_runs(out / "scale_study.csv") == [
            (2, 8, 4), (2, 12, 4), (1, 8, 4), (2, 8, 4)]

    def test_scale_study_defaults_from_model_config(self, dataset_dir, tmp_path):
        out = tmp_path / "scale"
        rc = main(["scale-study", "--data", str(dataset_dir), "--out", str(out),
                   "--widths", "8", "--depths", "1", "-K", "4", "--epochs", "1",
                   "--batch-size", "4"])
        assert rc == EXIT_OK
        lines = (out / "scale_study.csv").read_text().splitlines()
        assert lines[0].split(",")[4:] == [f"sigma_s_{i}" for i in range(1, 9)] + [
            "epoch_seconds"]
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["width", "8", "8"], ["depth", "1", "128"]]
        assert lines[2].split(",")[5:12] == [""] * 7
        assert sidecar_runs(out / "scale_study.csv") == [(8, 8, 4), (1, 128, 4)]

    def test_scale_study_validates_before_training(self, dataset_dir, tmp_path,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(la2.cli, "train", lambda *args: calls.append(args))
        out = tmp_path / "scale"
        rc = main(["scale-study", "--data", str(dataset_dir), "--out", str(out),
                   "--widths", "8,13", "--layers", "2", "-K", "4", "--epochs", "1"])
        assert rc == EXIT_USAGE
        assert calls == []
        assert not (out / "scale_study.csv").exists()

    def test_scale_study_needs_lists(self, dataset_dir, tmp_path):
        rc = main(["scale-study", "--data", str(dataset_dir), "--out",
                   str(tmp_path / "x")])
        assert rc == EXIT_USAGE


class TestBench:
    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--out", str(out), "--kind", "all", "--sizes",
                   "64,128", "--k-values", "4,8", "--local-m", "64",
                   "--hidden", "16", "--repeats", "2"])
        assert rc == EXIT_OK
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "kind,m,k,hidden,seconds"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"global", "local", "pairwise"}

    def test_memory_cap(self, tmp_path, capsys):
        # M=20000 needs a 6.4 GB score matrix, over the 2 GiB cap; it is
        # rejected before anything is allocated.
        rc = main(["bench", "--out", str(tmp_path / "b"), "--kind", "pairwise",
                   "--sizes", "20000"])
        assert rc == EXIT_USAGE
        assert "needs 6104 MiB, cap is 2048 MiB" in capsys.readouterr().err
        assert not (tmp_path / "b" / "bench.csv").exists()

    def test_every_cap_checked_before_timing(self, tmp_path, monkeypatch):
        # The over-cap pairwise size comes last; no earlier case may be timed.
        calls = []
        monkeypatch.setattr(la2.bench, "bench_case", lambda *a: calls.append(a) or 1.0)
        rc = main(["bench", "--out", str(tmp_path / "b"), "--kind", "all",
                   "--sizes", "64,20000", "--k-values", "4", "--local-m", "64",
                   "--hidden", "16", "--repeats", "1"])
        assert rc == EXIT_USAGE
        assert calls == []
        assert not (tmp_path / "b" / "bench.csv").exists()

    def test_every_patch_size_checked_before_timing(self, tmp_path, monkeypatch, capsys):
        # K=100 exceeds --local-m 64; neither the global cases nor local K=4
        # may be timed first.
        def timed(*args):
            raise AssertionError(f"bench_case{args} ran before every case was checked")

        monkeypatch.setattr(la2.bench, "bench_case", timed)
        rc = main(["bench", "--out", str(tmp_path / "b"), "--kind", "all",
                   "--sizes", "1024,2048", "--k-values", "4,100", "--local-m", "64",
                   "--hidden", "16", "--repeats", "3"])
        assert rc == EXIT_USAGE
        assert "need 1 <= K <= M, got K=100, M=64" in capsys.readouterr().err
        assert not (tmp_path / "b" / "bench.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--repeats", "0"), ("--sizes", "64,0"), ("--k-values", "4,-8"),
        ("--local-m", "-64")], ids=["repeats", "sizes", "k_values", "local_m"])
    def test_non_positive_value_rejected(self, tmp_path, monkeypatch, capsys, flag, value):
        calls = []
        monkeypatch.setattr(la2.bench, "bench_case", lambda *a: calls.append(a) or 1.0)
        argv = {"--repeats": "1", "--sizes": "64", "--k-values": "4", "--local-m": "64"}
        argv[flag] = value
        rc = main(["bench", "--out", str(tmp_path / "b"), "--kind", "all",
                   "--hidden", "16", *(a for kv in argv.items() for a in kv)])
        assert rc == EXIT_USAGE
        assert f"argument {flag}: not a positive integer" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "b" / "bench.csv").exists()

    @pytest.mark.parametrize("hidden", ["0", "-2", "3"])
    def test_bad_width_rejected(self, tmp_path, monkeypatch, capsys, hidden):
        # The pairwise kind builds no block, but takes the same widths.
        calls = []
        monkeypatch.setattr(la2.bench, "bench_case", lambda *a: calls.append(a) or 1.0)
        rc = main(["bench", "--out", str(tmp_path / "b"), "--kind", "pairwise",
                   "--sizes", "64", "--repeats", "1", f"--hidden={hidden}"])
        assert rc == EXIT_USAGE
        assert "hidden width must be even and positive" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "b" / "bench.csv").exists()

    def test_bench_flags(self):
        # Seven flags; --hidden defaults to the model's width.
        args = la2.cli.build_parser().parse_args(["bench", "--out", "x"])
        assert sorted(set(vars(args)) - {"command", "func"}) == [
            "hidden", "k_values", "kind", "local_m", "out", "repeats", "sizes"]
        assert args.hidden == ModelConfig.hidden


@pytest.mark.parametrize("argv", [
    ["ablate-window", "--k-values", ","],
    ["scale-study", "--widths", ","],
    ["scale-study", "--depths", ""],
    ["bench", "--kind", "global", "--sizes", ","],
    ["bench", "--kind", "local", "--k-values", " , "],
], ids=["ablate_k_values", "scale_widths", "scale_depths", "bench_sizes", "bench_k_values"])
def test_empty_list_flag_exits_usage(dataset_dir, tmp_path, capsys, argv):
    # An empty list would sweep nothing: a run that writes a header-only
    # CSV, or fails later with a traceback. The parser rejects it.
    command, flag = argv[0], argv[-2]
    data = [] if command == "bench" else ["--data", str(dataset_dir)]
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out), *data])
    assert rc == EXIT_USAGE
    assert f"argument {flag}: no values in list" in capsys.readouterr().err
    assert not out.exists()


class TestDumpMask:
    def test_prints_layers(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(dataset_dir, out)
        capsys.readouterr()
        rc = main(["dump-mask", "--checkpoint", str(out / "final.la2c")])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("sigma(s)" in line for line in lines)

    def test_saturated_logit(self, tmp_path, capsys):
        # A saturated logit is a valid checkpoint: sigma(-800) prints as 0
        # rather than overflowing exp(800).
        m = init_model(ModelConfig(1, 2, 1, k=4, layers=2, hidden=8))
        m.blocks[0].mask_s.data[:] = -800.0
        path = tmp_path / "m.la2c"
        save_checkpoint(m, path)
        rc = main(["dump-mask", "--checkpoint", str(path)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "layer 1: sigma(s) = 0.000000", "layer 2: sigma(s) = 0.500000"]
