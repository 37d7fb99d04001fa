import builtins
import importlib
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from convattn.blocks import build_model
from convattn.checkpoint import (load_checkpoint, model_from_checkpoint, read_container, save_checkpoint,
                                 write_container)
from convattn.cli import main
from convattn.config import (
    ConfigError,
    apply_overrides,
    build_train_config,
    load_preset,
    parse_config_text,
)
from convattn.spectral import depth_profile, write_depth_profile_csv
from convattn.train import TrainConfig, _prepare, load_dataset, probe_batch, run_interpolation_suite

TINY_CFG = """
# tiny synthetic run
model.dim = 8
model.num_layers = 2
model.patch_size = 8
model.num_classes = 4
schedule.kind = linear
schedule.total_epochs = 4
optimizer.warmup_epochs = 1
train.batch_size = 64
data.dataset = synthetic
data.fraction = 1.0
data.eval_fraction = 1.0
data.seed = 0
"""


@pytest.fixture
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


# --------------------------------------------------------------------------
# Config grammar


def test_parse_values_and_comments():
    parsed = parse_config_text("a = 1\nb = 2.5 # trailing\n# full comment\nc = true\nd = none\ne = text\n")
    assert parsed == {"a": 1, "b": 2.5, "c": True, "d": None, "e": "text"}


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("not a config line")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_train_config({"model.depht": 4})


def test_overrides_win():
    merged = apply_overrides({"schedule.kind": "all-conv", "lr": 1e-3}, ["schedule.kind=all-sa"])
    cfg = build_train_config(merged)
    assert cfg.schedule_kind == "all-sa"
    assert cfg.lr == 1e-3


def test_presets_build():
    for name in ("desk", "interp", "fullscale"):
        cfg = build_train_config(load_preset(name))
        assert cfg.total_epochs >= 30
    desk = build_train_config(load_preset("desk"))
    assert desk.schedule_kind == "linear" and desk.dataset == "cifar10"
    assert desk.fraction == 0.1


def test_image_hw_string_form():
    cfg = build_train_config({"image_hw": "32x32", "dataset": "synthetic"})
    assert cfg.image_hw == (32, 32)


# --------------------------------------------------------------------------
# schedule command


def test_cmd_schedule_reference_table(capsys):
    assert main(["schedule", "-T", "400", "-L", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(s["layer"], s["first_sa_epoch"]) for s in payload["switches"]] == [
        (6, 58), (5, 115), (4, 172), (3, 229), (2, 286), (1, 343)]


def test_cmd_schedule_all_sa_note(capsys):
    assert main(["schedule", "-T", "10", "-L", "3", "--kind", "all-sa"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["switches"] == []
    assert "SA from epoch 1" in payload["note"]


def test_cmd_schedule_zero_layers_exits_2(capsys):
    assert main(["schedule", "-T", "10", "-L", "0"]) == 2


def test_cmd_schedule_csv_format(capsys):
    assert main(["schedule", "-T", "8", "-L", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "layer,first_sa_epoch"
    assert len(lines) == 3


# --------------------------------------------------------------------------
# reparam-check command


def test_cmd_reparam_check_passes(capsys):
    code = main(["reparam-check", "--dim", "8", "--grid", "4x4", "--samples", "10"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["max_abs_diff"] < 1e-5


def test_cmd_reparam_check_perturb_fails(capsys):
    code = main(["reparam-check", "--dim", "8", "--grid", "4x4", "--samples", "5", "--perturb", "0.1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pass"] is False and report["max_abs_diff"] > 0.001


def test_cmd_reparam_check_even_kernel_exits_2(capsys):
    assert main(["reparam-check", "-K", "2"]) == 2
    assert "odd" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, grid", [("5", "2x2"), ("3", "1x6"), ("7", "8x3")])
def test_cmd_reparam_check_kernel_wider_than_grid_exits_2(kernel, grid, capsys):
    assert main(["reparam-check", "-K", kernel, "--grid", grid, "--dim", "4", "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"a K={kernel} kernel needs both grid sides above {int(kernel) // 2}, got {grid}" in captured.err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cmd_reparam_check_without_samples_exits_2(samples, capsys):
    # checking nothing must not report a pass, even with a forced failure
    code = main(["reparam-check", "--dim", "8", "--grid", "4x4", "--samples", samples, "--perturb", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "at least 1 sample" in captured.err


# --------------------------------------------------------------------------
# train command


def test_cmd_train_writes_artifacts(tiny_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg_path, "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["status"] == "completed"
    metrics = [json.loads(line) for line in open(manifest["artifacts"]["metrics"])]
    assert len(metrics) == 4
    assert os.path.exists(manifest["artifacts"]["checkpoint"])
    for path in manifest["artifacts"].values():
        if isinstance(path, str) and path.startswith(out):
            assert os.path.exists(path)


def test_cmd_train_set_overrides_file(tiny_cfg_path, tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg_path, "--out", out,
                 "--set", "schedule.kind=all-conv", "--set", "schedule.total_epochs=2"]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["schedule_kind"] == "all-conv"
    metrics = [json.loads(line) for line in open(manifest["artifacts"]["metrics"])]
    assert len(metrics) == 2
    assert all(m == "conv" for m in metrics[-1]["modes"])


def test_cmd_train_builds_the_test_set_once(tiny_cfg_path, tmp_path, monkeypatch):
    # the end-of-run depth profile reuses the test set that per-epoch eval loaded
    train_module = importlib.import_module("convattn.train")
    splits, make_synthetic = [], train_module.make_synthetic

    def counting(*args, **kwargs):
        splits.append(kwargs["split"])
        return make_synthetic(*args, **kwargs)

    monkeypatch.setattr(train_module, "make_synthetic", counting)
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg_path, "--out", out, "--set", "schedule.total_epochs=1"]) == 0
    assert sorted(splits) == ["test", "train"]
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["artifacts"]["depth_profile"] == os.path.join(out, "depth_profile.csv")
    assert manifest["artifacts"]["depth_profile_note"] == "grid 4x4 populates only 2 of 3 standard frequencies"


def test_cmd_train_missing_dataset_exits_3(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["train", "--preset", "desk", "--data-dir", "/nonexistent/cifar", "--out", out])
    assert code == 3
    assert "/nonexistent/cifar" in capsys.readouterr().err
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["status"] == "failed"
    assert manifest["finished_at"] is not None


@pytest.fixture
def cifar_ckpt(tmp_path):
    """Untrained tiny checkpoint whose config reads CIFAR-10 from a missing directory."""
    config = build_train_config({**parse_config_text(TINY_CFG), "data.dataset": "cifar10",
                                 "data_dir": "/nonexistent/cifar"})
    model = build_model(config.dim, config.num_layers, config.kernel_size, config.patch_size, config.image_hw,
                        config.in_channels, config.num_classes, ["conv"] * config.num_layers,
                        np.random.default_rng(0))
    path = str(tmp_path / "untrained.bin")
    save_checkpoint(path, model, config.to_dict(), 0, [])
    return path


@pytest.mark.parametrize("argv", [
    ["train", "--config", "{cfg}", "--resume-from", "{tmp}/missing.bin"],
    ["fourier", "--checkpoint", "{ckpt}", "--feature-dump", "{tmp}/missing.bin"],
    ["fourier", "--checkpoint", "{ckpt}", "--data", "/nonexistent/cifar"],
    ["fourier", "--checkpoint", "{ckpt}", "--feature-dump", "{tmp}/rank1.bin"],
    ["fourier", "--checkpoint", "{ckpt}", "--feature-dump", "{tmp}/rank5.bin"],
    ["fourier", "--checkpoint", "{ckpt}", "--feature-dump", "{tmp}/cut.bin"],
], ids=["train-resume-missing", "fourier-dump-missing", "fourier-dataset-missing",
        "fourier-dump-rank1", "fourier-dump-rank5", "fourier-dump-header-cut"])
def test_cmd_unreadable_input_exits_3(argv, tiny_cfg_path, cifar_ckpt, tmp_path, capsys, monkeypatch):
    for name, shape in (("rank1", (8,)), ("rank5", (1, 2, 4, 4, 3))):
        write_container(str(tmp_path / f"{name}.bin"), {"kind": "feature-dump"}, {"maps": np.zeros(shape)})
    cut = b'{"kind": "feature-du'  # a header that ends mid-JSON
    (tmp_path / "cut.bin").write_bytes(b"CONVATTN" + len(cut).to_bytes(4, "little") + cut)
    # the manifest records the arguments handed to main, not the host process's
    monkeypatch.setattr("sys.argv", ["host-program", "--some-flag"])
    out = str(tmp_path / "run")
    argv = [a.format(cfg=tiny_cfg_path, ckpt=cifar_ckpt, tmp=tmp_path) for a in argv] + ["--out", out]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(("file error:", "data error:", "geometry mismatch:"))
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["status"] == "failed"
    assert manifest["finished_at"] is not None
    assert manifest["argv"] == argv


@pytest.mark.parametrize("key", ["data.fraction", "data.eval_fraction"])
def test_cmd_train_fraction_out_of_range_exits_2(key, tiny_cfg_path, tmp_path, capsys):
    name = key.split(".")[1]
    assert main(["train", "--config", tiny_cfg_path, "--set", f"{key}=0", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"config error: {name} must be in (0, 1], got 0\n"


def test_cmd_train_resume_config_mismatch_exits_2(tiny_cfg_path, tmp_path, capsys):
    uniform = ["--set", "schedule.kind=uniform", "--set", "schedule.total_epochs=2"]
    first = str(tmp_path / "first")
    assert main(["train", "--config", tiny_cfg_path, "--out", first, *uniform,
                 "--set", "schedule.e_switch=1", "--set", "train.checkpoint_every=1"]) == 0
    capsys.readouterr()
    out = str(tmp_path / "resumed")
    code = main(["train", "--config", tiny_cfg_path, "--out", out, *uniform, "--set", "schedule.e_switch=2",
                 "--resume-from", os.path.join(first, "checkpoint_epoch_1.bin")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "e_switch" in err
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["status"] == "failed"
    assert manifest["finished_at"] is not None


def test_cmd_train_resume_mode_mismatch_exits_2_before_loading_data(tiny_cfg_path, tmp_path, capsys,
                                                                     monkeypatch):
    # a linear run's epoch-2 checkpoint holds layer 2 as attention; its
    # header rewritten to the all-conv schedule makes that layer disagree
    first = str(tmp_path / "first")
    assert main(["train", "--config", tiny_cfg_path, "--out", first, "--set", "train.checkpoint_every=2"]) == 0
    ckpt = os.path.join(first, "checkpoint_epoch_2.bin")
    header, tensors = read_container(ckpt)
    assert header["modes"] == ["conv", "sa"]
    header["config"]["schedule_kind"] = "all-conv"
    write_container(ckpt, header, tensors)
    train_module = importlib.import_module("convattn.train")
    loaded, load_dataset = [], train_module.load_dataset
    monkeypatch.setattr(train_module, "load_dataset", lambda config, split: loaded.append(split) or
                        load_dataset(config, split))
    capsys.readouterr()
    out = str(tmp_path / "resumed")
    code = main(["train", "--config", tiny_cfg_path, "--set", "schedule.kind=all-conv", "--out", out,
                 "--resume-from", ckpt])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: resume checkpoint has layer 2 in mode 'sa' "
                          "but the schedule expects 'conv' at epoch 2")
    assert loaded == []
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["status"] == "failed"
    assert manifest["finished_at"] is not None


WIDE_KERNEL = ["--set", "model.kernel_size=5", "--set", "model.patch_size=16"]  # a 2x2 token grid


@pytest.mark.parametrize("command", ["train", "interp"])
def test_kernel_wider_than_grid_exits_2_before_loading_data(command, tiny_cfg_path, tmp_path, capsys,
                                                             monkeypatch):
    loaded = []
    train_module = importlib.import_module("convattn.train")
    monkeypatch.setattr(train_module, "load_dataset", lambda config, split: loaded.append(split))
    out = str(tmp_path / "run")
    assert main([command, "--config", tiny_cfg_path, *WIDE_KERNEL, "--out", out]) == 2
    assert "config error: a K=5 kernel needs both grid sides above 2 for a layer to switch, got 2x2" \
        in capsys.readouterr().err
    assert loaded == []
    assert os.listdir(out) == ["manifest.json"]
    assert json.load(open(os.path.join(out, "manifest.json")))["status"] == "failed"


@pytest.mark.parametrize("kind", ["all-sa", "all-conv"])
def test_kernel_wider_than_grid_trains_when_no_layer_switches(kind, tiny_cfg_path, tmp_path):
    assert main(["train", "--config", tiny_cfg_path, *WIDE_KERNEL, "--set", f"schedule.kind={kind}",
                 "--set", "schedule.total_epochs=1", "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("command", ["fourier", "train"])
def test_checkpoint_header_without_config_exits_3(command, tiny_cfg_path, tmp_path, capsys):
    path = str(tmp_path / "bare.bin")
    write_container(path, {"kind": "checkpoint", "format_version": 1}, {})
    argv = (["fourier", "--checkpoint", path, "--random-batch", "4"] if command == "fourier"
            else ["train", "--config", tiny_cfg_path, "--resume-from", path])
    assert main([*argv, "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == f"file error: {path}: checkpoint header has no config object\n"


@pytest.mark.parametrize("config, modes, message", [
    ({}, [], "checkpoint config has no 'dim'"),
    (TrainConfig(num_layers=2).to_dict(), ["conv"], "checkpoint has 1 layer modes but num_layers=2"),
], ids=["config-empty", "modes-short"])
def test_checkpoint_config_that_cannot_build_the_model_exits_3(config, modes, message, tmp_path, capsys):
    path = str(tmp_path / "c.bin")
    write_container(path, {"kind": "checkpoint", "format_version": 1, "config": config, "epoch": 0,
                           "modes": modes}, {})
    assert main(["fourier", "--checkpoint", path, "--random-batch", "4", "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == f"file error: {message}\n"


def test_checkpoint_config_with_an_unknown_key_exits_3(tmp_path, capsys):
    config = TrainConfig(dim=8, num_layers=1)
    model = build_model(config.dim, config.num_layers, config.kernel_size, config.patch_size, config.image_hw,
                        config.in_channels, config.num_classes, ["conv"], np.random.default_rng(0))
    path = str(tmp_path / "c.bin")
    save_checkpoint(path, model, {**config.to_dict(), "bogus": 1}, 0, [])
    assert main(["fourier", "--checkpoint", path, "--random-batch", "4", "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == "file error: checkpoint config has unknown keys ['bogus']\n"


def test_cmd_fourier_corrupt_checkpoint_exits_3(tmp_path, capsys):
    header = b'{"kind": "checkp'  # cut mid-JSON
    path = tmp_path / "cut.bin"
    path.write_bytes(b"CONVATTN" + len(header).to_bytes(4, "little") + header)
    assert main(["fourier", "--checkpoint", str(path), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.startswith("file error:")


def test_cmd_train_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.banana = 3\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr=1e6 overflows gelu on purpose
def test_cmd_train_divergence_exits_4(tiny_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["train", "--config", tiny_cfg_path, "--out", out,
                 "--set", "lr=1e6", "--set", "schedule.kind=all-conv",
                 "--set", "schedule.total_epochs=2"])
    assert code == 4
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["status"] == "diverged"
    assert "epoch" in manifest["error"]
    assert manifest["finished_at"] is not None


# --------------------------------------------------------------------------
# fourier command


def test_cmd_fourier_from_checkpoint(tiny_cfg_path, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg_path, "--out", run_dir,
                 "--set", "model.patch_size=4", "--set", "schedule.total_epochs=2"]) == 0
    ckpt = os.path.join(run_dir, "checkpoint_final.bin")
    out = str(tmp_path / "fourier")
    assert main(["fourier", "--checkpoint", ckpt, "--random-batch", "32", "--out", out]) == 0
    lines = open(os.path.join(out, "depth_profile.csv")).read().strip().splitlines()
    assert lines[0] == "depth,f,delta_log_amp"
    assert len(lines) == 1 + 2 * 3  # L=2 x 3 frequencies
    profile = json.load(open(os.path.join(out, "depth_profile.json")))
    assert len(profile["depths"]) == 2


def _profile_csv(path, model, images) -> str:
    write_depth_profile_csv(str(path), depth_profile(model, images))
    return path.read_text()


def test_train_fourier_and_interp_write_one_profile(tiny_cfg_path, tmp_path):
    # one switched interp checkpoint: train, fourier and the suite profile the
    # same prepared test images, byte for byte
    grid8 = ["model.patch_size=4", "schedule.total_epochs=2"]
    base = build_train_config(apply_overrides(parse_config_text(TINY_CFG), grid8))
    suite = {r["e_switch"]: r for r in run_interpolation_suite(base, str(tmp_path / "suite"))}
    ckpt = suite[1]["checkpoint"]
    header, tensors = load_checkpoint(ckpt)
    config = TrainConfig.from_dict(header["config"])
    model = model_from_checkpoint(header, tensors)
    assert model.modes() == ["sa", "sa"]

    sets = [arg for kv in grid8 + ["schedule.kind=uniform", "schedule.e_switch=1"] for arg in ("--set", kv)]
    assert main(["train", "--config", tiny_cfg_path, "--out", str(tmp_path / "train"), *sets]) == 0
    _, trained = load_checkpoint(str(tmp_path / "train" / "checkpoint_final.bin"))
    for name in tensors:
        np.testing.assert_array_equal(trained[name], tensors[name], err_msg=name)
    assert main(["fourier", "--checkpoint", ckpt, "--batch", "256", "--out", str(tmp_path / "fourier")]) == 0

    written = [(tmp_path / d / "depth_profile.csv").read_text() for d in ("train", "fourier")]
    written.append(open(suite[1]["csv"]).read())
    images = load_dataset(config, "test").images[:256]
    expected = _profile_csv(tmp_path / "expected.csv", model, _prepare(images, config))
    assert written == [expected] * 3
    assert _profile_csv(tmp_path / "raw.csv", model, images) != expected


@pytest.mark.parametrize("batch", ["0", "-3"])
def test_cmd_fourier_batch_below_one_exits_2(batch, tiny_cfg_path, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg_path, "--out", run_dir, "--set", "schedule.total_epochs=1"]) == 0
    capsys.readouterr()
    out = str(tmp_path / "fourier")
    code = main(["fourier", "--checkpoint", os.path.join(run_dir, "checkpoint_final.bin"), "--batch", batch,
                 "--out", out])
    assert code == 2
    assert "at least 1 image" in capsys.readouterr().err
    assert json.load(open(os.path.join(out, "manifest.json")))["status"] == "failed"
    assert not os.path.exists(os.path.join(out, "depth_profile.csv"))


def test_cmd_fourier_random_batch_profiles_prepared_images(tiny_cfg_path, tmp_path):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg_path, "--out", run_dir,
                 "--set", "model.patch_size=4", "--set", "schedule.total_epochs=1"]) == 0
    ckpt = os.path.join(run_dir, "checkpoint_final.bin")
    out = tmp_path / "fourier"
    assert main(["fourier", "--checkpoint", ckpt, "--random-batch", "16", "--out", str(out)]) == 0
    header, tensors = load_checkpoint(ckpt)
    config = TrainConfig.from_dict(header["config"])
    model = model_from_checkpoint(header, tensors)
    images = np.random.default_rng(config.seed).random((16, *config.image_hw, config.in_channels))
    images = images.astype(np.float32)
    written = (out / "depth_profile.csv").read_text()
    assert written == _profile_csv(tmp_path / "expected.csv", model, _prepare(images, config))
    assert written != _profile_csv(tmp_path / "raw.csv", model, images)


def test_cmd_fourier_tap_recorded_in_manifest(tiny_cfg_path, tmp_path):
    run_dir = str(tmp_path / "run")
    main(["train", "--config", tiny_cfg_path, "--out", run_dir,
          "--set", "model.patch_size=4", "--set", "schedule.total_epochs=1"])
    out = str(tmp_path / "fourier")
    assert main(["fourier", "--checkpoint", os.path.join(run_dir, "checkpoint_final.bin"),
                 "--random-batch", "8", "--tap", "pre-residual", "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["artifacts"]["tap"] == "pre-residual"


def test_cmd_fourier_feature_dump(tmp_path, tiny_cfg_path, rng):
    run_dir = str(tmp_path / "run")
    main(["train", "--config", tiny_cfg_path, "--out", run_dir, "--set", "schedule.total_epochs=1",
          "--set", "model.patch_size=4"])
    dump = str(tmp_path / "features.bin")
    write_container(dump, {"kind": "feature-dump"},
                    {"layer0": rng.normal(size=(8, 16, 16, 4)).astype(np.float32)})
    out = str(tmp_path / "dumpprof")
    assert main(["fourier", "--checkpoint", os.path.join(run_dir, "checkpoint_final.bin"),
                 "--feature-dump", dump, "--out", out]) == 0
    lines = open(os.path.join(out, "feature_dump_profile.csv")).read().strip().splitlines()
    assert lines[0] == "map,f,delta_log_amp"
    assert len(lines) == 4


def _preset_checkpoint(tmp_path, preset: str) -> tuple[str, TrainConfig, object]:
    """A freshly initialised, partly switched checkpoint at a preset's geometry."""
    config = build_train_config(apply_overrides(load_preset(preset), ["data.dataset=synthetic"]))
    modes = ["conv"] * (config.num_layers - 1) + ["sa"]
    model = build_model(config.dim, config.num_layers, config.kernel_size, config.patch_size, config.image_hw,
                        config.in_channels, config.num_classes, modes, np.random.default_rng(3),
                        mlp_ratio=config.mlp_ratio)
    path = str(tmp_path / f"{preset}.bin")
    save_checkpoint(path, model, config.to_dict(), 1, [])
    return path, config, model


@pytest.mark.parametrize("preset, note", [
    ("desk", "grid 4x4 populates only 2 of 3 standard frequencies"),
    ("interp", None),
])
def test_library_depth_profile_default_matches_fourier(preset, note, tmp_path):
    # depth_profile(model, images) picks the targets and the width fourier reports
    ckpt, config, model = _preset_checkpoint(tmp_path, preset)
    out = tmp_path / "fourier"
    assert main(["fourier", "--checkpoint", ckpt, "--random-batch", "8", "--out", str(out)]) == 0
    images = np.random.default_rng(config.seed).random((8, *config.image_hw, config.in_channels))
    expected = _profile_csv(tmp_path / "expected.csv", model, probe_batch(config, images.astype(np.float32)))
    assert (out / "depth_profile.csv").read_text() == expected
    assert json.load(open(out / "manifest.json"))["artifacts"].get("note") == note


def test_cmd_fourier_feature_dump_reports_only_populated_targets(tmp_path, rng):
    ckpt, _, _ = _preset_checkpoint(tmp_path, "desk")
    dump = str(tmp_path / "features.bin")
    write_container(dump, {"kind": "feature-dump"}, {"m": rng.normal(size=(3, 4, 4)).astype(np.float32)})
    out = tmp_path / "dumpprof"
    assert main(["fourier", "--checkpoint", ckpt, "--feature-dump", dump, "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in (out / "feature_dump_profile.csv").read_text().splitlines()[1:]]
    assert rows == [["m", f"{2 * math.pi / 3:.6f}"], ["m", f"{math.pi:.6f}"]]


def test_cmd_fourier_never_reports_the_zero_frequency_bin(tmp_path, capsys):
    ckpt, _, _ = _preset_checkpoint(tmp_path, "desk")
    # at width 10 every target falls in bin 0: no target, exit 2 and no CSV
    out = tmp_path / "wide"
    assert main(["fourier", "--checkpoint", ckpt, "--random-batch", "4", "--bin-width", "10",
                 "--out", str(out)]) == 2
    assert "no standard target frequency" in capsys.readouterr().err
    assert not (out / "depth_profile.csv").exists()
    # at pi/2, pi/3 falls in bin 0 and is left out
    out = tmp_path / "half"
    assert main(["fourier", "--checkpoint", ckpt, "--random-batch", "4", "--bin-width", "1.5708",
                 "--out", str(out)]) == 0
    rows = (out / "depth_profile.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {f"{2 * math.pi / 3:.6f}", f"{math.pi:.6f}"}
    assert json.load(open(out / "depth_profile.json"))["targets"] == [2 * math.pi / 3, math.pi]


def test_cmd_fourier_tiny_grid_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(TINY_CFG.replace("model.patch_size = 8", "model.patch_size = 32"))
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", str(cfg), "--out", run_dir,
                 "--set", "schedule.total_epochs=1"]) == 0
    # a 1x1 grid populates no target, so train writes no profile
    assert "depth_profile" not in json.load(open(os.path.join(run_dir, "manifest.json")))["artifacts"]
    assert not os.path.exists(os.path.join(run_dir, "depth_profile.csv"))
    code = main(["fourier", "--checkpoint", os.path.join(run_dir, "checkpoint_final.bin"),
                 "--random-batch", "4", "--out", str(tmp_path / "f")])
    assert code == 2
    assert "at least 2x2" in capsys.readouterr().err
    # the dataset path exits before it loads a test image
    loads = []
    monkeypatch.setattr(importlib.import_module("convattn.cli"), "load_dataset", lambda *a: loads.append(a))
    assert main(["fourier", "--checkpoint", os.path.join(run_dir, "checkpoint_final.bin"),
                 "--out", str(tmp_path / "g")]) == 2
    assert "at least 2x2" in capsys.readouterr().err
    assert loads == []


# --------------------------------------------------------------------------
# interp command


SETTING_FILES = ["checkpoint_final.bin", "depth_profile.csv", "metrics.jsonl"]


def _setting_dirs(out):
    """The setting run directories under an interp output directory; each
    holds exactly one train run's artifacts."""
    dirs = sorted(p for p in os.listdir(out) if os.path.isdir(os.path.join(out, p)))
    for d in dirs:
        assert sorted(os.listdir(os.path.join(out, d))) == SETTING_FILES, d
    return dirs


def test_cmd_interp_artifacts_and_determinism(tiny_cfg_path, tmp_path):
    out1 = str(tmp_path / "i1")
    args = ["interp", "--config", tiny_cfg_path, "--set", "model.patch_size=4",
            "--set", "schedule.total_epochs=4", "--set", "schedule.kind=uniform",
            "--set", "schedule.e_switch=4"]
    assert main(args + ["--out", out1]) == 0
    combined1 = open(os.path.join(out1, "interpolation_combined.csv")).read()
    lines = combined1.strip().splitlines()
    assert lines[0] == "conv_epochs,sa_epochs,depth,f,delta_log_amp"
    assert len(lines) == 1 + 4 * 2 * 3  # 4 settings x L=2 x 3 freqs
    assert _setting_dirs(out1) == ["conv1_sa3", "conv2_sa2", "conv3_sa1", "conv4_sa0"]
    manifest = json.load(open(os.path.join(out1, "manifest.json")))
    for entry in manifest["artifacts"]["settings"]:
        run_dir = os.path.join(out1, f"conv{entry['conv_epochs']}_sa{entry['sa_epochs']}")
        assert entry["checkpoint"] == os.path.join(run_dir, "checkpoint_final.bin")
        assert entry["csv"] == os.path.join(run_dir, "depth_profile.csv")

    out2 = str(tmp_path / "i2")
    assert main(args + ["--out", out2]) == 0
    combined2 = open(os.path.join(out2, "interpolation_combined.csv")).read()
    assert combined1 == combined2


def test_cmd_interp_short_run_trains_each_setting_once(tiny_cfg_path, tmp_path, capsys):
    # at T=2 two splits round to conv 2/SA 0; the suite trains it once and
    # writes its rows into the combined CSV once
    out = str(tmp_path / "i")
    assert main(["interp", "--config", tiny_cfg_path, "--set", "model.patch_size=4",
                 "--set", "schedule.total_epochs=2", "--out", out]) == 0
    assert "3 settings trained" in capsys.readouterr().out
    assert _setting_dirs(out) == ["conv0_sa2", "conv1_sa1", "conv2_sa0"]
    lines = open(os.path.join(out, "interpolation_combined.csv")).read().strip().splitlines()
    assert len(lines) == 1 + 3 * 2 * 3  # 3 settings x L=2 x 3 freqs


def test_cmd_interp_on_a_4x4_grid_writes_two_target_profiles(tiny_cfg_path, tmp_path):
    # a 4x4 grid populates the 2pi/3 and pi bins but not pi/3
    out = str(tmp_path / "i")
    assert main(["interp", "--config", tiny_cfg_path, "--set", "schedule.total_epochs=4", "--out", out]) == 0
    dirs = _setting_dirs(out)
    assert len(dirs) == 4
    for name in dirs:
        lines = open(os.path.join(out, name, "depth_profile.csv")).read().strip().splitlines()
        assert lines[0] == "depth,f,delta_log_amp"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 2  # L=2 layers x 2 populated frequencies
        assert {f for _, f, _ in rows} == {f"{2 * math.pi / 3:.6f}", f"{math.pi:.6f}"}


def test_cmd_interp_resume_checks_the_config(tiny_cfg_path, tmp_path, capsys):
    # a resumed setting goes through train's resume check, so a suite resumed
    # with another architecture exits 2 and rewrites no combined profile
    out = str(tmp_path / "i")
    args = ["interp", "--config", tiny_cfg_path, "--set", "schedule.total_epochs=2", "--out", out]
    assert main(args) == 0
    combined = open(os.path.join(out, "interpolation_combined.csv")).read()
    capsys.readouterr()
    assert main(args + ["--resume", "--set", "model.num_layers=3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: resume checkpoint has num_layers=2")
    assert json.load(open(os.path.join(out, "manifest.json")))["status"] == "failed"
    assert open(os.path.join(out, "interpolation_combined.csv")).read() == combined


def test_cmd_interp_tiny_grid_exits_2_before_training(tiny_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "i")
    code = main(["interp", "--config", tiny_cfg_path, "--set", "model.patch_size=32",
                 "--set", "schedule.total_epochs=2", "--out", out])
    assert code == 2
    assert "at least 2x2" in capsys.readouterr().err
    assert os.listdir(out) == ["manifest.json"]
    assert json.load(open(os.path.join(out, "manifest.json")))["status"] == "failed"


# --------------------------------------------------------------------------
# Signals and artifact writes


# The child puts SIGINT back at its default disposition first: a shell
# starts background jobs with SIGINT ignored, and main keeps an ignored
# signal ignored.
_CHILD = ("import signal, sys; signal.signal(signal.SIGINT, signal.SIG_DFL); "
          "from convattn.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_signal_finalizes_the_manifest(signum, tiny_cfg_path, tmp_path):
    out = tmp_path / "run"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, "train", "--config", tiny_cfg_path,
                             "--set", "schedule.total_epochs=400", "--set", "train.checkpoint_every=1",
                             "--out", str(out)], env=env, stderr=subprocess.PIPE, text=True)
    try:
        metrics = out / "metrics.jsonl"
        deadline = time.monotonic() + 120
        while not (metrics.exists() and metrics.read_text()):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.02)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    name = signal.Signals(signum).name
    assert proc.returncode == 5, err
    assert err.endswith(f"interrupted: stopped by {name}\n")
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["status"] == "interrupted"
    assert manifest["error"] == f"stopped by {name}"
    assert manifest["finished_at"] is not None
    records = [json.loads(line) for line in open(metrics)]
    assert [m["epoch"] for m in records] == list(range(1, len(records) + 1))
    for ckpt in out.glob("*.bin"):
        load_checkpoint(str(ckpt))
    assert not list(out.glob("*.tmp"))


def test_artifacts_are_only_opened_for_writing_as_temp_files(tiny_cfg_path, tmp_path, monkeypatch):
    run_dir = str(tmp_path / "run")
    writes = []
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and set(mode) & set("wax+"):
            writes.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert main(["train", "--config", tiny_cfg_path, "--set", "schedule.total_epochs=2",
                 "--set", "train.checkpoint_every=1", "--out", run_dir]) == 0
    assert main(["fourier", "--checkpoint", os.path.join(run_dir, "checkpoint_final.bin"),
                 "--random-batch", "8", "--out", run_dir]) == 0
    monkeypatch.undo()
    written = [os.path.relpath(path, run_dir) for path in writes if path.startswith(run_dir)]
    assert [path for path in written if not path.endswith(".tmp")] == []
    targets = {path.rsplit(".", 2)[0] for path in written}
    assert targets == {"manifest.json", "metrics.jsonl", "checkpoint_epoch_1.bin", "checkpoint_epoch_2.bin",
                       "checkpoint_final.bin", "depth_profile.csv", "depth_profile.json"}
