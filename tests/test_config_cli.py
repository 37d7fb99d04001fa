import json
import os

import numpy as np
import pytest

from convattn.blocks import build_model
from convattn.checkpoint import save_checkpoint
from convattn.cli import main
from convattn.config import (
    ConfigError,
    apply_overrides,
    build_train_config,
    load_preset,
    parse_config_text,
)

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
], ids=["train-resume-missing", "fourier-dump-missing", "fourier-dataset-missing",
        "fourier-dump-rank1", "fourier-dump-rank5"])
def test_cmd_unreadable_input_exits_3(argv, tiny_cfg_path, cifar_ckpt, tmp_path, capsys, monkeypatch):
    from convattn.checkpoint import write_container

    for name, shape in (("rank1", (8,)), ("rank5", (1, 2, 4, 4, 3))):
        write_container(str(tmp_path / f"{name}.bin"), {"kind": "feature-dump"}, {"maps": np.zeros(shape)})
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
    from convattn.checkpoint import write_container

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


def test_cmd_fourier_tiny_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(TINY_CFG.replace("model.patch_size = 8", "model.patch_size = 32"))
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", str(cfg), "--out", run_dir,
                 "--set", "schedule.total_epochs=1"]) == 0
    code = main(["fourier", "--checkpoint", os.path.join(run_dir, "checkpoint_final.bin"),
                 "--random-batch", "4", "--out", str(tmp_path / "f")])
    assert code == 2
    assert "at least 2x2" in capsys.readouterr().err


# --------------------------------------------------------------------------
# interp command


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
    ckpts = [p for p in os.listdir(out1) if p.endswith(".ckpt")]
    csvs = [p for p in os.listdir(out1) if p.endswith("_depth_profile.csv")]
    assert len(ckpts) == 4 and len(csvs) == 4

    out2 = str(tmp_path / "i2")
    assert main(args + ["--out", out2]) == 0
    combined2 = open(os.path.join(out2, "interpolation_combined.csv")).read()
    assert combined1 == combined2
