import importlib
import json
import math
import os
import re
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest

from convattn import runtime
from convattn import tensor as tt
from convattn import train as train_module
from convattn.blocks import PositionalMixer, build_model, model_forward
from convattn.checkpoint import (
    CheckpointError,
    load_checkpoint,
    model_from_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from convattn.cli import RunManifest, main
from convattn.config import build_train_config, load_preset
from convattn.optim import AdamW, lr_at
from convattn.schedule import SA, mode_at, switch_epochs
from convattn.spectral import write_csv
from convattn.tensor import Tensor, finite_diff_check
from convattn.train import (
    DivergenceError,
    TrainConfig,
    cross_entropy_label_smooth,
    evaluate,
    load_dataset,
    run_interpolation_suite,
    topk_hits,
    train,
)
from oracles import adamw_closed_form

TINY = dict(dim=8, num_layers=2, patch_size=8, kernel_size=3, num_classes=4,
            dataset="synthetic", fraction=1.0, eval_fraction=1.0, batch_size=64,
            warmup_epochs=1, seed=0)


def tiny_config(**overrides):
    kw = dict(TINY)
    kw.update(overrides)
    return TrainConfig(**kw)


# --------------------------------------------------------------------------
# Loss


def test_cross_entropy_uniform_logits_is_chance():
    logits = Tensor(np.zeros((16, 10)))
    labels = np.arange(16) % 10
    for eps in (0.0, 0.1):
        loss = cross_entropy_label_smooth(logits, labels, eps)
        assert loss.item() == pytest.approx(math.log(10.0), rel=1e-6)


def test_cross_entropy_gradient(rng):
    with tt.using_dtype(np.float64):
        labels = rng.integers(0, 5, size=6)
        x = Tensor(rng.uniform(-1, 1, size=(6, 5)), requires_grad=True)
        report = finite_diff_check(lambda t: cross_entropy_label_smooth(t, labels, 0.1), x)
        assert report.passed, report


# --------------------------------------------------------------------------
# Optimizer


def test_adamw_single_step_matches_closed_form(rng):
    a = rng.uniform(0.5, 2.0, size=7).astype(np.float32)
    x0 = rng.normal(size=7).astype(np.float32)
    p = Tensor(x0.copy(), requires_grad=True)
    opt = AdamW([("p", p)], lr=3e-3, betas=(0.9, 0.999), weight_decay=0.05)
    p.grad = a * p.data  # gradient of 0.5 * sum(a x^2)
    expected = adamw_closed_form(x0.astype(np.float64), (a * x0).astype(np.float64),
                                 3e-3, 0.9, 0.999, 1e-8, 0.05)
    opt.step()
    np.testing.assert_allclose(p.data, expected, atol=1e-6)


def test_adamw_set_params_keeps_and_prunes_state(rng):
    p1 = Tensor(rng.normal(size=3), requires_grad=True)
    p2 = Tensor(rng.normal(size=3), requires_grad=True)
    opt = AdamW([("keep", p1), ("old", p2)], lr=1e-3)
    p1.grad = np.ones(3, dtype=np.float32)
    p2.grad = np.ones(3, dtype=np.float32)
    opt.step()
    assert opt.steps["keep"] == 1
    p3 = Tensor(rng.normal(size=2), requires_grad=True)
    opt.set_params([("keep", p1), ("new", p3)])
    assert opt.steps["keep"] == 1  # preserved
    assert opt.steps["new"] == 0  # fresh moments
    assert "old" not in opt.steps


def test_lr_warmup_and_cosine():
    assert lr_at(1, 40, 1.0, warmup_epochs=5) == pytest.approx(0.2)
    assert lr_at(5, 40, 1.0, warmup_epochs=5) == pytest.approx(1.0)
    assert lr_at(40, 40, 1.0, warmup_epochs=5) == pytest.approx(0.0, abs=1e-9)
    mid = lr_at(22, 40, 1.0, warmup_epochs=5)
    assert 0.4 < mid < 0.6
    assert lr_at(22, 40, 1.0, warmup_epochs=5, cosine_decay=False) == 1.0


# --------------------------------------------------------------------------
# Evaluation


@pytest.mark.parametrize("dataset", ["synthetic", "cifar10", "cifar100"])
def test_prepare_normalizes_each_channel_bitwise(rng, dataset):
    # the full-image mean and std give the bits of the per-channel formula
    from convattn.data import NORM_STATS

    config = tiny_config(dataset=dataset)
    images = rng.random((5, 32, 32, 3), dtype=np.float32)
    mean, std = (np.asarray(v, dtype=np.float32) for v in NORM_STATS[dataset])
    prepared = train_module._prepare(images, config)
    assert prepared.dtype == np.float32
    assert prepared.tobytes() == ((images - mean) / std).tobytes()
    assert train_module._prepare(images, tiny_config(dataset=dataset, normalize=False)) is images


def test_topk_one_hot_logits():
    labels = np.array([2, 0, 1])
    logits = np.full((3, 5), -1.0)
    logits[np.arange(3), labels] = 1.0
    assert topk_hits(logits, labels) == (3, 3)


def test_topk_constant_logits_tie_break():
    logits = np.zeros((4, 10))
    top1, top5 = topk_hits(logits, np.array([0, 1, 4, 5]))
    assert top1 == 1  # only the class-0 sample wins the tie rule
    assert top5 == 3  # classes 0-4 fill the top five


def test_topk_random_logits_rate(rng):
    n, classes = 4000, 100
    logits = rng.normal(size=(n, classes))
    labels = rng.integers(0, classes, size=n)
    _, top5 = topk_hits(logits, labels)
    assert abs(top5 / n - 0.05) < 0.02  # ~5% with sampling error


def test_evaluate_class_count_mismatch(rng):
    cfg = tiny_config(total_epochs=1)
    res = train(cfg)
    ds = load_dataset(tiny_config(num_classes=4, seed=5), "test")
    ds.num_classes = 11
    with pytest.raises(ValueError, match="classes"):
        evaluate(res.model, ds, cfg)


def test_evaluate_needs_the_config_of_a_model():
    cfg = tiny_config(total_epochs=1, schedule_kind="all-conv")
    res = train(cfg)
    with pytest.raises(ValueError, match="config"):
        evaluate(res.model, load_dataset(cfg, "test"))


def test_evaluate_from_checkpoint_path(tmp_path):
    cfg = tiny_config(total_epochs=2, schedule_kind="all-conv")
    res = train(cfg, out_dir=str(tmp_path))
    ds = load_dataset(cfg, "test")
    from_model = evaluate(res.model, ds, cfg)
    from_path = evaluate(res.checkpoint_path, ds)
    assert from_path == from_model
    assert set(from_path) == {"top1", "top5", "n"}


# --------------------------------------------------------------------------
# Training loop


def test_lr_zero_keeps_parameters_and_chance_loss():
    cfg = tiny_config(schedule_kind="all-conv", total_epochs=1, lr=0.0, weight_decay=0.0,
                      augment=False)
    before = None
    res = train(cfg)
    metrics = res.metrics
    # random-init logits are near zero so the loss sits at chance level ln(C)
    assert metrics[0]["train_loss"] == pytest.approx(math.log(cfg.num_classes), abs=0.05)
    after = {name: p.data.copy() for name, p in res.model.named_parameters()}
    res2 = train(cfg)
    for name, p in res2.model.named_parameters():
        np.testing.assert_array_equal(p.data, after[name])


def test_train_module_is_not_shadowed_by_the_function():
    import convattn.train as train_module

    assert train_module is sys.modules["convattn.train"]
    assert train_module.train is train


@pytest.mark.parametrize("kind", ["linear", "uniform", "all-conv", "all-sa"])
def test_switch_events_and_loss_continuity(kind):
    # a fresh run follows its schedule by construction; nothing on the
    # forward path checks it, so every epoch's modes are pinned here
    cfg = tiny_config(schedule_kind=kind, total_epochs=6, e_switch=3 if kind == "uniform" else None)
    res = train(cfg)
    sched = cfg.schedule()
    assert sorted((ev["layer"], ev["epoch"]) for ev in res.switch_events) == sorted(switch_epochs(sched))
    for ev in res.switch_events:
        rel = abs(ev["loss_after"] - ev["loss_before"]) / ev["loss_before"]
        assert rel < 1e-4, ev
    for m in res.metrics:
        assert m["modes"] == [mode_at(sched, m["epoch"], l) for l in (1, 2)]


def test_switch_probe_forwards_are_shared(monkeypatch):
    # two layers switching in one epoch: the rear switch's loss_after is the
    # front switch's loss_before, so 3 probe forwards instead of 4
    train_module = importlib.import_module("convattn.train")
    calls = []
    probe_loss = train_module._probe_loss

    def counting(*args):
        calls.append(args)
        return probe_loss(*args)

    monkeypatch.setattr(train_module, "_probe_loss", counting)
    res = train(tiny_config(schedule_kind="uniform", e_switch=1, total_epochs=2))
    assert len(calls) == 3
    events = res.switch_events
    assert [(ev["epoch"], ev["layer"]) for ev in events] == [(2, 2), (2, 1)]
    assert events[1]["loss_before"] == events[0]["loss_after"]


def test_switch_order_rear_to_front():
    cfg = tiny_config(schedule_kind="uniform", e_switch=2, total_epochs=4)
    res = train(cfg)
    layers = [ev["layer"] for ev in res.switch_events]
    assert layers == [2, 1]
    assert all(ev["epoch"] == 3 for ev in res.switch_events)


def test_training_reduces_loss():
    cfg = tiny_config(schedule_kind="linear", total_epochs=6, lr=2e-3)
    res = train(cfg)
    assert res.metrics[-1]["train_loss"] < res.metrics[0]["train_loss"]


def test_determinism_same_seed_same_history(tmp_path):
    cfg = tiny_config(schedule_kind="linear", total_epochs=4)
    r1 = train(cfg, out_dir=str(tmp_path / "a"))
    r2 = train(cfg, out_dir=str(tmp_path / "b"))

    def strip(metrics):
        return [{k: v for k, v in m.items() if k != "epoch_seconds"} for m in metrics]

    assert strip(r1.metrics) == strip(r2.metrics)
    _, t1 = load_checkpoint(r1.checkpoint_path)
    _, t2 = load_checkpoint(r2.checkpoint_path)
    assert set(t1) == set(t2)
    for name in t1:
        np.testing.assert_array_equal(t1[name], t2[name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr=1e6 overflows gelu on purpose
def test_divergence_aborts_with_epoch():
    cfg = tiny_config(schedule_kind="all-conv", total_epochs=3, lr=1e6)
    with pytest.raises(DivergenceError) as err:
        train(cfg)
    assert err.value.epoch >= 1


def _metrics_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_metrics_stream_keeps_finished_epochs(tmp_path, monkeypatch):
    # a run that dies in epoch 3 has already written epochs 1 and 2
    train_module = importlib.import_module("convattn.train")
    eval_model, calls = train_module._eval_model, []

    def failing_eval(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("killed in epoch 3")
        return eval_model(*args, **kwargs)

    monkeypatch.setattr(train_module, "_eval_model", failing_eval)
    with pytest.raises(RuntimeError, match="epoch 3"):
        train(tiny_config(schedule_kind="linear", total_epochs=4), out_dir=str(tmp_path))
    assert [m["epoch"] for m in _metrics_lines(tmp_path / "metrics.jsonl")] == [1, 2]


def test_metrics_stream_matches_result_and_resume(tmp_path):
    # a completed run's file holds the returned records; a resumed run's
    # file starts with the checkpoint's history
    cfg = tiny_config(schedule_kind="linear", total_epochs=4, checkpoint_every=2)
    full = train(cfg, out_dir=str(tmp_path / "full"))
    assert full.metrics_path == str(tmp_path / "full" / "metrics.jsonl")
    assert _metrics_lines(full.metrics_path) == full.metrics
    resumed = train(cfg, out_dir=str(tmp_path / "resumed"),
                    resume_from=str(tmp_path / "full" / "checkpoint_epoch_2.bin"))
    lines = _metrics_lines(resumed.metrics_path)
    assert lines == resumed.metrics
    assert lines[:2] == full.metrics[:2]
    assert [m["epoch"] for m in lines] == [1, 2, 3, 4]
    # the history a resumed run copies from the checkpoint is written in the
    # same bytes as the live lines it replaces
    with open(full.metrics_path, "rb") as a, open(resumed.metrics_path, "rb") as b:
        assert b.readlines()[:2] == a.readlines()[:2]


def test_resuming_a_finished_run_loads_no_training_set(tmp_path, monkeypatch):
    # nothing is left to train, so only the test set (for the final profile)
    # is loaded, and the artifacts come out as the finished run wrote them
    cfg = tiny_config(schedule_kind="linear", total_epochs=2)
    full = train(cfg, out_dir=str(tmp_path / "full"))
    train_module = importlib.import_module("convattn.train")
    load_dataset_, splits = train_module.load_dataset, []

    def recording_load_dataset(config, split):
        splits.append(split)
        return load_dataset_(config, split)

    monkeypatch.setattr(train_module, "load_dataset", recording_load_dataset)
    resumed = train(cfg, out_dir=str(tmp_path / "resumed"), resume_from=full.checkpoint_path)
    assert splits == ["test"]

    def strip(metrics):
        return [{k: v for k, v in m.items() if k != "epoch_seconds"} for m in metrics]

    assert strip(_metrics_lines(resumed.metrics_path)) == strip(_metrics_lines(full.metrics_path))
    assert resumed.switch_events == full.switch_events
    _, t1 = load_checkpoint(full.checkpoint_path)
    _, t2 = load_checkpoint(resumed.checkpoint_path)
    assert set(t1) == set(t2)
    for name in t1:
        np.testing.assert_array_equal(t1[name], t2[name])
    with open(full.profile_path, "rb") as a, open(resumed.profile_path, "rb") as b:
        assert a.read() == b.read()


# --------------------------------------------------------------------------
# Checkpoints


def test_container_roundtrip(tmp_path, rng):
    path = str(tmp_path / "c.bin")
    tensors = {"a": rng.normal(size=(3, 4)).astype(np.float32),
               "deep.name.b": rng.normal(size=7).astype(np.float32),
               "scalarish": np.asarray([1.5], dtype=np.float32)}
    write_container(path, {"kind": "feature-dump", "note": 1}, tensors)
    header, loaded = read_container(path)
    assert header["kind"] == "feature-dump"
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)


class FailsMidway:
    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("write failed midway")


def _atomic_container(out, version):
    tensors = {"a": np.full((3, 4), version, dtype=np.float32)}
    if version:
        tensors["b"] = FailsMidway()  # fails while the temp file is half written
    write_container(os.path.join(out, "ckpt.bin"), {"kind": "feature-dump"}, tensors)


def _atomic_manifest(out, version):
    RunManifest("train", [], {}, 0, out, "then", artifacts={"version": version}).write()


def _atomic_csv(out, version):
    write_csv(os.path.join(out, "profile.csv"), "depth,f", [(version, 0.5), (version + 1, 1.5)])


def _atomic_metrics(out, version):
    train_module._write_metrics(os.path.join(out, "metrics.jsonl"), [{"epoch": e} for e in range(version + 2)])


def _atomic_fourier_json(out, version):
    cfg = tiny_config()
    ckpt = os.path.join(os.path.dirname(out), "fourier.bin")
    if not os.path.exists(ckpt):
        model = build_model(cfg.dim, cfg.num_layers, cfg.kernel_size, cfg.patch_size, cfg.image_hw,
                            cfg.in_channels, cfg.num_classes, ["conv"] * cfg.num_layers, np.random.default_rng(0))
        save_checkpoint(ckpt, model, cfg.to_dict(), 0, [])
    code = main(["fourier", "--checkpoint", ckpt, "--random-batch", str(4 + version), "--out", out])
    assert code == (3 if version else 0)  # the failed rename is a file error


@pytest.mark.parametrize("name, write", [
    ("ckpt.bin", _atomic_container),
    ("manifest.json", _atomic_manifest),
    ("profile.csv", _atomic_csv),
    ("metrics.jsonl", _atomic_metrics),
    ("depth_profile.json", _atomic_fourier_json),
], ids=["container", "manifest", "csv", "metrics", "fourier-json"])
def test_write_container_is_atomic(tmp_path, monkeypatch, name, write):
    # every artifact writer goes through write_file: a write that fails
    # midway, in its chunks or at the rename, keeps the old bytes
    out = tmp_path / "out"
    out.mkdir()
    write(str(out), 0)
    good = (out / name).read_bytes()
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("write failed midway")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    try:
        write(str(out), 1)
    except (OSError, RuntimeError) as exc:
        assert "midway" in str(exc)
    assert (out / name).read_bytes() == good
    assert [f for f in os.listdir(out) if f.endswith(".tmp")] == []


_HEADER = {"kind": "checkpoint", "format_version": 1, "config": {}, "epoch": 2, "modes": ["conv", "sa"]}
_MISSING = object()


@pytest.mark.parametrize("key, value, match", [
    ("config", _MISSING, "no config object"),
    ("config", [1], "no config object"),
    ("epoch", _MISSING, "epoch None is not an integer"),
    ("epoch", "2", "epoch '2' is not an integer"),
    ("epoch", 2.0, "epoch 2.0 is not an integer"),
    ("epoch", True, "epoch True is not an integer"),
    ("modes", _MISSING, "modes None are not a list"),
    ("modes", "conv", "modes 'conv' are not a list"),
    ("modes", ["conv", "attn"], "are not a list of 'conv'/'sa'"),
    ("pad_tokens", "yes", "pad_tokens 'yes' are not one boolean per layer"),
    ("pad_tokens", [0, 1], r"pad_tokens \[0, 1\] are not one boolean per layer"),
    ("pad_tokens", [False], r"pad_tokens \[False\] are not one boolean per layer"),
    ("opt_steps", [3], "opt_steps is not a map from names to step counts"),
    ("opt_steps", {"head.w": 2.0}, "opt_steps is not a map"),
    ("opt_steps", {"head.w": True}, "opt_steps is not a map"),
    ("opt_steps", {"head.w": -1}, "opt_steps is not a map"),
    ("metric_history", "zz", "metric_history is not a list of objects"),
    ("metric_history", [{"epoch": 1}, 2], "metric_history is not a list of objects"),
], ids=["config-missing", "config-list", "epoch-missing", "epoch-str", "epoch-float", "epoch-bool",
        "modes-missing", "modes-str", "modes-unknown", "pad_tokens-str", "pad_tokens-ints", "pad_tokens-short",
        "opt_steps-list", "opt_steps-float", "opt_steps-bool", "opt_steps-negative", "metric_history-str",
        "metric_history-item"])
def test_load_checkpoint_checks_header_keys(tmp_path, key, value, match):
    path = str(tmp_path / "c.bin")
    write_container(path, _HEADER, {})
    assert load_checkpoint(path)[0] == _HEADER
    header = {k: v for k, v in _HEADER.items() if k != key}
    if value is not _MISSING:
        header[key] = value
    write_container(path, header, {})
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_save_load_forward_bitwise(tmp_path, rng):
    cfg = tiny_config(schedule_kind="linear", total_epochs=4)
    res = train(cfg, out_dir=str(tmp_path))
    header, tensors = load_checkpoint(res.checkpoint_path)
    rebuilt = model_from_checkpoint(header, tensors)
    images = Tensor(rng.normal(size=(4, 32, 32, 3)).astype(np.float32))
    a = model_forward(images, res.model).data
    b = model_forward(images, rebuilt).data
    np.testing.assert_array_equal(a, b)
    assert rebuilt.modes() == res.model.modes()


def test_corrupt_blob_names_tensor(tmp_path, rng):
    path = str(tmp_path / "c.bin")
    write_container(path, {"kind": "checkpoint", "format_version": 1},
                    {"fine": np.zeros(4, dtype=np.float32),
                     "broken.tensor": rng.normal(size=64).astype(np.float32)})
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[:-40])  # truncate inside the last blob
    with pytest.raises(CheckpointError, match="broken.tensor"):
        read_container(path)


_DUMP_HEADER = json.dumps({"kind": "feature-dump"}).encode()


@pytest.mark.parametrize("header, body", [
    (b'{"kind": "feature-du', b""),
    (b'{"kind": "\xff"}', b""),
    (b"[1, 2]", b""),
    # name length, name, rank 0, one float
    (_DUMP_HEADER, struct.pack("<I", 1) + b"\xff" + struct.pack("<I", 0) + bytes(4)),
    # rank 4 at the largest extents: 2**128 elements, refused before any read
    (_DUMP_HEADER, struct.pack("<I", 4) + b"maps" + struct.pack("<5I", 4, *[2**32 - 1] * 4)),
], ids=["header-cut-mid-json", "header-invalid-utf8", "header-not-an-object", "name-invalid-utf8",
        "extents-overflow"])
def test_corrupt_container_is_a_checkpoint_error(tmp_path, header, body):
    path = tmp_path / "c.bin"
    path.write_bytes(b"CONVATTN" + struct.pack("<I", len(header)) + header + body)
    with pytest.raises(CheckpointError):
        read_container(str(path))


def test_version_mismatch_rejected(tmp_path):
    path = str(tmp_path / "c.bin")
    write_container(path, {"kind": "checkpoint", "format_version": 999}, {})
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_missing_tensor_named(tmp_path):
    cfg = tiny_config(total_epochs=1, schedule_kind="all-conv")
    res = train(cfg, out_dir=str(tmp_path))
    header, tensors = load_checkpoint(res.checkpoint_path)
    removed = next(iter(tensors))
    del tensors[removed]
    with pytest.raises(CheckpointError, match=removed):
        model_from_checkpoint(header, tensors)


def test_extent_mismatch_named(tmp_path):
    cfg = tiny_config(total_epochs=1, schedule_kind="all-conv")
    res = train(cfg, out_dir=str(tmp_path))
    header, tensors = load_checkpoint(res.checkpoint_path)
    tensors["head.w"] = tensors["head.w"][:, :-1].copy()
    with pytest.raises(CheckpointError, match="head.w"):
        model_from_checkpoint(header, tensors)


def test_resume_reproduces_switches_and_state(tmp_path):
    cfg = tiny_config(schedule_kind="linear", total_epochs=6, checkpoint_every=3)
    assert runtime.SHARDS == 2  # resume is bitwise with sharded steps
    full = train(cfg, out_dir=str(tmp_path / "full"))
    part = train(cfg, out_dir=str(tmp_path / "part"))
    resume_ckpt = str(tmp_path / "part" / "checkpoint_epoch_3.bin")
    assert os.path.exists(resume_ckpt)
    resumed = train(cfg, out_dir=str(tmp_path / "resumed"), resume_from=resume_ckpt)

    def events(res):
        return [(ev["epoch"], ev["layer"]) for ev in res.switch_events]

    assert events(resumed) == events(full)
    _, t_full = load_checkpoint(full.checkpoint_path)
    _, t_res = load_checkpoint(resumed.checkpoint_path)
    for name in t_full:
        np.testing.assert_array_equal(t_full[name], t_res[name], err_msg=name)


def test_switched_desk_run_keeps_no_query_key(tmp_path):
    # a desk run whose four layers have all switched holds no w_q or w_k:
    # each switched layer is a positional mixer, so neither the parameters,
    # the optimizer's moments and step counts nor the checkpoint carry them
    cfg = replace(build_train_config(load_preset("desk")), dataset="synthetic", total_epochs=6)
    res = train(cfg, out_dir=str(tmp_path))
    assert res.model.modes() == [SA] * 4
    assert all(isinstance(blk.attn, PositionalMixer) for blk in res.model.blocks)
    header, tensors = load_checkpoint(res.checkpoint_path)
    assert header["pad_tokens"] == [True] * 4
    query_key = re.compile(r"\.attn\.w_[qk]$")
    for names in ([name for name, _ in res.model.named_parameters()], res.optimizer.m, res.optimizer.v,
                  res.optimizer.steps, header["opt_steps"], tensors):
        assert names and not any(query_key.search(name) for name in names)


def _pre_split(path, out, fill=0.0):
    """Rewrite the checkpoint at ``path`` to ``out`` in the layout from before
    switched layers had a mixer of their own: every positional layer also
    holds w_q and w_k (all ``fill``) with zero moments and the step count of
    its w_v. Returns the header."""
    header, tensors = load_checkpoint(path)
    for i, positional in enumerate(header["pad_tokens"]):
        if positional:
            shape = tensors[f"blocks.{i}.attn.w_v"].shape
            for w in ("w_q", "w_k"):
                name = f"blocks.{i}.attn.{w}"
                tensors[name] = np.full(shape, fill, dtype=np.float32)
                tensors[f"opt.m.{name}"] = tensors[f"opt.v.{name}"] = np.zeros(shape, dtype=np.float32)
                header["opt_steps"][name] = header["opt_steps"][f"blocks.{i}.attn.w_v"]
    write_container(out, header, tensors)
    return header


def test_pre_split_checkpoint_resumes_bitwise(tmp_path):
    # the zero w_q/w_k (and their moments) of a switched layer in an older
    # checkpoint are dropped on load, and the resumed run ends on the
    # uninterrupted run's tensors
    cfg = tiny_config(schedule_kind="linear", total_epochs=6, checkpoint_every=3)
    full = train(cfg, out_dir=str(tmp_path / "full"))
    old = str(tmp_path / "pre_split.bin")
    header = _pre_split(str(tmp_path / "full" / "checkpoint_epoch_3.bin"), old)
    assert header["pad_tokens"] == [False, True]
    resumed = train(cfg, out_dir=str(tmp_path / "resumed"), resume_from=old)
    _, t_full = load_checkpoint(full.checkpoint_path)
    _, t_res = load_checkpoint(resumed.checkpoint_path)
    assert t_full.keys() == t_res.keys()
    for name in t_full:
        assert t_full[name].tobytes() == t_res[name].tobytes(), name


def test_pre_split_checkpoint_with_query_key_is_refused(tmp_path):
    # a switched layer cannot hold a non-zero w_q or w_k, so a checkpoint
    # that gives it one is refused rather than silently dropped: exit 3
    cfg = tiny_config(schedule_kind="linear", total_epochs=3)
    res = train(cfg, out_dir=str(tmp_path / "run"))
    bad = str(tmp_path / "bad.bin")
    _pre_split(res.checkpoint_path, bad, fill=1e-3)
    with pytest.raises(CheckpointError, match="positional layer 0 holds a non-zero w_q or w_k"):
        model_from_checkpoint(*load_checkpoint(bad))
    with pytest.raises(CheckpointError, match="non-zero"):
        train(cfg, out_dir=str(tmp_path / "resumed"), resume_from=bad)
    assert main(["fourier", "--checkpoint", bad, "--random-batch", "4", "--out", str(tmp_path / "f")]) == 3


# --------------------------------------------------------------------------
# Interpolation suite


def test_interpolation_suite_artifacts(tmp_path):
    cfg = tiny_config(dim=8, num_layers=2, patch_size=4, total_epochs=4, batch_size=128,
                      eval_fraction=0.5)
    results = run_interpolation_suite(cfg, str(tmp_path))
    assert len(results) == 4
    assert [r["e_switch"] for r in results] == [4, 3, 2, 1]
    for rec in results:
        assert os.path.exists(rec["checkpoint"])
        assert os.path.exists(rec["csv"])
        lines = open(rec["csv"]).read().strip().splitlines()
        assert lines[0] == "depth,f,delta_log_amp"
        assert len(lines) == 1 + 2 * 3  # L=2 layers x 3 frequencies


def _dir_bytes(root):
    return {os.path.relpath(os.path.join(d, name), root): open(os.path.join(d, name), "rb").read()
            for d, _, names in os.walk(root) for name in names}


def test_interpolation_suite_settings_are_train_runs(tmp_path):
    # each setting is one train() run in its own directory: it streams its
    # metrics and its checkpoint carries the optimizer state a resume needs
    cfg = tiny_config(dim=8, num_layers=2, patch_size=4, total_epochs=2, batch_size=128)
    results = run_interpolation_suite(cfg, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["conv0_sa2", "conv1_sa1", "conv2_sa0"]
    for rec in results:
        run_dir = tmp_path / f"conv{rec['e_switch']}_sa{rec['sa_epochs']}"
        assert rec["checkpoint"] == str(run_dir / "checkpoint_final.bin")
        assert rec["csv"] == str(run_dir / "depth_profile.csv")
        metrics = _metrics_lines(run_dir / "metrics.jsonl")
        assert [m["epoch"] for m in metrics] == [1, 2]
        assert (rec["top1"], rec["top5"]) == (metrics[-1]["top1"], metrics[-1]["top5"])
        header, tensors = load_checkpoint(rec["checkpoint"])
        assert header["config"]["e_switch"] == rec["e_switch"]
        assert any(name.startswith("opt.") for name in tensors)


def test_interpolation_suite_resume_reuses_checkpoints(tmp_path, monkeypatch):
    # resuming a finished suite trains no step and rewrites every setting's
    # files with the same bytes
    cfg = tiny_config(dim=8, num_layers=2, patch_size=4, total_epochs=2, batch_size=128)
    first = run_interpolation_suite(cfg, str(tmp_path))
    before = _dir_bytes(tmp_path)
    train_module = importlib.import_module("convattn.train")
    steps = []
    monkeypatch.setattr(train_module, "_train_step", lambda *args: steps.append(1))
    second = run_interpolation_suite(cfg, str(tmp_path), resume=True)
    assert steps == []
    assert _dir_bytes(tmp_path) == before
    assert len(before) == 3 * len(first)
    assert second == first
