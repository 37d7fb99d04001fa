import math
import os

import numpy as np
import pytest

from convattn import tensor as tt
from convattn.blocks import model_forward
from convattn.checkpoint import (
    CheckpointError,
    load_checkpoint,
    model_from_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from convattn.optim import AdamW, lr_at
from convattn.schedule import mode_at
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
    cfg = tiny_config()
    res = train(cfg)
    ds = load_dataset(tiny_config(num_classes=4, seed=5), "test")
    ds.num_classes = 11
    with pytest.raises(ValueError, match="classes"):
        evaluate(res.model, ds, cfg)


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


def test_switch_events_and_loss_continuity():
    cfg = tiny_config(schedule_kind="linear", total_epochs=6)
    res = train(cfg)
    assert len(res.switch_events) == 2  # one per layer
    for ev in res.switch_events:
        rel = abs(ev["loss_after"] - ev["loss_before"]) / ev["loss_before"]
        assert rel < 1e-4, ev
    sched = cfg.schedule()
    for m in res.metrics:
        assert m["modes"] == [mode_at(sched, m["epoch"], l) for l in (1, 2)]


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


def test_interpolation_suite_resume_reuses_checkpoints(tmp_path):
    cfg = tiny_config(dim=8, num_layers=2, patch_size=4, total_epochs=2, batch_size=128)
    first = run_interpolation_suite(cfg, str(tmp_path))
    stamps = {r["checkpoint"]: os.path.getmtime(r["checkpoint"]) for r in first}
    second = run_interpolation_suite(cfg, str(tmp_path), resume=True)
    for rec in second:
        assert os.path.getmtime(rec["checkpoint"]) == stamps[rec["checkpoint"]]
