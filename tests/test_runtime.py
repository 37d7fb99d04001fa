import importlib
import json
import os
import threading
import time

import numpy as np
import pytest

from convattn import runtime
from convattn import tensor as tt
from convattn.blocks import build_model, model_forward
from convattn.checkpoint import load_checkpoint
from convattn.cli import main
from convattn.optim import AdamW
from convattn.tensor import Graph, Tensor, backward
from convattn.train import cross_entropy_label_smooth, train
from test_train import tiny_config

train_module = importlib.import_module("convattn.train")


def tiny_model(seed=0, modes=("conv", "sa")):
    return build_model(8, 2, 3, 8, (32, 32), 3, 4, list(modes), np.random.default_rng(seed), mlp_ratio=2)


def batch(seed, n=16):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 32, 32, 3)).astype(np.float32), rng.integers(0, 4, size=n)


@pytest.fixture
def two_workers(monkeypatch):
    """Shards on two threads, on any machine: a stand-in for OpenBLAS thread
    control where the real one is missing."""
    if runtime._OPENBLAS is None:
        count = [2]
        monkeypatch.setattr(runtime, "_OPENBLAS", (lambda: count[0], lambda n: count.__setitem__(0, n)))
    assert runtime.describe()["workers"] == 2


class RecordingOptimizer:
    def __init__(self):
        self.grads = None

    def step(self, grads):
        self.grads = grads


def checkpoint_tensors(result):
    return load_checkpoint(result.checkpoint_path)[1]


# --------------------------------------------------------------------------
# Shards and the pool


def test_shard_slices_are_contiguous_and_skip_empty(monkeypatch):
    assert runtime.SHARDS == 2
    assert runtime.shard_slices(7) == [slice(0, 3), slice(3, 7)]
    assert runtime.shard_slices(1) == [slice(0, 1)]
    monkeypatch.setattr(runtime, "SHARDS", 1)
    assert runtime.shard_slices(128) == [slice(0, 128)]


def test_run_shards_keeps_order_and_uses_the_caller(two_workers):
    caller = threading.get_ident()
    out = runtime.run_shards(lambda i: (i, threading.get_ident()), list(range(3)))
    assert [i for i, _ in out] == list(range(3))
    threads = [t for _, t in out]
    assert threads[0] == caller  # shard 0 on the caller, the rest on the pool thread
    assert threads[1] == threads[2] != caller


def test_sharded_forward_keeps_dtype_and_leaves_caller_graph_empty(two_workers):
    with tt.using_dtype(np.float64):
        model = tiny_model()
        images = batch(1)[0].astype(np.float64)
        held = Graph()
        with held:
            logits = train_module._sharded_logits(model, images, tiny_config(), prepare=False)
        assert len(held) == 0
        unsharded = model_forward(Tensor(images), model).data
    assert logits.dtype == np.float64
    np.testing.assert_allclose(logits, unsharded, rtol=1e-12, atol=1e-15)


def test_blas_held_at_one_thread_inside_shards_and_restored(two_workers):
    before = runtime.blas_threads()
    inside = runtime.run_shards(lambda _: runtime.blas_threads(), [0, 1])
    assert inside == [1, 1]
    assert runtime.blas_threads() == before


def test_shard_error_reaches_the_caller_after_every_shard_ends(two_workers):
    done = []

    def step(i):
        if i == 1:
            raise RuntimeError("shard 1 failed")
        time.sleep(0.05)  # shard 0 outlasts the failing shard
        done.append(i)

    with pytest.raises(RuntimeError, match="shard 1"):
        runtime.run_shards(step, [0, 1])
    assert done == [0]


# --------------------------------------------------------------------------
# Gradients: a call-owned map, safe across threads


def _shard_loss_and_grads(model, images, labels):
    g = Graph()
    with g:
        loss = cross_entropy_label_smooth(model_forward(Tensor(images), model), labels, 0.1)
    return backward(loss, g)


def test_concurrent_backward_over_shared_parameters():
    model = tiny_model()
    params = [p for _, p in model.named_parameters()]
    batches = [batch(1), batch(2)]
    expected = [_shard_loss_and_grads(model, *b) for b in batches]
    got, errors = [None, None], []
    start = threading.Barrier(2)

    def run(i):
        try:
            start.wait()
            for _ in range(3):
                got[i] = _shard_loss_and_grads(model, *batches[i])
        except BaseException as exc:  # noqa: BLE001  (re-raised below)
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors and not any(t.is_alive() for t in threads)
    for want, have in zip(expected, got):
        assert set(have) == set(want) == set(params)
        for p in params:
            np.testing.assert_array_equal(have[p], want[p])
    assert all(p.grad is None for p in params)


# --------------------------------------------------------------------------
# The sharded step


def test_one_shard_equals_a_direct_step(monkeypatch):
    monkeypatch.setattr(runtime, "SHARDS", 1)
    images, labels = batch(3, n=24)
    direct, sharded = tiny_model(), tiny_model()
    opt_direct, opt_sharded = AdamW(direct.named_parameters()), AdamW(sharded.named_parameters())
    cfg = tiny_config(normalize=False)

    g = Graph()
    with g:
        loss = cross_entropy_label_smooth(model_forward(Tensor(images), direct), labels, cfg.label_smoothing)
    backward(loss, g, params=opt_direct.params.values(), free_intermediates=True)
    opt_direct.step()
    loss_val = train_module._train_step(sharded, opt_sharded, images, labels, cfg, None, None)

    assert loss_val == loss.item()
    for (name, a), (_, b) in zip(direct.named_parameters(), sharded.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        assert b.grad is None


def test_two_shards_match_one_to_float32_rounding(two_workers, monkeypatch):
    images, labels = batch(4, n=23)  # uneven shards of 11 and 12
    model = tiny_model()
    losses, grads = {}, {}
    for shards in (1, 2):
        monkeypatch.setattr(runtime, "SHARDS", shards)
        opt = RecordingOptimizer()
        losses[shards] = train_module._train_step(model, opt, images, labels, tiny_config(), None, None)
        grads[shards] = opt.grads
    assert losses[2] == pytest.approx(losses[1], rel=1e-6)
    assert set(grads[1]) == set(grads[2])
    for p, g1 in grads[1].items():
        np.testing.assert_allclose(grads[2][p], g1, rtol=1e-4, atol=1e-6 * np.abs(g1).max())


def test_two_shards_are_bitwise_repeatable(two_workers, tmp_path):
    cfg = tiny_config(schedule_kind="linear", total_epochs=3)
    runs = [train(cfg, out_dir=str(tmp_path / name)) for name in ("a", "b")]
    assert [m["train_loss"] for m in runs[0].metrics] == [m["train_loss"] for m in runs[1].metrics]
    a, b = (checkpoint_tensors(r) for r in runs)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def test_one_worker_and_two_workers_give_the_same_bits(two_workers, tmp_path, monkeypatch):
    cfg = tiny_config(schedule_kind="linear", total_epochs=3)
    parallel = train(cfg, out_dir=str(tmp_path / "parallel"))
    monkeypatch.setattr(runtime, "_OPENBLAS", None)  # the fallback where thread control is missing
    assert runtime.describe()["workers"] == 1
    sequential = train(cfg, out_dir=str(tmp_path / "sequential"))

    def strip(metrics):
        return [{k: v for k, v in m.items() if k != "epoch_seconds"} for m in metrics]

    assert strip(parallel.metrics) == strip(sequential.metrics)
    a, b = checkpoint_tensors(parallel), checkpoint_tensors(sequential)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


@pytest.mark.parametrize("batch_size", [1, 47])  # every batch holds 1 image; the last of 800 = 17*47 + 1 does
def test_batches_smaller_than_the_shard_count_train(batch_size):
    cfg = tiny_config(schedule_kind="all-conv", total_epochs=1, batch_size=batch_size,
                      fraction=0.25 if batch_size == 1 else 1.0)
    res = train(cfg)
    assert np.isfinite(res.metrics[-1]["train_loss"])


# --------------------------------------------------------------------------
# Manifest


def test_manifest_records_the_runtime(tmp_path):
    out = str(tmp_path / "run")
    code = main(["train", "--set", "data.dataset=synthetic", "--set", "model.dim=8", "--set", "model.num_layers=1",
                 "--set", "model.patch_size=8", "--set", "schedule.total_epochs=1", "--set", "data.fraction=0.1",
                 "--out", out])
    assert code == 0
    rt = json.load(open(os.path.join(out, "manifest.json")))["runtime"]
    control = runtime._OPENBLAS is not None
    assert rt == {"shards": 2, "workers": 2 if control else 1, "blas_thread_control": control,
                  "blas_threads_outside_shards": runtime.blas_threads(),
                  "blas_threads_in_shards": 1 if control else runtime.blas_threads()}
