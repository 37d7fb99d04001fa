import importlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from convattn import blocks, runtime
from convattn import tensor as tt
from convattn.blocks import build_model, model_forward, model_forward_features
from convattn.checkpoint import load_checkpoint
from convattn.cli import main
from convattn.optim import AdamW
from convattn.tensor import Graph, Tensor, backward
from convattn.train import cross_entropy_label_smooth, train
from test_train import tiny_config

train_module = importlib.import_module("convattn.train")

GLIBC = platform.libc_ver()[0] == "glibc"


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
            parts = runtime.run_shards(lambda s: model_forward(Tensor(images[s]), model).data,
                                       runtime.shard_slices(len(images)))
        assert len(held) == 0
        unsharded = model_forward(Tensor(images), model).data
    logits = np.concatenate(parts)
    assert logits.dtype == np.float64
    np.testing.assert_allclose(logits, unsharded, rtol=1e-12, atol=1e-15)


def test_run_shards_of_nothing_is_empty(two_workers):
    assert runtime.run_shards(lambda s: 1 / 0, []) == []


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


class Stop(BaseException):
    pass


def _raise_stop(signum, frame):
    raise Stop()


def test_signal_waits_for_the_pool_thread_to_end_its_shards(two_workers):
    main_thread, events = threading.get_ident(), []

    def step(i):
        if i == 1:
            time.sleep(0.1)  # the caller is waiting by now
            signal.pthread_kill(main_thread, signal.SIGINT)
            time.sleep(0.1)
            events.append("shard 1 done")

    previous = signal.signal(signal.SIGINT, _raise_stop)
    try:
        with pytest.raises(Stop):
            try:
                runtime.run_shards(step, [0, 1])
            finally:
                events.append("left the region")
    finally:
        signal.signal(signal.SIGINT, previous)
    assert events == ["shard 1 done", "left the region"]
    assert runtime.run_shards(lambda i: i, [0, 1]) == [0, 1]


# --------------------------------------------------------------------------
# The model forward owns tape-free sharding


@pytest.fixture
def shard_calls(monkeypatch):
    """The shard lists ``blocks._forward`` hands to ``run_shards``."""
    calls = []

    def spy(fn, shards):
        calls.append(list(shards))
        return runtime.run_shards(fn, shards)

    monkeypatch.setattr(blocks, "run_shards", spy)
    return calls


@pytest.mark.parametrize("n", [0, 1, 7])
def test_tape_free_forward_splits_batches_of_two_or_more(two_workers, shard_calls, n):
    model = tiny_model()
    images = batch(1, n=n)[0]
    logits = model_forward(Tensor(images), model)
    assert logits.shape == (n, model.num_classes)
    assert shard_calls == ([runtime.shard_slices(n)] if n >= 2 else [])
    with Graph():
        whole = model_forward(Tensor(images), model)
    np.testing.assert_allclose(logits.data, whole.data, rtol=1e-5, atol=1e-6)


def test_sharded_forward_features_concatenate_in_shard_order(two_workers, shard_calls):
    model = tiny_model()
    images = batch(2, n=7)[0]
    logits, maps = model_forward_features(Tensor(images), model, tap="pre-residual")
    assert len(shard_calls) == 1 and len(maps) == model.num_layers
    for s in runtime.shard_slices(len(images)):
        part_logits, part_maps = blocks._forward_whole(Tensor(images[s]), model, "pre-residual")
        np.testing.assert_allclose(logits.data[s], part_logits.data, rtol=1e-5, atol=1e-6)
        for full, part in zip(maps, part_maps):
            np.testing.assert_allclose(full.data[s], part.data, rtol=1e-5, atol=1e-6)


def test_float64_forward_reaches_the_shards(two_workers, monkeypatch):
    seen = []
    whole = blocks._forward_whole

    def spy(images, *rest):
        seen.append((tt.default_dtype(), images.data.dtype))
        return whole(images, *rest)

    monkeypatch.setattr(blocks, "_forward_whole", spy)
    with tt.using_dtype(np.float64):
        model = tiny_model()
        images = batch(1)[0].astype(np.float64)
        logits = model_forward(Tensor(images), model)
        with Graph():
            taped = model_forward(Tensor(images), model)
    assert seen == [(np.float64, np.dtype(np.float64))] * 3  # two shards, then the taped forward
    assert logits.data.dtype == np.float64
    np.testing.assert_allclose(logits.data, taped.data, rtol=1e-12, atol=1e-15)


def test_taped_forward_records_onto_the_caller_graph_unsharded(two_workers, monkeypatch):
    def no_shards(fn, shards):
        raise AssertionError("a taped forward must not shard")

    monkeypatch.setattr(blocks, "run_shards", no_shards)
    model = tiny_model()
    images, labels = batch(1)
    g = Graph()
    with g:
        loss = cross_entropy_label_smooth(model_forward(Tensor(images), model), labels, 0.1)
    assert len(g) > 0
    grads = backward(loss, g)
    assert set(grads) == {p for _, p in model.named_parameters()}


# A region opened inside a shard must not wait on the pool thread it may be
# running on. Checked in a child process: a deadlock there is killed at the
# timeout, where in this process it would hold the pool thread for every
# later test.
_NESTED = """
import threading
import numpy as np
from convattn import runtime
from convattn.blocks import build_model
from convattn.spectral import depth_profile
from convattn.tensor import Tensor
from convattn.train import TrainConfig, evaluate, load_dataset

if runtime._OPENBLAS is None:  # the two_workers stand-in
    count = [2]
    runtime._OPENBLAS = (lambda: count[0], lambda n: count.__setitem__(0, n))

def outer(_):
    return threading.get_ident(), runtime.run_shards(lambda j: (j, threading.get_ident()), [0, 1, 2])

for thread, inner in runtime.run_shards(outer, [0, 1]):
    assert inner == [(j, thread) for j in range(3)], inner

cfg = TrainConfig(dim=8, num_layers=2, patch_size=8, num_classes=4, dataset="synthetic", seed=0)
model = build_model(8, 2, 3, 8, (32, 32), 3, 4, ["conv", "sa"], np.random.default_rng(0), mlp_ratio=2)
ds = load_dataset(cfg, "test")
images = Tensor(ds.images[:16])

def both():
    return depth_profile(model, images).deltas, evaluate(model, ds, cfg)

top = both()
assert runtime.run_shards(lambda _: both(), [0, 1]) == [top, top]
print("nested ok")
"""


def test_regions_nested_in_shards_run_inline_and_match_the_top_level():
    src = os.path.dirname(os.path.dirname(runtime.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        done = subprocess.run([sys.executable, "-c", _NESTED], env=env, capture_output=True, text=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail("no result after 120 s: a shard region nested in a shard deadlocked")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "nested ok"


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
    loss_val = train_module._train_step(sharded, opt_sharded, images, labels, cfg)

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
        losses[shards] = train_module._train_step(model, opt, images, labels, tiny_config())
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
    thresholds = {"M_TRIM_THRESHOLD": 256 << 20, "M_MMAP_THRESHOLD": 64 << 20} if GLIBC else {}
    assert rt == {"shards": 2, "workers": 2 if control else 1, "blas_thread_control": control,
                  "blas_threads_outside_shards": runtime.blas_threads(),
                  "blas_threads_in_shards": 1 if control else runtime.blas_threads(),
                  "malloc_thresholds": thresholds}


# --------------------------------------------------------------------------
# The allocator


# Bytes glibc holds in mmapped chunks, before and after a 16 MiB array is
# allocated, in a fresh process that imports convattn first or not at all.
_MMAPPED = """
import ctypes, sys
if sys.argv[1] == "convattn":
    import convattn
import numpy as np

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL("libc.so.6").mallinfo2
mallinfo2.argtypes, mallinfo2.restype = [], MallInfo2
before = mallinfo2().hblkhd
block = np.ones(16 << 20, dtype=np.uint8)
print(before, mallinfo2().hblkhd)
"""


@pytest.mark.skipif(not GLIBC, reason="the malloc thresholds are set on glibc only")
@pytest.mark.skipif(GLIBC and tuple(map(int, platform.libc_ver()[1].split(".")[:2])) < (2, 33),
                    reason="mallinfo2 needs glibc 2.33")
@pytest.mark.parametrize("imported, mapped", [("convattn", 0), ("numpy", 16 << 20)])
def test_import_keeps_multi_mib_arrays_in_the_heap(imported, mapped):
    src = os.path.dirname(os.path.dirname(runtime.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _MMAPPED, imported], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    before, after = map(int, done.stdout.split())
    assert mapped <= after - before < mapped + (1 << 20)
