"""The benchmark's tracer wraps convattn functions by module attribute name,
and its child operations call convattn's public entry points.

Entering and leaving ``perfbench/tracer.py``'s Tracer with every convattn
module loaded must not raise, must replace each traced name, and must put
every original back. A rename that would silently stop the benchmark from
measuring a layer fails here first. The train, analyze and sweep operations
of ``perfbench/child.py`` run once each (train for one epoch, the sweep for
one round), so an API change they depend on fails here rather than as a
failed benchmark operation.
"""

import importlib
import importlib.util
import os
import pkgutil
import sys

import numpy as np
import pytest

import convattn
from oracles import sum_

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")

# Module-level names the benchmark wraps or swaps; each must be called
# through its module global.
TRACED = {
    "blocks": ("patch_embed_forward", "conv_mixer_forward", "mhsa_forward", "attention_mix",
               "attn_probs_inplace", "attn_softmax_backward"),
    "train": ("model_forward", "cross_entropy_label_smooth", "load_dataset", "augment_batch", "train",
              "evaluate"),
    "spectral": ("depth_profile",),
    "cli": ("main",),
    "reparam": ("switch_block", "verify_equivalence"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", TRACER)


def test_tracer_patches_every_traced_name_and_restores_it():
    for info in pkgutil.iter_modules(convattn.__path__):
        importlib.import_module(f"convattn.{info.name}")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "convattn" or name.startswith("convattn.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    blocks, optim = modules["convattn.blocks"], modules["convattn.optim"]
    methods = [(blocks.Mlp, "forward"), (blocks.LayerNormParams, "forward"), (optim.AdamW, "step")]
    methods_before = [cls.__dict__[attr] for cls, attr in methods]
    # the benchmark also swaps train.lr_at to mark when the first epoch starts
    assert callable(before["convattn.train"]["lr_at"])

    with _load_tracer().Tracer():
        for short, names in TRACED.items():
            for name in names:
                current = getattr(modules[f"convattn.{short}"], name)
                assert current is not before[f"convattn.{short}"][name], f"convattn.{short}.{name} not wrapped"
        for (cls, attr), original in zip(methods, methods_before):
            assert cls.__dict__[attr] is not original, f"{cls.__name__}.{attr} not wrapped"

    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys()
        for attr, value in before[name].items():
            assert after[attr] is value, f"{name}.{attr} not restored"
    for (cls, attr), original in zip(methods, methods_before):
        assert cls.__dict__[attr] is original


@pytest.mark.parametrize("mixer", ["fresh", "switched"])
def test_tracer_sees_the_attention_layer(mixer):
    # one forward and backward of a tiny attention block must reach every
    # span the benchmark reads for the attention layer; a fused node under
    # another name would otherwise report zero calls and no test would fail.
    # A switched block runs the positional path
    for info in pkgutil.iter_modules(convattn.__path__):
        importlib.import_module(f"convattn.{info.name}")
    blocks, tensor = sys.modules["convattn.blocks"], sys.modules["convattn.tensor"]
    rng = np.random.default_rng(0)
    d, h_t, w_t = 4, 3, 3
    first = blocks.AttnMixer.init(d, 9, d, (h_t, w_t), rng) if mixer == "fresh" else blocks.ConvMixer.init(3, d, rng)
    blk = blocks.HybridBlock(first, blocks.LayerNormParams(d), blocks.LayerNormParams(d), blocks.Mlp.init(d, 2, rng))
    if mixer == "switched":
        sys.modules["convattn.reparam"].switch_block(blk, (h_t, w_t))
    x = tensor.Tensor(rng.normal(size=(2, h_t, w_t, d)))

    with _load_tracer().Tracer() as tracer:
        g = tensor.Graph()
        with g:
            loss = sum_(blocks.block_forward(x, blk))
        tensor.backward(loss, g)

    for key in (("blocks.attention_mix", "fwd"), ("blocks.attention_mix", "bwd"),
                ("kernels.attn_probs", "s"), ("kernels.attn_softmax_backward", "s")):
        assert tracer.calls[key] >= 1, f"{key} recorded no call"


def test_tracer_sees_the_block_tail():
    # the tail (LN2 and the MLP) is one node recorded inside Mlp.forward, and
    # LN1 inside LayerNormParams.forward: a tail recorded under any other
    # name would leave blocks.mlp or blocks.layer_norm at zero calls
    for info in pkgutil.iter_modules(convattn.__path__):
        importlib.import_module(f"convattn.{info.name}")
    blocks, tensor = sys.modules["convattn.blocks"], sys.modules["convattn.tensor"]
    rng = np.random.default_rng(0)
    d = 4
    blk = blocks.HybridBlock(blocks.ConvMixer.init(3, d, rng), blocks.LayerNormParams(d), blocks.LayerNormParams(d),
                             blocks.Mlp.init(d, 2, rng))
    x = tensor.Tensor(rng.normal(size=(2, 3, 3, d)))

    with _load_tracer().Tracer() as tracer:
        g = tensor.Graph()
        with g:
            loss = sum_(blocks.block_forward(x, blk))
        tensor.backward(loss, g)

    for key in (("blocks.mlp", "fwd"), ("blocks.mlp", "bwd"), ("blocks.layer_norm", "fwd"),
                ("blocks.layer_norm", "bwd")):
        assert tracer.calls[key] == 1, f"{key} recorded {tracer.calls[key]} calls, not one"


@pytest.fixture
def child(monkeypatch):
    # child.py imports its tracer as a top-level module from perfbench/
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    yield _load("perfbench_child", os.path.join(PERFBENCH, "child.py"))
    sys.modules.pop("tracer", None)


def test_bench_train_operation_runs(child, tmp_path):
    # cli.main(["train", ...]) with train.load_dataset(config, split) and
    # train.lr_at swapped for the hooks that mark the first epoch and count
    # the training set
    argv = ["train", "--preset", "desk", "--set", "data.dataset=synthetic", "--set", "data.seed=7",
            "--set", "schedule.total_epochs=1", "--out", str(tmp_path)]
    result = child.train_op(argv)
    assert result["exit_code"] == 0
    assert "first_epoch" in result
    assert result["train_images"] == 200  # desk keeps 10% of 10 classes x 200 images


def test_bench_analyze_operation_runs(child, tmp_path):
    # build_model(..., mlp_ratio=, final_ln=), evaluate(path, dataset),
    # fourier --random-batch and reparam-check
    result = child.analyze_op(7, str(tmp_path))
    assert result["fourier_exit_code"] == 0
    assert result["reparam_exit_code"] == 0
    assert result["reparam_report"]["pass"] is True
    assert result["evaluate"]["n"] > 0
    assert os.path.exists(tmp_path / "depth_profile.csv")


def test_bench_sweep_operation_runs(child):
    # backward(..., params=, free_intermediates=) and AdamW.step()/zero_grad();
    # the sweep also sets a stray blk.attn.pad_token_enabled that no code
    # reads, so AttnMixer must keep a __dict__ (no __slots__)
    result = child.sweep(7, rounds=1)
    names = {f"{g}.{k}" for g in child.SWEEP_GEOMETRY for k in child.SWEEP_MODELS}
    assert set(result["losses"]) == names
    assert all(np.isfinite(loss) for loss in result["losses"].values())
    assert all(len(result["step_ms"][name]) == 1 for name in names)
