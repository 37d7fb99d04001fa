"""The benchmark's tracer wraps convattn functions by module attribute name.

Entering and leaving ``perfbench/tracer.py``'s Tracer with every convattn
module loaded must not raise, must replace each traced name, and must put
every original back. A rename that would silently stop the benchmark from
measuring a layer fails here first. No training runs.
"""

import importlib
import importlib.util
import os
import pkgutil
import sys

import numpy as np

import convattn

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_tracer_sees_the_attention_layer():
    # one forward and backward of a tiny attention block must reach every
    # span the benchmark reads for the attention layer; a fused node under
    # another name would otherwise report zero calls and no test would fail
    for info in pkgutil.iter_modules(convattn.__path__):
        importlib.import_module(f"convattn.{info.name}")
    blocks, tensor = sys.modules["convattn.blocks"], sys.modules["convattn.tensor"]
    rng = np.random.default_rng(0)
    d, h_t, w_t = 4, 3, 3
    blk = blocks.HybridBlock("sa", None, blocks.AttnMixer.init(d, 9, d, (h_t, w_t), rng),
                             blocks.LayerNormParams(d), blocks.LayerNormParams(d), blocks.Mlp.init(d, 2, rng))
    x = tensor.Tensor(rng.normal(size=(2, h_t, w_t, d)))

    with _load_tracer().Tracer() as tracer:
        g = tensor.Graph()
        with g:
            loss = tensor.sum_(blocks.block_forward(x, blk))
        tensor.backward(loss, g)

    for key in (("blocks.attention_mix", "fwd"), ("blocks.attention_mix", "bwd"),
                ("kernels.attn_probs", "s"), ("kernels.attn_softmax_backward", "s")):
        assert tracer.calls[key] >= 1, f"{key} recorded no call"
