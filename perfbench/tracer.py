"""Span tracer that wraps convattn's public functions from the outside.

Nothing under ``src/`` knows about it. :class:`Tracer` replaces each traced
function in every loaded ``convattn`` module that holds a reference to it
(``from .x import f`` copies the reference, so patching the defining module
alone would miss most callers), and puts the originals back on exit.

Each span records its self time: its duration minus the time covered by the
spans it encloses. Backward time belongs to the layer whose forward span
recorded the tape node; the tracer wraps the backward closure handed to
``convattn.tensor.record`` while that span is the innermost one open.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layers with a differentiable forward; they report fwd_s and bwd_s.
SPLIT = (
    "blocks.patch_embed",
    "blocks.layer_norm",
    "blocks.conv_mixer",
    "blocks.mhsa",
    "blocks.attention_mix",
    "blocks.mlp",
    "blocks.model_forward",
    "train.loss",
)

# Layers without a backward part; they report s.
PLAIN = (
    "cli.main",
    "train.train",
    "train.evaluate",
    "train.eval",
    "data.load_dataset",
    "data.augment_batch",
    "kernels.attn_probs",
    "kernels.attn_softmax_backward",
    "tensor.backward",
    "optim.adamw_step",
    "reparam.switch_block",
    "reparam.verify_equivalence",
    "checkpoint.save",
    "checkpoint.load",
    "spectral.depth_profile",
)

ROOT = "op"  # the whole traced operation; its self time is untraced work
COUNT = "count"  # time spent counting subnormals, kept out of every layer

_TINY = np.finfo(np.float32).tiny


def _mod(name: str):
    return importlib.import_module(f"convattn.{name}")


class _Frame:
    __slots__ = ("key", "start", "child")

    def __init__(self, key, start):
        self.key = key
        self.start = start
        self.child = 0.0


class Tracer:
    """Context manager: patches on enter, restores on exit, keeps the spans."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, phase: str = "s") -> None:
        self.stack.append(_Frame((name, phase), time.perf_counter()))

    def close(self) -> None:
        end = time.perf_counter()
        frame = self.stack.pop()
        dur = end - frame.start
        self.self_s[frame.key] += dur - frame.child
        self.calls[frame.key] += 1
        if self.stack:
            self.stack[-1].child += dur
        else:
            self.wall_s += dur

    def _exclude(self, seconds: float) -> None:
        """Book ``seconds`` of tracer work outside every layer's self time."""
        self.self_s[(COUNT, "s")] += seconds
        if self.stack:
            self.stack[-1].child += seconds

    def _innermost(self) -> str | None:
        return self.stack[-1].key[0] if self.stack else None

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, phase="s"):
        def wrapper(*args, **kwargs):
            self.open(name, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def _bwd(self, fn, name):
        def bwd(g):
            self.open(name, "bwd")
            try:
                return fn(g)
            finally:
                self.close()

        return bwd

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "convattn" and not modname.startswith("convattn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self) -> "Tracer":
        blocks, tensor, train, cli = _mod("blocks"), _mod("tensor"), _mod("train"), _mod("cli")
        plain = {
            cli.main: "cli.main",
            train.train: "train.train",
            train.evaluate: "train.evaluate",
            train.load_dataset: "data.load_dataset",
            train.augment_batch: "data.augment_batch",
            blocks.attn_softmax_backward: "kernels.attn_softmax_backward",
            _mod("reparam").switch_block: "reparam.switch_block",
            _mod("reparam").verify_equivalence: "reparam.verify_equivalence",
            _mod("checkpoint").load_checkpoint: "checkpoint.load",
            _mod("spectral").depth_profile: "spectral.depth_profile",
        }
        split = {
            blocks.patch_embed_forward: "blocks.patch_embed",
            blocks.conv_mixer_forward: "blocks.conv_mixer",
            blocks.mhsa_forward: "blocks.mhsa",
            blocks.attention_mix: "blocks.attention_mix",
            train.cross_entropy_label_smooth: "train.loss",
        }
        for fn, name in plain.items():
            self._patch_everywhere(fn, self._span(fn, name))
        for fn, name in split.items():
            self._patch_everywhere(fn, self._span(fn, name, "fwd"))
        adamw = _mod("optim").AdamW
        self._patch_method(adamw, "step", self._span(adamw.step, "optim.adamw_step"))
        self._patch_method(blocks.Mlp, "forward", self._span(blocks.Mlp.forward, "blocks.mlp", "fwd"))
        self._patch_method(blocks.LayerNormParams, "forward",
                           self._span(blocks.LayerNormParams.forward, "blocks.layer_norm", "fwd"))
        self._patch_everywhere(blocks.attn_probs_inplace, self._attn_probs(blocks.attn_probs_inplace))
        self._patch_everywhere(train.model_forward, self._model_forward(train.model_forward, tensor))
        self._patch_everywhere(tensor.backward, self._backward(tensor.backward))
        self._patch_everywhere(tensor.record, self._record(tensor.record, tensor))
        save = _mod("checkpoint").save_checkpoint
        self._patch_everywhere(save, self._save(save))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _record(self, record, tensor):
        def traced_record(out, inputs, backward_fn):
            name = self._innermost()
            if name in SPLIT and tensor._active_graph() is not None:
                backward_fn = self._bwd(backward_fn, name)
            return record(out, inputs, backward_fn)

        return traced_record

    def _model_forward(self, model_forward, tensor):
        def traced_model_forward(*args, **kwargs):
            # forward with no active tape is evaluation (per-epoch eval, switch probes)
            if tensor._active_graph() is None:
                self.open("train.eval")
            else:
                self.open("blocks.model_forward", "fwd")
            try:
                return model_forward(*args, **kwargs)
            finally:
                self.close()

        return traced_model_forward

    def _attn_probs(self, attn_probs):
        def traced_attn_probs(p, grid, pad):
            self.open("kernels.attn_probs")
            try:
                p_pad = attn_probs(p, grid, pad)
            finally:
                self.close()
            t0 = time.perf_counter()
            self.counters["attn_probs.subnormal"] += int(np.count_nonzero(p < _TINY)) - int(np.count_nonzero(p == 0))
            self.counters["attn_probs.elements"] += p.size
            self._exclude(time.perf_counter() - t0)
            return p_pad

        return traced_attn_probs

    def _backward(self, backward):
        def traced_backward(loss, graph, *args, **kwargs):
            self.counters["backward.nodes"] += len(graph)
            self.open("tensor.backward")
            try:
                return backward(loss, graph, *args, **kwargs)
            finally:
                self.close()

        return traced_backward

    def _save(self, save):
        def traced_save(path, *args, **kwargs):
            self.open("checkpoint.save")
            try:
                save(path, *args, **kwargs)
            finally:
                self.close()
            self.counters["checkpoint.bytes"] += os.path.getsize(path)

        return traced_save

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of this trace, keyed by the benchmark's names."""
        out: dict[str, float] = {}
        for name in SPLIT:
            out[f"{name}.fwd_s"] = self.self_s.get((name, "fwd"), 0.0)
            out[f"{name}.bwd_s"] = self.self_s.get((name, "bwd"), 0.0)
            out[f"{name}.calls"] = self.calls.get((name, "fwd"), 0)
        for name in PLAIN:
            out[f"{name}.s"] = self.self_s.get((name, "s"), 0.0)
            out[f"{name}.calls"] = self.calls.get((name, "s"), 0)
        elements = self.counters["attn_probs.elements"]
        out["kernels.attn_probs.subnormal_frac"] = (
            self.counters["attn_probs.subnormal"] / elements if elements else 0.0)
        steps = self.calls.get(("tensor.backward", "s"), 0)
        out["tensor.backward.nodes_per_step"] = self.counters["backward.nodes"] / steps if steps else 0.0
        out["checkpoint.save.bytes"] = self.counters["checkpoint.bytes"]
        return out

    def self_total(self) -> float:
        """Sum of every span's self time; equals ``wall_s`` when spans nest."""
        return float(sum(self.self_s.values()))
