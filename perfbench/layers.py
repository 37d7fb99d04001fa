"""Metric names and units, and which end-to-end number each layer moves.

Names follow convattn's modules. ``kernels.*`` is the ``_kernels`` module:
metric names must start with a letter or digit.
"""

from __future__ import annotations

from tracer import PLAIN, SPLIT

# Gated end-to-end metrics; every workload reports each of them.
E2E_UNITS = {
    "images_per_s": "1/s",  # training images per training-loop second; on analyze, images evaluated per second
    "run_s": "s",  # launch-to-exit wall time of one operation
    "setup_s": "s",  # launch until the first epoch, or the first timed analysis call
    "peak_rss_mb": "MB",  # peak resident memory of the operation's process
}

SWEEP_CASES = tuple(f"{g}.{m}" for g in ("desk", "interp") for m in ("conv", "fresh_sa", "switched"))


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPLIT:
        units.update({f"{name}.fwd_s": "s", f"{name}.bwd_s": "s", f"{name}.calls": "count"})
    for name in PLAIN:
        units.update({f"{name}.s": "s", f"{name}.calls": "count"})
    units["kernels.attn_probs.subnormal_frac"] = "frac"
    units["tensor.backward.nodes_per_step"] = "count"
    units["checkpoint.save.bytes"] = "bytes"
    units["trace_overhead_frac"] = "frac"
    for case in SWEEP_CASES:
        units.update({f"step_ms.{case}": "ms", f"step_ms.{case}.q1": "ms", f"step_ms.{case}.q3": "ms"})
    return units


# Which end-to-end metric a change to each layer should move, and on which
# workload; written down before any optimisation, so a claimed gain can be
# checked against the layer it names. Keys are metric-name prefixes.
MOVES = {
    "kernels.attn_probs": ("epoch_s.sa, images_per_s", "interp-switched, interp-fresh-sa; desk-linear"),
    "kernels.attn_softmax_backward": ("epoch_s.sa, images_per_s", "interp-switched, interp-fresh-sa; desk-linear"),
    "blocks.attention_mix": ("epoch_s.sa, images_per_s", "interp-switched, interp-fresh-sa; desk-linear"),
    "kernels.attn_probs.subnormal_frac": ("epoch_s.sa", "interp-switched; about 0 on interp-fresh-sa"),
    "blocks.mhsa": ("epoch_s.mixed, epoch_s.sa", "desk-linear"),
    "blocks.conv_mixer": ("epoch_s.conv", "desk-linear; interp-switched early epochs"),
    "blocks.mlp": ("images_per_s", "all training workloads"),
    "blocks.layer_norm": ("images_per_s", "all training workloads"),
    "blocks.patch_embed": ("images_per_s", "all training workloads"),
    "blocks.model_forward": ("images_per_s", "all training workloads"),
    "train.loss": ("images_per_s", "all training workloads"),
    "tensor.backward": ("images_per_s", "desk-linear"),
    "optim.adamw_step": ("images_per_s", "desk-linear conv epochs"),
    "data.augment_batch": ("images_per_s", "desk-linear conv epochs"),
    "data.load_dataset": ("setup_s", "all workloads"),
    "train.eval": ("epoch_s.*", "all training workloads"),
    "train.train": ("images_per_s", "all training workloads"),
    "reparam.switch_block": ("epoch_s.*", "desk-linear, interp-switched"),
    "checkpoint.save": ("run_s", "training workloads; analyze set-up"),
    "checkpoint.load": ("run_s, images_per_s", "analyze"),
    "spectral.depth_profile": ("run_s", "analyze; end of every training run"),
    "reparam.verify_equivalence": ("run_s", "analyze"),
    "train.evaluate": ("images_per_s", "analyze"),
    "cli.main": ("run_s", "all workloads"),
    "step_ms": ("images_per_s", "desk-linear (desk cases), interp-* (interp cases)"),
    "trace_overhead_frac": ("none; tracing cost, reported and not gated", "all workloads"),
}


def moves(name: str) -> tuple[str, str] | None:
    """The MOVES entry of the longest prefix of ``name``, if any."""
    keys = [k for k in MOVES if name == k or name.startswith(k + ".")]
    return MOVES[max(keys, key=len)] if keys else None
