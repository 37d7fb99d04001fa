"""One benchmark operation, run in its own process by ``run.py``.

Usage: ``python3 perfbench/child.py SPEC.json`` with ``src/`` on PYTHONPATH.
The spec names the operation (``train``, ``analyze`` or ``sweep``), its
inputs and where to write the result JSON. Everything here calls convattn
through its public entry points; the only hooks in an untraced run note the
monotonic time of the first epoch and the training-set size, one call each
per epoch or run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import numpy as np

from tracer import ROOT, Tracer


@contextlib.contextmanager
def _train_hooks(marks: dict):
    train = sys.modules["convattn.train"]
    lr_at, load_dataset = train.lr_at, train.load_dataset

    def first_epoch_lr_at(*args, **kwargs):
        marks.setdefault("first_epoch", time.monotonic())
        return lr_at(*args, **kwargs)

    def sized_load_dataset(config, split):
        ds = load_dataset(config, split)
        if split == "train":
            marks["train_images"] = len(ds)
        return ds

    train.lr_at, train.load_dataset = first_epoch_lr_at, sized_load_dataset
    try:
        yield
    finally:
        train.lr_at, train.load_dataset = lr_at, load_dataset


@contextlib.contextmanager
def _maybe_traced(trace: bool, result: dict):
    if not trace:
        yield
        return
    tracer = Tracer()
    with tracer:
        tracer.open(ROOT)
        try:
            yield
        finally:
            tracer.close()
    result["layers"] = tracer.layer_metrics()
    result["trace_wall_s"] = tracer.wall_s
    result["trace_self_total_s"] = tracer.self_total()
    result["open_spans"] = len(tracer.stack)


def train_op(argv: list[str], trace: bool = False) -> dict:
    """``convattn train ARGV`` in this process; returns exit code and marks."""
    import convattn.cli  # noqa: F401  (loads every module the tracer patches)

    result: dict = {}
    marks: dict = {}
    with _maybe_traced(trace, result), _train_hooks(marks):
        result["exit_code"] = sys.modules["convattn.cli"].main(argv)
    result.update(marks)
    return result


def analyze_op(seed: int, out_dir: str, trace: bool = False) -> dict:
    """Read-only use of a switched interp checkpoint.

    Set-up builds the checkpoint (build_model, switch_block on every layer,
    save_checkpoint) and the synthetic test set. The timed part evaluates
    the checkpoint, runs ``convattn fourier`` on it and ``convattn
    reparam-check`` at the same geometry.
    """
    import convattn.cli  # noqa: F401

    config_mod = sys.modules["convattn.config"]
    result: dict = {}
    with _maybe_traced(trace, result):
        train = sys.modules["convattn.train"]
        cli = sys.modules["convattn.cli"]
        blocks = sys.modules["convattn.blocks"]
        reparam = sys.modules["convattn.reparam"]
        checkpoint = sys.modules["convattn.checkpoint"]
        mapping = config_mod.apply_overrides(config_mod.load_preset("interp"), [
            "data.dataset=synthetic", f"data.seed={seed}", "data.eval_fraction=1.0"])
        config = config_mod.build_train_config(mapping)
        model = blocks.build_model(config.dim, config.num_layers, config.kernel_size, config.patch_size,
                                   config.image_hw, config.in_channels, config.num_classes,
                                   ["conv"] * config.num_layers, np.random.default_rng(seed),
                                   mlp_ratio=config.mlp_ratio, final_ln=config.final_ln)
        for blk in model.blocks:
            reparam.switch_block(blk, config.grid_hw(), beta=config.beta_spike)
        os.makedirs(out_dir, exist_ok=True)
        ckpt = os.path.join(out_dir, "switched.bin")
        checkpoint.save_checkpoint(ckpt, model, config.to_dict(), config.total_epochs, [])
        test_set = train.load_dataset(config, "test")

        result["timed_start"] = time.monotonic()
        t0 = time.perf_counter()
        result["evaluate"] = train.evaluate(ckpt, test_set)
        t1 = time.perf_counter()
        result["fourier_exit_code"] = cli.main(["fourier", "--checkpoint", ckpt, "--random-batch", "256",
                                                "--out", out_dir])
        t2 = time.perf_counter()
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            result["reparam_exit_code"] = cli.main(["reparam-check", "--dim", "16", "--grid", "8x8",
                                                    "--seed", str(seed)])
        t3 = time.perf_counter()
    result["reparam_report"] = json.loads(report.getvalue())
    result.update(eval_s=t1 - t0, fourier_s=t2 - t1, reparam_check_s=t3 - t2, analyze_s=t3 - t0)
    return result


SWEEP_GEOMETRY = {
    # name: (dim, layers, patch size) on 32x32 images, K=3 so 9 heads
    "desk": (32, 4, 8),
    "interp": (16, 2, 4),
}
SWEEP_MODELS = ("conv", "fresh_sa", "switched")


def _sweep_model(geometry: str, kind: str, rng):
    from convattn.blocks import build_model
    from convattn.reparam import switch_block

    dim, layers, patch = SWEEP_GEOMETRY[geometry]
    modes = ["sa" if kind == "fresh_sa" else "conv"] * layers
    model = build_model(dim, layers, 3, patch, (32, 32), 3, 10, modes, rng)
    grid = (32 // patch, 32 // patch)
    for blk in model.blocks:
        if kind == "switched":
            switch_block(blk, grid)
        elif kind == "fresh_sa":
            blk.attn.pad_token_enabled = False  # as training builds fresh attention
    return model


def sweep(seed: int, rounds: int, batch: int = 128) -> dict:
    """Milliseconds per isolated training step (forward, backward, AdamW).

    Every model steps once untimed, then the six models take turns for
    ``rounds`` timed steps each, so a burst of machine noise spreads over
    all of them rather than landing on one.
    """
    from convattn.optim import AdamW
    from convattn.tensor import Graph, Tensor, backward
    from convattn.train import cross_entropy_label_smooth
    from convattn.blocks import model_forward

    rng = np.random.default_rng(seed)
    cases = {}
    for geometry in SWEEP_GEOMETRY:
        for kind in SWEEP_MODELS:
            model = _sweep_model(geometry, kind, rng)
            cases[f"{geometry}.{kind}"] = (model, AdamW(model.named_parameters()))
    images = Tensor(rng.standard_normal((batch, 32, 32, 3)))
    labels = rng.integers(0, 10, size=batch)

    def step(model, opt):
        params = list(opt.params.values())
        g = Graph()
        with g:
            loss = cross_entropy_label_smooth(model_forward(images, model), labels, 0.1)
        backward(loss, g, params=params, free_intermediates=True)
        opt.step()
        opt.zero_grad()
        return loss.item()

    samples: dict[str, list[float]] = {name: [] for name in cases}
    losses = {}
    for name, (model, opt) in cases.items():
        losses[name] = step(model, opt)
    for _ in range(rounds):
        for name, (model, opt) in cases.items():
            t0 = time.perf_counter()
            losses[name] = step(model, opt)
            samples[name].append(1000.0 * (time.perf_counter() - t0))
    return {"step_ms": samples, "losses": losses}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec["kind"] == "train":
        result = train_op(spec["argv"], spec["trace"])
    elif spec["kind"] == "analyze":
        result = analyze_op(spec["seed"], spec["out_dir"], spec["trace"])
    else:
        result = sweep(spec["seed"], spec["rounds"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
