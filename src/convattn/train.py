"""Training loop with scheduled conv-to-attention switching.

Switches happen at epoch boundaries, rear layer first, before the first
batch of the epoch whose schedule condition flipped. Each switch logs the
fixed probe-batch loss immediately before and after the weight transfer, so
function preservation is auditable from the metric stream. Parameters
created by a switch get fresh optimizer moments; everything else keeps its
state.

Data parallelism: each batch is split into ``runtime.SHARDS`` contiguous
shards that run forward and backward concurrently over the same model
(:mod:`convattn.runtime`). Their gradients are summed in shard order, each
weighted by its share of the batch, which is the gradient of the batch-mean
loss; AdamW then takes one step. Evaluation and switch probes are tape-free
forwards, which ``model_forward`` splits into shards itself.

Determinism: per-epoch shuffle and augmentation generators are derived
statelessly from (seed, epoch), so a resumed run consumes exactly the same
random streams as an uninterrupted one. The bits depend on the shard count,
not on how many threads the shards get; one shard is the unsharded step.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .blocks import Model, model_forward
from .checkpoint import (config_from_checkpoint, load_checkpoint, model_from_checkpoint, restore_optimizer,
                         save_checkpoint, write_file)
from .config import ConfigError, TrainConfig
from .data import NORM_STATS, Dataset, augment_batch, load_cifar, make_synthetic
from .optim import AdamW, lr_at
from .reparam import switch_block
from .runtime import run_shards, shard_slices
from .schedule import CONV, SA, interpolation_settings, mode_at, switch_epochs
from .spectral import DepthProfile, depth_profile, populated_targets, require_targets, write_depth_profile_csv
from .tensor import Graph, Tensor, backward, record

__all__ = [
    "TrainConfig",
    "TrainResult",
    "DivergenceError",
    "cross_entropy_label_smooth",
    "train",
    "evaluate",
    "topk_hits",
    "run_interpolation_suite",
    "load_dataset",
    "probe_batch",
]


@dataclass
class TrainResult:
    metrics: list[dict]
    model: Model
    optimizer: AdamW
    checkpoint_path: str | None = None
    metrics_path: str | None = None
    profile_path: str | None = None
    profile: DepthProfile | None = None

    @property
    def switch_events(self) -> list[dict]:
        """Every switch of the run in order, read from the epoch records."""
        return [ev for m in self.metrics for ev in m.get("switches", [])]


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss; ``epoch`` records where."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


# --------------------------------------------------------------------------
# Loss


def cross_entropy_label_smooth(logits: Tensor, labels: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy against a label-smoothed target distribution."""
    b, c = logits.shape
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(b)
    nll = -((1.0 - smoothing) * logp[rows, labels] + (smoothing / c) * logp.sum(axis=1))
    out = Tensor(nll.mean())

    def bwd(g):
        q = np.full((b, c), smoothing / c, dtype=logp.dtype)
        q[rows, labels] += 1.0 - smoothing
        return ((g * (np.exp(logp) - q) / b),)

    return record(out, (logits,), bwd)


# --------------------------------------------------------------------------
# Data plumbing


def load_dataset(config: TrainConfig, split: str) -> Dataset:
    fraction = config.fraction if split == "train" else config.eval_fraction
    if config.dataset == "synthetic":
        n = 200 if split == "train" else 50
        return make_synthetic(config.num_classes, n_per_class=n, image_hw=config.image_hw,
                              channels=config.in_channels, seed=config.seed, split=split, fraction=fraction)
    return load_cifar(config.data_dir, config.dataset, split, fraction=fraction, seed=config.seed)


def _norm_stats(config: TrainConfig, image_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std, repeated over a whole [H, W, C] image: a
    3-float operand along the innermost axis would run numpy's inner loop 3
    elements at a time."""
    mean, std = NORM_STATS[config.dataset]
    return tuple(np.ascontiguousarray(np.broadcast_to(np.asarray(v, dtype=np.float32), image_shape))
                 for v in (mean, std))


def _prepare(images: np.ndarray, config: TrainConfig) -> np.ndarray:
    if config.normalize:
        mean, std = _norm_stats(config, images.shape[1:])
        out = images - mean
        out /= std  # in place: a batch-sized temporary fewer
        return out
    return images


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *tags)))


_TAG_INIT, _TAG_SHUFFLE, _TAG_AUG = 1, 2, 3


# --------------------------------------------------------------------------
# Evaluation


def topk_hits(logits: np.ndarray, labels: np.ndarray, k: int = 5) -> tuple[int, int]:
    """(top-1 hits, top-k hits); ties resolved toward the lower class index."""
    order = np.argsort(-logits, axis=1, kind="stable")
    top1 = int((order[:, 0] == labels).sum())
    topk = int((order[:, :k] == labels[:, None]).any(axis=1).sum())
    return top1, topk


def _eval_model(model: Model, images: np.ndarray, labels: np.ndarray, config: TrainConfig,
                batch_size: int = 256) -> tuple[float, float]:
    hits1 = hits5 = 0
    for start in range(0, len(labels), batch_size):
        logits = model_forward(Tensor(_prepare(images[start : start + batch_size], config)), model)
        h1, h5 = topk_hits(logits.data, labels[start : start + batch_size])
        hits1 += h1
        hits5 += h5
    n = len(labels)
    return 100.0 * hits1 / n, 100.0 * hits5 / n


def evaluate(model_or_path, dataset: Dataset, config: TrainConfig | None = None,
             batch_size: int = 256) -> dict:
    """Top-1/top-5 accuracy of a model or checkpoint on a dataset. A checkpoint
    carries its config; a Model needs the ``config`` that prepares its images."""
    if isinstance(model_or_path, Model):
        model = model_or_path
        if config is None:
            raise ValueError("evaluate needs the model's TrainConfig as config to prepare the images")
    else:
        header, tensors = load_checkpoint(model_or_path)
        model, config = model_from_checkpoint(header, tensors), config_from_checkpoint(header)
    if model.num_classes != dataset.num_classes:
        raise ValueError(f"model has {model.num_classes} classes, dataset has {dataset.num_classes}")
    top1, top5 = _eval_model(model, dataset.images, dataset.labels, config, batch_size)
    return {"top1": top1, "top5": top5, "n": len(dataset)}


def _probe_loss(model: Model, images: np.ndarray, labels: np.ndarray, config: TrainConfig) -> float:
    logits = model_forward(Tensor(images), model)
    return cross_entropy_label_smooth(logits, labels, config.label_smoothing).item()


# --------------------------------------------------------------------------
# Probes: the switch-loss batch and the Fourier lens see what training sees


def probe_batch(config: TrainConfig, images: np.ndarray, count: int = 256) -> np.ndarray:
    """The first ``count`` images, prepared as training prepares a batch."""
    if count < 1:
        raise ValueError(f"a probe batch needs at least 1 image, got {count}")
    return _prepare(images[:count], config)


# --------------------------------------------------------------------------
# Training


# Fields a resumed run must share with the run that wrote the checkpoint: the
# architecture comes from the checkpoint, the schedule from the caller.
_RESUME_FIELDS = ("num_layers", "total_epochs", "schedule_kind", "e_switch", "image_hw", "patch_size")


def _check_resume_config(header: dict, config: TrainConfig) -> None:
    """Refuse a checkpoint that disagrees with ``config`` on a resume field,
    or whose layer modes are not the schedule's at its epoch. A fresh run
    follows the schedule by construction, so this is the one place modes
    are checked."""
    saved, current = config_from_checkpoint(header).to_dict(), config.to_dict()
    for name in _RESUME_FIELDS:
        if saved[name] != current[name]:
            raise ConfigError(f"resume checkpoint has {name}={saved[name]!r} "
                              f"but the config has {name}={current[name]!r}")
    sched, epoch = config.schedule(), header["epoch"]
    for layer, mode in enumerate(header["modes"], start=1):
        expected = mode_at(sched, epoch, layer)
        if mode != expected:
            raise ConfigError(f"resume checkpoint has layer {layer} in mode {mode!r} "
                              f"but the schedule expects {expected!r} at epoch {epoch}")


def _check_kernel_fits(config: TrainConfig) -> None:
    """Refuse a schedule that switches a layer whose kernel reaches past the
    token grid, where the attention rewrite has no bias entry for an offset."""
    (h_t, w_t), half = config.grid_hw(), config.kernel_size // 2
    if half >= min(h_t, w_t) and switch_epochs(config.schedule()):
        raise ConfigError(f"a K={config.kernel_size} kernel needs both grid sides above {half} for a layer "
                          f"to switch, got {h_t}x{w_t}")


def _train_step(model: Model, optimizer: AdamW, images: np.ndarray, labels: np.ndarray,
                config: TrainConfig) -> float:
    """One AdamW step on the mean loss of a raw (augmented) batch, computed
    in concurrent shards; returns the loss.

    Shard i of n_i images contributes n_i/n of its gradient, summed in
    shard order. A non-finite loss skips the step and is returned as is.
    """
    def shard_step(s):
        g = Graph()
        with g:
            logits = model_forward(Tensor(_prepare(images[s], config)), model)
            loss = cross_entropy_label_smooth(logits, labels[s], config.label_smoothing)
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            return loss_val, None
        return loss_val, backward(loss, g, free_intermediates=True)

    slices = shard_slices(len(labels))
    weights = [(s.stop - s.start) / len(labels) for s in slices]  # one shard: 1.0, an exact product
    results = run_shards(shard_step, slices)
    loss_val = sum(w * loss for w, (loss, _) in zip(weights, results))
    if np.isfinite(loss_val):
        grads = {}
        for w, (_, shard_grads) in zip(weights, results):
            for p, g in shard_grads.items():
                acc = grads.get(p)
                grads[p] = w * g if acc is None else acc + w * g
        optimizer.step(grads)
    return loss_val


def _write_metrics(path: str, records: list[dict]) -> None:
    """Rewrite ``path`` atomically with every record, one JSON object a line."""
    write_file(path, (f"{json.dumps(m, sort_keys=True)}\n".encode("utf-8") for m in records))


def train(config: TrainConfig, out_dir: str | None = None, resume_from: str | None = None) -> TrainResult:
    """Train under the config's schedule.

    With ``out_dir``, ``metrics.jsonl`` there gets each epoch's record as
    soon as the epoch ends (a resumed run first writes the checkpoint's
    history), so a run that dies keeps every finished epoch. The final
    checkpoint and, if the grid populates a target frequency,
    ``depth_profile.csv`` of the first 256 test images follow the last epoch.
    """
    _check_kernel_fits(config)
    sched = config.schedule()
    grid_hw = config.grid_hw()

    metrics, start_epoch = [], 1
    if resume_from is not None:
        header, tensors = load_checkpoint(resume_from)
        _check_resume_config(header, config)
        model = model_from_checkpoint(header, tensors)
        metrics, start_epoch = list(header["metric_history"]), header["epoch"] + 1
    else:
        model = config.build_model([mode_at(sched, 1, layer) for layer in range(1, config.num_layers + 1)],
                                   _rng(config.seed, _TAG_INIT))
    optimizer = AdamW(model.named_parameters(), lr=config.lr, betas=(config.beta1, config.beta2),
                      weight_decay=config.weight_decay)
    if resume_from is not None:
        restore_optimizer(optimizer, header, tensors)

    epochs = range(start_epoch, config.total_epochs + 1)
    if epochs:  # a finished run resumes to its final artifacts without a training set
        train_ds = load_dataset(config, "train")
        probe_images = probe_batch(config, train_ds.images)
        probe_labels = train_ds.labels[: len(probe_images)]
    eval_ds = load_dataset(config, "test")

    ckpt_path = metrics_path = profile_path = profile = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        _write_metrics(metrics_path, metrics)

    for epoch in epochs:
        t0 = time.perf_counter()
        optimizer.lr = lr_at(epoch, config.total_epochs, config.lr, config.warmup_epochs, config.cosine_decay)

        switches = []
        # Nothing trains between two switches of one epoch, so one switch's
        # loss_after is the next one's loss_before: L+1 probe forwards, not 2L.
        probe_loss = None
        for layer in range(config.num_layers, 0, -1):  # rear-to-front
            blk = model.blocks[layer - 1]
            if blk.mode == CONV and mode_at(sched, epoch, layer) == SA:
                if probe_loss is None:
                    probe_loss = _probe_loss(model, probe_images, probe_labels, config)
                loss_before = probe_loss
                switch_block(blk, grid_hw, beta=config.beta_spike)
                probe_loss = _probe_loss(model, probe_images, probe_labels, config)
                switches.append({"epoch": epoch, "layer": layer,
                                 "loss_before": loss_before, "loss_after": probe_loss})
        if switches:
            optimizer.set_params(model.named_parameters())  # fresh moments for the new attention tensors

        shuffle_rng = _rng(config.seed, _TAG_SHUFFLE, epoch)
        aug_rng = _rng(config.seed, _TAG_AUG, epoch)
        order = shuffle_rng.permutation(len(train_ds))
        total_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            images = train_ds.images[idx]
            if config.augment:
                images = augment_batch(images, aug_rng)
            loss_val = _train_step(model, optimizer, images, train_ds.labels[idx], config)
            if not np.isfinite(loss_val):
                raise DivergenceError(epoch, n_batches)
            total_loss += loss_val
            n_batches += 1

        top1, top5 = _eval_model(model, eval_ds.images, eval_ds.labels, config)
        metrics.append({
            "epoch": epoch,
            "train_loss": total_loss / max(n_batches, 1),
            "top1": top1,
            "top5": top5,
            "lr": optimizer.lr,
            "modes": model.modes(),
            "switches": switches,
            "epoch_seconds": time.perf_counter() - t0,
        })
        if metrics_path is not None:
            _write_metrics(metrics_path, metrics)

        if out_dir is not None and config.checkpoint_every and epoch % config.checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, f"checkpoint_epoch_{epoch}.bin"),
                            model, config.to_dict(), epoch, metrics, optimizer)

    if out_dir is not None:
        ckpt_path = os.path.join(out_dir, "checkpoint_final.bin")
        save_checkpoint(ckpt_path, model, config.to_dict(), config.total_epochs, metrics, optimizer)
        if populated_targets(*grid_hw)[0]:  # a grid below 2x2 gets no profile
            profile_path = os.path.join(out_dir, "depth_profile.csv")
            profile = depth_profile(model, probe_batch(config, eval_ds.images))
            write_depth_profile_csv(profile_path, profile)

    return TrainResult(metrics=metrics, model=model, optimizer=optimizer, checkpoint_path=ckpt_path,
                       metrics_path=metrics_path, profile_path=profile_path, profile=profile)


# --------------------------------------------------------------------------
# Interpolation suite


def run_interpolation_suite(base_config: TrainConfig, out_dir: str, resume: bool = False) -> list[dict]:
    """Train one model per interpolation setting, each a ``train`` run in its
    own directory ``out_dir/conv{E}_sa{S}``.

    Returns one record per setting with the depth profile, final accuracy
    (None for a setting resumed from a checkpoint with no metric history)
    and artifact paths. A grid that populates no target frequency, or that a
    switching setting's kernel reaches past, raises before any setting
    trains. With ``resume``, a setting whose ``checkpoint_final.bin``
    exists resumes from it, config check included.
    """
    require_targets(*base_config.grid_hw())
    configs = [replace(base_config, schedule_kind="uniform", e_switch=setting.e_switch)
               for setting in interpolation_settings(base_config.total_epochs, base_config.num_layers)]
    for cfg in configs:
        _check_kernel_fits(cfg)
    results = []
    for cfg in configs:
        sa_epochs = cfg.total_epochs - cfg.e_switch
        run_dir = os.path.join(out_dir, f"conv{cfg.e_switch}_sa{sa_epochs}")
        ckpt_path = os.path.join(run_dir, "checkpoint_final.bin")
        result = train(cfg, out_dir=run_dir,
                       resume_from=ckpt_path if resume and os.path.exists(ckpt_path) else None)
        last = result.metrics[-1] if result.metrics else {}  # none after resuming an empty history
        results.append({
            "e_switch": cfg.e_switch,
            "sa_epochs": sa_epochs,
            "top1": last.get("top1"),
            "top5": last.get("top5"),
            "profile": result.profile,
            "checkpoint": result.checkpoint_path,
            "csv": result.profile_path,
        })
    return results
