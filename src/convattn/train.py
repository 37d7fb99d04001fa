"""Training loop with scheduled conv-to-attention switching.

Switches happen at epoch boundaries, rear layer first, before the first
batch of the epoch whose schedule condition flipped. Each switch logs the
fixed probe-batch loss immediately before and after the weight transfer, so
function preservation is auditable from the metric stream. Parameters
created by a switch get fresh optimizer moments; everything else keeps its
state.

Determinism: per-epoch shuffle and augmentation generators are derived
statelessly from (seed, epoch), so a resumed run consumes exactly the same
random streams as an uninterrupted one.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .blocks import Model, build_model, model_forward
from .checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from .data import NORM_STATS, Dataset, augment_batch, load_cifar, make_synthetic, stratified_indices
from .optim import AdamW, lr_at
from .reparam import DEFAULT_BETA, switch_block
from .schedule import CONV, SA, SwitchSchedule, interpolation_settings, mode_at
from .spectral import auto_bin_width, depth_profile, write_depth_profile_csv
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
]


@dataclass
class TrainConfig:
    # model
    dim: int = 32
    num_layers: int = 4
    kernel_size: int = 3
    patch_size: int = 4
    mlp_ratio: int = 4
    num_classes: int = 10
    image_hw: tuple[int, int] = (32, 32)
    in_channels: int = 3
    use_abs_pos: bool = False
    final_ln: bool = True
    beta_spike: float = DEFAULT_BETA
    # schedule
    schedule_kind: str = "linear"
    total_epochs: int = 40
    e_switch: int | None = None
    # optimizer
    lr: float = 5e-4
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    warmup_epochs: int = 5
    cosine_decay: bool = True
    label_smoothing: float = 0.1
    batch_size: int = 128
    # data
    dataset: str = "cifar10"
    data_dir: str = "data"
    fraction: float = 0.1
    eval_fraction: float = 1.0
    seed: int = 0
    augment: bool = True
    normalize: bool = True
    # artifacts
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        for name in ("dim", "num_layers", "kernel_size", "patch_size", "mlp_ratio",
                     "num_classes", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def schedule(self) -> SwitchSchedule:
        return SwitchSchedule(self.total_epochs, self.num_layers, self.schedule_kind, self.e_switch)

    def grid_hw(self) -> tuple[int, int]:
        return (self.image_hw[0] // self.patch_size, self.image_hw[1] // self.patch_size)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["image_hw"] = list(self.image_hw)
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        if "image_hw" in d:
            d["image_hw"] = tuple(d["image_hw"])
        return TrainConfig(**d)


@dataclass
class TrainResult:
    metrics: list[dict]
    model: Model
    optimizer: AdamW
    switch_events: list[dict] = field(default_factory=list)
    checkpoint_path: str | None = None


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
    if config.dataset in ("cifar10", "cifar100"):
        return load_cifar(config.data_dir, config.dataset, split, fraction=fraction, seed=config.seed)
    if config.dataset == "synthetic":
        n = 200 if split == "train" else 50
        ds = make_synthetic(config.num_classes, n_per_class=n, image_hw=config.image_hw,
                            channels=config.in_channels, seed=config.seed, split=split)
        if fraction < 1.0:
            ds = ds.subset(stratified_indices(ds.labels, fraction, config.seed))
        return ds
    raise ValueError(f"unknown dataset {config.dataset!r}")


def _norm_stats(config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    mean, std = NORM_STATS.get(config.dataset, NORM_STATS["synthetic"])
    return np.asarray(mean, dtype=np.float32), np.asarray(std, dtype=np.float32)


def _prepare(images: np.ndarray, config: TrainConfig) -> np.ndarray:
    if config.normalize:
        mean, std = _norm_stats(config)
        return (images - mean) / std
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
        chunk = _prepare(images[start : start + batch_size], config)
        logits = model_forward(Tensor(chunk), model).data
        h1, h5 = topk_hits(logits, labels[start : start + batch_size])
        hits1 += h1
        hits5 += h5
    n = len(labels)
    return 100.0 * hits1 / n, 100.0 * hits5 / n


def evaluate(model_or_path, dataset: Dataset, config: TrainConfig | None = None,
             batch_size: int = 256) -> dict:
    """Top-1/top-5 accuracy of a model or checkpoint on a dataset."""
    if isinstance(model_or_path, Model):
        model = model_or_path
        if config is None:
            config = TrainConfig()
    else:
        header, tensors = load_checkpoint(model_or_path)
        model = model_from_checkpoint(header, tensors)
        config = TrainConfig.from_dict(header["config"])
    if model.num_classes != dataset.num_classes:
        raise ValueError(f"model has {model.num_classes} classes, dataset has {dataset.num_classes}")
    top1, top5 = _eval_model(model, dataset.images, dataset.labels, config, batch_size)
    return {"top1": top1, "top5": top5, "n": len(dataset)}


def _probe_loss(model: Model, images: np.ndarray, labels: np.ndarray, config: TrainConfig) -> float:
    logits = model_forward(Tensor(images), model)
    return cross_entropy_label_smooth(logits, labels, config.label_smoothing).item()


# --------------------------------------------------------------------------
# Training


_threads_configured = False


def _configure_threads() -> None:
    global _threads_configured
    if not _threads_configured:
        from . import limit_blas_threads

        limit_blas_threads()
        _threads_configured = True


def train(config: TrainConfig, out_dir: str | None = None, resume_from: str | None = None) -> TrainResult:
    _configure_threads()
    sched = config.schedule()
    train_ds = load_dataset(config, "train")
    eval_ds = load_dataset(config, "test")
    grid_hw = config.grid_hw()

    metrics: list[dict] = []
    start_epoch = 1
    if resume_from is not None:
        header, tensors = load_checkpoint(resume_from)
        model = model_from_checkpoint(header, tensors)
        optimizer = AdamW(model.named_parameters(), lr=config.lr, betas=(config.beta1, config.beta2),
                          weight_decay=config.weight_decay)
        optimizer.load_state(tensors, header.get("opt_steps", {}))
        metrics = list(header.get("metric_history", []))
        start_epoch = int(header["epoch"]) + 1
    else:
        init_modes = [mode_at(sched, 1, layer) for layer in range(1, config.num_layers + 1)]
        model = build_model(config.dim, config.num_layers, config.kernel_size, config.patch_size,
                            config.image_hw, config.in_channels, config.num_classes, init_modes,
                            _rng(config.seed, _TAG_INIT), mlp_ratio=config.mlp_ratio,
                            use_abs_pos=config.use_abs_pos, final_ln=config.final_ln)
        optimizer = AdamW(model.named_parameters(), lr=config.lr, betas=(config.beta1, config.beta2),
                          weight_decay=config.weight_decay)

    n_probe = min(256, len(train_ds))
    probe_images = _prepare(train_ds.images[:n_probe], config)
    probe_labels = train_ds.labels[:n_probe]

    params = list(model.named_parameters())
    all_switch_events: list[dict] = [ev for m in metrics for ev in m.get("switches", [])]
    ckpt_path = None

    for epoch in range(start_epoch, config.total_epochs + 1):
        t0 = time.perf_counter()
        optimizer.lr = lr_at(epoch, config.total_epochs, config.lr, config.warmup_epochs, config.cosine_decay)

        switches = []
        for layer in range(config.num_layers, 0, -1):  # rear-to-front
            blk = model.blocks[layer - 1]
            if blk.mode == CONV and mode_at(sched, epoch, layer) == SA:
                loss_before = _probe_loss(model, probe_images, probe_labels, config)
                switch_block(blk, grid_hw, beta=config.beta_spike)
                loss_after = _probe_loss(model, probe_images, probe_labels, config)
                switches.append({"epoch": epoch, "layer": layer,
                                 "loss_before": loss_before, "loss_after": loss_after})
        if switches:
            params = list(model.named_parameters())
            optimizer.set_params(params)  # fresh moments for the new attention tensors
            all_switch_events.extend(switches)

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
            images = _prepare(images, config)
            g = Graph()
            with g:
                logits = model_forward(Tensor(images), model, epoch, sched)
                loss = cross_entropy_label_smooth(logits, train_ds.labels[idx], config.label_smoothing)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise DivergenceError(epoch, n_batches)
            backward(loss, g, params=[p for _, p in params], free_intermediates=True)
            optimizer.step()
            optimizer.zero_grad()
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

        if out_dir is not None and config.checkpoint_every and epoch % config.checkpoint_every == 0:
            os.makedirs(out_dir, exist_ok=True)
            save_checkpoint(os.path.join(out_dir, f"checkpoint_epoch_{epoch}.bin"),
                            model, config.to_dict(), epoch, metrics, optimizer)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_path = os.path.join(out_dir, "checkpoint_final.bin")
        save_checkpoint(ckpt_path, model, config.to_dict(), config.total_epochs, metrics, optimizer)

    return TrainResult(metrics=metrics, model=model, optimizer=optimizer,
                       switch_events=all_switch_events, checkpoint_path=ckpt_path)


# --------------------------------------------------------------------------
# Interpolation suite


def run_interpolation_suite(base_config: TrainConfig, out_dir: str, resume: bool = False) -> list[dict]:
    """Train one model per interpolation setting and profile its spectra.

    Writes a checkpoint and a depth-profile CSV per setting into ``out_dir``
    and returns one record per setting with the profile, final accuracy and
    artifact paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    settings = interpolation_settings(base_config.total_epochs, base_config.num_layers)
    eval_ds = load_dataset(base_config, "test")
    probe = _prepare(eval_ds.images[: min(256, len(eval_ds))], base_config)
    results = []
    for setting in settings:
        sa_epochs = base_config.total_epochs - setting.e_switch
        tag = f"conv{setting.e_switch}_sa{sa_epochs}"
        ckpt_path = os.path.join(out_dir, f"{tag}.ckpt")
        csv_path = os.path.join(out_dir, f"{tag}_depth_profile.csv")
        cfg = replace(base_config, schedule_kind="uniform", e_switch=setting.e_switch)
        if resume and os.path.exists(ckpt_path):
            header, tensors = load_checkpoint(ckpt_path)
            model = model_from_checkpoint(header, tensors)
            metrics = header.get("metric_history", [])
        else:
            result = train(cfg)
            model = result.model
            metrics = result.metrics
            save_checkpoint(ckpt_path, model, cfg.to_dict(), cfg.total_epochs, metrics)
        grid = cfg.grid_hw()
        profile = depth_profile(model, probe, epoch=cfg.total_epochs, sched=cfg.schedule(),
                                bin_width=auto_bin_width(*grid))
        write_depth_profile_csv(csv_path, profile)
        results.append({
            "e_switch": setting.e_switch,
            "sa_epochs": sa_epochs,
            "top1": metrics[-1]["top1"] if metrics else float("nan"),
            "top5": metrics[-1]["top5"] if metrics else float("nan"),
            "profile": profile,
            "checkpoint": ckpt_path,
            "csv": csv_path,
        })
    return results
