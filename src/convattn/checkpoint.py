"""Checkpoint container: a JSON header followed by named float32 blobs.

Layout (all integers little-endian uint32):

    8 bytes   magic b"CONVATTN"
    u32       header length
    ...       header JSON, utf-8
    repeated  u32 name length | name utf-8 | u32 rank | u32 extents[rank]
              | float32 little-endian data

The same container carries model checkpoints (header kind "checkpoint")
and standalone feature dumps (kind "feature-dump") so externally produced
feature maps can be analyzed offline. Round trips are bit-exact for float32
arrays, which is what makes save -> load -> forward reproducible bitwise.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .blocks import Model, PositionalMixer
from .config import TrainConfig
from .optim import AdamW
from .schedule import CONV, SA

__all__ = [
    "CheckpointError",
    "FORMAT_VERSION",
    "write_file",
    "write_container",
    "read_container",
    "save_checkpoint",
    "load_checkpoint",
    "config_from_checkpoint",
    "model_from_checkpoint",
    "restore_optimizer",
]

MAGIC = b"CONVATTN"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def write_file(path: str, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path`` atomically: a temp file in
    the same directory, fsynced, then renamed over ``path``. Every artifact is
    written here; a failure midway leaves ``path`` as it was and no temp file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_container(path: str, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write atomically through :func:`write_file`, one tensor at a time."""
    def chunks():
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        yield MAGIC
        yield struct.pack("<I", len(header_bytes))
        yield header_bytes
        for name, arr in tensors.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            name_bytes = name.encode("utf-8")
            yield struct.pack("<I", len(name_bytes))
            yield name_bytes
            yield struct.pack("<I", data.ndim)
            for extent in data.shape:
                yield struct.pack("<I", extent)
            yield data.tobytes()

    write_file(path, chunks())


def _read_exact(fh, n: int, what: str) -> bytes:
    """``n`` bytes; a length past the end of the file is refused before any read."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"unexpected end of file while reading {what}")
    return fh.read(n)


def read_container(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, tensors) of the container at ``path``; anything malformed
    raises CheckpointError."""
    with open(path, "rb") as fh:
        try:
            return _read_open_container(fh, path)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt container: {exc}") from None


def _read_open_container(fh, path: str) -> tuple[dict, dict[str, np.ndarray]]:
    if fh.read(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a convattn container (bad magic)")
    (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
    header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: container header is not a JSON object")
    tensors: dict[str, np.ndarray] = {}
    while True:
        raw = fh.read(4)
        if not raw:
            break
        if len(raw) != 4:
            raise CheckpointError("unexpected end of file while reading a tensor name length")
        (name_len,) = struct.unpack("<I", raw)
        name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
        (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"rank of tensor {name!r}"))
        shape = tuple(
            struct.unpack("<I", _read_exact(fh, 4, f"extent of tensor {name!r}"))[0] for _ in range(rank)
        )
        blob = _read_exact(fh, math.prod(shape) * 4, f"data of tensor {name!r}")
        tensors[name] = np.frombuffer(blob, dtype="<f4").reshape(shape).copy()
    return header, tensors


# --------------------------------------------------------------------------
# Model checkpoints


def save_checkpoint(path: str, model: Model, config: dict, epoch: int,
                    metric_history: list[dict], optimizer=None) -> None:
    header = {
        "kind": "checkpoint",
        "format_version": FORMAT_VERSION,
        "config": config,
        "epoch": epoch,
        "modes": model.modes(),
        # marks positional layers; the key, named for the pad slot they once
        # had, stays as it is under format version 1
        "pad_tokens": [isinstance(b.attn, PositionalMixer) for b in model.blocks],
        "metric_history": metric_history,
    }
    tensors = {name: p.data for name, p in model.named_parameters()}
    if optimizer is not None:
        header["opt_steps"] = optimizer.steps
        for name in optimizer.params:
            tensors[f"opt.m.{name}"], tensors[f"opt.v.{name}"] = optimizer.m[name], optimizer.v[name]
    write_container(path, header, tensors)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    header, tensors = read_container(path)
    if header.get("kind") != "checkpoint":
        raise CheckpointError(f"{path}: container holds {header.get('kind')!r}, not a checkpoint")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})")
    epoch, modes = header.get("epoch"), header.get("modes")
    if not isinstance(header.get("config"), dict):
        raise CheckpointError(f"{path}: checkpoint header has no config object")
    if not isinstance(epoch, int) or isinstance(epoch, bool):
        raise CheckpointError(f"{path}: checkpoint header epoch {epoch!r} is not an integer")
    if not isinstance(modes, list) or not all(m in (CONV, SA) for m in modes):
        raise CheckpointError(f"{path}: checkpoint header modes {modes!r} are not a list of {CONV!r}/{SA!r}")
    pads = header.get("pad_tokens", [False] * len(modes))
    if not isinstance(pads, list) or len(pads) != len(modes) or not all(isinstance(p, bool) for p in pads):
        raise CheckpointError(f"{path}: checkpoint header pad_tokens {pads!r} are not one boolean per layer")
    steps = header.get("opt_steps", {})
    if not isinstance(steps, dict) or not all(type(n) is int and n >= 0 for n in steps.values()):
        raise CheckpointError(f"{path}: checkpoint header opt_steps is not a map from names to step counts")
    history = header.get("metric_history", [])
    if not isinstance(history, list) or not all(isinstance(m, dict) for m in history):
        raise CheckpointError(f"{path}: checkpoint header metric_history is not a list of objects")
    return header, tensors


# config keys a checkpoint needs to rebuild its model; the rest have defaults
_ARCH_KEYS = ("dim", "num_layers", "kernel_size", "patch_size", "image_hw", "in_channels", "num_classes")


def config_from_checkpoint(header: dict) -> TrainConfig:
    """The run config in a header :func:`load_checkpoint` returned, with one
    layer per mode; a missing architecture key, an unknown key or a value
    ``TrainConfig`` refuses raises CheckpointError."""
    cfg = header["config"]
    for key in _ARCH_KEYS:
        if key not in cfg:
            raise CheckpointError(f"checkpoint config has no {key!r}")
    unknown = sorted(cfg.keys() - TrainConfig.__dataclass_fields__.keys())
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown keys {unknown}")
    try:
        config = TrainConfig(**{**cfg, "image_hw": tuple(cfg["image_hw"])})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc
    if len(header["modes"]) != config.num_layers:
        raise CheckpointError(f"checkpoint has {len(header['modes'])} layer modes but num_layers={config.num_layers}")
    return config


def model_from_checkpoint(header: dict, tensors: dict[str, np.ndarray]) -> Model:
    """Rebuild the model: architecture from the header, weights from blobs.
    A layer ``pad_tokens`` marks is a :class:`PositionalMixer`; an older
    file's all-zero ``w_q``/``w_k`` for it are dropped, non-zero ones refused."""
    model = config_from_checkpoint(header).build_model(header["modes"], np.random.default_rng(0))
    for i, (blk, positional) in enumerate(zip(model.blocks, header.get("pad_tokens", []))):
        if positional and blk.attn is not None:
            if any(tensors.get(f"blocks.{i}.attn.{w}", np.zeros(0)).any() for w in ("w_q", "w_k")):
                raise CheckpointError(f"positional layer {i} holds a non-zero w_q or w_k")
            a = blk.attn
            blk.attn = PositionalMixer(a.w_v, a.w_o, a.b_rel, a.out_bias, a.grid_hw)
    for name, p in model.named_parameters():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        p.data = _blob(tensors, name, p.data)
    return model


def restore_optimizer(optimizer: AdamW, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Give each of ``optimizer``'s parameters the moments and step count the
    checkpoint holds for it; a parameter the file lacks keeps fresh state."""
    steps = header.get("opt_steps", {})
    for name in optimizer.params:
        for moments, key in ((optimizer.m, f"opt.m.{name}"), (optimizer.v, f"opt.v.{name}")):
            if key in tensors:
                moments[name] = _blob(tensors, key, moments[name])
        if name in steps:
            optimizer.steps[name] = steps[name]


def _blob(tensors: dict[str, np.ndarray], name: str, like: np.ndarray) -> np.ndarray:
    """A copy of blob ``name`` in ``like``'s dtype; extents other than ``like``'s are refused."""
    if tensors[name].shape != like.shape:
        raise CheckpointError(f"tensor {name!r} has extents {tensors[name].shape}, model expects {like.shape}")
    return tensors[name].astype(like.dtype)
