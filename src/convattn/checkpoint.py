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

from .blocks import Model, build_model

__all__ = [
    "CheckpointError",
    "FORMAT_VERSION",
    "write_container",
    "read_container",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_checkpoint",
]

MAGIC = b"CONVATTN"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def write_container(path: str, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write atomically: a temp file in the same directory, fsynced, then
    renamed over ``path``. A failure midway leaves ``path`` as it was."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            for name, arr in tensors.items():
                data = np.ascontiguousarray(arr, dtype="<f4")
                name_bytes = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_bytes)))
                fh.write(name_bytes)
                fh.write(struct.pack("<I", data.ndim))
                for extent in data.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(data.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        "pad_tokens": [b.attn is not None and b.attn.pad_token_enabled for b in model.blocks],
        "metric_history": metric_history,
    }
    tensors = {name: p.data for name, p in model.named_parameters()}
    if optimizer is not None:
        header["opt_steps"] = optimizer.steps
        tensors.update(optimizer.state_tensors())
    write_container(path, header, tensors)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    header, tensors = read_container(path)
    if header.get("kind") != "checkpoint":
        raise CheckpointError(f"{path}: container holds {header.get('kind')!r}, not a checkpoint")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})")
    return header, tensors


def model_from_checkpoint(header: dict, tensors: dict[str, np.ndarray]) -> Model:
    """Rebuild the model: architecture from the header, weights from blobs."""
    cfg = header["config"]
    model = build_model(
        dim=cfg["dim"],
        num_layers=cfg["num_layers"],
        kernel_size=cfg["kernel_size"],
        patch_size=cfg["patch_size"],
        image_hw=tuple(cfg["image_hw"]),
        in_channels=cfg["in_channels"],
        num_classes=cfg["num_classes"],
        modes=header["modes"],
        rng=np.random.default_rng(0),
        mlp_ratio=cfg.get("mlp_ratio", 4),
        use_abs_pos=cfg.get("use_abs_pos", False),
        final_ln=cfg.get("final_ln", True),
    )
    for blk, pad in zip(model.blocks, header.get("pad_tokens", [])):
        if blk.attn is not None:
            blk.attn.pad_token_enabled = bool(pad)
    for name, p in model.named_parameters():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != p.shape:
            raise CheckpointError(f"tensor {name!r} has extents {arr.shape}, model expects {p.shape}")
        p.data = arr.astype(p.data.dtype).copy()
    return model
