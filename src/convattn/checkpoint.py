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

from .blocks import Model, PositionalMixer, build_model
from .schedule import CONV, SA

__all__ = [
    "CheckpointError",
    "FORMAT_VERSION",
    "write_file",
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
        tensors.update(optimizer.state_tensors())
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
    return header, tensors


# config keys a checkpoint needs to rebuild its model; the rest have defaults
_ARCH_KEYS = ("dim", "num_layers", "kernel_size", "patch_size", "image_hw", "in_channels", "num_classes")


def model_from_checkpoint(header: dict, tensors: dict[str, np.ndarray]) -> Model:
    """Rebuild the model: architecture from the header, weights from blobs.
    A layer ``pad_tokens`` marks is a :class:`PositionalMixer`; an older
    file's all-zero ``w_q``/``w_k`` for it are dropped, non-zero ones refused."""
    cfg = header["config"]
    for key in _ARCH_KEYS:
        if key not in cfg:
            raise CheckpointError(f"checkpoint config has no {key!r}")
    if len(header["modes"]) != cfg["num_layers"]:
        raise CheckpointError(f"checkpoint has {len(header['modes'])} layer modes "
                              f"but num_layers={cfg['num_layers']!r}")
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
    for i, (blk, positional) in enumerate(zip(model.blocks, header.get("pad_tokens", []))):
        if positional and blk.attn is not None:
            if any(tensors.get(f"blocks.{i}.attn.{w}", np.zeros(0)).any() for w in ("w_q", "w_k")):
                raise CheckpointError(f"positional layer {i} holds a non-zero w_q or w_k")
            a = blk.attn
            blk.attn = PositionalMixer(a.w_v, a.w_o, a.b_rel, a.out_bias, a.grid_hw)
    for name, p in model.named_parameters():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != p.shape:
            raise CheckpointError(f"tensor {name!r} has extents {arr.shape}, model expects {p.shape}")
        p.data = arr.astype(p.data.dtype).copy()
    return model
