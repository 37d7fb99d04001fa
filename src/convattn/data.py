"""Dataset loading and augmentation.

CIFAR binaries use fixed-width records: 1 label byte (CIFAR-10) or 2 label
bytes, coarse then fine (CIFAR-100), followed by 3072 pixel bytes stored as
three 1024-byte row-major planes in R, G, B order. Images decode to float32
RGB in [0, 1], shaped [n, 32, 32, 3].

A synthetic dataset of randomly translated class patterns is included for
data-free pipeline checks; it shares the Dataset interface and is clearly
not CIFAR.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "load_cifar",
    "stratified_indices",
    "make_synthetic",
    "augment_batch",
    "NORM_STATS",
]

IMAGE_BYTES = 3072
CIFAR_FILES = {
    ("cifar10", "train"): [f"data_batch_{i}.bin" for i in range(1, 6)],
    ("cifar10", "test"): ["test_batch.bin"],
    ("cifar100", "train"): ["train.bin"],
    ("cifar100", "test"): ["test.bin"],
}
# records in each individual file of the split
RECORDS_PER_FILE = {
    ("cifar10", "train"): 10000,
    ("cifar10", "test"): 10000,
    ("cifar100", "train"): 50000,
    ("cifar100", "test"): 10000,
}

# channel means/stds used when input normalization is enabled
NORM_STATS = {
    "cifar10": ((0.4914, 0.4822, 0.4465), (0.2470, 0.2435, 0.2616)),
    "cifar100": ((0.5071, 0.4865, 0.4409), (0.2673, 0.2564, 0.2762)),
    "synthetic": ((0.5, 0.5, 0.5), (0.25, 0.25, 0.25)),
}


class DataError(RuntimeError):
    """Missing, truncated, or malformed dataset files."""


@dataclass
class Dataset:
    images: np.ndarray  # [n, h, w, c] float32 in [0, 1]
    labels: np.ndarray  # [n] int64
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices], self.num_classes)


def _decode_records(raw: np.ndarray, label_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    rec = label_bytes + IMAGE_BYTES
    records = raw.reshape(-1, rec)
    labels = records[:, label_bytes - 1].astype(np.int64)  # fine label is the last label byte
    pixels = records[:, label_bytes:].reshape(-1, 3, 32, 32)
    images = (pixels.transpose(0, 2, 3, 1).astype(np.float32)) / 255.0
    return images, labels


def load_cifar(path: str, variant: str = "cifar10", split: str = "train",
               fraction: float = 1.0, seed: int = 0) -> Dataset:
    """Load CIFAR binaries from directory ``path``.

    ``fraction`` < 1 selects a stratified per-class random subset: each class
    contributes floor(count * fraction) examples drawn from a seeded
    permutation, remainder dropped, final index list sorted.
    """
    key = (variant, split)
    if key not in CIFAR_FILES:
        raise DataError(f"unknown dataset/split: {variant}/{split}")
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    label_bytes = 1 if variant == "cifar10" else 2
    rec = label_bytes + IMAGE_BYTES
    all_images, all_labels = [], []
    for fname in CIFAR_FILES[key]:
        fpath = os.path.join(path, fname)
        if not os.path.exists(fpath):
            raise DataError(f"dataset file not found: {fpath}")
        size = os.path.getsize(fpath)
        if size % rec != 0:
            raise DataError(f"{fpath}: size {size} is not a multiple of the {rec}-byte record")
        expected = RECORDS_PER_FILE[key] * rec
        if size != expected:
            raise DataError(f"{fpath}: expected {expected} bytes, found {size}")
        raw = np.fromfile(fpath, dtype=np.uint8)
        images, labels = _decode_records(raw, label_bytes)
        all_images.append(images)
        all_labels.append(labels)
    images = np.concatenate(all_images)
    labels = np.concatenate(all_labels)
    ds = Dataset(images, labels, 10 if variant == "cifar10" else 100)
    if fraction < 1.0:
        ds = ds.subset(stratified_indices(labels, fraction, seed))
    return ds


def stratified_indices(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Equal per-class counts of floor(class_count * fraction), seed-stable."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A)))
    picked = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        take = int(len(idx) * fraction)
        picked.append(rng.permutation(idx)[:take])
    return np.sort(np.concatenate(picked))


# Images built per gather in make_synthetic: its one image-sized temporary,
# the gathered float32 patterns, takes 0.2 MB at 16 images. A bigger
# gather's freed buffers stay in the heap and raise the peak RSS of a later
# evaluation (by about 2 MB at 128 images, measured with float64 buffers).
_SYNTHETIC_CHUNK = 16


def _image_rng(seed: int, split_tag: int, index: int) -> np.random.Generator:
    """Image ``index``'s own noise stream. A child of the split stream's seed
    by spawn key: the bare entropy (seed, 0x5A3B, tag, 0) would be the split
    stream itself, since SeedSequence zero-pads entropy to four words."""
    return np.random.default_rng(np.random.SeedSequence((seed, 0x5A3B, split_tag), spawn_key=(index,)))


def make_synthetic(num_classes: int = 10, n_per_class: int = 200, image_hw: tuple[int, int] = (32, 32),
                   channels: int = 3, seed: int = 0, split: str = "train",
                   shift: int = 6, noise: float = 0.15, fraction: float = 1.0) -> Dataset:
    """Randomly translated smooth class patterns plus pixel noise.

    Class identity is carried by a spatial pattern that appears at a random
    cyclic shift in every sample, so locality/translation-equivariant priors
    genuinely help. The patterns depend only on ``seed``; ``split`` selects
    an independent sample stream over the same classes. Not a CIFAR
    substitute; used for data-free checks.

    Image ``i`` is a function of (seed, split, i) alone: the split's stream
    draws the label order and every shift, and each image draws its noise
    from its own stream. ``fraction`` < 1 keeps ``stratified_indices(labels,
    fraction, seed)`` and builds only those images, so the result is the
    full split's ``subset`` of them, bitwise, and smaller fractions nest.
    """
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    h, w = image_hw
    split_tag = 1 if split == "test" else 0
    pattern_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5F17)))
    split_rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A3B, split_tag)))
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    patterns = []
    for _ in range(num_classes):
        pat = np.zeros((h, w, channels), dtype=np.float64)
        for _ in range(4):  # a few random low-frequency plane waves per class
            fy, fx = pattern_rng.integers(1, 4, size=2)
            phase = pattern_rng.uniform(0, 2 * np.pi)
            amp = pattern_rng.uniform(0.5, 1.0)
            wave = amp * np.sin(2 * np.pi * (fy * yy / h + fx * xx / w) + phase)
            pat += wave[:, :, None] * pattern_rng.uniform(0.3, 1.0, size=channels)
        patterns.append(pat)
    patterns = np.stack(patterns).astype(np.float32)
    labels = split_rng.permutation(np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class))
    shifts = split_rng.integers(-shift, shift + 1, size=(len(labels), 2))
    keep = stratified_indices(labels, fraction, seed)
    images = np.empty((len(keep), h, w, channels), dtype=np.float32)
    for start in range(0, len(keep), _SYNTHETIC_CHUNK):
        idx = keep[start : start + _SYNTHETIC_CHUNK]
        img = images[start : start + len(idx)]
        for j, i in enumerate(idx):
            _image_rng(seed, split_tag, int(i)).standard_normal(out=img[j], dtype=np.float32)
        img *= noise
        # cyclic shift by (dy, dx): pixel (y, x) reads the pattern at (y - dy, x - dx)
        rows = (np.arange(h) - shifts[idx, :1]) % h
        cols = (np.arange(w) - shifts[idx, 1:]) % w
        img += patterns[labels[idx, None, None], rows[:, :, None], cols[:, None, :]]
        img *= 0.2
        img += 0.5
        np.clip(img, 0.0, 1.0, out=img)
    return Dataset(images, labels[keep], num_classes)


# --------------------------------------------------------------------------
# Augmentation


def augment_batch(images: np.ndarray, rng: np.random.Generator, pad: int = 4, flip: bool = True) -> np.ndarray:
    """Random crop from zero padding plus horizontal flip, seeded by
    ``rng``, on every image of a [n, h, w, c] batch in one gather.

    Each image draws its two crop offsets, then (with ``flip``) one uniform
    that flips it below 0.5, so the output is bitwise what a per-image loop
    in that order gives for the same ``rng``.
    """
    n, h, w, _ = images.shape
    offsets = np.empty((n, 2), dtype=np.int64)
    flipped = np.zeros(n, dtype=bool)
    for i in range(n):
        offsets[i] = rng.integers(0, 2 * pad + 1, size=2)
        flipped[i] = flip and rng.random() < 0.5
    padded = np.pad(images, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    rows = offsets[:, :1] + np.arange(h)  # [n, h]
    cols = offsets[:, 1:] + np.arange(w)  # [n, w]
    cols = np.where(flipped[:, None], cols[:, ::-1], cols)
    return padded[np.arange(n)[:, None, None], rows[:, :, None], cols[:, None, :]]
