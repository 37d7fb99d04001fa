import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _write_cifar_file(path, n_records, label_bytes, num_classes, rng, balanced=False):
    """Synthetic file in the exact CIFAR binary record layout."""
    if balanced:
        labels = np.tile(np.arange(num_classes), n_records // num_classes).astype(np.uint8)
        labels = rng.permutation(labels)
    else:
        labels = rng.integers(0, num_classes, size=n_records).astype(np.uint8)
    recs = np.empty((n_records, label_bytes + 3072), dtype=np.uint8)
    if label_bytes == 2:
        recs[:, 0] = labels // 5  # stand-in coarse label
        recs[:, 1] = labels
    else:
        recs[:, 0] = labels
    recs[:, label_bytes:] = rng.integers(0, 256, size=(n_records, 3072), dtype=np.uint8)
    recs.tofile(path)
    return labels


@pytest.fixture(scope="session")
def cifar10_dir(tmp_path_factory):
    """Format-valid CIFAR-10 directory with random pixel data."""
    root = tmp_path_factory.mktemp("cifar10")
    rng = np.random.default_rng(99)
    for i in range(1, 6):
        _write_cifar_file(root / f"data_batch_{i}.bin", 10000, 1, 10, rng)
    _write_cifar_file(root / "test_batch.bin", 10000, 1, 10, rng)
    return str(root)


@pytest.fixture(scope="session")
def cifar100_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cifar100")
    rng = np.random.default_rng(98)
    _write_cifar_file(root / "train.bin", 50000, 2, 100, rng)
    _write_cifar_file(root / "test.bin", 10000, 2, 100, rng)
    return str(root)


@pytest.fixture(scope="session")
def cifar100_balanced_dir(tmp_path_factory):
    """CIFAR-100-layout files with exactly 500 records per fine class."""
    root = tmp_path_factory.mktemp("cifar100bal")
    rng = np.random.default_rng(97)
    _write_cifar_file(root / "train.bin", 50000, 2, 100, rng, balanced=True)
    _write_cifar_file(root / "test.bin", 10000, 2, 100, rng, balanced=True)
    return str(root)


def real_cifar10_dir():
    """Directory holding the real CIFAR-10 binaries, if present.

    Checked locations: $CONVATTN_DATA_DIR, ./data/cifar-10-batches-bin.
    """
    candidates = []
    env = os.environ.get("CONVATTN_DATA_DIR")
    if env:
        candidates += [env, os.path.join(env, "cifar-10-batches-bin")]
    candidates.append(os.path.join("data", "cifar-10-batches-bin"))
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "data_batch_1.bin")):
            return cand
    return None
