import os

import numpy as np
import pytest

from convattn import data
from convattn.data import DataError, augment_batch, load_cifar, make_synthetic, stratified_indices
from oracles import augment, hflip, make_synthetic_loop, pad_crop


def test_cifar100_train_file_size(cifar100_dir):
    assert os.path.getsize(os.path.join(cifar100_dir, "train.bin")) == 50000 * 3074
    ds = load_cifar(cifar100_dir, "cifar100", "train")
    assert len(ds) == 50000 and ds.num_classes == 100
    assert ds.images.shape == (50000, 32, 32, 3)
    assert ds.images.dtype == np.float32
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_cifar10_loads_all_batches(cifar10_dir):
    train = load_cifar(cifar10_dir, "cifar10", "train")
    test = load_cifar(cifar10_dir, "cifar10", "test")
    assert len(train) == 50000 and len(test) == 10000


def test_pixel_decode_layout(tmp_path):
    # one record, known pixel pattern: R plane 10, G plane 20, B plane 30
    rec = bytes([7]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
    path = tmp_path / "test_batch.bin"
    path.write_bytes(rec * 10000)
    ds = load_cifar(str(tmp_path), "cifar10", "test")
    np.testing.assert_allclose(ds.images[0, :, :, 0], 10 / 255)
    np.testing.assert_allclose(ds.images[0, :, :, 1], 20 / 255)
    np.testing.assert_allclose(ds.images[0, :, :, 2], 30 / 255)
    assert ds.labels[0] == 7


def test_cifar100_fine_label_is_second_byte(tmp_path):
    rec = bytes([3, 42]) + bytes(3072)
    path = tmp_path / "test.bin"
    path.write_bytes(rec * 10000)
    ds = load_cifar(str(tmp_path), "cifar100", "test")
    assert ds.labels[0] == 42


def test_missing_file_names_path(tmp_path):
    with pytest.raises(DataError, match="data_batch_1.bin"):
        load_cifar(str(tmp_path), "cifar10", "train")


def test_wrong_size_rejected(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(bytes(3073 * 9999))
    with pytest.raises(DataError, match="expected"):
        load_cifar(str(tmp_path), "cifar10", "test")


def test_truncated_record_rejected(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(bytes(3073 * 100 + 17))
    with pytest.raises(DataError, match="record"):
        load_cifar(str(tmp_path), "cifar10", "test")


def test_stratified_subset_counts(cifar100_dir):
    ds = load_cifar(cifar100_dir, "cifar100", "train", fraction=0.1, seed=3)
    counts = np.bincount(ds.labels, minlength=100)
    # synthetic labels are uniform-random, so per-class pools differ; the
    # contract is floor(pool * fraction) for every class
    full = load_cifar(cifar100_dir, "cifar100", "train")
    pools = np.bincount(full.labels, minlength=100)
    np.testing.assert_array_equal(counts, (pools * 0.1).astype(int))


def test_stratified_subset_exact_on_balanced_labels():
    labels = np.repeat(np.arange(100), 500)  # balanced like real CIFAR-100
    idx = stratified_indices(labels, 0.1, seed=0)
    assert len(idx) == 5000
    counts = np.bincount(labels[idx], minlength=100)
    assert np.all(counts == 50)


def test_stratified_subset_seed_stable():
    labels = np.repeat(np.arange(10), 100)
    a = stratified_indices(labels, 0.2, seed=7)
    b = stratified_indices(labels, 0.2, seed=7)
    c = stratified_indices(labels, 0.2, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0)  # sorted ascending


def test_fraction_validation(cifar10_dir):
    with pytest.raises(DataError, match="fraction"):
        load_cifar(cifar10_dir, "cifar10", "train", fraction=0.0)


def test_hflip_involution(rng):
    img = rng.random((32, 32, 3)).astype(np.float32)
    np.testing.assert_array_equal(hflip(hflip(img)), img)


def test_pad_crop_center_restores(rng):
    img = rng.random((32, 32, 3)).astype(np.float32)
    np.testing.assert_array_equal(pad_crop(img, 4, 4, pad=4), img)


def test_pad_crop_zero_offset_pads_border(rng):
    img = rng.random((8, 8, 1)).astype(np.float32)
    out = pad_crop(img, 0, 0, pad=2)
    assert np.all(out[:2, :, :] == 0) and np.all(out[:, :2, :] == 0)
    np.testing.assert_array_equal(out[2:, 2:, :], img[:6, :6, :])


def test_augment_seeded_stream_reproducible(rng):
    imgs = rng.random((16, 32, 32, 3)).astype(np.float32)
    a = augment_batch(imgs, np.random.default_rng(42))
    b = augment_batch(imgs, np.random.default_rng(42))
    c = augment_batch(imgs, np.random.default_rng(43))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("flip", [True, False])
def test_augment_batch_matches_per_image_loop(rng, flip):
    # the batched gather draws per image in augment's order, so it is the
    # per-image loop bitwise, and leaves the generator in the same state
    imgs = rng.random((16, 8, 6, 3), dtype=np.float32)
    batch_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = augment_batch(imgs, batch_rng, pad=2, flip=flip)
    expected = np.stack([augment(img, loop_rng, pad=2, flip=flip) for img in imgs])
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert batch_rng.random() == loop_rng.random()


def test_augment_preserves_shape_and_range(rng):
    img = rng.random((32, 32, 3)).astype(np.float32)
    out = augment(img, np.random.default_rng(0))
    assert out.shape == img.shape
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_synthetic_dataset_structure():
    ds = make_synthetic(num_classes=4, n_per_class=10, seed=1)
    assert len(ds) == 40
    assert ds.num_classes == 4
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    again = make_synthetic(num_classes=4, n_per_class=10, seed=1)
    np.testing.assert_array_equal(ds.images, again.images)


@pytest.mark.parametrize("kwargs", [
    dict(),  # the 2,000-image train split
    dict(num_classes=3, n_per_class=50, image_hw=(8, 12), channels=2, seed=5, split="test", shift=9),  # a partial gather
])
def test_synthetic_gather_matches_the_per_image_loop(kwargs):
    ds = make_synthetic(**kwargs)
    images, labels = make_synthetic_loop(**kwargs)
    assert ds.images.dtype == images.dtype
    np.testing.assert_array_equal(ds.images, images)
    np.testing.assert_array_equal(ds.labels, labels)


@pytest.mark.parametrize("fraction", [0.05, 0.1, 0.5])
def test_synthetic_fraction_is_the_full_splits_subset(fraction):
    # image i depends on (seed, split, i) alone, so a fraction's build is the
    # full split's stratified subset bitwise, and smaller fractions nest in it
    kwargs = dict(num_classes=4, n_per_class=40, image_hw=(8, 12), channels=2, seed=3, split="test")
    full = make_synthetic(**kwargs)
    kept = stratified_indices(full.labels, fraction, 3)
    part = make_synthetic(**kwargs, fraction=fraction)
    expected = full.subset(kept)
    np.testing.assert_array_equal(part.images, expected.images)
    np.testing.assert_array_equal(part.labels, expected.labels)
    assert part.num_classes == 4


def test_synthetic_fraction_builds_only_the_kept_images(monkeypatch):
    built, image_rng = [], data._image_rng

    def counting(seed, split_tag, index):
        built.append(index)
        return image_rng(seed, split_tag, index)

    monkeypatch.setattr(data, "_image_rng", counting)
    full = make_synthetic(seed=2)
    assert built == list(range(2000))
    built.clear()
    part = make_synthetic(seed=2, fraction=0.1)
    assert built == list(stratified_indices(full.labels, 0.1, 2))
    assert len(part) == 200


def test_synthetic_image_streams_are_not_the_split_stream():
    # the entropy (seed, 0x5A3B, tag, 0) would alias the split stream (seed,
    # 0x5A3B, tag): SeedSequence zero-pads entropy to four words
    split = np.random.default_rng(np.random.SeedSequence((0, 0x5A3B, 0))).integers(0, 2**63, 4)
    image0 = data._image_rng(0, 0, 0).integers(0, 2**63, 4)
    assert not np.array_equal(split, image0)


def test_synthetic_fraction_validation():
    with pytest.raises(DataError, match="fraction"):
        make_synthetic(num_classes=2, n_per_class=4, fraction=0.0)


def test_synthetic_fractions_nest():
    # each class keeps a prefix of one seeded permutation, so image i kept
    # at a smaller fraction is kept, as the same image, at every larger one
    ds = make_synthetic(num_classes=4, n_per_class=40, image_hw=(8, 8), seed=5)
    kept = [set(stratified_indices(ds.labels, f, 5)) for f in (0.05, 0.1, 0.5, 1.0)]
    assert all(small < large for small, large in zip(kept, kept[1:]))
