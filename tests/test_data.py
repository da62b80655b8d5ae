"""IDX loading, synthetic stripe generation, splitting."""

import struct

import numpy as np
import pytest

from qpattn.data import (
    EmptyClassError,
    IdxFormatError,
    SyntheticSpec,
    load_idx,
    save_idx_images,
    save_idx_labels,
    split,
    synthetic_dataset,
)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(4, 5, 5), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1], dtype=np.uint8)
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    save_idx_images(ipath, images)
    save_idx_labels(lpath, labels)
    return ipath, lpath, images, labels


class TestIdx:
    def test_round_trip_pixel_exact(self, idx_pair):
        ipath, lpath, images, labels = idx_pair
        ds = load_idx(ipath, lpath, 0, 1)
        keep = (labels == 0) | (labels == 1)
        assert ds.images.shape == (3, 1, 5, 5)
        assert np.array_equal(ds.images[:, 0], images[keep].astype(float) / 255.0)

    def test_relabels_to_binary(self, idx_pair):
        ipath, lpath, _, _ = idx_pair
        ds = load_idx(ipath, lpath, 0, 1)
        assert np.array_equal(ds.labels, [0, 1, 1])
        flipped = load_idx(ipath, lpath, 1, 0)
        assert np.array_equal(flipped.labels, [1, 0, 0])

    def test_same_class_twice_refused(self, idx_pair):
        # It used to build a one-class task with every label 1.
        ipath, lpath, _, _ = idx_pair
        with pytest.raises(ValueError, match="must differ"):
            load_idx(ipath, lpath, 1, 1)

    def test_filters_requested_classes_only(self, idx_pair):
        ipath, lpath, _, _ = idx_pair
        ds = load_idx(ipath, lpath, 0, 2)
        assert ds.n == 2 and set(ds.labels.tolist()) == {0, 1}

    def test_bad_image_magic(self, idx_pair, tmp_path):
        _, lpath, _, _ = idx_pair
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(IdxFormatError):
            load_idx(bad, lpath, 0, 1)

    def test_bad_label_magic(self, idx_pair, tmp_path):
        ipath, _, _, _ = idx_pair
        bad = tmp_path / "bad_labels.idx"
        bad.write_bytes(struct.pack(">II", 0x00000803, 4) + b"\x00" * 4)
        with pytest.raises(IdxFormatError):
            load_idx(ipath, bad, 0, 1)

    def test_truncated_payload(self, idx_pair, tmp_path):
        _, lpath, _, _ = idx_pair
        bad = tmp_path / "trunc.idx"
        bad.write_bytes(struct.pack(">IIII", 0x00000803, 4, 5, 5) + b"\x00" * 10)
        with pytest.raises(IdxFormatError):
            load_idx(bad, lpath, 0, 1)

    def test_image_label_count_mismatch(self, idx_pair, tmp_path):
        ipath, _, _, _ = idx_pair
        lpath = tmp_path / "short_labels.idx"
        save_idx_labels(lpath, np.array([0, 1], dtype=np.uint8))
        with pytest.raises(IdxFormatError):
            load_idx(ipath, lpath, 0, 1)

    def test_non_square_images_refused(self, idx_pair, tmp_path):
        # The ViT's patch grid takes square images; an 8 x 12 file used to
        # load and fail inside the first forward.
        _, lpath, _, _ = idx_pair
        wide = tmp_path / "wide.idx"
        save_idx_images(wide, np.zeros((4, 8, 12), dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="8 x 12"):
            load_idx(wide, lpath, 0, 1)

    def test_absent_class(self, idx_pair):
        ipath, lpath, _, _ = idx_pair
        with pytest.raises(EmptyClassError):
            load_idx(ipath, lpath, 0, 7)

    def test_pixels_in_unit_interval(self, idx_pair):
        ipath, lpath, _, _ = idx_pair
        ds = load_idx(ipath, lpath, 0, 1)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestSynthetic:
    def test_noiseless_classes_linearly_separable_by_one_pixel(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=10, image_size=16, noise_std=0.0, seed=0))
        # pixel (0, 2): dark row band for horizontal stripes, bright column
        # band for vertical stripes
        feature = ds.images[:, 0, 0, 2]
        assert np.all(feature[ds.labels == 0] == 0.0)
        assert np.all(feature[ds.labels == 1] == 1.0)

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n_per_class=25, image_size=12, noise_std=0.2, seed=9)
        a = synthetic_dataset(spec)
        b = synthetic_dataset(spec)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        c = synthetic_dataset(SyntheticSpec(25, 12, 0.2, seed=10))
        assert not np.array_equal(a.images, c.images)

    def test_counts_and_balance(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=100, image_size=16, seed=0))
        assert ds.n == 200
        assert (ds.labels == 0).sum() == 100 and (ds.labels == 1).sum() == 100

    def test_pixels_clipped(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=30, image_size=8, noise_std=0.8, seed=1))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_per_class=0)

    @pytest.mark.parametrize("noise_std", [np.nan, np.inf, -0.5])
    def test_noise_std_must_be_finite_and_non_negative(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            SyntheticSpec(n_per_class=1, noise_std=noise_std)


class TestSplit:
    def test_full_train_empty_valid(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=10, image_size=8, seed=0))
        train, valid = split(ds, 20, 0, seed=0)
        assert train.n == 20 and valid.n == 0

    def test_stratified_within_one_sample(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=50, image_size=8, seed=0))
        train, valid = split(ds, 60, 30, seed=1)
        for part, size in ((train, 60), (valid, 30)):
            ones = (part.labels == 1).sum()
            assert abs(ones - size / 2) <= 1

    def test_disjoint(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=40, image_size=8, noise_std=0.3, seed=3))
        train, valid = split(ds, 40, 30, seed=2)
        # noise makes every image unique, so row identity identifies indices
        train_rows = {img.tobytes() for img in train.images}
        valid_rows = {img.tobytes() for img in valid.images}
        assert not train_rows & valid_rows

    def test_deterministic(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=40, image_size=8, seed=0))
        a_train, a_valid = split(ds, 30, 20, seed=5)
        b_train, b_valid = split(ds, 30, 20, seed=5)
        assert np.array_equal(a_train.images, b_train.images)
        assert np.array_equal(a_valid.labels, b_valid.labels)

    def test_insufficient_samples(self):
        ds = synthetic_dataset(SyntheticSpec(n_per_class=5, image_size=8, seed=0))
        with pytest.raises(ValueError):
            split(ds, 8, 8, seed=0)
