"""Dataset ingestion and synthesis.

IDX-format (MNIST-family) loading filtered to a binary class pair, a
deterministic synthetic stripe task with zero external data dependencies, and
seeded stratified train/validation splitting. Pixels are scaled to [0, 1] by
dividing by 255; no further standardisation is applied.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncated payload, dimension mismatch,
    non-square images)."""


class EmptyClassError(ValueError):
    """A requested class has no samples in the label file."""


@dataclass
class ImageDataset:
    """Image/label pairs with pixels in [0, 1] and labels in {0, 1}."""

    images: np.ndarray  # (n, channels, height, width) float64
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        # n = 0 is allowed only so `split` can return an empty validation side.
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images must be (n, c, h, w) aligned with labels")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for the deterministic two-class stripe dataset."""

    n_per_class: int
    image_size: int = 16
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")


def _read_be32(f) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise IdxFormatError("truncated IDX header")
    return struct.unpack(">I", data)[0]


def load_idx(images_path, labels_path, class_a: int, class_b: int) -> ImageDataset:
    """Load an IDX image/label pair filtered to two classes, relabelled {0, 1}.

    Pixels are u8 scaled by 1/255. ``class_a`` maps to label 0 and ``class_b``
    to label 1. Images must be square (rows = cols).
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f)
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(f"bad image magic 0x{magic:08x}")
        count, rows, cols = (_read_be32(f) for _ in range(3))
        payload = f.read()
    if len(payload) != count * rows * cols:
        raise IdxFormatError(
            f"image payload holds {len(payload)} bytes, expected {count * rows * cols}"
        )
    if rows != cols:
        raise IdxFormatError(f"images are {rows} x {cols}; the model takes square images")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f)
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(f"bad label magic 0x{magic:08x}")
        label_count = _read_be32(f)
        labels = np.frombuffer(f.read(), dtype=np.uint8)
    if labels.size != label_count:
        raise IdxFormatError("label payload truncated")
    if label_count != count:
        raise IdxFormatError(f"{count} images but {label_count} labels")

    if class_a == class_b:
        raise ValueError(f"class_a and class_b must differ, got {class_a} twice")
    keep = (labels == class_a) | (labels == class_b)
    for cls in (class_a, class_b):
        if not np.any(labels == cls):
            raise EmptyClassError(f"class {cls} absent from label file")
    images = images[keep].astype(float) / 255.0
    binary = (labels[keep] == class_b).astype(np.int64)
    return ImageDataset(images[:, None, :, :], binary)


def save_idx_images(path, images: np.ndarray) -> None:
    """Write u8 images (n, h, w) in IDX format (big-endian header + raw pixels)."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.size))
        f.write(labels.tobytes())


def synthetic_dataset(spec: SyntheticSpec) -> ImageDataset:
    """Two-class stripe images: class 0 horizontal bands, class 1 vertical bands.

    Stripes have period 4 (two bright rows/columns then two dark), plus
    clipped N(0, noise_std^2) pixel noise; byte-identical for a given seed.
    """
    rng = np.random.default_rng(spec.seed)
    size = spec.image_size
    idx = (np.arange(size) // 2) % 2
    horizontal = np.broadcast_to(idx[:, None], (size, size)).astype(float)
    vertical = np.broadcast_to(idx[None, :], (size, size)).astype(float)

    images = np.empty((2 * spec.n_per_class, 1, size, size))
    images[: spec.n_per_class, 0] = horizontal
    images[spec.n_per_class :, 0] = vertical
    labels = np.repeat(np.array([0, 1], dtype=np.int64), spec.n_per_class)
    if spec.noise_std > 0:
        images = images + rng.normal(0.0, spec.noise_std, size=images.shape)
    images = np.clip(images, 0.0, 1.0)
    return ImageDataset(images, labels)


def split(
    dataset: ImageDataset, train_n: int, valid_n: int, seed: int
) -> tuple[ImageDataset, ImageDataset]:
    """Disjoint class-stratified train/validation split with a seeded shuffle."""
    if train_n < 0 or valid_n < 0 or train_n + valid_n > dataset.n:
        raise ValueError(
            f"cannot draw {train_n}+{valid_n} samples from a dataset of {dataset.n}"
        )
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    valid_idx: list[np.ndarray] = []
    classes = np.unique(dataset.labels)
    remaining_train, remaining_valid = train_n, valid_n
    for i, cls in enumerate(classes):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(cls_idx)
        frac = cls_idx.size / dataset.n
        left = len(classes) - 1 - i
        take_train = round(train_n * frac) if left else remaining_train
        take_valid = round(valid_n * frac) if left else remaining_valid
        if take_train + take_valid > cls_idx.size:
            raise ValueError("insufficient samples in a class for the requested split")
        train_idx.append(cls_idx[:take_train])
        valid_idx.append(cls_idx[take_train : take_train + take_valid])
        remaining_train -= take_train
        remaining_valid -= take_valid

    train_sel = np.sort(np.concatenate(train_idx)).astype(int)
    valid_sel = np.sort(np.concatenate(valid_idx)).astype(int)
    train = ImageDataset(dataset.images[train_sel], dataset.labels[train_sel])
    valid = ImageDataset(dataset.images[valid_sel], dataset.labels[valid_sel])
    return train, valid
