"""Synthetic image-classification datasets.

The paper evaluates on MNIST, CIFAR-10/100 and ImageNet.  Those datasets are
not available offline, so we generate deterministic synthetic stand-ins with
matching channel/class structure.  Each class
is a smooth random prototype field; instances add filtered noise, small
translations and contrast jitter.  The resulting task is genuinely learnable
(a small convnet reaches high-but-not-perfect accuracy) and, critically, its
accuracy *responds* to pruning/polarization/quantization pressure, which is
what every accuracy-shaped experiment in the paper measures.

All generators are pure functions of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np
from scipy import ndimage


@dataclass
class Dataset:
    """A fixed split of images and integer labels."""

    name: str
    images: np.ndarray   # (N, C, H, W), float32, roughly zero-mean unit-ish scale
    labels: np.ndarray   # (N,), int64
    num_classes: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have the same length")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def channels(self) -> int:
        return self.images.shape[1]

    @property
    def image_size(self) -> int:
        return self.images.shape[2]

    def subset(self, n: int) -> "Dataset":
        """First ``n`` examples (class-balanced generators make this safe)."""
        return Dataset(self.name, self.images[:n], self.labels[:n], self.num_classes)


@dataclass
class DataLoader:
    """Mini-batch iterator with seeded shuffling."""

    dataset: Dataset
    batch_size: int = 32
    shuffle: bool = True
    seed: int = 0
    _epoch: int = field(default=0, init=False)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self._epoch)
            rng.shuffle(order)
        self._epoch += 1
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            yield self.dataset.images[idx], self.dataset.labels[idx]

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size


def _smooth_field(rng: np.random.Generator, shape: Tuple[int, ...], sigma: float) -> np.ndarray:
    """Gaussian-filtered white noise, normalized to unit std."""
    raw = rng.normal(size=shape)
    smooth = ndimage.gaussian_filter(raw, sigma=sigma)
    std = smooth.std()
    return smooth / (std + 1e-12)


def make_synthetic(name: str, num_classes: int, channels: int, size: int,
                   train_size: int, test_size: int, noise: float = 0.6,
                   max_shift: int = 2, seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Generate a (train, test) pair of synthetic datasets.

    Parameters
    ----------
    noise:
        Instance noise amplitude relative to the class prototype; higher makes
        the task harder (accuracy more sensitive to model compression).
    max_shift:
        Maximum circular translation (pixels) applied per instance.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    prototypes = np.stack([
        _smooth_field(rng, (channels, size, size), sigma=max(size / 8.0, 1.0))
        for _ in range(num_classes)
    ])

    def build(count: int, split_rng: np.random.Generator) -> Dataset:
        # Interleaved labels (0,1,..,K-1,0,1,..) so any prefix — hence
        # Dataset.subset — stays class-balanced.  DataLoader shuffles batches.
        labels = np.arange(count) % num_classes
        images = np.empty((count, channels, size, size), dtype=np.float32)
        for i, label in enumerate(labels):
            base = prototypes[label]
            jitter = _smooth_field(split_rng, (channels, size, size), sigma=1.0)
            img = base + noise * jitter
            if max_shift > 0:
                dy = int(split_rng.integers(-max_shift, max_shift + 1))
                dx = int(split_rng.integers(-max_shift, max_shift + 1))
                img = np.roll(img, (dy, dx), axis=(1, 2))
            contrast = 1.0 + 0.1 * split_rng.normal()
            images[i] = (contrast * img).astype(np.float32)
        return Dataset(name, images, labels.astype(np.int64), num_classes)

    train = build(train_size, np.random.default_rng(seed + 1))
    test = build(test_size, np.random.default_rng(seed + 2))
    return train, test


# ---------------------------------------------------------------------------
# Named stand-ins for the paper's datasets.  Class counts and image sizes are
# scaled down for offline tractability; both are parameters, so full-size
# variants are one call away.
# ---------------------------------------------------------------------------

def synthetic_mnist(train_size: int = 512, test_size: int = 256,
                    size: int = 16, seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Grey 1-channel, 10 classes — stands in for MNIST."""
    return make_synthetic("mnist", 10, 1, size, train_size, test_size,
                          noise=0.5, seed=seed)


def synthetic_cifar10(train_size: int = 512, test_size: int = 256,
                      size: int = 16, seed: int = 1) -> Tuple[Dataset, Dataset]:
    """RGB, 10 classes — stands in for CIFAR-10."""
    return make_synthetic("cifar10", 10, 3, size, train_size, test_size,
                          noise=0.6, seed=seed)


def synthetic_cifar100(train_size: int = 640, test_size: int = 320,
                       size: int = 16, num_classes: int = 20,
                       seed: int = 2) -> Tuple[Dataset, Dataset]:
    """RGB, many-class — stands in for CIFAR-100 (class count scaled down)."""
    return make_synthetic("cifar100", num_classes, 3, size, train_size, test_size,
                          noise=0.7, seed=seed)


def synthetic_imagenet(train_size: int = 640, test_size: int = 320,
                       size: int = 24, num_classes: int = 20,
                       seed: int = 3) -> Tuple[Dataset, Dataset]:
    """RGB, larger images, harder noise — stands in for ImageNet."""
    return make_synthetic("imagenet", num_classes, 3, size, train_size, test_size,
                          noise=0.9, max_shift=3, seed=seed)


DATASET_BUILDERS = {
    "mnist": synthetic_mnist,
    "cifar10": synthetic_cifar10,
    "cifar100": synthetic_cifar100,
    "imagenet": synthetic_imagenet,
}


def load_dataset(name: str, **kwargs) -> Tuple[Dataset, Dataset]:
    """Build a named synthetic dataset pair ("mnist", "cifar10", ...)."""
    try:
        builder = DATASET_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(DATASET_BUILDERS)}") from None
    return builder(**kwargs)
