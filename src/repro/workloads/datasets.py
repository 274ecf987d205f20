"""Synthetic datasets standing in for MNIST and CIFAR-10.

No offline datasets are available in this environment, so the
functionality experiments (Table 2 / Fig. 1) run on synthetic
equivalents that preserve what matters to the precision study: input
dimensionality, value ranges after normalization, and an achievable
clean-model accuracy close to the paper's unencrypted baselines
(96.37% for HELR's 3-vs-8 MNIST task, 92.18% for ResNet-20 on
CIFAR-10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BinaryImages", "make_mnist_like", "MultiClassImages", "make_cifar_like"]


@dataclass
class BinaryImages:
    """A two-class image dataset, flattened and normalized to [-1, 1]."""

    train_x: np.ndarray
    train_y: np.ndarray  # labels in {-1, +1}
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def features(self) -> int:
        return self.train_x.shape[1]


def make_mnist_like(
    train: int = 4096, test: int = 1984, separation: float = 1.35
) -> BinaryImages:
    """A 14x14 two-class task mimicking MNIST 3-vs-8 difficulty.

    Each class is a smooth random prototype image plus per-sample
    deformation and pixel noise; ``separation`` is tuned so a logistic
    regression tops out around the paper's 96% reference accuracy.
    """
    rng = np.random.default_rng(3)
    side = 14
    d = side * side

    def smooth_prototype() -> np.ndarray:
        raw = rng.normal(0, 1, (side, side))
        kernel = np.outer(np.hanning(5), np.hanning(5))
        kernel /= kernel.sum()
        out = np.zeros_like(raw)
        for i in range(side):
            for j in range(side):
                acc = w = 0.0
                for di in range(-2, 3):
                    for dj in range(-2, 3):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < side and 0 <= jj < side:
                            acc += raw[ii, jj] * kernel[di + 2, dj + 2]
                            w += kernel[di + 2, dj + 2]
                out[i, j] = acc / w
        return out.reshape(-1)

    proto_a = smooth_prototype()
    proto_b = smooth_prototype()
    gap = proto_b - proto_a
    gap /= np.linalg.norm(gap)

    def sample(count: int):
        labels = rng.choice((-1.0, 1.0), size=count)
        base = np.where(labels[:, None] > 0, proto_b, proto_a)
        x = base * 0.6 + rng.normal(0, 1.0 / separation, (count, d))
        x += labels[:, None] * gap * 0.25
        x = np.tanh(x)  # normalize into [-1, 1] like scaled pixels
        return x, labels

    tx, ty = sample(train)
    vx, vy = sample(test)
    return BinaryImages(tx, ty, vx, vy)


@dataclass
class MultiClassImages:
    """A small multi-class image set for the CNN experiments."""

    train_x: np.ndarray  # (n, c, h, w)
    train_y: np.ndarray  # int labels
    test_x: np.ndarray
    test_y: np.ndarray
    classes: int


def make_cifar_like(train: int = 3000, test: int = 1000) -> MultiClassImages:
    """A 10-class image task with CIFAR-like statistics (downscaled).

    Classes are random low-frequency color templates plus texture
    noise; a small residual CNN reaches ~90% clean accuracy, standing
    in for ResNet-20's 92.18% CIFAR-10 reference.
    """
    rng = np.random.default_rng(5)
    side, channels, classes = 8, 3, 10
    freq = np.fft.fftfreq(side)
    mask = 1.0 / (1.0 + 8.0 * (np.abs(freq[:, None]) + np.abs(freq[None, :])))

    def template() -> np.ndarray:
        out = np.empty((channels, side, side))
        for c in range(channels):
            spec = rng.normal(0, 1, (side, side)) * mask
            out[c] = np.real(np.fft.ifft2(spec * side))
        return out / (np.abs(out).max() + 1e-9)

    templates = [template() for _ in range(classes)]

    def sample(count: int):
        y = rng.integers(0, classes, count)
        x = np.empty((count, channels, side, side))
        for i, label in enumerate(y):
            x[i] = templates[label] + rng.normal(0, 0.26, (channels, side, side))
        return np.tanh(x), y

    tx, ty = sample(train)
    vx, vy = sample(test)
    return MultiClassImages(tx, ty, vx, vy, classes)
