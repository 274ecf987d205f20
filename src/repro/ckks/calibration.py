"""Single source of truth for the calibrated CKKS noise magnitudes.

:class:`NoiseModel` is the one statement of the per-op noise standard
deviations.  Both domains the Table 2 programs are folded over read it:

* the sampling domain, :class:`repro.ckks.noise.NoisyEvaluator`, which
  injects these standard deviations into concrete numpy vectors; and
* the bounding domain, :class:`repro.check.noise_check.NoiseCheckEvaluator`,
  whose ``NoiseParams`` is a ``NoiseModel`` with the word length and
  message ratio added, and which propagates them symbolically.

So the bound the static analyzer proves and the noise the samples
carry cannot drift apart: they are the same properties of the same
class.

Calibration against the paper's Table 2 measurements at ``N = 2**16``:
precision = scale_bits - offset (fresh ~ 12.6 bits below the scale,
bootstrap ~ 13.3 bits below).  The relative term models RNS prime
granularity: scale-sized prime candidates are spaced ``2N = 2**17``
apart, so every rescale carries a *relative* error of order
``2N / scale`` — the multiplicative jitter that, compounded across a
workload's thousands of rescales, drives the paper's low-scale error
explosions while ``2**35`` keeps it at ``2**-18``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FRESH_OFFSET_BITS",
    "OP_OFFSET_BITS",
    "BOOT_OFFSET_BITS",
    "RELATIVE_OFFSET_BITS",
    "BOOT_CAP_OFFSET_BITS",
    "NoiseModel",
]

# Calibration against Table 2 (N = 2^16): precision = scale_bits - offset.
FRESH_OFFSET_BITS = 12.6
BOOT_OFFSET_BITS = 13.3
OP_OFFSET_BITS = 13.0  # HMult / HRot key-switch + rescale noise
# RNS primes can only approximate the scale: at N = 2^16 candidates are
# spaced 2N = 2^17 apart, so every rescale carries a relative error of
# order 2N / scale.
RELATIVE_OFFSET_BITS = 17.0
# Bootstrapping precision is additionally capped by what the
# bootstrapping scale can express (Table 2's DS column): the cap is
# boot_scale_bits - 36.5 bits of precision.
BOOT_CAP_OFFSET_BITS = 36.5


@dataclass(frozen=True)
class NoiseModel:
    """Per-op message-domain noise standard deviations at one scale pair."""

    scale_bits: float
    boot_scale_bits: float = 62.0

    @property
    def fresh_std(self) -> float:
        """Noise std of a fresh encryption."""
        return 2.0 ** -(self.scale_bits - FRESH_OFFSET_BITS)

    @property
    def op_std(self) -> float:
        """Additive noise std of one key-switched op (HMult/HRot/PMult)."""
        return 2.0 ** -(self.scale_bits - OP_OFFSET_BITS)

    @property
    def relative_std(self) -> float:
        """Relative (multiplicative) std of one rescale's prime-vs-scale
        deviation: order ``2N / scale`` at N = 2^16."""
        return 2.0 ** -(self.scale_bits - RELATIVE_OFFSET_BITS)

    @property
    def boot_std(self) -> float:
        """Noise std of one bootstrap, capped by the bootstrapping scale."""
        base = 2.0 ** -(self.scale_bits - BOOT_OFFSET_BITS)
        cap = 2.0 ** -(self.boot_scale_bits - BOOT_CAP_OFFSET_BITS)
        return max(base, cap)
