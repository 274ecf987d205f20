"""ALU area/power cost model (paper Fig. 2(a), observation (2)).

The paper synthesizes general multipliers, Montgomery modular
multipliers, and Barrett modular multipliers in the ASAP7 7 nm PDK and
finds near-quadratic scaling with the word length: going from 28-bit to
64-bit units costs 5.01x area and 5.37x power in geometric mean,
bracketing the pure-quadratic 5.22x.  (Timing closure pushes power
slightly super-quadratic while area stays slightly sub-quadratic.)

We replace the RTL flow with a calibrated analytic model: a w-bit array
multiplier has ``w**2`` partial-product cells plus ``O(w)`` peripheral
adders; modular variants add one (Montgomery) or two (Barrett) extra
multiplier-equivalents plus correction logic.  Exponents are fitted to
the paper's reported 28->64-bit ratios, which pins the whole curve.

Units are normalized so a 28-bit general multiplier has area 1.0 and
power 1.0; chip-level roll-ups (:mod:`repro.hw.area`) attach absolute
scales.
"""

from __future__ import annotations

import math

__all__ = [
    "alu_area",
    "alu_power",
    "AREA_EXPONENT",
    "POWER_EXPONENT",
    "area_ratio_64_to_28",
    "power_ratio_64_to_28",
    "scaling_table",
]

REFERENCE_BITS = 28

# Fitted to the paper's gmean ratios: 5.01x area and 5.37x power for
# 64b vs 28b, i.e. exponents log(5.01)/log(64/28) and log(5.37)/log(64/28).
AREA_EXPONENT = math.log(5.01) / math.log(64 / 28)
POWER_EXPONENT = math.log(5.37) / math.log(64 / 28)

# Relative complexity of each ALU kind at equal word length, reflecting
# the extra multiplier trees and correction stages of modular reduction.
_KIND_FACTORS = {
    "mult": 1.0,  # general integer multiplier
    "montgomery": 2.2,  # 2 multiplier stages + q-correction
    "barrett": 2.5,  # 2 multiplier stages + 2 conditional subtracts
    "adder": 0.04,  # word-length adder (linear structure dominates)
}


def _factor(kind: str) -> float:
    try:
        return _KIND_FACTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown ALU kind {kind!r}; expected one of {sorted(_KIND_FACTORS)}"
        ) from None


def alu_area(kind: str, word_bits: int) -> float:
    """Normalized ALU area (28-bit general multiplier = 1.0)."""
    if word_bits < 4:
        raise ValueError("word length too small")
    scale = (word_bits / REFERENCE_BITS) ** AREA_EXPONENT
    if kind == "adder":  # adders scale linearly, not quadratically
        scale = word_bits / REFERENCE_BITS
    return _factor(kind) * scale


def alu_power(kind: str, word_bits: int) -> float:
    """Normalized ALU power (28-bit general multiplier = 1.0)."""
    if word_bits < 4:
        raise ValueError("word length too small")
    scale = (word_bits / REFERENCE_BITS) ** POWER_EXPONENT
    if kind == "adder":
        scale = word_bits / REFERENCE_BITS
    return _factor(kind) * scale


def _gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def area_ratio_64_to_28() -> float:
    """Gmean area ratio across the three multiplier families."""
    return _gmean(
        alu_area(k, 64) / alu_area(k, 28) for k in ("mult", "montgomery", "barrett")
    )


def power_ratio_64_to_28() -> float:
    return _gmean(
        alu_power(k, 64) / alu_power(k, 28)
        for k in ("mult", "montgomery", "barrett")
    )


def scaling_table(
    word_lengths: tuple[int, ...] = (28, 32, 36, 40, 44, 48, 52, 56, 60, 64),
) -> list[dict[str, float]]:
    """Fig. 2(a) data: per-kind area and power across word lengths."""
    rows: list[dict[str, float]] = []
    for w in word_lengths:
        rows.append(
            {
                "word_bits": w,
                "area_mult": alu_area("mult", w),
                "area_montgomery": alu_area("montgomery", w),
                "area_barrett": alu_area("barrett", w),
                "power_mult": alu_power("mult", w),
                "power_montgomery": alu_power("montgomery", w),
                "power_barrett": alu_power("barrett", w),
            }
        )
    return rows
