"""Working-set and complexity analysis across levels (paper Fig. 5).

(a) HMult's computational complexity breakdown — (I)NTT, BConv,
element-wise, automorphism shares — as a function of the level, and
(b) the working-set size for different numbers of live temporary
ciphertexts, against the evk size and the RF_main capacity.

These curves carry the paper's observations (10) (temporaries dominate
evks once keys are reused) and (11) (capacity only binds at high,
i.e. bootstrapping, levels).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.opcount import hmult_counts
from repro.params.presets import WordLengthSetting

__all__ = [
    "LevelPoint",
    "hmult_breakdown",
    "working_set_curve",
    "fig5_data",
]

MIB = 1 << 20
RF_MAIN_MIB = 180.0  # SHARP's RF_main capacity
TEMPORARIES = (4, 6, 8, 16)  # live temporary ciphertexts Fig. 5(b) plots


@dataclass(frozen=True)
class LevelPoint:
    """One level's complexity shares and working-set sizes."""

    limbs: int
    ntt_share: float
    bconv_share: float
    elementwise_share: float
    ciphertext_mib: float
    evk_mib: float
    working_set_mib: dict  # temporaries -> MiB


def _limb_ladder(setting: WordLengthSetting) -> list[int]:
    """Active limb counts from the top of the chain down to the base."""
    limbs = setting.max_level
    out = [limbs]
    for name in ("boot", "stc", "normal"):
        g = setting.group(name)
        for _ in range(g.levels):
            limbs -= g.primes_per_level
            out.append(limbs)
    return out


def hmult_breakdown(setting: WordLengthSetting, limbs: int) -> dict:
    """Fraction of HMult's multiplier work per primary function."""
    drop = setting.group("normal").primes_per_level
    counts = hmult_counts(setting, limbs, min(drop, limbs - 1))
    total = counts.total_muls
    return {
        "ntt": counts.ntt_butterfly_muls / total,
        "bconv": counts.bconv_muls / total,
        "elementwise": counts.elementwise_muls / total,
    }


def working_set_curve(setting: WordLengthSetting) -> list[LevelPoint]:
    """Fig. 5 data points across the whole chain (PRNG-compressed keys)."""
    points = []
    for limbs in _limb_ladder(setting):
        if limbs < setting.base_prime_count + 2:
            continue
        evk_mib = setting.evk_bytes(prng=True, limbs=limbs) / MIB
        ct_mib = setting.ciphertext_bytes(limbs) / MIB
        shares = hmult_breakdown(setting, limbs)
        points.append(
            LevelPoint(
                limbs=limbs,
                ntt_share=shares["ntt"],
                bconv_share=shares["bconv"],
                elementwise_share=shares["elementwise"],
                ciphertext_mib=ct_mib,
                evk_mib=evk_mib,
                working_set_mib={
                    t: t * ct_mib + evk_mib for t in TEMPORARIES
                },
            )
        )
    return points


def fig5_data(setting: WordLengthSetting) -> dict:
    """Everything Fig. 5 plots, plus the capacity line."""
    curve = working_set_curve(setting)
    return {
        "points": curve,
        "capacity_mib": RF_MAIN_MIB,
        "max_ciphertext_mib": curve[0].ciphertext_mib,
        "evk_mib": curve[0].evk_mib,
        # Observation (11): the level below which even 16 temporaries fit.
        "binding_limbs": [
            p.limbs for p in curve if p.working_set_mib[16] > RF_MAIN_MIB
        ],
    }
