"""Word-length parameter settings (the paper's ``Set_k`` machinery, S3).

A :class:`WordLengthSetting` materializes a complete 128-bit-secure
RNS-CKKS modulus chain for a given machine word length: the base primes
(never rescaled, hold the final message), the bootstrapping levels at
the bootstrapping scale, the normal levels at the normal scale, and the
auxiliary ``p_i`` primes for key-switching.  Each level is realized as
single-prime scaling (SS) when a prime near the scale fits the word and
as double-prime scaling (DS) otherwise.

The effective level ``L_eff`` — the number of rescalings available
between bootstrappings — is *derived*, by growing the chain until the
``log PQ <= 1555`` security budget or NTT-prime availability is
exhausted.  With the bootstrap depth model below, the derivation
reproduces the paper's Fig. 2(b) row:

    Set_28: 6,  Set_32: 5,  Set_36..Set_60: 8,  Set_64: 7

with Set_36 landing on L = 35, K = 12, and 11 SS primes, exactly as
reported in S3.2.

Bootstrap depth model (calibrated to the paper's implementation
[Bossuat+ 2022, Lattigo, ARK]): CoeffToSlot + EvalMod consume
``BOOT_DEPTH_SS`` = 10 levels at the bootstrapping scale when that
scale is a single prime; DS bootstrapping pays one extra level for the
double-prime accumulation (the DSU's job, S4.5); settings that must
*reduce* the bootstrapping scale below 2^62 (Set_28 -> 2^55) pay one
more level, the paper's "slightly more complex bootstrapping algorithm
[with] 1.05x more computation".  SlotToCoeff consumes ``STC_DEPTH`` = 3
levels at the *normal* scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from repro.params.primes import (
    PrimeScarcityError,
    find_aux_primes,
    level_width,
    max_scale_bits,
    min_ds_scale_bits,
    realize_levels,
)
from repro.params.security import max_log_pq

__all__ = [
    "LevelGroup",
    "WordLengthSetting",
    "build_sharp_setting",
    "build_native_ckks_params",
    "WORD_LENGTHS",
    "NATIVE_WORD_LENGTHS",
    "DEFAULT_NORMAL_SCALE_BITS",
    "DEFAULT_BOOT_SCALE_BITS",
    "BOOT_DEPTH_SS",
    "STC_DEPTH",
    "boot_plan",
    "native_scale_bits",
]

WORD_LENGTHS = (28, 32, 36, 40, 44, 48, 52, 56, 60, 64)
# The words that run natively (every prime below the 2^62 kernel limit):
# the bound prover certifies them, the noise audit sweeps them and the
# service sells them.
NATIVE_WORD_LENGTHS = (28, 36, 50, 62)

DEFAULT_NORMAL_SCALE_BITS = 35  # minimum robust normal scale (observation (1))
DEFAULT_BOOT_SCALE_BITS = 62  # bootstrapping scale used by Set_32..Set_64
REDUCED_BOOT_SCALE_BITS = 55  # Set_28's relieved bootstrapping scale
BOOT_DEPTH_SS = 10  # CtS + EvalMod levels at the boot scale (SS realization)
STC_DEPTH = 3  # SlotToCoeff levels at the normal scale
BASE_LOG = 58  # modulus bits reserved for the never-rescaled base
DEGREE = 1 << 16  # the paper's ring degree N

DEFAULT_DNUM = 3


@dataclass(frozen=True)
class LevelGroup:
    """A run of rescaling levels sharing one scale and one SS/DS plan."""

    name: str  # "base" | "boot" | "stc" | "normal"
    scale_bits: float
    levels: int
    primes_per_level: int  # 1 = SS, 2 = DS
    primes: tuple[int, ...]  # flat, level-major: len == levels * primes_per_level

    @property
    def is_double(self) -> bool:
        return self.primes_per_level == 2


@dataclass(frozen=True)
class WordLengthSetting:
    """A complete ``Set_k`` parameter set (paper S3.2)."""

    word_bits: int
    degree: int
    dnum: int
    normal_scale_bits: float
    boot_scale_bits: float
    groups: tuple[LevelGroup, ...]
    aux_primes: tuple[int, ...]
    l_eff: int
    security_budget: int

    # --- chain-level accessors -------------------------------------------

    @property
    def q_primes(self) -> tuple[int, ...]:
        """All RNS primes of Q, base first, then boot, stc, normal."""
        out: list[int] = []
        for g in self.groups:
            out.extend(g.primes)
        return tuple(out)

    @property
    def max_level(self) -> int:
        """L: the number of q_i primes composing Q."""
        return len(self.q_primes)

    @property
    def alpha(self) -> int:
        """alpha = ceil(L / dnum): the limbs of one key-switch digit."""
        return math.ceil(self.max_level / self.dnum)

    @property
    def k(self) -> int:
        """K: the number of p_i primes composing P."""
        return len(self.aux_primes)

    @property
    def log_q(self) -> float:
        return sum(math.log2(p) for p in self.q_primes)

    @property
    def log_p(self) -> float:
        return sum(math.log2(p) for p in self.aux_primes)

    @property
    def log_pq(self) -> float:
        return self.log_q + self.log_p

    def group(self, name: str) -> LevelGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)

    @property
    def ss_prime_count(self) -> int:
        """Primes used in single-prime-scaling levels (excluding base)."""
        return sum(
            g.levels for g in self.groups if not g.is_double and g.name != "base"
        )

    @property
    def ds_prime_count(self) -> int:
        return sum(
            g.levels * 2 for g in self.groups if g.is_double and g.name != "base"
        )

    @property
    def base_prime_count(self) -> int:
        return len(self.group("base").primes)

    # --- storage sizes (paper S5, Fig. 5) --------------------------------

    def word_bytes(self) -> float:
        """Storage bytes per coefficient word (bit-packed, as in hardware)."""
        return self.word_bits / 8.0

    def ciphertext_bytes(self, level: int | None = None) -> float:
        """Size of a ciphertext (2 polynomials of ``level`` limbs)."""
        limbs = self.max_level if level is None else level
        return 2 * limbs * self.degree * self.word_bytes()

    def evk_bytes(self, prng: bool = False, limbs: int | None = None) -> float:
        """Size of an evaluation key as used at ``limbs`` limbs.

        A key switch at ``limbs`` limbs reads ``ceil(limbs / alpha)``
        digits (``alpha = ceil(L / dnum)``) of two ``(limbs + K) x N``
        matrices each — a prefix of the rows stored for the full chain,
        which is the size when ``limbs`` is None: dnum pairs of
        ``(L + K) x N``.  With CraterLake-style PRNG generation the
        ``A`` half of each pair is regenerated from a seed, halving
        storage and traffic (S4.1).  Every model that moves or holds a
        key (simulator, scheduler, BSGS planner, Fig. 5(b)) sizes it
        here.
        """
        if limbs is None:
            limbs = self.max_level
        polys_per_digit = 1 if prng else 2
        return (
            math.ceil(limbs / self.alpha)
            * polys_per_digit
            * (limbs + self.k)
            * self.degree
            * self.word_bytes()
        )

    def describe(self) -> str:
        g = {grp.name: grp for grp in self.groups}
        lines = [
            f"Set_{self.word_bits}: N=2^{int(math.log2(self.degree))}, "
            f"dnum={self.dnum}, L={self.max_level}, K={self.k}, "
            f"L_eff={self.l_eff}, logQ={self.log_q:.1f}, logP={self.log_p:.1f}, "
            f"logPQ={self.log_pq:.1f} (budget {self.security_budget})",
        ]
        for name in ("base", "boot", "stc", "normal"):
            grp = g[name]
            kind = "DS" if grp.is_double else "SS"
            lines.append(
                f"  {name:>6}: {grp.levels:2d} levels x {kind} "
                f"@ 2^{grp.scale_bits:g} ({len(grp.primes)} primes)"
            )
        return "\n".join(lines)


def boot_plan(word_bits: int) -> tuple[float, int]:
    """``(boot scale bits, boot depth)`` for a word length.

    The boot scale is 2^62, realized as SS when a ~2^62 prime fits the
    word and as a DS pair otherwise (one more level).  Words too short
    for a 2^62 pair drop to the largest DS scale, at most 2^55 (28-bit
    words), and pay a further level to recover precision.  The chain
    builder, the static noise audit and the bound prover all read it.
    """
    scale = float(DEFAULT_BOOT_SCALE_BITS)
    width = level_width(scale, word_bits)
    if width:
        return scale, BOOT_DEPTH_SS + width - 1
    reduced = min(REDUCED_BOOT_SCALE_BITS, max_scale_bits(word_bits, double=True))
    return float(reduced), BOOT_DEPTH_SS + 2


def native_scale_bits(word_bits: int) -> float:
    """Largest single-prime (SS) normal scale a word length can host:
    36-bit words run the paper's 35-bit robust scale, 28-bit words are
    forced down to 2^27 (the explosion regime of Table 2)."""
    return float(max_scale_bits(word_bits))


def _build_group(
    name: str,
    two_n: int,
    scale_bits: float,
    levels: int,
    word_bits: int,
    exclude: set[int],
    force_ds: bool = False,
) -> LevelGroup:
    """Realize ``levels`` rescaling levels of one scale as SS or DS."""
    realized = realize_levels(two_n, scale_bits, levels, word_bits, exclude, force_ds)
    flat = tuple(p for level in realized for p in level)
    return LevelGroup(name, scale_bits, levels, len(realized[0]), flat)


def _try_build(
    word_bits: int, dnum: int, normal_scale_bits: float, l_eff: int
) -> WordLengthSetting | None:
    """Build a full chain for a candidate L_eff; None if over budget."""
    two_n = 2 * DEGREE
    budget = max_log_pq(DEGREE)
    boot_scale, boot_depth = boot_plan(word_bits)
    boot_is_ds = level_width(boot_scale, word_bits) != 1
    exclude: set[int] = set()

    # Build the normal-scale groups first: their DS small-side primes are
    # the scarce resource, and the plentiful boot/base pools must not be
    # allowed to consume them.
    stc = _build_group("stc", two_n, normal_scale_bits, STC_DEPTH, word_bits, exclude)
    normal = _build_group(
        "normal", two_n, normal_scale_bits, l_eff, word_bits, exclude
    )
    boot = _build_group("boot", two_n, boot_scale, boot_depth, word_bits, exclude)
    # The base holds the final message and is never rescaled.  It is
    # realized in the same style as bootstrapping: an SS base on a
    # DS-bootstrapping word would introduce a needlessly large q_i and
    # inflate every p_i (which must exceed max q_i), wrecking the budget.
    base_log = min(BASE_LOG, boot_scale)
    base = _build_group(
        "base", two_n, float(base_log), 1, word_bits, exclude, force_ds=boot_is_ds
    )

    groups = (base, boot, stc, normal)
    q_primes = [p for g in groups for p in g.primes]
    L = len(q_primes)
    K = math.ceil(L / dnum)
    aux = find_aux_primes(two_n, K, min_value=max(q_primes), word_bits=word_bits)

    setting = WordLengthSetting(
        word_bits=word_bits,
        degree=DEGREE,
        dnum=dnum,
        normal_scale_bits=normal_scale_bits,
        boot_scale_bits=boot_scale,
        groups=groups,
        aux_primes=tuple(aux),
        l_eff=l_eff,
        security_budget=budget,
    )
    if setting.log_pq > budget:
        return None
    return setting


@lru_cache(maxsize=None)  # a setting takes up to seconds of prime search
def build_sharp_setting(word_bits: int, dnum: int = DEFAULT_DNUM) -> WordLengthSetting:
    """Construct ``Set_{word_bits}`` at N = 2^16 with the largest
    feasible L_eff.

    The normal scale is ``DEFAULT_NORMAL_SCALE_BITS`` when the word can
    realize it; otherwise (SS does not fit, DS pairs scarce) it is
    raised to the smallest supportable value, reproducing observation
    (3).
    """
    if word_bits < 24 or word_bits > 64:
        raise ValueError("word length must be within [24, 64] bits")
    best: WordLengthSetting | None = None
    for l_eff in itertools.count(1):
        scale = _supportable_scale(STC_DEPTH + l_eff, word_bits)
        try:
            setting = _try_build(word_bits, dnum, scale, l_eff)
        except PrimeScarcityError:
            break
        if setting is None:
            break
        best = setting
    if best is None:
        raise PrimeScarcityError(
            f"no feasible parameter set for {word_bits}-bit words at N={DEGREE}"
        )
    return best


def _supportable_scale(levels: int, word_bits: int) -> float:
    """Smallest realizable normal scale >= the default one."""
    requested_bits = DEFAULT_NORMAL_SCALE_BITS
    if level_width(requested_bits, word_bits) == 1:
        return requested_bits
    # DS path: need `levels` distinct pairs.
    min_bits = min_ds_scale_bits(2 * DEGREE, levels, word_bits)
    return float(max(min_bits, requested_bits))


def build_native_ckks_params(
    word_bits: int = 36,
    degree: int = 1 << 12,
    slots: int | None = None,
    depth: int = 8,
):
    """Functional ``CkksParams`` on *native* ``word_bits``-wide primes.

    The normal scale is :func:`native_scale_bits` — Set_36's 35-bit
    robust scale for the default word — realized as single primes that
    run directly on the wide kernel fast path (:mod:`repro.rns.kernels`),
    with no double-prime emulation anywhere in the chain.  The CKKS layer picks
    the preset up unchanged: only the primes are wider.
    """
    from repro.ckks.context import make_params  # params must not import ckks eagerly

    return make_params(
        degree=degree,
        slots=slots,
        scale_bits=native_scale_bits(word_bits),
        depth=depth,
        word_bits=word_bits,
    )
