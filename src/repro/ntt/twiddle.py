"""On-the-fly twisting/twiddle factor generation (OF-Twist, paper S4.2).

ARK observed that the inter-phase twisting factors of a four-step NTT
form geometric sequences, so a lane can regenerate them at runtime from
a single stored common ratio (``zeta``) instead of storing a full
table.  SHARP's ten-step NTT needs two refinements:

* **Phase 1** — the ``M**2`` twisting factors at a lane are ``M``
  repetitions of the same geometric sequence ``1, z, z^2, ..., z^(M-1)``
  (single OF-Twist).
* **Phase 2** — with *bit-reversed row access*, the factors become ``M``
  geometric sequences whose common ratios *themselves* form a geometric
  sequence ``z, z^3, z^5, z^7, ...`` (ratio ``z**2``).  The *double
  OF-Twist unit* regenerates the whole pattern from just ``(z, z**2)``.

This module provides the generators and a functional model of the
double OF-Twist unit.
"""

from __future__ import annotations

__all__ = [
    "geometric_sequence",
    "phase2_twist_factors",
    "DoubleOfTwistUnit",
]


def geometric_sequence(start: int, ratio: int, length: int, modulus: int) -> list[int]:
    """``start, start*ratio, start*ratio**2, ...`` (mod ``modulus``)."""
    out = []
    acc = start % modulus
    for _ in range(length):
        out.append(acc)
        acc = acc * ratio % modulus
    return out


def phase2_twist_factors(zeta: int, m: int, modulus: int) -> list[int]:
    """Phase-2 twisting factors at one lane under bit-reversed row access.

    Rows assigned to a lane group are visited in bit-reversed order,
    which turns the per-row common ratios into the odd powers
    ``z, z^3, z^5, z^7, ...``.  (Paper's M = 4 example:
    1, z, z^2, z^3, 1, z^3, z^6, z^9, 1, z^5, z^10, z^15, 1, z^7, ...)
    """
    out: list[int] = []
    ratio = zeta
    for _ in range(m):
        out.extend(geometric_sequence(1, ratio, m, modulus))
        ratio = ratio * zeta * zeta % modulus
    return out


class DoubleOfTwistUnit:
    """Functional model of SHARP's double OF-Twist generator.

    The unit is loaded with the first common ratio ``zeta`` and the
    common ratio *of* common ratios ``zeta**2``; it then streams the
    full phase-2 twisting sequence one factor per cycle using two
    multiplier-accumulators — no table storage.
    """

    def __init__(self, zeta: int, zeta_sq: int, m: int, modulus: int):
        self.zeta = zeta
        self.zeta_sq = zeta_sq
        self.m = m
        self.modulus = modulus
        self.reset()

    def reset(self) -> None:
        self._ratio = self.zeta
        self._value = 1
        self._col = 0
        self.multiplies = 0  # datapath multiplier activations

    def step(self) -> int:
        """Emit the next twisting factor (one per cycle)."""
        out = self._value
        self._col += 1
        if self._col == self.m:
            # Row boundary: restart the inner sequence and advance the
            # outer (ratio) sequence by zeta^2.
            self._col = 0
            self._value = 1
            self._ratio = self._ratio * self.zeta_sq % self.modulus
            self.multiplies += 1
        else:
            self._value = self._value * self._ratio % self.modulus
            self.multiplies += 1
        return out

    def stream(self, count: int) -> list[int]:
        return [self.step() for _ in range(count)]
