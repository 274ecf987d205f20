"""SHARP's ten-step hierarchical NTT (paper S4.2).

A limb of ``N`` coefficients is viewed as an ``S x S`` matrix with
``S = M**2 = sqrt(N)`` and ``M = N**(1/4)``.  Each of a cluster's ``M``
lane groups (of ``M`` adjacent lanes) runs ``S``-point transforms over
a column (phase 1) and, after the single inter-lane-group transpose —
the only semi-global connection in the design — over a row (phase 2).

The functional transform is a Bailey split over the reference
butterflies: twist by ``psi**j``, ``S``-point column transforms, the
inter-phase twisting factors ``omega**(j1*k2)``, ``S``-point row
transforms, transpose.  Each ``S``-point cyclic transform is
:class:`~repro.ntt.reference.NttContext` of size ``S`` applied to its
input untwisted by ``psi_S**-j``; that is exact because
``nth_root_of_unity`` derives every root from one generator, so
``psi_S = psi**S``.  The output is identical to the reference NTT (the
tests assert bit-exactness).  How a lane regenerates the twisting
factors on the fly is :mod:`repro.ntt.twiddle` (OF-Twist).

On top of the math, this module models the *dataflow*: how many words
cross lane and lane-group boundaries, the horizontal bisection
bandwidth of the NTT unit, and the total horizontal wire length — the
quantities behind the paper's "six-fold bisection reduction" and
"9.17x shorter wiring" claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ntt.reference import NttContext
from repro.ntt.twiddle import geometric_sequence
from repro.rns.modmath import mod_inverse, nth_root_of_unity

__all__ = [
    "TenStepNtt",
    "NttuDataflowModel",
    "flat_nttu_dataflow",
    "hierarchical_nttu_dataflow",
]


@dataclass
class TenStepNtt:
    """Ten-step negacyclic NTT: hierarchical split ``M^2 x M^2``.

    Functionally identical to the reference transform (asserted by the
    tests); structured so the two phases correspond to per-lane-group
    work separated by the inter-lane-group transpose.
    """

    degree: int
    modulus: int

    def __post_init__(self):
        n, q = self.degree, self.modulus
        quarter_bits = (n.bit_length() - 1) / 4.0
        if n & (n - 1) or not quarter_bits.is_integer():
            raise ValueError(
                "ten-step NTT requires degree = M**4 for integer M (e.g. 2^16, 2^12)"
            )
        self.m = 1 << int(quarter_bits)
        s = self.m * self.m
        self._inner = NttContext(s, q)
        psi = nth_root_of_unity(2 * n, q)
        psi_inv = mod_inverse(psi, q)

        def table(ratio, length):
            return np.array(geometric_sequence(1, ratio, length, q), dtype=np.uint64)

        self._twist = table(psi, n)
        self._twist_inv = table(psi_inv, n)
        # Untwist turning the inner negacyclic plan into a cyclic DFT.
        self._untwist = table(self._inner.psi_inv, s)
        self._untwist_inv = table(self._inner.psi, s)
        # Inter-phase factors omega^(j1*k2): row j1 has ratio omega^j1.
        omega, omega_inv = psi * psi % q, psi_inv * psi_inv % q
        self._mid = np.array([table(pow(omega, j1, q), s) for j1 in range(s)])
        self._mid_inv = np.array([table(pow(omega_inv, j1, q), s) for j1 in range(s)])

    def _cyclic(self, b: np.ndarray) -> np.ndarray:
        """``S``-point cyclic DFTs along the last axis."""
        return self._inner.forward(self._inner.kernel.mul(b, self._untwist))

    def _cyclic_inv(self, b: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_cyclic`."""
        return self._inner.kernel.mul(self._inner.inverse(b), self._untwist_inv)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic NTT; natural order in and out, matches the reference."""
        mul, s = self._inner.kernel.mul, self.m * self.m
        a = mul(np.asarray(coeffs, dtype=np.uint64), self._twist)
        y = self._cyclic(a.reshape(s, s).T)  # y[j1, k2], over j2 of a[j1 + S*j2]
        t = self._cyclic(mul(y, self._mid).T)  # t[k2, k1], over j1
        return t.T.reshape(self.degree)  # X[k2 + S*k1]

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT; exact inverse of :meth:`forward`."""
        mul, s = self._inner.kernel.mul, self.m * self.m
        t = np.asarray(evals, dtype=np.uint64).reshape(s, s).T
        y = mul(self._cyclic_inv(t).T, self._mid_inv)
        a = self._cyclic_inv(y).T.reshape(self.degree)
        return mul(a, self._twist_inv)


@dataclass(frozen=True)
class NttuDataflowModel:
    """Communication profile of an NTT unit spanning ``lanes`` lanes.

    ``bisection_words_per_cycle`` counts words crossing the horizontal
    midline of the unit each cycle when fully pipelined;
    ``horizontal_wire_length`` sums point-to-point link lengths in lane
    pitches.  ``semi_global_wire_length`` isolates the single
    inter-lane-group transpose connection of the hierarchical design
    (zero for the flat design, whose *entire* network is semi-global).
    """

    name: str
    lanes: int
    lane_group: int
    bisection_words_per_cycle: int
    horizontal_wire_length: int
    semi_global_wire_length: int
    inter_group_words_per_limb: int
    intra_group_words_per_limb: int


def _butterfly_wire_length(lanes: int) -> int:
    """Wire length of one `lanes`-lane butterfly network.

    Stage ``s`` links every lane to its partner ``2**s`` away: ``lanes``
    links of length ``2**s`` per stage, ``log2(lanes)`` stages.
    """
    return lanes * (lanes - 1)  # lanes * sum(2**s for s in range(log2(lanes)))


def _transpose_wire_length(lanes: int) -> int:
    """Wire length of a quadrant-swap transpose unit (same structure)."""
    return lanes * (lanes - 1)


def flat_nttu_dataflow(lanes: int, degree: int) -> NttuDataflowModel:
    """F1/CraterLake/ARK-style NTTU: four-step spanning all lanes.

    Both sqrt(N)-point butterfly units and the transpose unit stretch
    across the full lane width, so each contributes ``lanes`` crossing
    words per cycle at the midline (the stride >= lanes/2 stage moves
    every word across) — 3 * lanes total, which for 256 lanes is the
    768 words/cycle ARK reports (Table 4).
    """
    bisection = 3 * lanes
    wire = 2 * _butterfly_wire_length(lanes) + _transpose_wire_length(lanes)
    # Every coefficient hops across lane groups multiple times: the
    # transpose is an all-to-all over the full width and butterfly
    # strides exceed any local neighborhood.
    inter = 3 * degree
    return NttuDataflowModel(
        name="flat-four-step",
        lanes=lanes,
        lane_group=lanes,
        bisection_words_per_cycle=bisection,
        horizontal_wire_length=wire,
        semi_global_wire_length=wire,
        inter_group_words_per_limb=inter,
        intra_group_words_per_limb=0,
    )


def hierarchical_nttu_dataflow(lanes: int, degree: int) -> NttuDataflowModel:
    """SHARP's ten-step NTTU: lane groups of ``sqrt(lanes)`` lanes.

    All butterflies and the intra-lane-group transposes stay inside
    16-lane groups; the sole semi-global link is the inter-lane-group
    transpose, which moves one word per lane per cycle, of which half
    cross the midline: ``lanes / 2`` = 128 words/cycle for 256 lanes
    (Table 4's six-fold reduction vs. ARK's 768).
    """
    group = int(math.isqrt(lanes))
    if group * group != lanes:
        raise ValueError("hierarchical model expects lanes to be a perfect square")
    groups = lanes // group
    # Per group and phase: two `group`-lane butterflies + one
    # intra-group transpose; two phases total.
    local_wire = groups * 2 * (2 * _butterfly_wire_length(group) + _transpose_wire_length(group))
    # Inter-lane-group transpose: one link per lane, average span half
    # the cluster width.
    semi_global = lanes * (lanes // 2)
    bisection = lanes // 2
    inter = degree  # each coefficient crosses groups exactly once
    # Intra-group traffic: butterflies and intra transposes move each
    # coefficient log2(group)-ish times per phase; count one transit per
    # butterfly network plus one per intra transpose, two phases.
    intra = 3 * degree * 2
    return NttuDataflowModel(
        name="hierarchical-ten-step",
        lanes=lanes,
        lane_group=group,
        bisection_words_per_cycle=bisection,
        horizontal_wire_length=local_wire + semi_global,
        semi_global_wire_length=semi_global,
        inter_group_words_per_limb=inter,
        intra_group_words_per_limb=intra,
    )
