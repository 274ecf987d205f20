"""Chip-area roll-up (paper Table 4 / Fig. 6(b) / S6.4).

Component model calibrated to the paper's published totals:

* SRAM density backs out of SHARP's 198 MiB in 87.3 mm^2 (S5).
* HBM PHY area for two stacks comes from the paper's "66% for RF and
  HBM PHY" on the 178.8 mm^2 die.
* Logic areas use the ALU cost model with unit counts derived from the
  configuration (butterfly multipliers, systolic BConv MACs, EWE
  datapaths).  Flat (non-hierarchical) designs pay the paper's 2.04x
  NTTU area, the S6.5 constant ``FLAT_NTTU_PENALTY``.

With these constants the model lands on 178.8 mm^2 for SHARP,
~147 mm^2 for SHARP_28, ~2x SHARP_28 for SHARP_64, and ~252 mm^2 for
the eight-cluster variant — the paper's reported numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.alu_model import alu_area
from repro.core.config import AcceleratorConfig

__all__ = ["AreaBreakdown", "chip_area"]

MIB = 1 << 20

SRAM_MM2_PER_MIB = 87.3 / 198.0  # SHARP: 180+18 MiB in 87.3 mm^2
HBM_PHY_MM2 = 30.7  # two HBM stacks
NTTU_OVERHEAD = 2.5  # buffers, transpose, OF-twist around the butterflies
FLAT_NTTU_PENALTY = 2.04  # paper S6.5: hierarchy shrinks the NTTU 2.04x
LOGIC_MM2_PER_UNIT = 3.0e-4  # mm^2 per normalized ALU-area unit
NOC_MM2_PER_WORD = 8.0 / 1024.0  # global NoC wiring per word/cycle


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-component chip area in mm^2."""

    rf: float
    hbm_phy: float
    nttu: float
    bconvu: float
    ewe: float
    auto_dsu: float
    noc: float

    @property
    def logic(self) -> float:
        return self.nttu + self.bconvu + self.ewe + self.auto_dsu

    @property
    def total(self) -> float:
        return self.rf + self.hbm_phy + self.logic + self.noc

    @property
    def memory_fraction(self) -> float:
        """RF + PHY share of the die (paper: 66% for SHARP)."""
        return (self.rf + self.hbm_phy) / self.total

    def as_dict(self) -> dict:
        return {
            "rf": self.rf,
            "hbm_phy": self.hbm_phy,
            "nttu": self.nttu,
            "bconvu": self.bconvu,
            "ewe": self.ewe,
            "auto_dsu": self.auto_dsu,
            "noc": self.noc,
            "total": self.total,
        }


def _nttu_mult_units(config: AcceleratorConfig) -> float:
    """Montgomery multipliers across all NTTUs.

    Each cluster's NTTU realizes two sqrt(N)-point butterfly phases:
    (lanes/2) * log2(lanes) multipliers per phase.
    """
    lanes = config.lanes_per_cluster
    per_phase = (lanes // 2) * int(math.log2(lanes))
    return config.clusters * 2 * per_phase


def chip_area(config: AcceleratorConfig) -> AreaBreakdown:
    w = config.word_bits
    rf = (config.rf_main_bytes + config.rf_coeff_bytes) / MIB * SRAM_MM2_PER_MIB

    nttu_units = _nttu_mult_units(config) * alu_area("montgomery", w)
    nttu = nttu_units * NTTU_OVERHEAD * LOGIC_MM2_PER_UNIT
    if not config.hierarchical_nttu:
        nttu *= FLAT_NTTU_PENALTY

    bconv_units = config.total_lanes * config.bconv_macs_per_lane
    bconvu = bconv_units * alu_area("barrett", w) * LOGIC_MM2_PER_UNIT

    ewe_units = config.total_lanes * (
        config.ew_mults_per_lane * alu_area("barrett", w)
        + config.ew_adds_per_lane * alu_area("adder", w)
    )
    ewe = ewe_units * LOGIC_MM2_PER_UNIT

    auto_dsu = 0.10 * (nttu + bconvu + ewe)
    noc = config.noc_bw_words * NOC_MM2_PER_WORD

    return AreaBreakdown(
        rf=rf,
        hbm_phy=HBM_PHY_MM2,
        nttu=nttu,
        bconvu=bconvu,
        ewe=ewe,
        auto_dsu=auto_dsu,
        noc=noc,
    )
