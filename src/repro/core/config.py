"""Accelerator configurations (paper Table 4 and S6.4/S6.5 variants).

A :class:`AcceleratorConfig` captures everything the performance model
needs: datapath word length, cluster/lane geometry, functional-unit
throughputs, memory capacities and bandwidths, and the feature flags
the Fig. 8 ablation toggles (hierarchical NTTU, 2-D BConvU, EWE, PRNG
evk generation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.params.presets import WordLengthSetting, build_sharp_setting

__all__ = [
    "AcceleratorConfig",
    "sharp_config",
    "sharp28_config",
    "sharp64_config",
    "sharp_8cluster_config",
    "ark36_config",
]

MIB = 1 << 20
GB = 1_000_000_000


@dataclass(frozen=True)
class AcceleratorConfig:
    """Static description of one FHE accelerator design point."""

    name: str
    word_bits: int
    clusters: int
    lanes_per_cluster: int
    frequency_hz: float
    # Memory system.
    rf_main_bytes: float
    rf_coeff_bytes: float
    offchip_bw_bytes: float
    onchip_bw_words: float  # words/cycle across all RFs
    noc_bw_words: float  # global NoC words/cycle
    # Functional units (per-lane throughputs in ops/cycle).
    bconv_macs_per_lane: int
    ew_mults_per_lane: int
    ew_adds_per_lane: int
    # Feature flags.
    hierarchical_nttu: bool = True
    two_d_bconv: bool = True
    ewe: bool = True
    prng_evk: bool = True

    @property
    def total_lanes(self) -> int:
        return self.clusters * self.lanes_per_cluster

    @property
    def lane_group(self) -> int:
        """Lanes per lane group (sqrt of cluster width when hierarchical)."""
        if self.hierarchical_nttu:
            return int(self.lanes_per_cluster**0.5)
        return self.lanes_per_cluster

    @property
    def nttu_words_per_cycle(self) -> float:
        """Aggregate NTTU throughput: one word per lane per cycle."""
        return float(self.total_lanes)

    @property
    def bconv_macs_per_cycle(self) -> float:
        return float(self.total_lanes * self.bconv_macs_per_lane)

    @property
    def ew_mults_per_cycle(self) -> float:
        return float(self.total_lanes * self.ew_mults_per_lane)

    @property
    def auto_words_per_cycle(self) -> float:
        return float(self.total_lanes)

    @property
    def onchip_capacity_bytes(self) -> float:
        return self.rf_main_bytes + self.rf_coeff_bytes

    def setting(self) -> WordLengthSetting:
        """The 128-bit-secure parameter set this design runs."""
        return build_sharp_setting(self.word_bits)

    def with_features(self, **flags) -> "AcceleratorConfig":
        return replace(self, **flags)


def sharp_config() -> AcceleratorConfig:
    """SHARP as evaluated: 4 clusters x 256 lanes, 36-bit, 180+18 MB."""
    return AcceleratorConfig(
        name="SHARP",
        word_bits=36,
        clusters=4,
        lanes_per_cluster=256,
        frequency_hz=1e9,
        rf_main_bytes=180 * MIB,
        rf_coeff_bytes=18 * MIB,
        offchip_bw_bytes=1e12,  # 1 TB/s
        onchip_bw_words=(36e12 + 36e12) / 1e9 / 4.5,  # 36+36 TB/s at 4.5 B/word
        noc_bw_words=1024,
        bconv_macs_per_lane=16,  # 2 x 8 systolic array
        ew_mults_per_lane=4,
        ew_adds_per_lane=2,
    )


def sharp28_config() -> AcceleratorConfig:
    """28-bit SHARP variant (S6.4): 168 MB RF_main, 147.0 mm^2."""
    base = sharp_config()
    return replace(
        base,
        name="SHARP_28",
        word_bits=28,
        rf_main_bytes=168 * MIB,
        onchip_bw_words=base.onchip_bw_words,  # same wiring, narrower words
    )


def sharp64_config() -> AcceleratorConfig:
    """64-bit SHARP variant (S6.4): 200 MB RF_main."""
    base = sharp_config()
    return replace(base, name="SHARP_64", word_bits=64, rf_main_bytes=200 * MIB)


def sharp_8cluster_config() -> AcceleratorConfig:
    """Eight-clustered SHARP (S6.5): 1.4x faster, 251.5 mm^2."""
    base = sharp_config()
    return replace(base, name="SHARP_8c", clusters=8, noc_bw_words=2048)


def ark36_config(rf_main_mib: int = 180) -> AcceleratorConfig:
    """36-bit ARK baselines of the Fig. 8 ablation.

    ARK's vector architecture with flat 256-lane NTTUs, a 1 x 6 systolic
    BConvU, and 2-MAD element-wise units, improved (as in the paper)
    with CraterLake's PRNG, the DSU, and SHARP's data scheduling.
    """
    base = sharp_config()
    return replace(
        base,
        name=f"ARK36-{rf_main_mib}",
        rf_main_bytes=rf_main_mib * MIB,
        rf_coeff_bytes=76 * MIB if rf_main_mib >= 512 else 18 * MIB,
        hierarchical_nttu=False,
        two_d_bconv=False,
        ewe=False,
        bconv_macs_per_lane=6,
        ew_mults_per_lane=2,
        ew_adds_per_lane=2,
        onchip_bw_words=(20e12 + 72e12) / 1e9 / 8.0,
    )
