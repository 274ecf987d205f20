"""Performance/energy simulator for FHE accelerator configurations.

Follows the paper's methodology (S6.1): a workload arrives as a
sequence of HE ops; each op lowers to per-functional-unit work
(:mod:`repro.hw.lowering`); unit throughputs (Table 4) convert work to
cycles.  Within one HE op the units run as a pipeline — the op's
latency is its *bottleneck* unit's time — which is what the deeply
pipelined INTT -> BConv -> NTT dataflow achieves in hardware.

One memory model: every trace is scheduled before it is priced
(:meth:`Simulator.schedule` — Belady over a unified temporary + evk
budget at the config's scratchpad capacity), and each op's off-chip
and spill bytes come straight from the scratchpad allocator's event
log, so traffic is the consequence of recorded decisions rather than
a formula (S5, observation (10)).

Outputs: runtime, per-unit utilization (Fig. 6(b)), off-chip traffic,
energy and average power, and EDP/EDAP helpers (Figs. 7 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import AcceleratorConfig
from repro.hw.area import chip_area
from repro.hw.isa import Trace
from repro.hw.lowering import FuWork, OpLowering, ntt_butterflies, op_shape
from repro.hw.power import (
    HBM_J_PER_BYTE,
    LEAKAGE_W_PER_MM2,
    NOC_J_PER_WORD_FLAT,
    NOC_J_PER_WORD_HIER,
    SRAM_J_PER_BYTE,
    add_energy_j,
    mult_energy_j,
)
from repro.params.presets import WordLengthSetting

__all__ = ["SimulationResult", "Simulator"]

FU_NAMES = ("nttu", "bconvu", "ewe", "autou", "dsu")

# Fraction of non-bottleneck FU time that fails to overlap with the
# bottleneck unit (dependency stalls in the primary-function pipeline).
SERIALIZATION = 0.30


@dataclass
class SimulationResult:
    """Everything one simulation run reports."""

    name: str
    config_name: str
    cycles: float
    seconds: float
    fu_busy_cycles: dict
    offchip_bytes: float
    spill_bytes: float
    energy_j: float
    energy_breakdown: dict
    area_mm2: float
    schedule_policy: str  # eviction policy of the schedule that was priced

    @property
    def power_w(self) -> float:
        # An empty trace takes no time and dissipates nothing.
        return self.energy_j / self.seconds if self.seconds else 0.0

    @property
    def utilization(self) -> dict:
        if not self.cycles:
            return {name: 0.0 for name in self.fu_busy_cycles}
        return {
            name: busy / self.cycles for name, busy in self.fu_busy_cycles.items()
        }

    @property
    def edp(self) -> float:
        return self.energy_j * self.seconds

    @property
    def edap(self) -> float:
        return self.edp * self.area_mm2


class Simulator:
    """Simulates traces on one accelerator configuration."""

    def __init__(
        self, config: AcceleratorConfig, setting: WordLengthSetting | None = None
    ):
        self.config = config
        self.setting = setting if setting is not None else config.setting()
        self.lowering = OpLowering(self.setting)
        self.area = chip_area(config)

    # -- per-op timing ------------------------------------------------------------

    def _fu_cycles(self, work: FuWork) -> dict:
        c = self.config
        return {
            "nttu": work.ntt_words / c.nttu_words_per_cycle,
            "bconvu": work.bconv_macs / c.bconv_macs_per_cycle,
            "ewe": max(
                work.ew_mults / c.ew_mults_per_cycle,
                work.ew_adds / max(c.ew_adds_per_lane * c.total_lanes, 1),
            ),
            "autou": work.auto_words / c.auto_words_per_cycle,
            "dsu": work.dsu_words / c.total_lanes,
        }

    def _compute_cycles(self, fu: dict, rf_cycles: float) -> float:
        """Pipeline the FUs behind the bottleneck (FU or RF bandwidth).

        The INTT -> BConv -> NTT chain pipelines imperfectly: a
        fraction of every non-bottleneck unit's time serializes behind
        the bottleneck (the stall the 2-D BConvU and the EWE were
        designed to shrink, S4.4-S4.5).  When the RF bandwidth is the
        bottleneck, *every* FU is a non-bottleneck unit — the largest
        FU gets no exemption.
        """
        fu_max = max(fu.values())
        bottleneck = max(fu_max, rf_cycles)
        if rf_cycles > fu_max:
            others = sum(fu.values())
        else:
            others = sum(fu.values()) - fu_max
        return bottleneck + SERIALIZATION * others

    # -- scheduling front-end ------------------------------------------------------

    def schedule(self, trace: Trace, policy: str = "belady", fuse: bool = False):
        """Schedule an annotated trace against this config's scratchpad."""
        from repro.sched.trace import schedule_trace

        return schedule_trace(
            trace,
            self.setting,
            capacity_bytes=self.config.onchip_capacity_bytes,
            policy=policy,
            prng_evk=self.config.prng_evk,
            fuse=fuse,
        )

    # -- the run loop ------------------------------------------------------------

    def run(self, trace) -> SimulationResult:
        """Price a :class:`repro.sched.ScheduledTrace`; a plain
        :class:`Trace` is first scheduled at this config's capacity
        (Belady, unfused).  Traffic comes from the allocator's per-op
        decisions.  Each op shape is priced once, and its terms are added
        op by op in trace order: the same floats as pricing each op."""
        from repro.sched.trace import ScheduledTrace

        sched = trace if isinstance(trace, ScheduledTrace) else self.schedule(trace)
        state = _RunState()
        prices: dict[tuple, _OpPrice] = {}
        for op, event in zip(sched.trace.ops, sched.log.events):
            shape = op_shape(op)
            price = prices.get(shape)
            if price is None:
                price = prices[shape] = self._price(self.lowering.lower(op))
            self._account_op(state, price, event.offchip_bytes, event.spill_bytes)
        return self._finish(sched.trace, state, sched.policy)

    def _price(self, work: FuWork) -> "_OpPrice":
        """Everything one op costs that does not depend on its traffic."""
        config = self.config
        setting = self.setting
        word_bits = setting.word_bits
        fu = self._fu_cycles(work)
        rf_cycles = work.rf_words / config.onchip_bw_words
        noc_j = (
            NOC_J_PER_WORD_HIER if config.hierarchical_nttu else NOC_J_PER_WORD_FLAT
        )
        ntt_muls = ntt_butterflies(work.ntt_words, setting.degree)
        return _OpPrice(
            fu_cycles=tuple(fu[name] for name in FU_NAMES),
            compute_cycles=self._compute_cycles(fu, rf_cycles),
            fu_energy=(
                ntt_muls * mult_energy_j("montgomery", word_bits),
                (work.bconv_macs + work.ew_mults + work.dsu_words)
                * mult_energy_j("barrett", word_bits),
                (work.ew_adds + work.bconv_macs) * add_energy_j(word_bits),
            ),
            sram_energy=work.rf_words * (word_bits / 8.0) * SRAM_J_PER_BYTE,
            noc_energy=(work.ntt_words + work.auto_words) * noc_j,
        )

    def _account_op(
        self, state: "_RunState", price: "_OpPrice", op_bytes: float, spill_bytes: float
    ) -> None:
        config = self.config
        mem_cycles = op_bytes / config.offchip_bw_bytes * config.frequency_hz
        state.total_cycles += max(price.compute_cycles, mem_cycles)
        state.offchip += op_bytes
        state.spill += spill_bytes
        busy = state.busy
        for name, cycles in zip(FU_NAMES, price.fu_cycles):
            busy[name] += cycles

        # Dynamic energy; the three FU terms are added one at a time.
        energy = state.energy
        for term in price.fu_energy:
            energy["fu"] += term
        energy["sram"] += price.sram_energy
        energy["hbm"] += op_bytes * HBM_J_PER_BYTE
        energy["noc"] += price.noc_energy

    def _finish(self, trace, state: "_RunState", policy: str) -> SimulationResult:
        seconds = state.total_cycles / self.config.frequency_hz
        leakage = LEAKAGE_W_PER_MM2 * self.area.total * seconds
        total_energy = sum(state.energy.values()) + leakage
        state.energy["leakage"] = leakage

        return SimulationResult(
            name=trace.name,
            config_name=self.config.name,
            cycles=state.total_cycles,
            seconds=seconds,
            fu_busy_cycles=state.busy,
            offchip_bytes=state.offchip,
            spill_bytes=state.spill,
            energy_j=total_energy,
            energy_breakdown=state.energy,
            area_mm2=self.area.total,
            schedule_policy=policy,
        )


@dataclass(frozen=True)
class _OpPrice:
    """One op shape's traffic-independent cost terms."""

    fu_cycles: tuple[float, ...]  # busy cycles per unit, in FU_NAMES order
    compute_cycles: float
    fu_energy: tuple[float, float, float]  # NTT, multiply and add terms
    sram_energy: float
    noc_energy: float


class _RunState:
    """Mutable accumulators for one simulation run."""

    def __init__(self) -> None:
        self.busy = {name: 0.0 for name in FU_NAMES}
        self.total_cycles = 0.0
        self.offchip = 0.0
        self.spill = 0.0
        self.energy = {"fu": 0.0, "sram": 0.0, "hbm": 0.0, "noc": 0.0}
