"""HE-operation trace format consumed by the performance simulator.

A workload is a sequence of :class:`HeOp` records — the same
"application expressed as a sequence of HE ops" interface the paper's
cycle-level simulator consumes (S6.1).  Each op carries the active limb
count (which encodes the level and the SS/DS realization), the limbs
dropped by its trailing rescale, and an optional evaluation-key
identity so the memory system can model evk reuse.

Ops may additionally carry SSA-style dataflow annotations: ``dst`` is
the value id the op defines and ``srcs`` are the value ids it consumes.
Annotated traces are what the :mod:`repro.sched` scheduling compiler
operates on — liveness analysis, Belady/LRU scratchpad allocation and
operation fusion all key off these ids, and the simulator prices
traffic from the schedule, so it needs them too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii

__all__ = ["OpKind", "HeOp", "Trace", "json_text"]


class OpKind(Enum):
    HADD = "hadd"
    HMULT = "hmult"
    PMULT = "pmult"
    PMADD = "pmadd"  # fused PMult + HAdd (operation fusion, S5)
    HROT = "hrot"
    CONJ = "conj"
    RESCALE = "rescale"
    MOD_RAISE = "mod_raise"
    DS_ACCUM = "ds_accum"  # double-prime scaling accumulation (DSU work)


@dataclass(frozen=True)
class HeOp:
    """One primitive HE operation at a known chain position."""

    kind: OpKind
    limbs: int  # active q limbs when the op starts
    drop: int = 0  # limbs dropped by the op's rescale (0 = none)
    key_id: str | None = None  # evk identity for HMULT / HROT
    count: float = 1.0  # repeat factor (identical ops fused in traces)
    dst: str | None = None  # SSA value id this op defines
    srcs: tuple[str, ...] = ()  # SSA value ids this op consumes
    # ``srcs`` without repeats, in order — the values the op reads, derived once.
    unique_srcs: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "unique_srcs", tuple(dict.fromkeys(self.srcs)))

    @property
    def result_limbs(self) -> int:
        """Active limbs of the value this op defines (post-rescale)."""
        return self.limbs - self.drop

    @cached_property
    def canonical_json(self) -> str:
        """The op's fields as ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
        writes them, for :func:`repro.sched.trace.trace_digest`; built once
        per op object, which a fused schedule mostly shares with its source."""
        return (
            f'{{"count":{json_text(self.count)},"drop":{json_text(self.drop)},'
            f'"dst":{json_text(self.dst)},"key_id":{json_text(self.key_id)},'
            f'"kind":{json_text(self.kind.value)},"limbs":{json_text(self.limbs)},'
            f'"srcs":[{",".join(map(json_text, self.srcs))}]}}'
        )


def json_text(value: object) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with
    the scalar types a trace holds written without the encoder call."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class Trace:
    """A named HE-op sequence plus bookkeeping the simulator needs."""

    name: str
    ops: list[HeOp] = field(default_factory=list)
    # Divide reported runtimes by this to get the paper's unit of work
    # (per effective level for bootstrap, per iteration for HELR).
    normalize: float = 1.0

    def op_count(self) -> float:
        return sum(op.count for op in self.ops)

    @property
    def annotated(self) -> bool:
        """True when every op carries SSA dataflow annotations (an
        empty trace has none to miss)."""
        return all(op.dst is not None for op in self.ops)
