"""The word-length audit's registry of Table 2 programs.

Each workload's Table 2 program is written once, in its own module
(:func:`repro.workloads.helr.program` and its siblings), and folded over
two domains: the sampling domain (:class:`repro.ckks.noise.NoisyEvaluator`,
Table 2's sampled rows) and the bounding domain
(:class:`repro.check.noise_check.NoiseCheckEvaluator`, the audit's
floors).  The registry runs each over the bounding domain with no data:
that domain never applies a plaintext operand, and takes each program's
declared magnitudes (``encrypt(mag=...)``, ``out_mag``) on trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.check.noise_check import NoiseCheckEvaluator
from repro.workloads import helr, resnet, sorting

__all__ = ["NoiseProgram", "noise_programs"]


@dataclass(frozen=True)
class NoiseProgram:
    """One workload's program, as the bounding domain runs it."""

    name: str
    message_ratio: float  # q0/scale stable range its evaluator runs at
    target_bits: float  # precision floor the word-length audit demands
    build: Callable[[NoiseCheckEvaluator], object]


def _bootstrapping_program(ev: NoiseCheckEvaluator) -> None:
    """Table 2's boot column: a fresh ciphertext through one refresh."""
    ct = ev.encrypt(mag=1.0)
    rotated = ev.rotate(ct)
    ct = ev.add(rotated, ct)
    ev.bootstrap(ct, label="refresh")


def noise_programs() -> Mapping[str, NoiseProgram]:
    """The shipped workload programs, keyed by Table 2 row name."""
    return {
        "helr": NoiseProgram("helr", helr.HELR_MESSAGE_RATIO, 6.0, helr.program),
        "resnet20": NoiseProgram("resnet20", resnet.RESNET_MESSAGE_RATIO, 6.0, resnet.program),
        "sorting": NoiseProgram(
            "sorting",
            sorting.SORT_MESSAGE_RATIO,
            6.0,
            lambda ev: sorting.program(ev, sorting.SORT_LOG2N),
        ),
        "bootstrapping": NoiseProgram(
            "bootstrapping", helr.HELR_MESSAGE_RATIO, 18.0, _bootstrapping_program
        ),
    }
