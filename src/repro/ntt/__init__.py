"""NTT engines: the reference transform, the fused plan, and SHARP's
ten-step model built on the reference butterflies."""

from repro.ntt.plan import NttPlan
from repro.ntt.reference import NttContext
from repro.ntt.tenstep import TenStepNtt

__all__ = ["NttContext", "NttPlan", "TenStepNtt"]
