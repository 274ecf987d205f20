"""Analysis layer: working sets, BSGS tuning, published baselines, and
the paper rows (``python -m repro.analysis.paper_rows``)."""

from repro.analysis.bsgs import plan_bsgs
from repro.analysis.workingset import fig5_data

__all__ = ["plan_bsgs", "fig5_data"]
