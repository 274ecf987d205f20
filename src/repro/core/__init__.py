"""The paper's S3 analysis and accelerator configurations.

``repro.hw`` imports ``core.alu_model`` and ``core.config`` through this
package, and ``core.efficiency`` / ``core.opcount`` price what ``hw`` and
``workloads`` define, so the analysis modules are imported by name, not
re-exported here.
"""

from repro.core.config import AcceleratorConfig, sharp_config

__all__ = ["AcceleratorConfig", "sharp_config"]
