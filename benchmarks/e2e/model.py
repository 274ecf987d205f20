"""Model-vs-measured kernel mix: the engine and the accelerator model audit each other.

Informational, never gated.  The measured columns are self-time shares of
the three kernel layers, normalised to their sum; the model rows are the
multiplication-count shares ``repro.core.opcount`` predicts for SHARP's
36-bit setting (the paper's "NTT dominates", Fig. 2c).  Time per
multiplication differs between kernels, so expect the ranking to agree,
not the digits.
"""

from __future__ import annotations

from typing import Any

KINDS = ("ntt_butterfly_muls", "bconv_muls", "elementwise_muls")
LAYERS = ("ntt.plan", "rns.bconv", "rns.kernels")


def model_table(workload: str, summary: Any) -> list[str]:
    from repro.core import opcount
    from repro.params.presets import build_sharp_setting

    setting = build_sharp_setting(36)
    normal = setting.group("normal")
    limbs = setting.base_prime_count + normal.levels * normal.primes_per_level
    drop = normal.primes_per_level
    rows = {
        f"model HMult ({limbs} limbs)": opcount.hmult_counts(setting, limbs, drop),
        f"model HRot ({limbs} limbs)": opcount.hrot_counts(setting, limbs),
        "model bootstrap": opcount.bootstrap_counts(setting),
    }
    measured = [summary.layer(layer).self_s for layer in LAYERS]
    total = sum(measured) or 1.0
    lines = [
        "model vs measured kernel mix (share of NTT + BConv + elementwise)",
        f"  {'':28s} {'ntt':>8s} {'bconv':>8s} {'elementwise':>12s}",
        f"  {'measured ' + workload:28s} "
        + " ".join(f"{value / total:8.3f}" for value in measured[:2])
        + f" {measured[2] / total:12.3f}",
    ]
    for label, counts in rows.items():
        shares = [counts.share(kind) for kind in KINDS]
        lines.append(f"  {label:28s} {shares[0]:8.3f} {shares[1]:8.3f} {shares[2]:12.3f}")
    return lines
