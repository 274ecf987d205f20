"""Full CKKS bootstrapping, end to end, on real ciphertexts.

Exhausts a ciphertext's levels, then refreshes it through ModRaise ->
CoeffToSlot -> EvalMod (Chebyshev cosine, double angles, and an
arcsine correction where it buys precision) -> SlotToCoeff, and keeps
computing on the result — the capability that separates FHE from
leveled HE (paper S2.3).

Run:  python examples/bootstrapping_demo.py     (~1 min)
"""

import time

import numpy as np

from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.context import CkksContext, make_params
from repro.ckks.ops import Evaluator


def main() -> None:
    params = make_params(
        degree=1 << 10,
        slots=512,  # full packing: bootstrap requirement
        scale_bits=23,
        depth=2,
        boot_scale_bits=50,
        boot_depth=14,
        dnum=4,
        hamming_weight=16,
    )
    ctx = CkksContext(params)
    ev = Evaluator(ctx)
    print("precomputing CtS/StC transforms and the EvalMod plan ...")
    bts = Bootstrapper(ctx, ev)
    plan = bts.eval_mod
    print(f"K = {bts.k_range}, cosine degree = {len(plan.cosine.coeffs) - 1}, "
          f"{plan.doublings} double angles, arcsine {'on' if plan.arcsine else 'off'}, "
          f"boot budget = {params.boot_levels} levels")

    rng = np.random.default_rng(0)
    m = rng.uniform(-1, 1, 512)
    ct = ctx.encrypt(m)
    expect = m.copy()

    for cycle in range(2):
        # Burn every level with real multiplications.
        while ct.level > 0:
            ct = ev.multiply_plain(
                ct, ctx.encode(np.full(512, 0.9), level=ct.level,
                               scale=params.step_at(ct.level).scale),
                rescale=True,
            )
            expect = expect * 0.9
        err = np.max(np.abs(ctx.decrypt(ct).real - expect))
        print(f"cycle {cycle}: levels exhausted, error {err:.2e}")

        t0 = time.time()
        ct, report = bts.bootstrap(ct)
        err = np.max(np.abs(ctx.decrypt(ct).real - expect))
        print(
            f"cycle {cycle}: bootstrapped in {time.time()-t0:.1f}s -> "
            f"level {report.output_level}, error {err:.2e} "
            f"({-np.log2(err):.1f} bits)"
        )


if __name__ == "__main__":
    main()
