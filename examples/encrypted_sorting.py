"""Encrypted bitonic sorting (the paper's sorting workload, [52]).

Sorts an array under the noise executor across scales — showing the
Table 2 error-explosion at 2^27 and the shrinking error floor above —
then runs a real-CKKS compare-exchange on a small vector to show the
comparator working on genuine ciphertexts.

Run:  python examples/encrypted_sorting.py    (~1 min)
"""

import numpy as np

from repro.workloads.sorting import noisy_bitonic_sort


def main() -> None:
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, 1 << 12)
    print("two-way bitonic sort of 4096 encrypted values:\n")
    for bits, boot in [(27, 55), (29, 59), (31, 60), (35, 62), (39, 64)]:
        r = noisy_bitonic_sort(values, bits, boot)
        note = "  <- error explosion (paper: 5.2e+75)" if r.exploded else ""
        print(f"scale 2^{bits}: max error {r.max_error:.2e}{note}")

    print("\nreal-CKKS compare-exchange on 256 values:")
    from repro.ckks.context import CkksContext, make_params
    from repro.ckks.ops import Evaluator
    from repro.ckks.poly_eval import ChebyshevEvaluator, PolyPlan, chebyshev_fit

    params = make_params(degree=1 << 11, slots=256, scale_bits=28, depth=8)
    ctx = CkksContext(params)
    ev = Evaluator(ctx)
    a = rng.uniform(0, 1, 256)
    b = rng.uniform(0, 1, 256)
    ct_diff = ctx.encrypt(a - b)
    sign_fit = chebyshev_fit(lambda t: np.tanh(8 * t), 15)
    sgn = ChebyshevEvaluator(ev).evaluate(ct_diff, PolyPlan(sign_fit, baby_steps=4))
    # max(a, b) = (a + b)/2 + (a - b)/2 * sign(a - b)
    half_diff = ev.multiply_scalar(ct_diff, 0.5)
    prod = ev.multiply(half_diff, sgn)
    half_sum = ctx.encrypt((a + b) / 2, level=prod.level, scale=prod.scale)
    ct_max = ev.add(half_sum, prod)
    got = ctx.decrypt(ct_max).real
    want = (a + b) / 2 + (a - b) / 2 * np.tanh(8 * (a - b))
    err = np.max(np.abs(got - want))
    print(f"  encrypted soft-max(a,b) error vs plain comparator: {err:.2e}")


if __name__ == "__main__":
    main()
