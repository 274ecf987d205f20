"""HELR: logistic-regression training on encrypted data (Fig. 1).

Trains the paper's HELR workload on the synthetic MNIST-like task at
several CKKS scales and prints the accuracy trajectories — the 2^27
curve collapses when the weights leave the stable range, exactly the
behaviour Fig. 1 shows.  A real-CKKS sanity pass (one encrypted
gradient step at reduced degree) runs at the end.

Run:  python examples/helr_training.py     (~1 min)
"""

import numpy as np

from repro.workloads.datasets import make_mnist_like
from repro.workloads.helr import train_noisy, train_plain


def main() -> None:
    data = make_mnist_like(separation=0.75)
    ref = train_plain(data)
    print(f"unencrypted FP64 reference: {ref.final_accuracy*100:.2f}% "
          "(paper: 96.37%)\n")

    print("scale     " + "".join(f"it{t:02d}  " for t in (8, 16, 24, 32)))
    for bits, boot in [(27, 55), (29, 59), (31, 60), (35, 62), (39, 64)]:
        r = train_noisy(data, bits, boot)
        marks = "".join(
            f"{r.accuracy_per_iteration[t-1]*100:5.1f} " for t in (8, 16, 24, 32)
        )
        note = "  <- error explosion" if r.final_accuracy < 0.7 else ""
        print(f"2^{bits}:     {marks}{note}")

    print("\nreal-CKKS sanity pass (one encrypted inner-product + sigmoid):")
    from repro.ckks.context import CkksContext, make_params
    from repro.ckks.ops import Evaluator
    from repro.ckks.poly_eval import ChebyshevEvaluator, PolyPlan, chebyshev_fit

    params = make_params(degree=1 << 11, slots=256, scale_bits=28, depth=6)
    ctx = CkksContext(params)
    ev = Evaluator(ctx)
    margins = np.clip(data.train_x[:256] @ ref.weights, -1, 1)
    ct = ctx.encrypt(margins)
    coeffs = chebyshev_fit(lambda t: 1 / (1 + np.exp(-4 * t)), 7)
    out = ChebyshevEvaluator(ev).evaluate(ct, PolyPlan(coeffs, baby_steps=4))
    got = ctx.decrypt(out).real
    want = np.polynomial.chebyshev.chebval(margins, coeffs)
    print(f"  encrypted sigmoid max error: {np.max(np.abs(got - want)):.2e}")


if __name__ == "__main__":
    main()
