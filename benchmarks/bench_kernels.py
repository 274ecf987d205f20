"""Op-level throughput of the wide-modulus kernel layer (PR 2 tentpole).

Measures the hot kernels the accelerator accelerates — elementwise
modular multiply, negacyclic NTT, BConv, HMult, key-switch — on the
vectorized emulated-128-bit path (:mod:`repro.rns.kernels`) against the
object-array path that wide primes used to require, and records the
results to ``BENCH_kernels.json`` so later PRs have a perf trajectory
to regress against.

Since PR 7 the end-to-end HMult / key-switch section also measures the
*legacy* evaluator path (``REPRO_KERNEL_PLANS=off`` — the PR 6
algorithms, no NTT plans, no batched key-switch) live in the same run,
once per kernel backend requested with ``--backend``.  Gating on the
same-run legacy/planned ratio makes the speedup bar robust to machine
load.  The two planned hot kernels — the blocked lazy ``NttPlan``
(``ns_per_butterfly``) and the matmul BConv — are recorded as median
plus interquartile range over the repeats.

Run directly (not under pytest):

    PYTHONPATH=src python benchmarks/bench_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --backend parallel

Acceptance bars: >= 5x over the object path for the N = 2^14 NTT at
SHARP's 36-bit word (PR 2), and >= 3x same-run planned-vs-legacy HMult
at N = 2^12 / 6 limbs on the numpy backend (PR 7; >= 1x per backend in
``--quick`` CI smoke).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import time
from pathlib import Path

# One BLAS thread, as in benchmarks/e2e: the BConv dgemm is a few MFLOP
# and waking OpenBLAS's workers costs more than the product (stalls of
# several ms on a small shared box).  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from repro.ntt.plan import NttPlan  # noqa: E402
from repro.ntt.reference import NttContext  # noqa: E402
from repro.params.primes import find_ntt_primes  # noqa: E402
from repro.rns import kernels  # noqa: E402
from repro.rns.bconv import BaseConverter  # noqa: E402
from repro.rns.poly import RingContext, RnsPolynomial  # noqa: E402

WORD_BITS = 36

# Same-run planned-vs-legacy HMult bars (see module doc).
FULL_HMULT_SPEEDUP_BAR = 3.0
QUICK_HMULT_SPEEDUP_BAR = 1.0


def _primes(two_n: int, bits: int, count: int, exclude=None) -> list[int]:
    return find_ntt_primes(
        two_n,
        float(2**bits * 0.9),
        count,
        max_value=2 ** (bits + 1) - 1,
        min_value=2 ** (bits - 1),
        exclude=exclude,
    )


def _samples(fn, reps: int) -> list[float]:
    """``reps`` wall-second samples (one untimed warmup)."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def _time(fn, reps: int) -> float:
    """Best-of-``reps`` wall seconds (one untimed warmup)."""
    return min(_samples(fn, reps))


def _spread(samples: list[float], scale: float) -> tuple[float, float]:
    """(median, interquartile range) of ``samples`` times ``scale``."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median * scale, (q3 - q1) * scale


# -- object-array baselines (the pre-kernel wide-modulus path) -------------


def _object_mulmod(a_obj, b_obj, q: int):
    return a_obj * b_obj % q


def _object_ntt_forward(a_obj, psi_rev_obj, q: int):
    """CT butterflies on dtype=object arrays — exact but per-element
    Python-int arithmetic, which is what every modulus above 2^31 paid
    before the kernel layer existed."""
    a = a_obj.copy()
    n = a.shape[-1]
    t, m = n, 1
    while m < n:
        t //= 2
        view = a.reshape(m, 2 * t)
        s = psi_rev_obj[m : 2 * m, None]
        u = view[:, :t].copy()
        v = view[:, t:] * s % q
        view[:, :t] = (u + v) % q
        view[:, t:] = (u - v) % q
        m *= 2
    return a


def _object_bconv(y_obj, table, dst_moduli):
    rows = []
    for j, p in enumerate(dst_moduli):
        tab = np.array([int(w) for w in table[j]], dtype=object).reshape(-1, 1)
        rows.append((y_obj * tab).sum(axis=0) % p)
    return rows


# -- benchmark sections ------------------------------------------------------


def bench_mulmod(n: int, reps: int) -> dict:
    q = _primes(2 * n, WORD_BITS, 1)[0]
    rng = np.random.default_rng(1)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    kern = kernels.kernel_for(q)
    ao, bo = a.astype(object), b.astype(object)
    t_kernel = _time(lambda: kern.mul(a, b), reps)
    t_object = _time(lambda: _object_mulmod(ao, bo, q), reps)
    assert np.array_equal(kern.mul(a, b), _object_mulmod(ao, bo, q).astype(np.uint64))
    return {
        "op": "mulmod",
        "n": n,
        "prime_bits": q.bit_length(),
        "kernel_ms": t_kernel * 1e3,
        "object_ms": t_object * 1e3,
        "speedup": t_object / t_kernel,
    }


def bench_ntt(n: int, reps: int) -> dict:
    q = _primes(2 * n, WORD_BITS, 1)[0]
    ctx = NttContext(n, q)
    rng = np.random.default_rng(2)
    a = rng.integers(0, q, n, dtype=np.uint64)
    psi_obj = ctx._psi_rev.astype(object)
    a_obj = a.astype(object)
    t_kernel = _time(lambda: ctx.forward(a), reps)
    t_object = _time(lambda: _object_ntt_forward(a_obj, psi_obj, q), reps)
    # bit-exactness of the lazy path against the object butterflies
    ref = _object_ntt_forward(a_obj, psi_obj, q).astype(np.uint64)[ctx._rev]
    assert np.array_equal(ctx.forward(a), ref)
    return {
        "op": "ntt_forward",
        "n": n,
        "prime_bits": q.bit_length(),
        "kernel_ms": t_kernel * 1e3,
        "object_ms": t_object * 1e3,
        "speedup": t_object / t_kernel,
    }


def bench_ntt_plan(n: int, limbs: int, reps: int) -> list[dict]:
    """The production transform: ns per butterfly over an (L, N) matrix."""
    mods = _primes(2 * n, WORD_BITS, limbs)
    plan = NttPlan([NttContext(n, q) for q in mods])
    rng = np.random.default_rng(3)
    mat = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in mods])
    assert np.array_equal(plan.inverse_all(plan.forward_all(mat)), mat)
    butterflies = limbs * (n // 2) * int(math.log2(n))
    rows = []
    for direction, fn in (("forward", plan.forward_all), ("inverse", plan.inverse_all)):
        samples = _samples(lambda: fn(mat), reps)
        ns, ns_iqr = _spread(samples, 1e9 / butterflies)
        rows.append(
            {
                "op": "ns_per_butterfly",
                "direction": direction,
                "n": n,
                "limbs": limbs,
                "prime_bits": WORD_BITS,
                "kernel_ms": statistics.median(samples) * 1e3,
                "ns_per_butterfly": ns,
                "ns_per_butterfly_iqr": ns_iqr,
                "repeats": reps,
            }
        )
    return rows


def bench_bconv(
    n: int, src_limbs: int, dst_limbs: int, reps: int, spread_reps: int
) -> dict:
    src = _primes(2 * n, WORD_BITS, src_limbs)
    dst = _primes(2 * n, WORD_BITS - 1, dst_limbs, exclude=set(src))
    conv = BaseConverter(src, dst, centered=False)
    ring = RingContext(n)
    rng = np.random.default_rng(4)
    limbs = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in src])
    poly = RnsPolynomial(ring, tuple(src), limbs, ntt_form=False)
    y = kernels.shoup_mul(limbs, conv._inv_col, conv._inv_shoup, conv._src_kernel.q)
    y_obj = y.astype(object)
    samples = _samples(lambda: conv.convert(poly), spread_reps)
    t_kernel = min(samples)
    median_ms, iqr_ms = _spread(samples, 1e3)
    t_object = _time(lambda: _object_bconv(y_obj, conv.table, dst), reps)
    ref = np.stack(
        [r.astype(np.uint64) for r in _object_bconv(y_obj, conv.table, dst)]
    )
    assert np.array_equal(conv.convert(poly).limbs, ref)
    return {
        "op": "bconv",
        "n": n,
        "src_limbs": src_limbs,
        "dst_limbs": dst_limbs,
        "prime_bits": WORD_BITS,
        "kernel_ms": t_kernel * 1e3,
        "kernel_ms_median": median_ms,
        "kernel_ms_iqr": iqr_ms,
        "repeats": spread_reps,
        "object_ms": t_object * 1e3,
        "speedup": t_object / t_kernel,
    }


def bench_ckks_ops(degree: int, reps: int, backend: str = "numpy") -> list[dict]:
    """HMult and key-switch (rotation) on the native 36-bit preset.

    Times the planned path on ``backend`` against the legacy evaluator
    (``REPRO_KERNEL_PLANS=off``) built in the same process, and asserts
    the two produce bit-identical ciphertext limbs before timing — a
    speedup over wrong answers would be worthless.
    """
    from repro.ckks.context import CkksContext
    from repro.ckks.ops import Evaluator
    from repro.params.presets import build_native_ckks_params

    params = build_native_ckks_params(
        word_bits=WORD_BITS, degree=degree, depth=4
    )
    # use_plans is captured per-RingContext at construction, so one run
    # can hold a legacy context and a planned one side by side.
    saved = os.environ.get("REPRO_KERNEL_PLANS")
    os.environ["REPRO_KERNEL_PLANS"] = "off"
    try:
        ctx_legacy = CkksContext(params, seed=7)
    finally:
        if saved is None:
            os.environ.pop("REPRO_KERNEL_PLANS", None)
        else:
            os.environ["REPRO_KERNEL_PLANS"] = saved
    assert not ctx_legacy.ring.use_plans

    ctx = CkksContext(params, seed=7, kernel_backend=backend)
    ev = Evaluator(ctx)
    ev_legacy = Evaluator(ctx_legacy)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(params.slots) + 1j * rng.standard_normal(params.slots)
    ct_a, ct_b = ctx.encrypt(z), ctx.encrypt(z)
    la, lb = ctx_legacy.encrypt(z), ctx_legacy.encrypt(z)

    # Bit-exactness: same seed -> identical keys and encryption
    # randomness, so planned and legacy limbs must agree exactly.
    for planned_ct, legacy_ct in (
        (ev.multiply(ct_a, ct_b), ev_legacy.multiply(la, lb)),
        (ev.rotate(ct_a, 1), ev_legacy.rotate(la, 1)),
    ):
        assert np.array_equal(planned_ct.c0.limbs, legacy_ct.c0.limbs)
        assert np.array_equal(planned_ct.c1.limbs, legacy_ct.c1.limbs)

    t_hmult = _time(lambda: ev.multiply(ct_a, ct_b), reps)
    t_hmult_legacy = _time(lambda: ev_legacy.multiply(la, lb), reps)
    t_rot = _time(lambda: ev.rotate(ct_a, 1), reps)
    t_rot_legacy = _time(lambda: ev_legacy.rotate(la, 1), reps)

    limbs = len(ct_a.moduli)
    common = {
        "n": degree,
        "prime_bits": WORD_BITS,
        "limbs": limbs,
        "backend": ctx.ring.backend.name,
    }
    rows = []
    for op, t_planned, t_legacy in (
        ("hmult", t_hmult, t_hmult_legacy),
        ("keyswitch_rotate", t_rot, t_rot_legacy),
    ):
        rows.append(
            {
                "op": op,
                "kernel_ms": t_planned * 1e3,
                "legacy_ms": t_legacy * 1e3,
                "speedup": t_legacy / t_planned,
                **common,
            }
        )

    ctx.ring.backend.close()  # releases the pool for the parallel backend
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes / one rep (CI smoke; numbers not representative)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
        help="output JSON path (default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument(
        "--backend", default="numpy",
        help="comma-separated kernel backends for the end-to-end HMult/"
        "key-switch section (default: numpy)",
    )
    args = parser.parse_args(argv)
    backends = [b.strip() for b in args.backend.split(",") if b.strip()]

    # Timing a kernel whose lazy-reduction invariants don't hold would
    # be timing wrong answers; prove the uint64 bounds first.
    from repro.check.bounds import certify_word_bits

    certificate = certify_word_bits(WORD_BITS)
    if not certificate.ok:
        for chain, step in certificate.failures():
            print(f"BOUND FAIL {chain}: {step.label} -> {step.magnitude}")
        return 1
    print(f"kernel bound certificate: word_bits={WORD_BITS} proved "
          f"({len(certificate.proofs)} chains)")

    if args.quick:
        n, reps, spread_reps, degree = 1 << 10, 1, 3, 1 << 10
        limbs, src_l, dst_l = 4, 4, 3
    else:
        n, reps, spread_reps, degree = 1 << 14, 3, 15, 1 << 12
        limbs, src_l, dst_l = 12, 8, 4

    results = [
        bench_mulmod(n, reps),
        bench_ntt(n, reps),
        *bench_ntt_plan(n, limbs, spread_reps),
        bench_bconv(n, src_l, dst_l, reps, spread_reps),
    ]
    for backend in backends:
        results.extend(bench_ckks_ops(degree, reps, backend=backend))

    report = {
        "bench": "kernels",
        "word_bits": WORD_BITS,
        "fast_modulus_bits": kernels.FAST_MODULUS_BITS,
        "quick": args.quick,
        "backends": backends,
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"{'op':<18} {'n':>6} {'backend':>9} {'kernel_ms':>10} "
        f"{'baseline_ms':>12} {'speedup':>8}  spread"
    )
    for r in results:
        base = r.get("object_ms", r.get("legacy_ms"))
        base_s = "-" if base is None else f"{base:.3f}"
        speed_s = "-" if "speedup" not in r else f"{r['speedup']:.1f}x"
        spread_s = ""
        if "ns_per_butterfly" in r:
            spread_s = (
                f"{r['direction']}: {r['ns_per_butterfly']:.2f} ns/butterfly "
                f"(IQR {r['ns_per_butterfly_iqr']:.2f})"
            )
        elif "kernel_ms_median" in r:
            spread_s = f"median {r['kernel_ms_median']:.3f} ms (IQR {r['kernel_ms_iqr']:.3f})"
        print(
            f"{r['op']:<18} {r['n']:>6} {r.get('backend', '-'):>9} "
            f"{r['kernel_ms']:>10.3f} {base_s:>12} {speed_s:>8}  {spread_s}"
        )
    print(f"\nwrote {args.out}")

    # The kernel mulmod path must never lose to the object path, at any
    # size — this is the bar the split-regime product restored at small n.
    mm = next(r for r in results if r["op"] == "mulmod")
    if mm["speedup"] < 1.0:
        print(
            f"FAIL: mulmod kernel at {mm['speedup']:.2f}x the object path "
            f"(n={mm['n']}) — the kernel path must never be slower"
        )
        return 1

    ntt = next(r for r in results if r["op"] == "ntt_forward")
    if not args.quick and ntt["speedup"] < 5.0:
        print(f"FAIL: NTT speedup {ntt['speedup']:.1f}x below the 5x acceptance bar")
        return 1

    # PR 7 bars.  Full mode holds the numpy plan path to >= 3x HMult at
    # N = 2^12 / 6 limbs against the same-run legacy path: on a loaded
    # box both paths slow together and the ratio holds.  Quick mode
    # only requires every backend to not lose to the legacy path (CI
    # boxes are small, loaded, and often single-core).
    failed = False
    for r in (r for r in results if r["op"] == "hmult"):
        bar = QUICK_HMULT_SPEEDUP_BAR
        if not args.quick and r["backend"] == "numpy":
            bar = FULL_HMULT_SPEEDUP_BAR
        if r["speedup"] < bar:
            print(
                f"FAIL: hmult[{r['backend']}] at {r['speedup']:.2f}x the "
                f"same-run legacy path (bar {bar:.1f}x, n={r['n']}, "
                f"limbs={r['limbs']})"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
