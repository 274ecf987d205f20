"""Kernel bound prover: worst-case uint64 magnitudes, proved exactly.

The wide-modulus kernels (:mod:`repro.rns.kernels`) and the lazy NTT
butterflies (:mod:`repro.ntt.reference`) rely on Harvey/Barrett/Shoup
lazy-reduction invariants: intermediates are allowed to grow past one
``q`` as long as every partial sum stays below ``2**64``.  This module
re-derives those invariants *symbolically* — exact Python integers, no
numpy, no sampling — for the worst admissible residues at a given
``word_bits``, and emits a :class:`BoundCertificate` listing each
intermediate of each arithmetic chain with the limit it must satisfy.

A chain *proves* when every step's worst-case magnitude respects its
limit; the certificate fails loudly the moment a single lazy value
would wrap.  ``certify_word_bits(62)`` passes with single-digit-bit
headroom (``4q - 1 = 2**64 - 5``); 63-bit words wrap in both the
butterfly and the variable-product chain, which is exactly why
``kernels.FAST_MODULUS_BITS`` is 62 — and
:func:`max_safe_word_bits` re-derives that constant independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.check.diagnostics import CheckReport
from repro.rns import kernels

__all__ = [
    "BoundStep",
    "BoundProof",
    "BoundCertificate",
    "certify_report",
    "proofs_report",
    "prove_mul_hi",
    "prove_forward_butterfly",
    "prove_inverse_butterfly",
    "prove_barrett_reduction",
    "prove_variable_product",
    "prove_narrow_split_mul",
    "prove_float_barrett",
    "prove_float_qhat_shoup",
    "prove_float_split_mul",
    "prove_lazy_plain_inner",
    "prove_bconv_accumulator",
    "prove_lazy_ntt_schedule",
    "prove_bconv_matmul",
    "prove_ds_reconstruction",
    "certify_word_bits",
    "max_safe_word_bits",
]

U64_MAX = 2**64 - 1
U63_MAX = 2**63 - 1

# BConv accumulates one Shoup product per source limb; the largest
# basis in play is Q + P of the deepest Set_k chain (L = 35, K = 12).
# Prove with generous slack so deeper future chains stay covered.
DEFAULT_BCONV_TERMS = 128

# The lazy NTT schedule is proved at the largest ring in play
# (SHARP's N = 2**16) plus one stage of slack.
DEFAULT_NTT_LOG_N = 17


@dataclass(frozen=True)
class BoundStep:
    """One intermediate value of an arithmetic chain."""

    label: str
    magnitude: int  # proven worst-case value (exact)
    limit: int  # bound it must satisfy to stay exact

    @property
    def ok(self) -> bool:
        return self.magnitude <= self.limit

    @property
    def headroom_bits(self) -> float:
        """log2(limit / magnitude); negative when the step overflows."""
        if self.magnitude <= 0:
            return float("inf")
        return math.log2(self.limit) - math.log2(self.magnitude)


@dataclass(frozen=True)
class BoundProof:
    """Worst-case walk of one kernel chain at a given modulus bound."""

    chain: str
    q_max: int
    steps: tuple[BoundStep, ...]

    @property
    def ok(self) -> bool:
        return all(step.ok for step in self.steps)

    def failures(self) -> tuple[BoundStep, ...]:
        return tuple(step for step in self.steps if not step.ok)


@dataclass(frozen=True)
class BoundCertificate:
    """All chain proofs for one ``word_bits`` configuration."""

    word_bits: int
    q_max: int
    proofs: tuple[BoundProof, ...]

    @property
    def ok(self) -> bool:
        return all(proof.ok for proof in self.proofs)

    def failures(self) -> tuple[tuple[str, BoundStep], ...]:
        return tuple(
            (proof.chain, step)
            for proof in self.proofs
            for step in proof.failures()
        )


def prove_mul_hi(q_max: int) -> BoundProof:
    """The 32-bit half-word decomposition of ``mul_hi``.

    Every partial term is monotone in both operands, so evaluating the
    exact formula at ``a = b = 2**64 - 1`` bounds all inputs; the proof
    then checks each partial sum against ``2**64``.
    """
    a = b = U64_MAX
    mask = (1 << 32) - 1
    a_lo, a_hi = a & mask, a >> 32
    b_lo, b_hi = b & mask, b >> 32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> 32) + (lh & mask) + (hl & mask)
    hi = a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    steps = (
        BoundStep("ll = a_lo * b_lo", ll, U64_MAX),
        BoundStep("mid = (ll >> 32) + lh_lo + hl_lo", mid, U64_MAX),
        BoundStep("hi = a_hi*b_hi + lh_hi + hl_hi + carry", hi, U64_MAX),
    )
    return BoundProof("mul_hi", q_max, steps)


def prove_forward_butterfly(q_max: int) -> BoundProof:
    """Harvey CT butterfly (``_forward_core_lazy``): loop invariant < 4q.

    Per stage: ``u`` is conditionally corrected into ``[0, 2q)``, ``v``
    is a lazy Shoup product in ``[0, 2q)`` (valid for ``q < 2**63``),
    and the two outputs ``u + v`` / ``u + 2q - v`` must stay uint64.
    """
    q = q_max
    u = 2 * q - 1  # after the conditional correction
    v = 2 * q - 1  # lazy Shoup product
    steps = (
        BoundStep("Shoup lazy precondition: q < 2**63", q, U63_MAX),
        BoundStep("u (conditionally corrected)", u, U64_MAX),
        BoundStep("v = shoup_mul_lazy(...)", v, U64_MAX),
        BoundStep("u + v", u + v, U64_MAX),
        BoundStep("u + 2q - v (v = 0 worst case)", u + 2 * q, U64_MAX),
    )
    return BoundProof("ntt_forward_butterfly", q_max, steps)


def prove_inverse_butterfly(q_max: int) -> BoundProof:
    """Gentleman-Sande butterfly (``_inverse_core_lazy``): inputs < 2q."""
    q = q_max
    u = 2 * q - 1
    v = 2 * q - 1
    steps = (
        BoundStep("Shoup lazy precondition: q < 2**63", q, U63_MAX),
        BoundStep("total = u + v", u + v, U64_MAX),
        BoundStep("diff = u + 2q - v (v = 0 worst case)", u + 2 * q, U64_MAX),
        BoundStep("output = shoup_mul_lazy(diff) < 2q", 2 * q - 1, U64_MAX),
    )
    return BoundProof("ntt_inverse_butterfly", q_max, steps)


def prove_barrett_reduction(q_max: int) -> BoundProof:
    """``reduce64_lazy``: ``x - mul_hi(x, v64) * q`` lands in ``[0, 2q)``.

    With ``v = floor(2**64 / q)`` the quotient estimate is off by at
    most one, so the lazy remainder is below ``2q``; that slack only
    stays collapsible by one conditional subtraction when ``2q`` itself
    fits, i.e. ``q < 2**63``.
    """
    q = q_max
    steps = (
        BoundStep("Barrett lazy precondition: q < 2**63", q, U63_MAX),
        BoundStep("lazy remainder < 2q", 2 * q - 1, U64_MAX),
    )
    return BoundProof("barrett_reduce64", q_max, steps)


def prove_variable_product(q_max: int) -> BoundProof:
    """``ModulusKernel.mul``: the variable x variable product chain.

    ``hi`` folds through ``2**64 mod q`` as a lazy Shoup product
    (< 2q), ``lo`` through lazy Barrett (< 2q); their sum must fit
    uint64 *before* the two conditional subtractions — the binding
    constraint that caps the fast path at ``q < 2**62``.
    """
    q = q_max
    t = 2 * q - 1
    u = 2 * q - 1
    steps = (
        BoundStep("Shoup lazy precondition: q < 2**63", q, U63_MAX),
        BoundStep("t = shoup_mul_lazy(hi, 2**64 mod q)", t, U64_MAX),
        BoundStep("u = reduce64_lazy(lo)", u, U64_MAX),
        BoundStep("s = t + u", t + u, U64_MAX),
    )
    return BoundProof("kernel_variable_mul", q_max, steps)


def prove_narrow_split_mul(q_max: int) -> BoundProof:
    """``ModulusKernel.mul``, split regime (``q < 2**41``).

    One operand splits at ``SPLIT_SHIFT`` bits: ``b = b1 * 2**s + b0``.
    The partial ``a * b1`` must fit uint64 before its lazy Barrett
    reduction, and the recombination ``(r1 << s) + a * b0`` (with
    ``r1 < 2q``) must fit again before the final canonical reduction.
    The kernel only takes this path below ``NARROW_SPLIT_LIMIT``, so the
    walk is clamped there — wider words use the 128-bit chain instead.
    """
    q = min(q_max, kernels.NARROW_SPLIT_LIMIT - 1)
    s = kernels.SPLIT_SHIFT
    a = q - 1
    b1 = (q - 1) >> s
    b0 = (1 << s) - 1
    r1 = 2 * q - 1  # lazy Barrett remainder of a * b1
    steps = (
        BoundStep(
            f"split precondition: q < 2**{kernels.NARROW_SPLIT_BITS}",
            q,
            kernels.NARROW_SPLIT_LIMIT - 1,
        ),
        BoundStep("a * b1 (high partial)", a * b1, U64_MAX),
        BoundStep("r1 = reduce64_lazy(a * b1) < 2q", r1, U64_MAX),
        BoundStep(f"(r1 << {s}) + a * b0", (r1 << s) + a * b0, U64_MAX),
    )
    return BoundProof("kernel_split_mul", q_max, steps)


def _float_window(q_max: int, upper: int) -> int:
    """Clamp ``q_max`` into the float-lane window ``[2**14, upper)``.

    The float-quotient kernels guard on this window at runtime
    (``FLOAT_BARRETT_MIN <= q < FLOAT_QHAT_LIMIT``), so the walk is
    proved over the window itself: moduli outside it take the exact
    integer chains certified above.
    """
    return min(max(q_max, kernels.FLOAT_BARRETT_MIN), upper - 1)


def prove_float_barrett(q_max: int) -> BoundProof:
    """``reduce64_f``: float-quotient Barrett on any input below ``2**63``.

    The quotient estimate is ``trunc(RN(RN(x) * v64_f))`` with
    ``v64_f = v64 * 2**-64`` and ``v64 = floor(2**64 / q)`` — exactly
    representable below ``2**53``, which the window floor guarantees.
    Three error sources bound the estimate against the true quotient
    ``x / q``: rounding ``x`` to float64 and rounding the product (both
    relative, bounded together by ``x/q * 2**-51`` with margin), plus
    the downward-only truncation of ``2**64 / q`` to ``v64`` (under one
    quotient unit).  Upward error below one and total error below two
    pin the truncated estimate to ``[Q - 2, Q + 1]``, so the lazy
    remainder lands in ``(-q, 3q)`` — exactly the span the min-trick
    wrap fix ``min(r, r + q)`` repairs into ``[0, 3q)``.
    """
    q = _float_window(q_max, kernels.FLOAT_QHAT_LIMIT)
    v64_floor = 2**64 // kernels.FLOAT_BARRETT_MIN
    # Worst quotient over the whole window: x = 2**64 - 1 at the floor.
    y_max = Fraction(U64_MAX, kernels.FLOAT_BARRETT_MIN)
    scale = 1 << 53  # error steps in units of 2**-53 quotient units
    up_err = math.ceil(y_max / 2**51 * scale)
    total_err = up_err + scale  # + the < 1 downward v64 truncation bias
    steps = (
        BoundStep(
            f"float window floor: q >= 2**{kernels.FLOAT_BARRETT_MIN_BITS}",
            kernels.FLOAT_BARRETT_MIN,
            q,
        ),
        BoundStep(
            f"float window ceiling: q < 2**{kernels.FLOAT_QHAT_BITS}",
            q,
            kernels.FLOAT_QHAT_LIMIT - 1,
        ),
        BoundStep(
            "v64 exactly representable at window floor",
            v64_floor,
            (1 << 53) - 1,
        ),
        BoundStep("upward quotient error (x 2**53) < 1", up_err, scale - 1),
        BoundStep(
            "total quotient error (x 2**53) < 2", total_err, 2 * scale - 1
        ),
        BoundStep("wrap-fixed remainder < 3q", 3 * q - 1, U64_MAX),
        BoundStep("wrap fix operand r + q", 4 * q - 1, U64_MAX),
    )
    return BoundProof("float_barrett", q_max, steps)


def prove_float_qhat_shoup(q_max: int) -> BoundProof:
    """``shoup_mul_f``: float-quotient Shoup with lazy operands < 4q.

    The butterflies and BConv feed operands up to ``4q - 1`` — the
    binding precondition, since the float product is only exact when
    the operand itself fits 53 bits, i.e. ``4q < 2**50`` inside the
    window.  ``w_shoup_f = RN(floor(w * 2**64 / q)) * 2**-64`` carries
    a relative rounding error; together with the product rounding the
    upward error stays below one quotient unit, and the downward side
    adds only the ``a * delta / 2**64 < 2**-14`` truncation bias, so
    the estimate sits in ``[Q - 1, Q + 1]`` and the remainder in
    ``(-q, 2q) ⊂ (-q, 3q)`` — repaired by the same min-trick wrap fix.
    """
    q = _float_window(q_max, kernels.FLOAT_QHAT_LIMIT)
    a_max = 4 * q - 1  # lazy operand bound
    y_max = a_max  # w / q < 1, so a * w / q < a
    scale = 1 << 53
    up_err = math.ceil(Fraction(y_max, 2**51) * scale)
    down_err = up_err + math.ceil(Fraction(a_max, 2**64) * scale)
    steps = (
        BoundStep(
            f"float window ceiling: q < 2**{kernels.FLOAT_QHAT_BITS}",
            q,
            kernels.FLOAT_QHAT_LIMIT - 1,
        ),
        BoundStep(
            "operand a < 4q exactly representable", a_max, (1 << 53) - 1
        ),
        BoundStep("upward quotient error (x 2**53) < 1", up_err, scale - 1),
        BoundStep(
            "downward quotient error (x 2**53) < 1", down_err, scale - 1
        ),
        BoundStep("wrap-fixed remainder < 3q", 3 * q - 1, U64_MAX),
        BoundStep("wrap fix operand r + q", 4 * q - 1, U64_MAX),
    )
    return BoundProof("float_qhat_shoup", q_max, steps)


def prove_float_split_mul(q_max: int) -> BoundProof:
    """``mul_f``: the split variable product on the float lane.

    Same shape as :func:`prove_narrow_split_mul`, but both reductions
    go through the float Barrett, whose lazy output is ``[0, 2q)``
    (wrap fix plus one conditional subtraction).  The high partial
    ``a * b1`` must fit uint64 before its reduction, and the
    recombination ``(r1 << s) + a * b0`` with ``r1 < 2q`` must fit
    again before the second reduction — both below ``2**63``, the
    float Barrett's operand bound, and both clamped to the split
    regime ``q < 2**41``, which sits inside the float window.
    """
    q = _float_window(q_max, kernels.NARROW_SPLIT_LIMIT)
    s = kernels.SPLIT_SHIFT
    a = q - 1
    b1 = (q - 1) >> s
    b0 = (1 << s) - 1
    r1 = 2 * q - 1  # float Barrett lazy remainder of a * b1
    steps = (
        BoundStep(
            f"split precondition: q < 2**{kernels.NARROW_SPLIT_BITS}",
            q,
            kernels.NARROW_SPLIT_LIMIT - 1,
        ),
        BoundStep("a * b1 (high partial)", a * b1, U63_MAX),
        BoundStep("r1 = reduce64_f(a * b1, lazy) < 2q", r1, U64_MAX),
        BoundStep(f"(r1 << {s}) + a * b0", (r1 << s) + a * b0, U63_MAX),
        BoundStep("second float Barrett output < 2q", 2 * q - 1, U64_MAX),
    )
    return BoundProof("float_split_mul", q_max, steps)


def prove_lazy_plain_inner(q_max: int, terms: int | None = None) -> BoundProof:
    """``NumpyBackend.plain_inner``: ``terms`` split products, reduced once.

    :func:`prove_float_split_mul` with each partial product replaced by
    a sum of ``terms`` of them — by default the chunk the kernel takes,
    ``kernels.lazy_inner_terms``, whose clauses are the limits below.
    """
    q = _float_window(q_max, kernels.NARROW_SPLIT_LIMIT)
    s = kernels.SPLIT_SHIFT
    n = kernels.lazy_inner_terms(q) if terms is None else terms
    high = n * q * -(-q >> s)  # sum of x * (p >> s)
    low = n * q << s  # sum of x * (p & mask)
    steps = (
        BoundStep(f"sum of {n} high partials x * (p >> {s})", high, U63_MAX),
        BoundStep("r1 = reduce64_f(high sum, lazy) < 2q", 2 * q - 1, U64_MAX),
        BoundStep(f"sum of {n} low partials x * (p & mask)", low, U63_MAX),
        BoundStep(f"(r1 << {s}) + low sum", (2 * q << s) + low, U63_MAX),
    )
    return BoundProof("lazy_plain_inner", q_max, steps)


def prove_bconv_accumulator(q_max: int) -> BoundProof:
    """``ModulusKernel.sum_mod``: the BConv matmul-style accumulation.

    Terms are canonical residues (< q); each splits into 32-bit halves
    whose per-half sums across ``DEFAULT_BCONV_TERMS`` addends must not
    overflow, and the folded halves repeat the t + u < 2**64 pattern.
    """
    q = q_max
    term = q - 1  # canonical residue inputs
    mask = (1 << 32) - 1
    terms = DEFAULT_BCONV_TERMS
    lo_sum = (term & mask) * terms
    hi_sum = (term >> 32) * terms
    s = (2 * q - 1) + (2 * q - 1)
    steps = (
        BoundStep("terms below 2**63 precondition", term, U63_MAX),
        BoundStep(f"lo half-sum of {terms} terms", lo_sum, U64_MAX),
        BoundStep(f"hi half-sum of {terms} terms", hi_sum, U64_MAX),
        BoundStep("s = shoup_mul_lazy(hi) + reduce64_lazy(lo)", s, U64_MAX),
    )
    return BoundProof("bconv_sum_mod", q_max, steps)


def prove_lazy_ntt_schedule(
    q_max: int,
    log_n: int = DEFAULT_NTT_LOG_N,
    schedule: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> BoundProof:
    """``NttPlan``: lazy butterflies under ``lazy_schedule(q_max, log_n)``.

    Values are signed representatives ``|x| < bound``.  A twiddle
    multiply takes an operand up to ``FLOAT_OPERAND_LIMIT`` (the float
    quotient then errs by less than one, so the truncated remainder
    stays below ``2q``); a CT stage adds it to ``u`` both ways (``bound
    += 2q``), a GS stage multiplies ``u - v`` and keeps ``u + v``
    (``bound *= 2``), and a float-Barrett pass at a scheduled stage
    restarts from ``2q``.  ``schedule`` overrides the derived one, so a
    late reduction can be shown to fail.
    """
    from repro.ntt.plan import lazy_schedule

    q = _float_window(q_max, kernels.FLOAT_QHAT_LIMIT)
    limit = kernels.FLOAT_OPERAND_LIMIT
    forward, inverse = schedule or lazy_schedule(q, log_n)
    scale = 1 << 53
    error = math.ceil(Fraction(limit, 2**51) * scale) + math.ceil(
        Fraction(limit, 2**64) * scale
    )
    steps = [
        BoundStep("quotient error at the operand limit (x 2**53) < 1", error, scale - 1),
        BoundStep("truncated remainder |r| < 2q", 2 * q - 1, U63_MAX),
    ]
    bound = q  # canonical input
    for stage in range(log_n):
        bound = 2 * q if stage in forward else bound
        steps.append(BoundStep(f"forward stage {stage}: operand v", bound, limit))
        bound += 2 * q
    steps.append(BoundStep("forward final Barrett operand exact in float64", bound, scale - 1))
    barrett = math.ceil(Fraction(bound, kernels.FLOAT_BARRETT_MIN * 2**51) * scale)
    steps.append(BoundStep("its quotient error (x 2**53) < 1", barrett, scale - 1))
    bound = q
    for stage in range(log_n):
        bound = 2 * q if stage in inverse else bound
        steps.append(BoundStep(f"inverse stage {stage}: operand u - v", 2 * bound, limit))
        bound *= 2
    return BoundProof("lazy_ntt_schedule", q_max, tuple(steps))


def prove_bconv_matmul(
    q_max: int,
    src_count: int = DEFAULT_BCONV_TERMS,
    digit_bits: int = kernels.BCONV_DIGIT_BITS,
) -> BoundProof:
    """``BaseConverter._convert_rows_matmul``: BConv as one float64 dgemm.

    Residues and base-table entries (words of at most two digits — the
    converter takes the per-row path otherwise) split into
    ``digit_bits``-wide digits; a digit sum adds ``2L`` digit products
    plus the overflow count times a correction digit and must be an
    exact float64 integer in any summation order.  The two sums
    recombine as ``S0 + (S1 << digit_bits)``, which the float Barrett
    converts through an int64 view.
    """
    q = min(q_max, (1 << 2 * digit_bits) - 1)
    digit = (1 << digit_bits) - 1
    terms = 2 * src_count + 1
    dot = terms * digit * digit
    steps = (
        BoundStep("high digit of a word fits a digit", (q - 1) >> digit_bits, digit),
        BoundStep("overflow count e <= L fits a digit", src_count, digit),
        BoundStep(f"digit dot product, {terms} terms", dot, 1 << 53),
        BoundStep(f"recombined S0 + (S1 << {digit_bits})", dot + (dot << digit_bits), U63_MAX),
    )
    return BoundProof("bconv_matmul", q_max, steps)


def prove_ds_reconstruction(pair_product_max: int) -> BoundProof:
    """Garner CRT over a DS prime pair (``repro.rns.poly.garner_pair``).

    The reconstructed coefficient reaches ``q_a * q_b - 1`` and the
    intermediate ``a + q_a * t`` equals it, so the pair product must
    fit uint64; the centering comparison additionally wants it signed-
    representable, i.e. below ``2**63``.
    """
    x = pair_product_max - 1
    steps = (
        BoundStep("x = a + q_a * t < q_a * q_b", x, U64_MAX),
        BoundStep("centered comparison: q_a * q_b <= 2**63", pair_product_max, 1 << 63),
    )
    return BoundProof("ds_reconstruction", pair_product_max, steps)


def _boot_pair_product_bits(word_bits: int) -> int:
    """Worst-case DS pair product (bits) a ``word_bits`` chain forms.

    DS pairs realize the bootstrapping scale with two primes of about
    half its width each; the pair product therefore tracks the boot
    scale (2**62 for wide words, reduced for words below 33 bits), not
    the word length.  One extra bit covers primes sitting just above
    the half-scale target.
    """
    from repro.params.presets import boot_plan

    boot_scale, _depth = boot_plan(word_bits)
    return int(boot_scale) + 1


def certify_word_bits(word_bits: int) -> BoundCertificate:
    """Prove (or refute) uint64 safety of every kernel chain.

    ``q_max = 2**word_bits - 1`` bounds every prime a ``word_bits``
    machine word can host; each chain is walked at that worst case.
    """
    if word_bits < 3:
        raise ValueError("word_bits must be at least 3")
    q_max = (1 << word_bits) - 1
    proofs = (
        prove_mul_hi(q_max),
        prove_forward_butterfly(q_max),
        prove_inverse_butterfly(q_max),
        prove_barrett_reduction(q_max),
        prove_variable_product(q_max),
        prove_narrow_split_mul(q_max),
        prove_float_barrett(q_max),
        prove_float_qhat_shoup(q_max),
        prove_float_split_mul(q_max),
        prove_lazy_plain_inner(q_max),
        prove_bconv_accumulator(q_max),
        prove_lazy_ntt_schedule(q_max),
        prove_bconv_matmul(q_max),
        prove_ds_reconstruction(1 << _boot_pair_product_bits(word_bits)),
    )
    return BoundCertificate(word_bits=word_bits, q_max=q_max, proofs=proofs)


def proofs_report(subject: str, proofs: tuple[BoundProof, ...]) -> CheckReport:
    """Failed steps of ``proofs`` as a :class:`CheckReport` (KB-* codes)."""
    report = CheckReport("bounds", subject)
    for proof in proofs:
        for step in proof.failures():
            report.error(
                "KB-OVERFLOW",
                f"{proof.chain}: {step.label} reaches {step.magnitude} "
                f"(limit {step.limit}) at q_max = {proof.q_max}",
            )
    return report


def certify_report(word_bits: int) -> CheckReport:
    """Certificate rendered as a :class:`CheckReport` (KB-* codes)."""
    certificate = certify_word_bits(word_bits)
    return proofs_report(f"word_bits={word_bits}", certificate.proofs)


def max_safe_word_bits() -> int:
    """Largest ``word_bits`` up to 64 whose certificate proves — derived,
    not asserted.  Must (and does) agree with ``kernels.FAST_MODULUS_BITS``."""
    best = 0
    for bits in range(3, 65):
        if certify_word_bits(bits).ok:
            best = bits
    return best
