"""Static noise-budget analysis: abstract interpretation with a noise domain.

:mod:`repro.check.ckks_check` stops at the ``(level, scale)`` domain —
noise is invisible to it.  This pass extends the abstract domain with a
noise component so the paper's central robustness claim (S3, Table 2,
Fig. 1: a 36-bit word with a 35-bit scale survives thousands of
rescales and bootstraps; shorter words explode) can be *proved* without
running a single encryption.

Abstract state (:class:`NoiseState`), all in the message domain:

* ``mag`` — a declared upper bound on the message magnitude;
* ``drift`` — the accumulated multiplicative drift factor from the
  relative rescale-jitter term (``2N/scale`` per rescale, the paper's
  explosion driver).  Drift is a near-uniform scale factor: it is
  tracked separately because its failure mode is not lost precision but
  *leaving a fitted polynomial interval or the bootstrap stable range*;
* ``std`` — an average-case estimate of the additive noise standard
  deviation (accumulated in quadrature, mirroring independent noise);
* ``worst`` — a proven worst-case additive error bound (accumulated
  linearly, each injection taken at ``K_SIGMA`` standard deviations,
  plus deterministic polynomial-approximation bias terms).

:class:`NoiseCheckEvaluator` is the bounding domain of the Table 2
programs (``helr.program``, ``sorting.program``, ``resnet.program``);
:class:`repro.ckks.noise.NoisyEvaluator` is their sampling domain.  The
programs are written once and folded over both: an op's plaintext
operand is the sampling domain's and is ignored here, and a declared
magnitude is this domain's and is ignored there.  Every per-op standard
deviation is a property of :class:`repro.ckks.calibration.NoiseModel`,
which :class:`NoiseParams` extends and the sampling domain injects
from, so the two domains cannot drift apart.

Explosion checks (``NOISE-EXPLOSION``, ``NOISE-BOOT-RANGE``) compare
the high-probability value envelope ``mag * drift + K_SIGMA * std``
against fitted polynomial intervals and the bootstrap stable range;
they carry op-index provenance pointing at the evaluator call where
the value bound first escapes.  Precision floors are reported both as
an average-case estimate (``-log2(std)``, the Table 2-comparable
number) and as a proven worst-case floor (``-log2(worst_error)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from repro.ckks.calibration import NoiseModel
from repro.check.diagnostics import CheckReport
from repro.params.primes import level_width

__all__ = [
    "K_SIGMA",
    "NoiseParams",
    "NoiseState",
    "NoiseSummary",
    "PolySpec",
    "SignSpec",
    "NoiseCheckEvaluator",
    "check_noise_program",
    "fitted_poly_spec",
    "fitted_sign_spec",
]

# Worst-case envelope: each gaussian injection is charged at K_SIGMA
# standard deviations (P(|N| > 8 sigma) ~ 1e-15 per sample, negligible
# even across every element of every ciphertext in a workload).
K_SIGMA = 8.0

_POISON = float("inf")


def _quad(*stds: float) -> float:
    """Quadrature accumulation of independent noise standard deviations."""
    return math.sqrt(sum(s * s for s in stds))


@dataclass(frozen=True)
class NoiseParams(NoiseModel):
    """The noise-domain slice of a parameter set: the calibrated
    :class:`~repro.ckks.calibration.NoiseModel` plus what the static pass
    checks against it.

    ``word_bits`` enables the realization check (a program claiming a
    scale its machine word cannot host is flagged); ``message_ratio`` is
    the bootstrap's stable range (``q0 / scale``).
    """

    word_bits: int | None = None
    message_ratio: float = 8.0

    def validate_into(self, report: CheckReport) -> None:
        """Realization discipline: the claimed scales must fit the word."""
        if not math.isfinite(self.scale_bits) or self.scale_bits <= 0:
            report.error(
                "NOISE-SCALE-RANGE",
                f"scale 2^{self.scale_bits!r} is not a positive finite scale",
            )
        if self.word_bits is None:
            return
        for name, bits in (
            ("normal", self.scale_bits),
            ("bootstrapping", self.boot_scale_bits),
        ):
            if not level_width(bits, self.word_bits):
                report.error(
                    "NOISE-SCALE-UNREALIZABLE",
                    f"claimed {name} scale 2^{bits:g} cannot be realized on "
                    f"{self.word_bits}-bit words (no SS prime fits and a DS "
                    f"pair would need primes wider than the word)",
                )


@dataclass(frozen=True)
class NoiseState:
    """A ciphertext reduced to the noise-checked state."""

    mag: float  # declared bound on |message| (drift excluded)
    drift: float  # accumulated multiplicative drift factor (>= 1)
    std: float  # average-case additive noise std
    worst: float  # proven worst-case additive error bound
    origin: int  # index of the evaluator call that produced it

    @property
    def message_bound(self) -> float:
        """Upper bound on the drifted message magnitude."""
        return self.mag * self.drift

    @property
    def mean_error(self) -> float:
        """Average-case additive error (the Table 2-comparable number)."""
        return self.std

    @property
    def worst_error(self) -> float:
        """Proven bound on |value - ideal|: additive worst case plus the
        deterministic drift bias."""
        return self.worst + self.mag * (self.drift - 1.0)

    @property
    def mean_precision_bits(self) -> float:
        return -math.log2(self.mean_error) if self.mean_error > 0 else math.inf

    @property
    def proven_precision_bits(self) -> float:
        return -math.log2(self.worst_error) if self.worst_error > 0 else math.inf

    @property
    def poisoned(self) -> bool:
        return not math.isfinite(self.mag)


@dataclass(frozen=True)
class PolySpec:
    """Static description of one fitted-polynomial evaluation.

    ``gain`` bounds the fitted interpolant's derivative on (a slightly
    widened copy of) the interval — input error passes through the
    polynomial amplified by at most this factor while inputs stay
    inside the interval (the explosion check guards that premise).
    ``bias`` is the interpolant's approximation error against the ideal
    function (deterministic, charged to the worst-case path only).
    ``preserve_drift`` marks quasi-linear functions (polynomial ReLU)
    whose output inherits the input's multiplicative drift; saturating
    functions (sigmoid, sign) squash the drift into their bounded
    output instead.
    """

    interval: tuple[float, float]
    out_mag: float
    gain: float
    depth_ops: int
    bias: float = 0.0
    cap: float | None = None  # output error can never exceed this
    preserve_drift: bool = False

    @property
    def halfwidth(self) -> float:
        lo, hi = self.interval
        return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class SignSpec:
    """Static description of a composite polynomial sign comparator.

    ``eps`` bounds ``|sign_poly(x) - sign(x)|`` for ``delta <= |x| <=
    1`` (the resolved region); differences below ``delta`` may compare
    arbitrarily, but a mis-ordered near-tie displaces values by at most
    ``delta`` — the comparator's resolution.  Both are measured
    numerically from the *fitted* stage interpolants by
    :func:`fitted_sign_spec`.
    """

    halfwidth: float  # first-stage fitted interval half-width
    eps: float
    delta: float
    depth_ops: int


@dataclass(frozen=True)
class NoiseSummary:
    """What one symbolic run proved."""

    mean_floor_bits: float  # min over the run of -log2(std)
    proven_floor_bits: float  # min over the run of -log2(worst_error)
    exploded: bool
    explosion_op: int | None
    max_drift: float  # largest drift factor reached

    @property
    def drift_bits(self) -> float:
        return math.log2(self.max_drift)


@dataclass
class _Floor:
    mean_bits: float = math.inf
    proven_bits: float = math.inf


class NoiseCheckEvaluator:
    """The bounding domain of the programs
    :class:`repro.ckks.noise.NoisyEvaluator` samples.

    Violations never raise — they accumulate in the report (with
    op-index provenance) so one run surfaces every problem.  Once a
    value explodes its state is poisoned (infinite magnitude) and
    downstream checks stay silent: one explosion, one diagnostic chain.
    """

    def __init__(
        self, params: NoiseParams, report: CheckReport | None = None
    ) -> None:
        self.params = params
        self.report = report if report is not None else CheckReport("noise", "program")
        params.validate_into(self.report)
        self._call = -1
        self._floor = _Floor()
        self.exploded = False
        self.explosion_op: int | None = None
        self.max_drift = 1.0

    # -- bookkeeping ---------------------------------------------------------

    def _next(self) -> int:
        self._call += 1
        return self._call

    def _make(
        self, mag: float, drift: float, std: float, worst: float, call: int
    ) -> NoiseState:
        state = NoiseState(mag=mag, drift=drift, std=std, worst=worst, origin=call)
        if not state.poisoned:
            self.max_drift = max(self.max_drift, drift)
            self._floor.mean_bits = min(
                self._floor.mean_bits, state.mean_precision_bits
            )
            self._floor.proven_bits = min(
                self._floor.proven_bits, state.proven_precision_bits
            )
        return state

    def _explode(self, code: str, message: str, call: int) -> NoiseState:
        self.report.error(code, message, op_index=call)
        if not self.exploded:
            self.exploded = True
            self.explosion_op = call
        return NoiseState(
            mag=_POISON, drift=1.0, std=_POISON, worst=_POISON, origin=call
        )

    def _poison(self, call: int) -> NoiseState:
        """Silent poison propagation: one explosion, one diagnostic."""
        return NoiseState(
            mag=_POISON, drift=1.0, std=_POISON, worst=_POISON, origin=call
        )

    def _envelope(self, ct: NoiseState) -> float:
        """High-probability bound on the values a ciphertext holds."""
        return ct.message_bound + K_SIGMA * ct.std

    def summary(self) -> NoiseSummary:
        floor = self._floor
        return NoiseSummary(
            mean_floor_bits=-math.inf if self.exploded else floor.mean_bits,
            proven_floor_bits=-math.inf if self.exploded else floor.proven_bits,
            exploded=self.exploded,
            explosion_op=self.explosion_op,
            max_drift=self.max_drift,
        )

    # -- sources and annotations ---------------------------------------------

    def encrypt(self, values: object = None, mag: float = 1.0) -> NoiseState:
        call = self._next()
        std = self.params.fresh_std
        return self._make(mag, 1.0, std, K_SIGMA * std, call)

    def ghost(self, ct: NoiseState) -> NoiseState:
        """A noise-free carrier of ``ct``'s magnitude and drift.

        Used with :meth:`descend`: the incremental noise a loop body
        injects is measured against a clean carrier, while the carried
        noise re-enters through the non-expansive update itself.
        """
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        return self._make(ct.mag, ct.drift, 0.0, 0.0, call)

    # -- additive ops --------------------------------------------------------

    def add(self, a: NoiseState, b: NoiseState) -> NoiseState:
        call = self._next()
        if a.poisoned or b.poisoned:
            return self._poison(call)
        return self._make(
            a.mag + b.mag,
            max(a.drift, b.drift),
            _quad(a.std, b.std),
            a.worst + b.worst,
            call,
        )

    sub = add

    def negate(self, ct: NoiseState) -> NoiseState:
        """A sign flip moves no energy: noise-free, and not a charged call."""
        return ct

    def drop_to_level(self, ct: NoiseState, level: int) -> NoiseState:
        """Dropping limbs reduces the modulus, not the message: noise-free."""
        return ct

    def match(self, a: NoiseState, b: NoiseState) -> tuple[NoiseState, NoiseState]:
        """The scale correction is one plaintext multiply on the adjusted operand."""
        return self.multiply_plain(a, pt_mag=1.0), b

    def add_plain(self, ct: NoiseState, pt_mag: float = 1.0) -> NoiseState:
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        return self._make(ct.mag + pt_mag, ct.drift, ct.std, ct.worst, call)

    def add_scalar(self, ct: NoiseState, value: complex) -> NoiseState:
        return self.add_plain(ct, pt_mag=abs(value))

    # -- multiplicative ops --------------------------------------------------

    def multiply(self, a: NoiseState, b: NoiseState) -> NoiseState:
        """HMult + rescale: cross noise, key-switch noise, rescale jitter."""
        call = self._next()
        if a.poisoned or b.poisoned:
            return self._poison(call)
        p = self.params
        ma, mb = a.message_bound, b.message_bound
        cross_worst = a.worst * mb + b.worst * ma + a.worst * b.worst
        value_bound = (ma + a.worst) * (mb + b.worst)
        worst = (
            cross_worst
            + value_bound * K_SIGMA * p.relative_std
            + K_SIGMA * p.op_std
        )
        std = _quad(a.std * mb, b.std * ma, value_bound * p.relative_std, p.op_std)
        return self._make(a.mag * b.mag, a.drift * b.drift, std, worst, call)

    def multiply_plain(self, ct: NoiseState, pt_mag: float = 1.0) -> NoiseState:
        """PMult + rescale against a plaintext bounded by ``pt_mag``."""
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        p = self.params
        out_bound = ct.message_bound * pt_mag + ct.worst * pt_mag
        worst = (
            ct.worst * pt_mag
            + out_bound * K_SIGMA * p.relative_std
            + K_SIGMA * p.op_std
        )
        std = _quad(ct.std * pt_mag, out_bound * p.relative_std, p.op_std)
        return self._make(ct.mag * pt_mag, ct.drift, std, worst, call)

    def multiply_scalar(self, ct: NoiseState, value: complex) -> NoiseState:
        return self.multiply_plain(ct, pt_mag=abs(value))

    def square(self, ct: NoiseState) -> NoiseState:
        return self.multiply(ct, ct)

    def consume_level(self, ct: NoiseState) -> NoiseState:
        """A multiply by an encoding of one, then the rescale."""
        return self.multiply_plain(ct, pt_mag=1.0)

    def linear(
        self,
        ct: NoiseState,
        plain: object,
        out_mag: float,
        gain: float = 1.0,
        fan_in: int = 1,
        label: str | None = None,
    ) -> NoiseState:
        """A plaintext linear map ``plain`` (rotation-ladder inner products).

        ``gain`` bounds the map's operator norm (how much input noise
        can be amplified); ``fan_in`` scales the key-switch noise of
        the rotation ladder, matching the sampling domain's
        ``op_std * sqrt(fan_in)`` injection.  Drift is preserved — a
        uniform scale error on the input scales the output uniformly.
        """
        del label
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        ks = self.params.op_std * math.sqrt(fan_in)
        std = _quad(ct.std * gain, ks)
        worst = ct.worst * gain + K_SIGMA * ks
        return self._make(out_mag, ct.drift, std, worst, call)

    # -- rescale / rotation / drift ------------------------------------------

    def rotate(self, ct: NoiseState, amount: int = 1) -> NoiseState:
        del amount
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        p = self.params
        return self._make(
            ct.mag,
            ct.drift,
            _quad(ct.std, p.op_std),
            ct.worst + K_SIGMA * p.op_std,
            call,
        )

    def conjugate(self, ct: NoiseState) -> NoiseState:
        """One key switch, exactly like a rotation."""
        return self.rotate(ct)

    def rescale(self, ct: NoiseState) -> NoiseState:
        """An explicit rescale: relative prime-vs-scale jitter only."""
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        p = self.params
        bound = ct.message_bound + ct.worst
        return self._make(
            ct.mag,
            ct.drift,
            _quad(ct.std, bound * p.relative_std),
            ct.worst + bound * K_SIGMA * p.relative_std,
            call,
        )

    def amplify(self, ct: NoiseState, gain: float, label: str | None = None) -> NoiseState:
        """One workload-calibrated drift step: ``drift *= 1 + gain * rel``.

        The programs apply it with their ``INSTABILITY_GAIN``: the
        compounding relative rescale error that inflates values until
        they leave a fitted interval or the bootstrap stable range.
        """
        del label
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        factor = 1.0 + gain * self.params.relative_std
        return self._make(ct.mag, ct.drift * factor, ct.std, ct.worst, call)

    def descend(self, w: NoiseState, step: NoiseState, label: str | None = None) -> NoiseState:
        """A non-expansive iterative update ``w' = w - step``.

        Gradient descent on a smooth convex loss with a stable learning
        rate is non-expansive in the iterate (``|I - lr H| <= 1``), so
        carried weight noise passes through with gain one and only the
        step's own noise accumulates — without this the worst-case
        bound of a 32-iteration training loop would compound
        exponentially through the gradient and prove nothing.
        """
        del label
        call = self._next()
        if w.poisoned or step.poisoned:
            return self._poison(call)
        return self._make(
            w.mag,
            max(w.drift, step.drift),
            _quad(w.std, step.std),
            w.worst + step.worst,
            call,
        )

    # -- nonlinear ops --------------------------------------------------------

    def poly_eval(
        self,
        ct: NoiseState,
        fn: Callable[[float], float],
        degree: int,
        interval: tuple[float, float],
        out_mag: float,
        cap: float | None = None,
        preserve_drift: bool = False,
        label: str | None = None,
    ) -> NoiseState:
        """Evaluate ``fn``'s fitted Chebyshev interpolant on ``interval``,
        characterized by :func:`fitted_poly_spec`.

        The value envelope must stay inside the fitted interval: beyond
        it the interpolant diverges violently — the genuine
        error-explosion mechanism, flagged with op provenance.
        """
        spec = fitted_poly_spec(
            fn, degree, interval, out_mag=out_mag, cap=cap, preserve_drift=preserve_drift
        )
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        envelope = self._envelope(ct)
        if envelope > spec.halfwidth:
            return self._explode(
                "NOISE-EXPLOSION",
                f"value bound {envelope:.3g} leaves the fitted interval "
                f"[-{spec.halfwidth:g}, {spec.halfwidth:g}]"
                + (f" in {label}" if label else "")
                + " — the Chebyshev interpolant diverges here",
                call,
            )
        p = self.params
        depth = math.sqrt(spec.depth_ops)
        drift = ct.drift if spec.preserve_drift else 1.0
        out_bound = spec.out_mag * drift
        jitter = out_bound * p.relative_std * depth
        ks = p.op_std * depth
        if spec.preserve_drift:
            prop_worst = spec.gain * ct.worst
        else:
            # Saturating: the drift-induced message shift also passes
            # through the polynomial's slope.
            prop_worst = spec.gain * (ct.worst + ct.mag * (ct.drift - 1.0))
        if spec.cap is not None:
            prop_worst = min(prop_worst, spec.cap)
        worst = prop_worst + spec.bias + K_SIGMA * (jitter + ks)
        std = _quad(spec.gain * ct.std, jitter, ks)
        return self._make(spec.out_mag, drift, std, worst, call)

    def compare_exchange(
        self,
        ct: NoiseState,
        fn: Callable[[float], float],
        degree: int,
        stages: Sequence[tuple[float, float]],
        partner: object,
        want_lo: object,
        label: str | None = None,
    ) -> NoiseState:
        """One bitonic compare-exchange over a packed vector.

        ``(min, max) = (a + b -/+ (a - b) * sign_poly(a - b)) / 2``.
        The exact min/max map is 1-Lipschitz in its operands, so
        carried noise passes through with gain one; the polynomial
        comparator adds ``max(mag * eps, 2 * delta) / 2`` of
        deterministic bias (mis-resolution of near-ties) plus the
        multiply's key-switch noise and rescale jitter.  The pairwise
        difference must stay inside the first sign stage's fitted
        interval — drifted values escaping it is Table 2's 5.2e+75
        sorting explosion.  The comparator is characterized by
        :func:`fitted_sign_spec`; the stage's masks are ignored.
        """
        sign = fitted_sign_spec(fn, degree, tuple(stages))
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        # Differences of values in [-mag, mag] span up to 2x, but the
        # sort operates on values in [0, mag] (paper normalization), so
        # |a - b| <= mag * drift plus the noise envelope.
        diff_bound = ct.message_bound + K_SIGMA * _quad(ct.std, ct.std)
        if diff_bound > sign.halfwidth:
            return self._explode(
                "NOISE-EXPLOSION",
                f"pairwise difference bound {diff_bound:.3g} leaves the "
                f"sign interval [-{sign.halfwidth:g}, {sign.halfwidth:g}]"
                + (f" in {label}" if label else "")
                + " — the composite sign polynomial diverges here",
                call,
            )
        p = self.params
        depth = math.sqrt(sign.depth_ops)
        bias = 0.5 * max(ct.message_bound * sign.eps, 2.0 * sign.delta)
        jitter = ct.message_bound * p.relative_std * depth
        ks = p.op_std * depth
        return self._make(
            ct.mag,
            ct.drift,
            _quad(ct.std, jitter, ks),
            ct.worst + bias + K_SIGMA * (jitter + ks),
            call,
        )

    def bootstrap(self, ct: NoiseState, label: str | None = None) -> NoiseState:
        """Refresh levels; values outside the stable range wrap and die."""
        call = self._next()
        if ct.poisoned:
            return self._poison(call)
        envelope = self._envelope(ct)
        if envelope > self.params.message_ratio:
            return self._explode(
                "NOISE-BOOT-RANGE",
                f"value bound {envelope:.3g} exceeds the bootstrap stable "
                f"range +/-{self.params.message_ratio:g}"
                + (f" in {label}" if label else "")
                + " — coefficients wrap modulo q0 and the message is destroyed",
                call,
            )
        boot = self.params.boot_std
        return self._make(
            ct.mag,
            ct.drift,
            _quad(ct.std, boot),
            ct.worst + K_SIGMA * boot,
            call,
        )


def check_noise_program(
    program: Callable[[NoiseCheckEvaluator], object],
    params: NoiseParams,
    label: str = "program",
) -> tuple[CheckReport, NoiseSummary]:
    """Symbolically execute ``program`` over the noise domain."""
    report = CheckReport("noise", label)
    evaluator = NoiseCheckEvaluator(params, report)
    program(evaluator)
    return report, evaluator.summary()


# ---------------------------------------------------------------------------
# Numeric characterization of fitted interpolants (static: no encryption)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def fitted_poly_spec(
    fn: Callable[[float], float],
    degree: int,
    interval: tuple[float, float],
    *,
    out_mag: float,
    cap: float | None,
    preserve_drift: bool,
) -> PolySpec:
    """The :class:`PolySpec` of ``fn``'s fitted interpolant, read off the
    one cached fit (:func:`repro.ckks.poly_eval.fitted_plan`): ``gain`` is
    max |p'| over the interval in input units, ``bias`` max |p - fn|, and
    ``depth_ops`` the depth of the plan the engine runs."""
    import numpy as np
    from numpy.polynomial import chebyshev as C

    from repro.ckks.noise import fitted_eval
    from repro.ckks.poly_eval import fitted_plan

    plan = fitted_plan(fn, degree, interval)
    lo, hi = interval
    slope = C.chebval(np.linspace(-1.0, 1.0, 4001), C.chebder(plan.coeffs))
    x = np.linspace(lo, hi, 2001)
    exact = np.array([fn(float(v)) for v in x])
    return PolySpec(
        interval=interval,
        out_mag=out_mag,
        gain=float(np.max(np.abs(slope)) * 2.0 / (hi - lo)),
        depth_ops=plan.depth,
        bias=float(np.max(np.abs(fitted_eval(fn, degree, interval, x) - exact))),
        cap=cap,
        preserve_drift=preserve_drift,
    )


@lru_cache(maxsize=16)
def fitted_sign_spec(
    fn: Callable[[float], float],
    degree: int,
    stages: tuple[tuple[float, float], ...],
) -> SignSpec:
    """Measure the composite fitted sign chain's (eps, delta).

    Composes the per-stage fitted interpolants numerically on a dense
    grid; ``delta`` is the smallest threshold above which the composite
    agrees with sign(x) to within 1e-2.  The depth charged is every
    stage plan's plus the multiply that recombines ``(a - b) * sign``.
    """
    import numpy as np

    from repro.ckks.noise import fitted_eval
    from repro.ckks.poly_eval import fitted_plan

    eps_tolerance = 1e-2
    lo0, hi0 = stages[0]
    halfwidth = max(abs(lo0), abs(hi0))
    x = np.linspace(1e-4, 1.0, 4000)
    y = x
    for interval in stages:
        y = fitted_eval(fn, degree, interval, y)
    err = np.abs(y - 1.0)  # sign(x) = +1 on the positive grid
    bad = err > eps_tolerance
    delta = float(x[int(np.max(np.nonzero(bad)[0])) + 1]) if bool(np.any(bad)) else float(x[0])
    resolved = err[x >= delta]
    eps = float(np.max(resolved)) if resolved.size else eps_tolerance
    return SignSpec(
        halfwidth=halfwidth,
        eps=max(eps, 1e-9),
        delta=max(delta, 1e-9),
        depth_ops=sum(fitted_plan(fn, degree, interval).depth for interval in stages) + 1,
    )
