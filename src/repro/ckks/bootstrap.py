"""CKKS bootstrapping (paper S2.3): ModRaise -> CoeffToSlot -> EvalMod
-> SlotToCoeff.

A ciphertext that has exhausted its rescaling levels decrypts to
``p = Delta*m + e  (mod q0)``.  Bootstrapping re-expresses it modulo the
full chain:

1. **ModRaise** — reinterpret the base-modulus residues over every
   prime.  The plaintext becomes ``p + q0*I`` for a small integer
   polynomial ``I`` (``|I| <~ sqrt(h)``, h the secret Hamming weight).
2. **CoeffToSlot** — a C-linear map moving coefficients into slots as
   ``c_j = w_j + i*w_{j+n}``.  ``z = U c`` is the special FFT,
   ``U = S_L ... S_1 BR`` [Cheon+ 19]: a bit reversal, then ``log2 n``
   butterflies of three diagonals ``{0, +-2^(k-1)}`` built from the
   encoder's twiddles.  CtS applies ``S_k^-1 = S_k^H / 2`` merged into a
   few sparse stages, a level each, the normalization ``Delta /
   (2*q0*K)`` folded into the first so EvalMod sees values in [-1, 1].
   ``BR`` is never applied: everything up to SlotToCoeff is slot-wise.
3. **EvalMod** — ``sin(2*pi*K*x)`` removes the ``q0*I`` multiples,
   computed as the cosine / double-angle reduction of [Bossuat+ 21,
   eprint 2020/1203]: the Chebyshev series of ``cos((2*pi*K*x - pi/2) /
   2^r)`` (in closed form, from Bessel values), then ``r`` steps ``c <-
   2c^2 - 1``.  The
   arcsine correction ``s + s^3/6`` [Bae+ 22 / Kim+ 22-flavored], which
   cancels the leading ``sin(x) != x`` error, costs two levels and is
   kept only where that error exceeds the target (high scales).
   :class:`EvalModPlan` derives ``r``, the degree and that decision from
   ``K``, ``Delta``, ``q0`` and the target ``pi / q0``.
4. **SlotToCoeff** — ``S_1 ... S_L`` in order, merged the same way and
   without ``BR``, return slots to the message domain; the residual
   ``q0/Delta`` factor and the sine's ``1/(2*pi*K)`` are folded into
   the last stage.

Levels EvalMod leaves spare become extra CtS / StC stages, CtS first
(it runs on the widest chain); a budget without a level for each
transform is refused.  Fully packed (``slots = N/2``) only; the real and
imaginary EvalMod pipelines are the [Cheon+ 18] flow.
The pipeline is a program over the evaluator's vocabulary (it reads
only the context's parameters), so ``SymbolicEvaluator`` runs it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.linear import Diagonals, LinearTransform
from repro.ckks.ops import Evaluator
from repro.ckks.poly_eval import ChebyshevEvaluator, PolyPlan

if TYPE_CHECKING:
    from repro.ckks.context import CkksContext

__all__ = ["Bootstrapper", "BootstrapReport", "EvalModPlan", "butterfly_stages"]


def _compose(a: Diagonals, b: Diagonals, n: int) -> Diagonals:
    """Diagonals of ``A @ B``: ``diag_{x+y} += a_x * roll(b_y, -x)``."""
    out: Diagonals = {}
    for x, va in a.items():
        for y, vb in b.items():
            out[(x + y) % n] = out.get((x + y) % n, 0) + va * np.roll(vb, -x)
    return out


def butterfly_stages(n: int, stages: int, inverse: bool = False) -> list[Diagonals]:
    """The special FFT's ``log2 n`` butterflies merged into ``stages``
    contiguous groups, as diagonals in the order they are applied.

    Butterfly ``k`` (half-width ``h = 2^(k-1)``) maps ``(u, v)`` at block
    positions ``(p, p + h)`` to ``u +- w_p v``, ``w_p = zeta^(5^p (n/2h))``
    with ``zeta = exp(i pi / 2n)``; ``S_L ... S_1`` is ``U BR``.  With
    ``inverse`` the groups hold ``S_k^-1 = S_k^H / 2`` for ``U^-1``, last
    butterfly first.
    """
    log_n = n.bit_length() - 1
    rot = np.array([pow(5, p, 4 * n) for p in range(n // 2)])
    bounds = [round(i * log_n / stages) for i in range(stages + 1)]
    groups = []
    for lo, hi in zip(bounds, bounds[1:]):
        group: Diagonals = {0: np.ones(n, dtype=np.complex128)}
        for h in (1 << k for k in range(lo, hi)):
            p = np.arange(n) % (2 * h)
            top = p < h
            w = np.exp(1j * np.pi * (rot[p % h] % (8 * h)) / (4 * h))
            terms = (np.where(top, 1, -w), np.where(top, w, 0), np.where(top, 0, 1))
            stage: Diagonals = {}
            for d, v in zip((0, h, n - h), terms):  # h = n - h at the last butterfly
                stage[d] = stage.get(d, 0) + v
            if inverse:  # diag_{-d}(S^H) = conj(roll(diag_d(S), d))
                stage = {(n - d) % n: np.conj(np.roll(v, d)) / 2 for d, v in stage.items()}
            group = _compose(group, stage, n) if inverse else _compose(stage, group, n)
        groups.append(group)
    return groups[::-1] if inverse else groups


def _bessel_j(w: float, count: int) -> np.ndarray:
    """``J_0(w) .. J_(count-1)(w)``: Miller's downward recurrence
    ``J_(k-1) = (2k/w) J_k - J_(k+1)``, started well above ``count`` and
    ``w``, normalized by ``J_0 + 2 (J_2 + J_4 + ...) = 1``."""
    top = 2 * ((count + int(w)) // 2 + 16)
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / w * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j /= 1e250
    return j[:count] / (j[0] + 2.0 * j[2::2].sum())


def _shifted_cosine(k_range: int, doublings: int, target: float) -> np.ndarray:
    """Chebyshev coefficients on [-1, 1] of ``cos(w*x + phi)``, ``w =
    2*pi*K / 2^r`` and ``phi = -pi / 2^(r+1)`` (``r = doublings``), cut at
    the lowest degree whose dropped tail is at most ``target / 4^r``.

    Jacobi-Anger gives them in closed form: ``c_0 = J_0(w) cos(phi)``,
    ``c_k = 2 J_k(w) cos(phi + k*pi/2)``; terms below ``2^-60`` are
    zero.  With ``r = 0`` the cosine is the sine, which is odd.
    """
    w, phi = 2.0 * math.pi * k_range / 2**doublings, -math.pi / 2 ** (doublings + 1)
    count = int(w) + 2  # past w, |c_k| <= 2 (w/2)^k / k! falls off fast
    while count * math.log(w / 2) - math.lgamma(count + 1) > -60 * math.log(2):
        count += 1
    k = np.arange(count)
    coeffs = np.where(k, 2.0, 1.0) * _bessel_j(w, count) * np.cos(phi + k * math.pi / 2)
    if doublings == 0:
        coeffs[0::2] = 0.0
    tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]  # tail[k] = sum of |c_j|, j >= k
    degree = int(np.argmax(np.append(tail[1:], 0.0) <= target / 4.0**doublings))
    return coeffs[: degree + 1]


def _cheapest_plan(coeffs: np.ndarray) -> PolyPlan:
    """``coeffs``' plan at whichever power of two next to ``sqrt(degree)``
    (Paterson-Stockmeyer's baby step) makes the fewest products, then
    spends the fewest levels."""
    low = max(1, int(math.sqrt(len(coeffs) - 1)).bit_length() - 1)
    plans = (PolyPlan(coeffs, baby_steps=1 << b) for b in (low, low + 1))
    return min(plans, key=lambda p: (p.products, p.depth))


@dataclass(frozen=True)
class EvalModPlan:
    """The modular reduction ``s ~ sin(2*pi*K*x)`` on [-1, 1]: the plan
    of ``cos((2*pi*K*x - pi/2) / 2^doublings)``, ``doublings``
    double-angle steps ``c <- 2c^2 - 1``, and, with ``arcsine``, the
    correction ``s + s^3/6``.  ``target`` bounds the error of ``s``."""

    target: float
    doublings: int
    cosine: PolyPlan
    arcsine: bool

    @property
    def depth(self) -> int:
        return self.cosine.depth + self.doublings + 2 * self.arcsine

    @property
    def products(self) -> int:
        return self.cosine.products + self.doublings + 2 * self.arcsine

    @classmethod
    def derive(
        cls, k_range: int, scale: float, q0: float, ring_degree: int, boot_scale: float
    ) -> EvalModPlan:
        """The plan for base modulus ``q0``, working scale ``scale``,
        EvalMod scale ``boot_scale`` and a ring of ``ring_degree``.

        StC carries ``s`` back to the coefficient by ``q0 / (2*pi)``, so
        ``target = pi / q0`` keeps EvalMod's error under half a unit of
        the integer coefficient ModRaise left.  The arcsine is kept only
        if the cubic error it cancels, ``(2*pi*eps)^3 / 6`` at the rms
        coefficient ``eps = scale / (q0 * sqrt(ring_degree))`` of unit
        slots, exceeds the target.  A double angle at most quadruples the
        error already in the cosine, one unit of the boot scale's
        rounding included, so ``4^doublings <= target * boot_scale``; of
        those counts, the one whose cosine makes the fewest products
        (then spends the fewest levels) is taken.
        """
        target = math.pi / q0
        eps = scale / (q0 * math.sqrt(ring_degree))
        arcsine = (2.0 * math.pi * eps) ** 3 / 6.0 > target
        most = max(0, int(math.log(target * boot_scale, 4)))
        cosines = [_cheapest_plan(_shifted_cosine(k_range, r, target)) for r in range(most + 1)]
        r = min(range(most + 1), key=lambda r: (cosines[r].products + r, cosines[r].depth + r))
        return cls(target, r, cosines[r], arcsine)


@dataclass
class BootstrapReport:
    """Level/scale accounting of one bootstrapping invocation."""

    input_level: int
    output_level: int
    levels_consumed: int
    cos_degree: int
    k_range: int


class Bootstrapper:
    """Bootstraps fully packed ciphertexts of one context."""

    def __init__(self, context: CkksContext, evaluator: Evaluator):
        params = context.params
        if params.slots != params.degree // 2:
            raise ValueError("bootstrapping requires full packing (slots = N/2)")
        if not params.boot_levels or params.boot_scale_bits is None:
            raise ValueError("parameters carry no bootstrapping levels")
        self.ev = evaluator
        self.params = params
        # |I| <~ sqrt(h) with overwhelming probability; one extra unit
        # absorbs the message itself.
        self.k_range = max(4, int(1.6 * math.sqrt(params.hamming_weight)) + 1)
        self.q0 = math.prod(params.base_primes)
        self.eval_mod = EvalModPlan.derive(
            self.k_range, params.scale, self.q0, params.degree, 2.0**params.boot_scale_bits
        )
        self._cheb = ChebyshevEvaluator(evaluator)
        self._build_transforms()

    # -- precomputation -----------------------------------------------------------

    def _build_transforms(self) -> None:
        """CtS / StC as merged butterfly stages, one per level the budget
        allows: two, plus EvalMod's spare levels handed out CtS first."""
        n, delta = self.params.slots, self.params.scale
        log_n = n.bit_length() - 1
        need = self.eval_mod.depth + 2
        if self.params.boot_levels < need:
            raise ValueError(
                f"bootstrapping needs {need} levels (EvalMod {need - 2} and a stage per "
                f"transform), the chain has {self.params.boot_levels} boot levels"
            )
        spare = self.params.boot_levels - need
        cts = butterfly_stages(n, min(log_n, 1 + (spare + 1) // 2), inverse=True)
        stc = butterfly_stages(n, min(log_n, 1 + spare // 2))
        # Fold normalizations: CtS divides by 2*q0*K/Delta (EvalMod
        # domain); StC multiplies back by q0*K/Delta and by the
        # 1/(2*pi*K) that takes sin(2*pi*K*x) to x.
        nu = delta / (2.0 * self.q0 * self.k_range)
        cts[0] = {d: v * nu for d, v in cts[0].items()}
        back = self.q0 * self.k_range / delta / (2.0 * math.pi * self.k_range)
        stc[-1] = {d: v * back for d, v in stc[-1].items()}
        self.cts = [LinearTransform(stage) for stage in cts]
        self.stc = [LinearTransform(stage) for stage in stc]
        # Each stage's largest entry, which sets where an inner stage lands.
        self._cts_peaks, self._stc_peaks = (
            [max(np.max(np.abs(v)) for v in lt.diagonals.values()) for lt in stages]
            for stages in (self.cts, self.stc)
        )

    # -- building blocks -----------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret base-level residues over the full chain."""
        return self.ev.mod_raise(ct)

    def _eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """``sin(2*pi*K*x)`` on values in [-1, 1], the plan's cosine
        doubled ``doublings`` times, arcsine-corrected if it pays."""
        ev, plan = self.ev, self.eval_mod
        s = self._cheb.evaluate(ct, plan.cosine)
        for _ in range(plan.doublings):  # cos(2t) = 2cos(t)^2 - 1
            sq = ev.square(s)
            s = ev.add_scalar(ev.add(sq, sq), -1.0)
        if not plan.arcsine:
            return s
        # 2*pi*eps ~ s + s^3/6 cancels the sine's cubic error; as
        # s^2 * (s/6) it is two levels deep, not three.
        corr = ev.multiply(ev.square(s), ev.multiply_scalar(s, 1.0 / 6.0, rescale=True))
        return ev.add(ev.adjust(s, corr.level, corr.scale), corr)

    def _transform(
        self, stages: list[LinearTransform], peaks: list[float], ct: Ciphertext, scale: float
    ) -> Ciphertext:
        """Apply ``stages``, one level each, landing at ``scale``.  Earlier
        stages land at their input scale over their largest entry (its
        ``peaks``), which so encodes at the step scale: CtS's first stage
        (entries ``nu / 2^r``) lifts off ``Delta``, a unit-entry StC stage
        stays."""
        for i, (lt, peak) in enumerate(zip(stages, peaks), 1):
            ct = lt.apply(self.ev, ct, output_scale=scale if i == len(stages) else ct.scale / peak)
        return ct

    # -- the full pipeline ------------------------------------------------------------

    def bootstrap(self, ct: Ciphertext) -> tuple[Ciphertext, BootstrapReport]:
        """Refresh a level-0 ciphertext to a high level.

        The input must be at the context's base scale; the output keeps
        the same scale with the message error limited by the EvalMod
        approximation quality.
        """
        params, ev = self.params, self.ev
        input_level = ct.level
        # Burn remaining levels while pinning the scale exactly to the
        # canonical working point the CtS matrices assume (a level-0
        # input off it has no level to spend and is refused).
        raised = self.mod_raise(ev.adjust(ct, 0, params.scale))

        # CoeffToSlot (a level per stage): slots become (w_j + i*w_{j+n})
        # * nu in bit-reversed order, lifted to the EvalMod working scale.
        c = self._transform(self.cts, self._cts_peaks, raised, 2.0 ** float(params.boot_scale_bits))

        c_conj = ev.conjugate(c)
        ct_r = ev.add(c, c_conj)
        ct_i = ev.multiply_by_i(ev.sub(c, c_conj), -1)

        # EvalMod on both coefficient halves, recombined and returned to
        # coefficient order (a level per stage).
        m_r, m_i = ev.match(self._eval_mod(ct_r), self._eval_mod(ct_i))
        combined = ev.add(m_r, ev.multiply_by_i(m_i, 1))
        # The pipeline's normalizations cancel exactly: (2*q0*K/Delta)
        # in, (q0*K/Delta) / (2*pi*K) out — net slot values are the
        # original message at scale Delta.
        out = self._transform(self.stc, self._stc_peaks, combined, params.scale)
        # Any unused bootstrap budget is dropped: the application only
        # ever sees normal levels (the paper's L_eff).
        out = ev.drop_to_level(out, min(out.level, params.usable_level))
        return out, BootstrapReport(
            input_level=input_level,
            output_level=out.level,
            levels_consumed=params.max_level - out.level,
            cos_degree=len(self.eval_mod.cosine.coeffs) - 1,
            k_range=self.k_range,
        )
