"""The CKKS evaluator: every primitive HE op of Table 1.

HAdd / HSub / PMult / PAdd / CMult / CAdd / HMult / HRot / conjugation
/ rescaling / level management.  Ciphertexts stay in the evaluation
representation; rescaling and key-switching move limbs through the
INTT -> (BConv | CRT) -> NTT pattern that dominates accelerator traffic.

Rescaling supports both single-prime (SS) and double-prime (DS) steps;
the DS path reconstructs each coefficient from the two dropped limbs
with Garner's CRT — the double-word accumulation SHARP assigns to its
DSU (paper S4.5, Eq. 4).

This is the one module that builds ciphertexts: the bootstrap, the
linear transforms and the Chebyshev evaluator are programs over its
vocabulary, which ``repro.check.ckks_check.SymbolicEvaluator`` also
speaks, so they run without keys too.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.context import CkksContext, EvalKey
from repro.ckks.keyswitch import KeySwitcher
from repro.rns import kernels
from repro.rns.modmath import mod_inverse
from repro.rns.poly import RnsPolynomial, garner_pair

__all__ = ["Evaluator"]

_SCALE_MATCH_TOLERANCE = 1e-9


def _plus(total: RnsPolynomial | None, term: RnsPolynomial) -> RnsPolynomial:
    return term if total is None else total + term


class Evaluator:
    """Homomorphic operations over a :class:`CkksContext`."""

    def __init__(self, context: CkksContext):
        self.context = context
        self.params = context.params
        self.ring = context.ring
        self.switcher = KeySwitcher(context)
        # (remaining, dropped) -> cached rescale constants (doubled-chain
        # kernel, drop^-1 Shoup columns).
        self._rescale_consts: dict[tuple, tuple] = {}
        self._monomials: dict[tuple, RnsPolynomial] = {}  # (chain, sign) -> +-X^(N/2)

    # -- level and scale alignment ----------------------------------------------

    def drop_to_level(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Modulus-switch down to ``level`` without rescaling."""
        if level > ct.level:
            raise ValueError("cannot raise a ciphertext's level")
        if level == ct.level:
            return ct
        drop = len(ct.moduli) - len(self.params.active_moduli(level))
        return Ciphertext(
            ct.c0.drop_limbs(drop), ct.c1.drop_limbs(drop), level, ct.scale
        )

    def align(self, a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        level = min(a.level, b.level)
        return self.drop_to_level(a, level), self.drop_to_level(b, level)

    def _check_scales(self, a: float, b: float) -> float:
        if abs(a - b) > _SCALE_MATCH_TOLERANCE * max(a, b):
            raise ValueError(f"scale mismatch: {a:g} vs {b:g}")
        return max(a, b)

    # -- additive ops -------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self.align(a, b)
        scale = self._check_scales(a.scale, b.scale)
        return Ciphertext(a.c0 + b.c0, a.c1 + b.c1, a.level, scale)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self.align(a, b)
        scale = self._check_scales(a.scale, b.scale)
        return Ciphertext(a.c0 - b.c0, a.c1 - b.c1, a.level, scale)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext(-ct.c0, -ct.c1, ct.level, ct.scale)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        if pt.moduli != ct.moduli:
            raise ValueError("plaintext basis must match the ciphertext")
        scale = self._check_scales(ct.scale, pt.scale)
        return Ciphertext(ct.c0 + pt.poly, ct.c1, ct.level, scale)

    def add_scalar(self, ct: Ciphertext, value: complex) -> Ciphertext:
        return self.add_plain(ct, self.encode_scalar(value, ct.level, ct.scale))

    def encode_scalar(self, value: complex, level: int, scale: float) -> Plaintext:
        """Encode ``value`` in every slot.

        A real constant is the constant polynomial ``round(value*scale)``,
        whose evaluation form is that residue in every lane: no FFT, no
        NTT, and the limb matrix is a read-only broadcast of one column.
        A complex constant ``a + bi`` is ``round(a*scale) +
        round(b*scale) X^(N/2)`` (``X^(N/2)`` is ``i`` in every slot),
        exact at any magnitude, with one NTT.
        """
        value = complex(value)
        moduli = self.params.active_moduli(level)
        if value.imag:
            coeffs = [0] * self.ring.degree
            coeffs[0] = round(value.real * scale)
            coeffs[self.ring.degree // 2] = round(value.imag * scale)
            poly = RnsPolynomial.from_int_coeffs(self.ring, moduli, coeffs)
            return Plaintext(poly.to_ntt(), scale)
        const = round(value.real * scale)
        column = np.array([const % q for q in moduli], dtype=np.uint64).reshape(-1, 1)
        limbs = np.broadcast_to(column, (len(moduli), self.ring.degree))
        return Plaintext(RnsPolynomial(self.ring, moduli, limbs, ntt_form=True), scale)

    def encode(self, values, ct: Ciphertext, scale: float) -> Plaintext:
        """``values`` (a constant, or one per slot) as the operand whose product
        with ``ct``, rescaled, lands at ``scale``: encoded at ``scale * step / ct.scale``."""
        pt_scale = scale * self.params.step_at(ct.level).scale / ct.scale
        if np.ndim(values) == 0:
            return self.encode_scalar(values, ct.level, pt_scale)
        return self.context.encode(values, level=ct.level, scale=pt_scale)

    # -- multiplicative ops ---------------------------------------------------------

    def multiply_plain(
        self, ct: Ciphertext, pt: Plaintext, rescale: bool = True
    ) -> Ciphertext:
        """PMult: ciphertext x plaintext, with optional rescaling."""
        if pt.moduli != ct.moduli:
            raise ValueError("plaintext basis must match the ciphertext")
        out = Ciphertext(
            ct.c0 * pt.poly, ct.c1 * pt.poly, ct.level, ct.scale * pt.scale
        )
        return self.rescale(out) if rescale else out

    def multiply_plain_sum(
        self, cts: Sequence[Ciphertext], pts: Sequence[Plaintext]
    ) -> Ciphertext:
        """``sum_j cts[j] * pts[j]``, unrescaled, as one lazy inner product:
        bit for bit the ``multiply_plain(rescale=False)`` + ``add`` chain."""
        moduli = cts[0].moduli
        if any(x.moduli != moduli for x in (*cts, *pts)):
            raise ValueError("operands must share one modulus chain")
        scale = functools.reduce(
            self._check_scales, (ct.scale * pt.scale for ct, pt in zip(cts, pts))
        )
        # A scalar constant (``encode_scalar``) multiplies as its column.
        ps = [p[:, :1] if p.strides[1] == 0 else p for p in (pt.poly.limbs for pt in pts)]
        c0, c1 = (
            self._inner(moduli, [poly.limbs for poly in half], ps)
            for half in ([ct.c0 for ct in cts], [ct.c1 for ct in cts])
        )
        return Ciphertext(c0, c1, cts[0].level, scale)

    def _inner(self, moduli: tuple[int, ...], xs: list, ps: list) -> RnsPolynomial:
        limbs = self.ring.backend.plain_inner(self.ring.chain_kernel(moduli), xs, ps)
        return RnsPolynomial(self.ring, moduli, limbs, ntt_form=True)

    def multiply_scalar(
        self, ct: Ciphertext, value: complex, rescale: bool = True
    ) -> Ciphertext:
        """CMult via an encoded constant at the step scale."""
        step_scale = self.params.step_at(ct.level).scale
        pt = self.encode_scalar(value, ct.level, step_scale)
        return self.multiply_plain(ct, pt, rescale=rescale)

    def multiply(
        self, a: Ciphertext, b: Ciphertext, rescale: bool = True
    ) -> Ciphertext:
        """HMult: tensor, relinearize with evk_mult, optionally rescale."""
        a, b = self.align(a, b)
        d0 = a.c0 * b.c0
        d1 = self._tensor_cross(a, b)
        d2 = a.c1 * b.c1
        u0, u1 = self.switcher.switch(d2, self.context.keys.relinearization_key())
        out = Ciphertext(d0 + u0, d1 + u1, a.level, a.scale * b.scale)
        return self.rescale(out) if rescale else out

    def square(self, ct: Ciphertext, rescale: bool = True) -> Ciphertext:
        return self.multiply(ct, ct, rescale=rescale)

    def _tensor_cross(self, a: Ciphertext, b: Ciphertext) -> RnsPolynomial:
        """``a0*b1 + a1*b0``: a two-term inner product, reduced once."""
        return self._inner(a.moduli, [a.c0.limbs, a.c1.limbs], [b.c1.limbs, b.c0.limbs])

    def adjust(self, ct: Ciphertext, level: int, scale: float) -> Ciphertext:
        """Bring a ciphertext to an exact (level, scale) operating point.

        Needed because RNS primes only approximate the scale: two
        computation branches drift apart by the primes' deviation and
        could no longer be added.  When the scale already matches, this
        is a plain modulus drop; otherwise one level is spent on a 1
        encoded to land *exactly* on ``scale``.
        """
        if level > ct.level:
            raise ValueError("cannot raise a ciphertext's level")
        if abs(ct.scale - scale) <= 1e-12 * scale:
            return self.drop_to_level(ct, level)
        if level + 1 > ct.level:
            raise ValueError("scale correction needs one spare level")
        ct = self.drop_to_level(ct, level + 1)
        product = self.multiply_plain(ct, self.encode(1.0, ct, scale), rescale=False)
        return self.rescale_to(product, scale)

    def match(self, a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to a common exact (level, scale) point.

        Free when the scales already agree; otherwise the shallower
        operand is scale-corrected on the way down, and when both sit at
        the same level one extra level is consumed.
        """
        target = min(a.level, b.level)
        if abs(a.scale - b.scale) <= 1e-12 * max(a.scale, b.scale):
            return self.drop_to_level(a, target), self.drop_to_level(b, target)
        if a.level > target:
            return self.adjust(a, target, b.scale), self.drop_to_level(b, target)
        if b.level > target:
            return self.drop_to_level(a, target), self.adjust(b, target, a.scale)
        if target < 1:
            raise ValueError("cannot reconcile scales at level 0")
        return self.adjust(a, target - 1, a.scale), self.adjust(b, target - 1, a.scale)

    def consume_level(self, ct: Ciphertext) -> Ciphertext:
        """Burn one level without changing the value or the scale (a 1 at
        the step scale): drives ciphertexts to level 0 in tests and schedules."""
        return self.rescale_to(self.multiply_scalar(ct, 1.0, rescale=False), ct.scale)

    # -- rescaling ----------------------------------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the current step's prime (SS) or prime pair (DS)."""
        if ct.level == 0:
            raise ValueError("no rescaling levels left (bootstrap needed)")
        step = self.params.step_at(ct.level)
        c0, c1 = self._rescale_pair(ct.c0, ct.c1, step.primes)
        return Ciphertext(c0, c1, ct.level - 1, ct.scale / step.scale)

    def rescale_to(self, ct: Ciphertext, scale: float) -> Ciphertext:
        """Rescale, then pin the scale to the ``scale`` an :meth:`encode` operand
        lands on: the pin drops float bookkeeping drift, and refuses more."""
        out = self.rescale(ct)
        self._check_scales(out.scale, scale)
        return Ciphertext(out.c0, out.c1, out.level, scale)

    def _rescale_pair(
        self,
        p0: RnsPolynomial,
        p1: RnsPolynomial,
        dropped: tuple[int, ...],
    ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """``(p - [p]_drop) / drop`` over the remaining limbs, for ``(c0, c1)``.

        Both tails share one INTT (rows stacked), both centered
        corrections share one NTT, and the final ``drop^{-1}`` multiply
        runs on cached Shoup columns.
        """
        count = len(dropped)
        remaining = p0.moduli[:-count]
        if tuple(p0.moduli[-count:]) != tuple(dropped):
            raise ValueError("chain tail does not match the rescale step")
        ring = self.ring
        n = ring.degree
        level = len(remaining)
        tail_pair = np.concatenate([p0.limbs[level:], p1.limbs[level:]])
        tail = ring.backend.ntt_inverse_all(ring.plan(dropped + dropped), tail_pair)
        consts = self._rescale_const(remaining, dropped)
        kern2, inv_col, inv_shoup, inv_shoup_f = consts[:4]
        kern_r, shift_col, half = consts[4:]
        if count == 1:
            values = np.concatenate([tail[0], tail[1]])  # (2N,)
        else:
            # The DSU's double-word accumulation (paper Eq. 4): Garner over
            # the DS pair, values up to q_a * q_b < 2**62.
            pair = np.stack(
                [
                    np.concatenate([tail[0], tail[count]]),
                    np.concatenate([tail[1], tail[count + 1]]),
                ]
            )
            values = garner_pair(pair, dropped)
        if kern_r.float_ok:
            # Fast centered residues: one float-Barrett reduction across
            # the whole remaining chain, then the precomputed ``-drop``
            # shift where the value exceeds ``drop/2``.
            over = values > half
            r = kern_r.reduce64_f(values)
            shifted = r + shift_col
            adj = np.minimum(shifted, shifted - kern_r.q)
            centered = np.where(over, adj, r)
        else:
            centered = self._centered_residues(values, math.prod(dropped), remaining)
        corr_pair = np.concatenate([centered[:, :n], centered[:, n:]])
        corr_ntt = ring.backend.ntt_forward_all(
            ring.plan(remaining + remaining), corr_pair
        )
        head_pair = np.concatenate([p0.limbs[:level], p1.limbs[:level]])
        diff = kern2.sub(head_pair, corr_ntt)
        if kern2.float_ok:
            out = kern2.shoup_mul_f(diff, inv_col, inv_shoup_f, out=diff)
        else:
            out = kernels.shoup_mul(diff, inv_col, inv_shoup, kern2.q)
        return (
            RnsPolynomial(ring, remaining, out[:level], ntt_form=True),
            RnsPolynomial(ring, remaining, out[level:], ntt_form=True),
        )

    def _rescale_const(
        self, remaining: tuple[int, ...], dropped: tuple[int, ...]
    ) -> tuple:
        key = (remaining, dropped)
        entry = self._rescale_consts.get(key)
        if entry is None:
            kern2 = self.ring.chain_kernel(remaining + remaining)
            drop_product = math.prod(dropped)
            inv = [mod_inverse(drop_product % q, q) for q in remaining]
            inv_col = np.array(inv + inv, dtype=np.uint64).reshape(-1, 1)
            inv_shoup = kern2.shoup(inv + inv)
            inv_shoup_f = inv_shoup.astype(np.float64) * 2.0**-64
            kern_r = self.ring.chain_kernel(remaining)
            shift_col = np.array(
                [(q - drop_product % q) % q for q in remaining],
                dtype=np.uint64,
            ).reshape(-1, 1)
            entry = (
                kern2,
                inv_col,
                inv_shoup,
                inv_shoup_f,
                kern_r,
                shift_col,
                drop_product // 2,
            )
            self._rescale_consts[key] = entry
        return entry

    @staticmethod
    def _centered_residues(values: np.ndarray, modulus: int, targets) -> np.ndarray:
        """Reduce centered representatives of ``values mod modulus`` into each target."""
        half = modulus // 2
        over = values > half
        rows = []
        for q in targets:
            r = values % np.uint64(q)
            adj = (r + np.uint64(q) - np.uint64(modulus % q)) % np.uint64(q)
            rows.append(np.where(over, adj, r))
        return np.stack(rows)

    # -- rotations -------------------------------------------------------------------

    def rotate(self, ct: Ciphertext, amount: int) -> Ciphertext:
        """HRot: cyclic left rotation of the message slots by ``amount``."""
        slot_period = self.params.slots
        amount %= slot_period
        if amount == 0:
            return ct
        # Sparse packing: rotating the N/2-slot space by `amount` rotates
        # each replicated copy of the message identically.
        galois = self.ring.galois_element(amount)
        return self._apply_automorphism(ct, galois)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        return self._apply_automorphism(ct, self.ring.conjugation_element)

    def _apply_automorphism(self, ct: Ciphertext, galois: int) -> Ciphertext:
        u0, u1 = self.switcher.apply(
            self._permuted_digits(ct, galois), self.context.keys.galois_key(galois)
        )
        return Ciphertext(ct.c0.automorphism(galois) + u0, u1, ct.level, ct.scale)

    def _permuted_digits(self, ct: Ciphertext, galois: int) -> np.ndarray:
        """``ct.c1``'s digits after ``X -> X**galois``: the automorphism is a
        lane permutation in evaluation form and commutes with ModUp, so
        every rotation of ``ct`` permutes one memoised decomposition."""
        perm = self.ring.automorphism_eval_permutation(galois)
        return np.take(self.switcher.decompose(ct.c1), perm, axis=2)

    def rotate_sum(self, cts: Iterable[Ciphertext], amounts: Iterable[int]) -> Ciphertext:
        """``sum_i rotate(cts[i], amounts[i])`` paying one ModDown.

        Each term is switched as in :meth:`rotate` (a single term is
        that, bit for bit), but the extended-basis inner products add up
        before the one division by ``P``: a single switch's rounding
        noise.  ``cts`` is consumed one term at a time.
        """
        c0 = c1 = acc = scale = None
        for ct, amount in zip(cts, amounts):
            scale = ct.scale if scale is None else self._check_scales(scale, ct.scale)
            galois = self.ring.galois_element(amount % self.params.slots)
            if galois == 1:  # no rotation, nothing to switch
                c0, c1 = _plus(c0, ct.c0), _plus(c1, ct.c1)
                continue
            c0 = _plus(c0, ct.c0.automorphism(galois))
            ext = self._permuted_digits(ct, galois)
            acc = self.switcher.inner(ext, self.context.keys.galois_key(galois), acc)
        if acc is not None:
            u0, u1 = self.switcher.mod_down(*acc)
            c0, c1 = c0 + u0, _plus(c1, u1)
        return Ciphertext(c0, c1, ct.level, scale)

    # -- bootstrapping steps ----------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """ModRaise: a level-0 ciphertext's residues, centered mod ``q0``, over the full chain."""
        if ct.level != 0:
            raise ValueError("mod_raise expects a level-0 ciphertext")
        top = self.params.max_level
        moduli = self.params.active_moduli(top)
        c0, c1 = (
            RnsPolynomial.from_int_coeffs(self.ring, moduli, p.to_int_coeffs()).to_ntt()
            for p in (ct.c0, ct.c1)
        )
        return Ciphertext(c0, c1, top, ct.scale)

    def multiply_by_i(self, ct: Ciphertext, sign: int) -> Ciphertext:
        """Exact multiplication by ``sign * i``, the monomial ``sign *
        X^(N/2)``: one NTT per chain and sign, cached."""
        mono = self._monomials.get((ct.moduli, sign))
        if mono is None:
            coeffs = np.zeros(self.ring.degree, dtype=np.int64)
            coeffs[self.ring.degree // 2] = sign
            mono = RnsPolynomial.from_int_coeffs(self.ring, ct.moduli, coeffs).to_ntt()
            self._monomials[(ct.moduli, sign)] = mono
        return Ciphertext(ct.c0 * mono, ct.c1 * mono, ct.level, ct.scale)

    # -- re-encryption ----------------------------------------------------------------

    def apply_switch_key(
        self,
        ct: Ciphertext,
        evk: EvalKey,
    ) -> Ciphertext:
        """Re-encrypt under the secret ``evk`` switches to.

        ``evk`` is a hybrid key from ``KeySet.make_switch_key``
        (or ``_make_evk``): switching ``c1`` yields ``(u0, u1)`` with
        ``u0 + u1*s_dst ~ c1*s_src``, so ``(c0 + u0, u1)`` decrypts to
        the same message under the destination secret.  This is the
        tenant-key <-> batch-key move of the ``repro.serve`` ingress and
        egress paths.
        """
        u0, u1 = self.switcher.switch(ct.c1, evk)
        return Ciphertext(ct.c0 + u0, u1, ct.level, ct.scale)
