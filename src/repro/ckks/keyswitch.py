"""Hybrid (dnum-digit) key-switching — the heart of HMult and HRot.

Key-switching re-encrypts a polynomial known under one secret (``s**2``
after a tensor product, ``s(X**g)`` after an automorphism) to the main
secret.  The RNS-hybrid construction (paper S2.2) decomposes the input
into ``dnum`` digits, raises each to the extended basis ``Q_l * P``
(ModUp: INTT -> BConv -> NTT, the pattern SHARP's dataflow optimizes),
multiplies by the matching evk digit, and scales the accumulated result
back down by ``P`` (ModDown).

The same evaluation key works at every level because the digit
selectors ``g_j`` are built over the full chain and remain valid CRT
selectors for any prefix of it.

A switch is three steps: :meth:`KeySwitcher.decompose` (ModUp, a
function of the polynomial alone), :meth:`KeySwitcher.inner` (inner
product with one key) and :meth:`KeySwitcher.mod_down`; ``apply`` is
the last two and ``switch`` all three.  ``decompose`` is memoised per
limb array (every rotation of a ciphertext shares one ModUp); callers
that sum many switches (a BSGS stage's giant steps) ModDown once.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.ckks.context import CkksContext, EvalKey
from repro.rns import kernels
from repro.rns.bconv import CONVERTERS, BaseConverter
from repro.rns.modmath import mod_inverse
from repro.rns.poly import RnsPolynomial

__all__ = ["KeySwitcher"]


class _SwitchPlan:
    """Precomputed state for key-switching over one active chain.

    Freezes everything `switch` needs beyond the polynomial and the key:
    the per-digit base converters, the scatter indices mapping each
    digit's converted rows into the ``(D, E, N)`` extended tensor, the
    doubled chains that let ModDown run both output polynomials through
    single NTT/BConv calls, and the ``P^{-1}`` Shoup columns.  Built
    once per active chain and cached on the :class:`KeySwitcher`.
    """

    def __init__(self, switcher: "KeySwitcher", active: tuple[int, ...]) -> None:
        params = switcher.params
        ring = switcher.ring
        aux = params.aux_primes
        self.active = active
        self.target = active + aux
        self.digits: list[tuple[int, int, BaseConverter]] = []
        rest_moduli: list[int] = []
        row_digit: list[int] = []
        row_target: list[int] = []
        for d, (start, stop) in enumerate(params.digit_spans()):
            stop = min(stop, len(active))
            if start >= len(active):
                break
            rest = [
                (i, q)
                for i, q in enumerate(self.target)
                if not (start <= i < stop)
            ]
            conv = CONVERTERS.get(active[start:stop], tuple(q for _, q in rest))
            self.digits.append((start, stop, conv))
            for i, q in rest:
                row_digit.append(d)
                row_target.append(i)
                rest_moduli.append(q)
        self.rest_moduli = tuple(rest_moduli)
        self.row_digit = np.array(row_digit, dtype=np.intp)
        self.row_target = np.array(row_target, dtype=np.intp)
        self.kern = ring.chain_kernel(self.target)
        # Doubled chains: ModDown transforms/converts (u0, u1) pairs in
        # one batched call each — rows stack for the NTT, columns
        # concatenate for BConv.
        self.aux2 = aux + aux
        self.active2 = active + active
        self.kern2 = ring.chain_kernel(self.active2)
        self.conv_down = CONVERTERS.get(aux, active)
        p_inv = [mod_inverse(params.aux_product % q, q) for q in active]
        self.p_inv_col = np.array(p_inv + p_inv, dtype=np.uint64).reshape(-1, 1)
        self.p_inv_shoup = self.kern2.shoup(p_inv + p_inv)
        self.p_inv_shoup_f = self.p_inv_shoup.astype(np.float64) * 2.0**-64


class KeySwitcher:
    """Performs hybrid key-switching against a context's parameters."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self.params = context.params
        self.ring = context.ring
        self._plans: dict[tuple[int, ...], _SwitchPlan] = {}
        # id(limbs) -> (weak reference to limbs, their read-only digits);
        # the reference's callback drops the entry with the array.
        self._digits: dict[int, tuple[weakref.ref[np.ndarray], np.ndarray]] = {}

    def _plan(self, active: tuple[int, ...]) -> _SwitchPlan:
        plan = self._plans.get(active)
        if plan is None:
            plan = _SwitchPlan(self, active)
            self._plans[active] = plan
        return plan

    def switch(self, poly: RnsPolynomial, evk: EvalKey) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Full key-switch of ``poly`` (NTT form, active basis).

        Returns ``(u0, u1)`` over the active basis such that
        ``u0 + u1*s ~ poly * s_src``.
        """
        return self.apply(self.decompose(poly), evk)

    def decompose(self, poly: RnsPolynomial) -> np.ndarray:
        """ModUp: the ``(D, E, N)`` extended digits of ``poly``, NTT form.

        Digit ``d`` keeps its own rows of ``poly`` (already in NTT form)
        and gets every other row of ``C + P`` by base conversion of its
        coefficient form; all digits' converted rows go through *one*
        batched forward transform.  The result depends on ``poly`` alone:
        it is kept, read-only, while ``poly.limbs`` lives and shared.
        """
        ring = self.ring
        if not poly.ntt_form:
            poly = poly.to_ntt()
        key = id(poly.limbs)
        hit = self._digits.get(key)
        if hit is not None and hit[0]() is poly.limbs:
            return hit[1]
        plan = self._plan(poly.moduli)
        coeff = poly.from_ntt()
        n = ring.degree
        ext = np.empty((len(plan.digits), len(plan.target), n), dtype=np.uint64)
        rest_rows = np.empty((len(plan.rest_moduli), n), dtype=np.uint64)
        pos = 0
        for d, (start, stop, conv) in enumerate(plan.digits):
            ext[d, start:stop] = poly.limbs[start:stop]
            converted = ring.backend.bconv(conv, coeff.limbs[start:stop])
            rest_rows[pos : pos + converted.shape[0]] = converted
            pos += converted.shape[0]
        rest_ntt = ring.backend.ntt_forward_all(
            ring.plan(plan.rest_moduli), rest_rows
        )
        ext[plan.row_digit, plan.row_target] = rest_ntt
        ext.flags.writeable = False
        memo = self._digits  # the callback must not keep the switcher alive
        memo[key] = (weakref.ref(poly.limbs, lambda _: memo.pop(key, None)), ext)
        return ext

    def apply(self, ext: np.ndarray, evk: EvalKey) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Inner product of decomposed digits with ``evk``, then paired ModDown."""
        return self.mod_down(*self.inner(ext, evk))

    def inner(
        self, ext: np.ndarray, evk: EvalKey, acc: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sum_d ext_d * b_d, sum_d ext_d * a_d)`` over the extended basis.

        The evk operands are row slices of the key's own tensors (see
        :class:`~repro.ckks.context.EvalKey`) and the inner product runs
        as a single lazy accumulation.  ``acc`` — earlier switches'
        results — is added in, for callers that sum many switches before
        one :meth:`mod_down` (``Evaluator.rotate_sum``).
        """
        level = ext.shape[1] - len(self.params.aux_primes)
        plan = self._plan(self.params.q_primes[:level])
        b_f, a_f = evk.shoup_tables() if plan.kern.float_ok else (None, None)
        backend = self.ring.backend
        out = backend.keyswitch_inner(plan.kern, ext, evk.b, evk.a, b_f, a_f, level)
        if acc is None:
            return out
        return backend.add(plan.kern, acc[0], out[0]), backend.add(plan.kern, acc[1], out[1])

    def mod_down(self, acc0: np.ndarray, acc1: np.ndarray) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Divide both extended-basis accumulators by ``P`` in one sweep
        of doubled-chain transforms."""
        ring = self.ring
        n = ring.degree
        aux_count = len(self.params.aux_primes)
        level = acc0.shape[0] - aux_count
        plan = self._plan(self.params.q_primes[:level])
        p_pair = np.concatenate([acc0[level:], acc1[level:]])
        p_coeff = ring.backend.ntt_inverse_all(ring.plan(plan.aux2), p_pair)
        cat = np.concatenate(
            [p_coeff[:aux_count], p_coeff[aux_count:]], axis=1
        )
        corr = ring.backend.bconv(plan.conv_down, cat)  # (level, 2N)
        corr_pair = np.concatenate([corr[:, :n], corr[:, n:]])
        corr_ntt = ring.backend.ntt_forward_all(
            ring.plan(plan.active2), corr_pair
        )
        q_pair = np.concatenate([acc0[:level], acc1[:level]])
        diff = plan.kern2.sub(q_pair, corr_ntt)
        if plan.kern2.float_ok:
            out = plan.kern2.shoup_mul_f(
                diff, plan.p_inv_col, plan.p_inv_shoup_f, out=diff
            )
        else:
            out = kernels.shoup_mul(
                diff, plan.p_inv_col, plan.p_inv_shoup, plan.kern2.q
            )
        u0 = RnsPolynomial(ring, plan.active, out[:level], ntt_form=True)
        u1 = RnsPolynomial(ring, plan.active, out[level:], ntt_form=True)
        return u0, u1
