"""The CKKS engine pins the price list.

``repro.hw.lowering.OpLowering`` is the one table the simulator and
``repro.core.opcount`` price HE ops from.  These tests run the same ops
on the real engine, count what crosses the kernel-backend seam the way
``benchmarks/e2e/hooks.py`` does — limb rows through
``ntt_forward_all`` / ``ntt_inverse_all``, ``src * dst * width`` MACs
per ``bconv`` plus the ``src * width`` ``_scaled_src`` pre-multiply the
list's ``(src * dst + src) * N`` term charges — and require **equality**
with ``OpLowering.lower`` built from the engine's own parameters.

Element-wise words are *not* asserted: the engine spreads them over
kernel calls (lazy split products, fused Shoup columns, the DSU's Garner
step inside ``_rescale_pair``) that the backend seam does not see.
Plaintexts are built before counting starts — the list, like the
paper, treats them as precomputed operands.

One divergence is known and asserted: the list charges a ModUp per
HROT, while the engine charges one per *source value* —
``KeySwitcher.decompose`` is memoised per limb array, so every rotation
of one ciphertext after the first skips it.  Single ops are counted on
ciphertexts never switched before; the ``ops_n14`` round subtracts the
one shared ModUp.  Which of the two the model should price is open.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks.context import CkksContext, make_params
from repro.ckks.ops import Evaluator
from repro.hw.isa import HeOp, OpKind
from repro.hw.lowering import FuWork, OpLowering
from repro.params.presets import build_native_ckks_params
from repro.rns.backend import NumpyBackend


class EngineWork:
    """NTT limb rows and BConv MACs the engine has issued since ``reset``."""

    def reset(self) -> None:
        self.limb_rows = 0
        self.bconv_macs = 0


@pytest.fixture
def engine_work(monkeypatch) -> EngineWork:
    work = EngineWork()
    work.reset()

    def counted_ntt(method):
        def ntt(self, plan, limbs):
            work.limb_rows += limbs.shape[0]
            return method(self, plan, limbs)

        return ntt

    bconv = NumpyBackend.bconv

    def counted_bconv(self, conv, limbs):
        out = bconv(self, conv, limbs)
        src, width = limbs.shape
        work.bconv_macs += (src * out.shape[0] + src) * width
        return out

    for name in ("ntt_forward_all", "ntt_inverse_all"):
        monkeypatch.setattr(NumpyBackend, name, counted_ntt(getattr(NumpyBackend, name)))
    monkeypatch.setattr(NumpyBackend, "bconv", counted_bconv)
    return work


class Engine:
    """A context, its evaluator, and the price list at its parameters."""

    def __init__(self, params, word_bits: int):
        self.params = params
        self.context = CkksContext(params, seed=1)
        self.ev = Evaluator(self.context)
        # The attributes OpLowering reads off a setting (alpha = ceil(L / dnum)).
        self.lowering = OpLowering(
            SimpleNamespace(
                degree=params.degree,
                k=len(params.aux_primes),
                alpha=params.alpha,
                word_bits=word_bits,
            )
        )
        self.message = np.full(params.slots, 0.5)
        x = self.context.encrypt(self.message)
        # Warm the lazily generated keys: key generation is not op work.
        # ``x`` is never counted: its digits are memoised now.
        self.ev.multiply(x, x)
        for amount in (1, 2):
            self.ev.rotate(x, amount)
        self.ev.conjugate(x)

    def at(self, level: int):
        """(never-switched ciphertext, limbs, drop, step-scale plaintext) at ``level``."""
        ct = self.context.encrypt(self.message, level=level)
        step = self.params.step_at(level)
        pt = self.ev.encode_scalar(0.5, level, step.scale)
        return ct, len(ct.moduli), len(step.primes), pt

    def priced(self, *ops: HeOp) -> tuple[float, float]:
        work = sum((self.lowering.lower(op) for op in ops), FuWork())
        return work.ntt_words / self.params.degree, work.bconv_macs


WORD_BITS = (28, 36, 50)


@pytest.fixture(scope="module")
def native_engines() -> dict[int, Engine]:
    return {
        bits: Engine(build_native_ckks_params(bits, degree=2**10, depth=5), bits)
        for bits in WORD_BITS
    }


# name -> (engine call on (ev, ct, pt), the HeOp it must cost at (limbs, drop)).
OPS = {
    "rotate": (
        lambda ev, ct, pt: ev.rotate(ct, 1),
        lambda limbs, drop: HeOp(OpKind.HROT, limbs),
    ),
    "conjugate": (
        lambda ev, ct, pt: ev.conjugate(ct),
        lambda limbs, drop: HeOp(OpKind.CONJ, limbs),
    ),
    "multiply": (
        lambda ev, ct, pt: ev.multiply(ct, ct),
        lambda limbs, drop: HeOp(OpKind.HMULT, limbs, drop),
    ),
    "multiply-no-rescale": (
        lambda ev, ct, pt: ev.multiply(ct, ct, rescale=False),
        lambda limbs, drop: HeOp(OpKind.HMULT, limbs),
    ),
    "multiply_plain": (
        lambda ev, ct, pt: ev.multiply_plain(ct, pt, rescale=True),
        lambda limbs, drop: HeOp(OpKind.PMULT, limbs, drop),
    ),
    "add": (
        lambda ev, ct, pt: ev.add(ct, ct),
        lambda limbs, drop: HeOp(OpKind.HADD, limbs),
    ),
}


# 36-bit, level 5 (L = 7, K = 4, drop 1): the literals EXPERIMENTS quotes,
# so the engine and the list cannot drift together unnoticed.
DOCUMENTED = {
    (36, 5, "rotate"): (55, 132_096),
    (36, 5, "multiply"): (69, 132_096),
    (36, 5, "multiply_plain"): (14, 0),
}


@pytest.mark.parametrize("name", OPS)
@pytest.mark.parametrize("level", (5, 3))
@pytest.mark.parametrize("word_bits", WORD_BITS)
def test_engine_work_equals_the_price_list(
    engine_work, native_engines, word_bits, level, name
):
    engine = native_engines[word_bits]
    ct, limbs, drop, pt = engine.at(level)
    run, he_op = OPS[name]
    engine_work.reset()
    run(engine.ev, ct, pt)
    counted = (engine_work.limb_rows, engine_work.bconv_macs)
    assert counted == engine.priced(he_op(limbs, drop))
    assert counted == DOCUMENTED.get((word_bits, level, name), counted)


def test_an_ops_round_costs_the_sum_of_its_ops(engine_work, native_engines):
    """The ``ops_n14`` round of the end-to-end benchmark, at N = 2^10:
    both rotations of ``r`` share one ModUp, so the round costs its five
    listed ops minus one ``_mod_up``."""
    engine = native_engines[36]
    ev = engine.ev
    x, limbs, drop, _ = engine.at(5)
    _, low_limbs, low_drop, pt = engine.at(4)
    engine_work.reset()
    r = ev.multiply(x, x)
    s = ev.add(ev.rotate(r, 1), ev.rotate(r, 2))
    ev.multiply_plain(s, pt, rescale=True)
    ntt_rows, macs = engine.priced(
        HeOp(OpKind.HMULT, limbs, drop),
        HeOp(OpKind.HROT, low_limbs, count=2),
        HeOp(OpKind.HADD, low_limbs),
        HeOp(OpKind.PMULT, low_limbs, low_drop),
    )
    shared = engine.lowering._mod_up(low_limbs)
    assert (engine_work.limb_rows, engine_work.bconv_macs) == (
        ntt_rows - shared.ntt_words / engine.params.degree,
        macs - shared.bconv_macs,
    )


def test_double_prime_steps_cost_what_the_list_says(engine_work):
    """A 35-bit scale on the 32-bit word: every step drops a prime pair.

    Finding: the list is exact here too.  A DS rescale moves the same
    limb rows as the formula's ``2 * (drop + rest)`` with ``drop = 2``,
    and the three uneven key-switch digits (4, 4, 2 of L = 10) cost the
    digit loop's MACs to the unit.  What the seam cannot see is the
    ``dsu_words`` term — the Garner accumulation runs inside
    ``Evaluator._rescale_pair``.
    """
    params = make_params(degree=2**10, slots=128, scale_bits=35, depth=4)
    engine = Engine(params, word_bits=32)
    ct, limbs, drop, pt = engine.at(4)
    assert (limbs, len(params.aux_primes), drop) == (10, 5, 2)
    for name in ("multiply", "multiply_plain", "rotate"):
        run, he_op = OPS[name]
        engine_work.reset()
        run(engine.ev, ct, pt)
        assert (engine_work.limb_rows, engine_work.bconv_macs) == engine.priced(
            he_op(limbs, drop)
        ), name
    assert engine.lowering.lower(HeOp(OpKind.PMULT, limbs, drop)).dsu_words == (
        2 * (limbs - drop) * params.degree
    )
