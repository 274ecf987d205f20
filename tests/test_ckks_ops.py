"""Integration tests for CKKS encryption and the primitive HE ops.

Covers every op of the paper's Table 1: HAdd, PMult, PAdd, CMult, CAdd,
HMult, HRot, plus rescaling (single- and double-prime) and level/scale
management.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.ckks.cipher import Ciphertext
from repro.ckks.context import make_params
from repro.params.presets import NATIVE_WORD_LENGTHS

TOL = 1e-4


def msg(rng, n=256, complex_=True):
    if complex_:
        return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return rng.uniform(-1, 1, n)


class TestEncryptDecrypt:
    def test_fresh_precision(self, small_context, rng):
        m = msg(rng)
        ct = small_context.encrypt(m)
        err = np.max(np.abs(small_context.decrypt(ct) - m))
        assert err < 1e-5

    def test_fresh_precision_scales_with_delta(self, rng):
        """Table 2's first row: ~2 bits of precision per 2 scale bits."""
        from repro.ckks.context import CkksContext

        precisions = []
        for bits in (22, 26):
            params = make_params(degree=1 << 10, slots=128, scale_bits=bits, depth=2)
            ctx = CkksContext(params, seed=5)
            m = msg(np.random.default_rng(5), 128)
            err = np.max(np.abs(ctx.decrypt(ctx.encrypt(m)) - m))
            precisions.append(-math.log2(err))
        gained = precisions[1] - precisions[0]
        assert 2.0 < gained < 6.0

    def test_ciphertext_halves_consistency(self, small_context, rng):
        ct = small_context.encrypt(msg(rng))
        with pytest.raises(ValueError):
            Ciphertext(ct.c0, ct.c1.drop_limbs(1), ct.level, ct.scale)

    def test_symmetric_bits_are_the_two_transform_form(self, small_context, rng):
        """Message and noise share one forward transform; under a fixed
        seed not a bit moves (same draws in the same order, and the NTT is
        linear on canonical residues) — against the two-transform
        composition, and against a digest taken before the change."""
        from repro.ckks.context import CkksContext

        m = msg(np.random.default_rng(7))
        one, two = (CkksContext(small_context.params, seed=4321) for _ in range(2))
        digest = hashlib.sha256()
        for level in (6, 2):
            ct = one.encrypt(m, level=level)
            moduli = two.params.active_moduli(level)
            pt = two.encoder.encode(m, moduli, two.params.scale)
            a = two.keys.uniform_poly(moduli)
            e = two.keys.error_poly(moduli).to_ntt()
            b = -(a * two.keys.secret_poly(moduli)) + e + pt
            assert np.array_equal(ct.c0.limbs, b.limbs) and np.array_equal(ct.c1.limbs, a.limbs)
            digest.update(ct.c0.limbs.tobytes() + ct.c1.limbs.tobytes())
        assert digest.hexdigest() == (
            "8036f6bce11e32f4036c9e167d2e02fe27c76f1fa2f37e744895bf31d6438895"
        )

    def test_encrypt_to_a_public_key(self, small_context, rng):
        """``public_key`` says whom the ciphertext is for: its owner
        decrypts, at any level (the key restricts limb-wise), and the
        encryptor's own secret does not."""
        from repro.ckks.context import CkksContext

        other = CkksContext(small_context.params, seed=77)
        m = msg(rng)
        for level in (6, 1):
            ct = small_context.encrypt(m, level=level, public_key=other.keys.public_key())
            assert ct.level == level and ct.c0.ntt_form and ct.c1.ntt_form
            assert np.max(np.abs(other.decrypt(ct) - m)) < 1e-4
            assert np.max(np.abs(small_context.decrypt(ct) - m)) > 1.0
        with pytest.raises(ValueError, match="prefix"):
            pk_b, pk_a = other.keys.public_key()
            small_context.encrypt(m, public_key=(pk_b.drop_limbs(6), pk_a.drop_limbs(6)))

    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
    def test_public_key_noise_is_inside_the_modelled_fresh_term(self, bits):
        """What a serve tenant does — encrypt to the batch key at the
        preset's scale — must stay under ``NoiseParams.fresh_std``, the
        source term every admission floor starts from.  Same ring, slot
        count, secret weight and scale as the serve presets; at 62 bits
        the chain is built for a 54-bit scale (the native 68-bit base is
        an 85 s prime search) and only the encryption scale is 2**61 —
        fresh noise does not depend on the moduli.
        """
        from dataclasses import replace

        from repro.check.noise_check import NoiseParams
        from repro.ckks.context import CkksContext
        from repro.serve.offline import SERVE_DEGREE

        scale_bits = bits - 1
        params = replace(
            make_params(
                degree=SERVE_DEGREE, scale_bits=min(scale_bits, 54), depth=1, word_bits=bits
            ),
            scale_bits=scale_bits,
        )
        tenant, batch = CkksContext(params, seed=bits), CkksContext(params, seed=bits + 1)
        rng = np.random.default_rng(bits)

        def rms(public_key):
            errors = []
            for _ in range(4):
                m = msg(rng, params.slots)
                ct = tenant.encrypt(m, public_key=public_key)
                owner = tenant if public_key is None else batch
                errors.append(owner.decrypt(ct) - m)
            return float(np.sqrt(np.mean(np.abs(np.concatenate(errors)) ** 2)))

        symmetric, public = rms(None), rms(batch.keys.public_key())
        modelled = NoiseParams(scale_bits=scale_bits).fresh_std
        # v*e + e0 + e1*s against e: sqrt(2h + 1) ~ 11x, 3.5 bits (less at
        # a 2**61 scale, where float64 decoding floors the symmetric error).
        assert symmetric < public < modelled
        assert bits == 62 or public > 8 * symmetric


class TestSwitchKey:
    def test_switched_ciphertext_decrypts_under_the_destination_secret(
        self, small_context, small_evaluator, rng
    ):
        from repro.ckks.context import CkksContext

        dst = CkksContext(small_context.params, seed=77)
        evk = small_context.keys.make_switch_key(dst.keys.public_key())
        m = msg(rng)
        for level in (6, 1):
            ct = small_context.encrypt(m, level=level)
            out = small_evaluator.apply_switch_key(ct, evk)
            assert (out.level, out.scale) == (ct.level, ct.scale)
            assert np.max(np.abs(dst.decrypt(out) - m)) < 1e-3
            assert np.max(np.abs(small_context.decrypt(out) - m)) > 1.0


class TestAdditive:
    def test_hadd(self, small_context, small_evaluator, rng):
        m1, m2 = msg(rng), msg(rng)
        out = small_evaluator.add(
            small_context.encrypt(m1), small_context.encrypt(m2)
        )
        assert np.max(np.abs(small_context.decrypt(out) - (m1 + m2))) < TOL

    def test_hsub_negate(self, small_context, small_evaluator, rng):
        m1, m2 = msg(rng), msg(rng)
        ev = small_evaluator
        out = ev.sub(small_context.encrypt(m1), small_context.encrypt(m2))
        assert np.max(np.abs(small_context.decrypt(out) - (m1 - m2))) < TOL
        out = ev.negate(small_context.encrypt(m1))
        assert np.max(np.abs(small_context.decrypt(out) + m1)) < TOL

    def test_padd(self, small_context, small_evaluator, rng):
        m1, m2 = msg(rng), msg(rng)
        ct = small_context.encrypt(m1)
        pt = small_context.encode(m2)
        out = small_evaluator.add_plain(ct, pt)
        assert np.max(np.abs(small_context.decrypt(out) - (m1 + m2))) < TOL

    def test_cadd(self, small_context, small_evaluator, rng):
        m1 = msg(rng)
        out = small_evaluator.add_scalar(small_context.encrypt(m1), 0.5 - 0.25j)
        assert np.max(np.abs(small_context.decrypt(out) - (m1 + 0.5 - 0.25j))) < TOL

    def test_add_aligns_levels(self, small_context, small_evaluator, rng):
        m1, m2 = msg(rng), msg(rng)
        ev = small_evaluator
        deep = ev.consume_level(small_context.encrypt(m1))
        out = ev.add(deep, small_context.encrypt(m2))
        assert out.level == deep.level
        assert np.max(np.abs(small_context.decrypt(out) - (m1 + m2))) < TOL

    def test_scale_mismatch_rejected(self, small_context, small_evaluator, rng):
        m = msg(rng)
        a = small_context.encrypt(m)
        b = small_context.encrypt(m, scale=2.0**27)
        with pytest.raises(ValueError):
            small_evaluator.add(a, b)


class TestMultiplicative:
    def test_pmult(self, small_context, small_evaluator, rng):
        m1, m2 = msg(rng), msg(rng)
        out = small_evaluator.multiply_plain(
            small_context.encrypt(m1), small_context.encode(m2)
        )
        assert out.level == small_context.params.usable_level - 1
        assert np.max(np.abs(small_context.decrypt(out) - m1 * m2)) < TOL

    def test_cmult(self, small_context, small_evaluator, rng):
        m1 = msg(rng)
        out = small_evaluator.multiply_scalar(small_context.encrypt(m1), 0.125)
        assert np.max(np.abs(small_context.decrypt(out) - 0.125 * m1)) < TOL

    def test_hmult(self, small_context, small_evaluator, rng):
        m1, m2 = msg(rng), msg(rng)
        out = small_evaluator.multiply(
            small_context.encrypt(m1), small_context.encrypt(m2)
        )
        assert np.max(np.abs(small_context.decrypt(out) - m1 * m2)) < TOL

    def test_square(self, small_context, small_evaluator, rng):
        m = msg(rng)
        out = small_evaluator.square(small_context.encrypt(m))
        assert np.max(np.abs(small_context.decrypt(out) - m * m)) < TOL

    def test_mult_chain_to_level_zero(self, small_context, small_evaluator, rng):
        m = msg(rng)
        factor = msg(rng)
        ct = small_context.encrypt(m)
        expect = m
        while ct.level > 0:
            ct = small_evaluator.multiply(ct, small_context.encrypt(factor, level=ct.level))
            expect = expect * factor
        assert np.max(np.abs(small_context.decrypt(ct) - expect)) < 1e-3

    def test_rescale_tracks_scale_exactly(self, small_context, small_evaluator, rng):
        ct = small_context.encrypt(msg(rng))
        out = small_evaluator.multiply(ct, ct, rescale=False)
        step = small_context.params.step_at(out.level)
        rescaled = small_evaluator.rescale(out)
        assert rescaled.scale == pytest.approx(out.scale / step.scale)

    def test_rescale_at_level_zero_rejected(self, small_context, small_evaluator, rng):
        ct = small_context.encrypt(msg(rng))
        while ct.level > 0:
            ct = small_evaluator.consume_level(ct)
        with pytest.raises(ValueError):
            small_evaluator.rescale(ct)


class TestDoublePrimeScaling:
    def test_ds_steps_are_pairs(self, ds_context):
        for step in ds_context.params.steps:
            assert len(step.primes) == 2
            assert abs(math.log2(step.scale) - 35) < 0.2

    def test_ds_fresh_precision_higher(self, ds_context, rng):
        """A 2^35 scale gives ~7 more precision bits than 2^28."""
        m = msg(rng)
        err = np.max(np.abs(ds_context.decrypt(ds_context.encrypt(m)) - m))
        assert -math.log2(err) > 22

    def test_ds_hmult_rescale(self, ds_context, ds_evaluator, rng):
        m1, m2 = msg(rng), msg(rng)
        out = ds_evaluator.multiply(ds_context.encrypt(m1), ds_context.encrypt(m2))
        assert out.level == ds_context.params.usable_level - 1
        assert out.moduli == ds_context.params.active_moduli(out.level)
        assert np.max(np.abs(ds_context.decrypt(out) - m1 * m2)) < 1e-6

    def test_ds_deep_chain(self, ds_context, ds_evaluator, rng):
        m = msg(rng)
        ct = ds_context.encrypt(m)
        expect = m
        for _ in range(ds_context.params.usable_level):
            ct = ds_evaluator.multiply(ct, ds_context.encrypt(np.conj(m), level=ct.level))
            expect = expect * np.conj(m)
        assert np.max(np.abs(ds_context.decrypt(ct) - expect)) < 1e-4


    @pytest.mark.parametrize("scale_bits, word_bits", [(55, 28), (62, 32)])
    def test_a_scale_without_base_headroom_is_refused_by_name(
        self, monkeypatch, scale_bits, word_bits
    ):
        """The base modulus sits 7 bits above the scale, so a scale within
        7 bits of the word's DS limit (``2 * word - 1``) cannot be built.
        The refusal names the requested scale, the headroom and the limit,
        and comes before any prime search."""
        from repro.ckks import context

        def no_search(*args, **kwargs):
            raise AssertionError("searched for primes")

        monkeypatch.setattr(context, "realize_levels", no_search)
        limit = 2 * word_bits - 1
        with pytest.raises(
            ValueError, match=rf"scale 2\^{scale_bits} .*7 bits of headroom.*DS limit of 2\^{limit}"
        ):
            make_params(degree=1 << 12, scale_bits=scale_bits, depth=3, word_bits=word_bits)


class TestRotation:
    @pytest.mark.parametrize("amount", [1, 3, 100, 255])
    def test_hrot(self, small_context, small_evaluator, rng, amount):
        m = msg(rng)
        out = small_evaluator.rotate(small_context.encrypt(m), amount)
        assert np.max(np.abs(small_context.decrypt(out) - np.roll(m, -amount))) < TOL

    def test_rotate_zero_is_identity(self, small_context, small_evaluator, rng):
        m = msg(rng)
        ct = small_context.encrypt(m)
        assert small_evaluator.rotate(ct, 0) is ct

    def test_rotation_composition(self, small_context, small_evaluator, rng):
        m = msg(rng)
        ev = small_evaluator
        ct = small_context.encrypt(m)
        out = ev.rotate(ev.rotate(ct, 5), 7)
        assert np.max(np.abs(small_context.decrypt(out) - np.roll(m, -12))) < TOL

    def test_conjugate(self, small_context, small_evaluator, rng):
        m = msg(rng)
        out = small_evaluator.conjugate(small_context.encrypt(m))
        assert np.max(np.abs(small_context.decrypt(out) - np.conj(m))) < TOL

    def test_rotation_preserves_level_and_scale(self, small_context, small_evaluator, rng):
        ct = small_context.encrypt(msg(rng))
        out = small_evaluator.rotate(ct, 9)
        assert out.level == ct.level and out.scale == ct.scale


class TestLevelScaleManagement:
    def test_drop_to_level(self, small_context, small_evaluator, rng):
        m = msg(rng)
        ct = small_context.encrypt(m)
        dropped = small_evaluator.drop_to_level(ct, 2)
        assert dropped.level == 2
        assert np.max(np.abs(small_context.decrypt(dropped) - m)) < TOL

    def test_cannot_raise_level(self, small_context, small_evaluator, rng):
        ct = small_evaluator.drop_to_level(small_context.encrypt(msg(rng)), 2)
        with pytest.raises(ValueError):
            small_evaluator.drop_to_level(ct, 3)

    def test_adjust_changes_scale_exactly(self, small_context, small_evaluator, rng):
        m = msg(rng)
        ev = small_evaluator
        ct = ev.multiply(small_context.encrypt(m), small_context.encrypt(m))
        target = small_context.params.scale
        out = ev.adjust(ct, ct.level - 1, target)
        assert out.scale == target
        assert np.max(np.abs(small_context.decrypt(out) - m * m)) < TOL

    def test_adjust_at_an_equal_scale_spends_no_level(self, small_context, small_evaluator, rng):
        ct = small_context.encrypt(msg(rng))
        out = small_evaluator.adjust(ct, ct.level, ct.scale)
        assert (out.level, out.scale) == (ct.level, ct.scale)

    def test_match_at_an_equal_scale_spends_no_level(self, small_context, small_evaluator, rng):
        m = msg(rng)
        a, b = small_evaluator.match(small_context.encrypt(m), small_context.encrypt(m))
        assert a.level == b.level == small_context.params.usable_level

    def test_adjust_refuses_a_correction_without_a_spare_level(
        self, small_context, small_evaluator, rng
    ):
        ct = small_context.encrypt(msg(rng))
        with pytest.raises(ValueError, match="needs one spare level"):
            small_evaluator.adjust(ct, ct.level, ct.scale * 1.5)

    def test_match_reconciles_branches(self, small_context, small_evaluator, rng):
        m = msg(rng)
        ev = small_evaluator
        a = ev.multiply(small_context.encrypt(m), small_context.encrypt(m))
        b = small_context.encrypt(m * m)
        a2, b2 = ev.match(a, b)
        out = ev.add(a2, b2)
        assert np.max(np.abs(small_context.decrypt(out) - 2 * m * m)) < TOL

    def test_consume_level_keeps_value(self, small_context, small_evaluator, rng):
        m = msg(rng)
        ct = small_evaluator.consume_level(small_context.encrypt(m))
        assert ct.level == small_context.params.usable_level - 1
        assert ct.scale == small_context.params.scale
        assert np.max(np.abs(small_context.decrypt(ct) - m)) < TOL
