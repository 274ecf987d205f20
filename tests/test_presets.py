"""Tests for the Set_k word-length settings (paper Fig. 2(b))."""

import hashlib
import json
import math

import pytest

from repro.params.presets import (
    NATIVE_WORD_LENGTHS,
    _build_group,
    build_native_ckks_params,
    build_sharp_setting,
)
from repro.params.primes import level_width, realize_levels
from repro.params.security import max_log_pq

# The paper's Fig. 2(b) row, reproduced mechanistically by the budget model.
PAPER_L_EFF = {28: 6, 32: 5, 36: 8, 40: 8, 44: 8, 48: 8, 52: 8, 56: 8, 60: 8, 64: 7}


@pytest.fixture(scope="module")
def settings():
    return {w: build_sharp_setting(w) for w in (28, 32, 36, 48, 64)}


class TestLEffRow:
    @pytest.mark.parametrize("w", (28, 32, 36, 48, 64))
    def test_matches_paper(self, settings, w):
        assert settings[w].l_eff == PAPER_L_EFF[w]

    def test_set36_chain_shape(self, settings):
        s36 = settings[36]
        assert s36.max_level == 35  # L = 35
        assert s36.k == 12  # K = 12
        assert s36.ss_prime_count == 11  # "11 out of 35 primes are used for SS"
        assert s36.ds_prime_count == 22
        assert s36.base_prime_count == 2

    def test_short_words_always_ds(self, settings):
        assert settings[28].ss_prime_count == 0
        assert settings[32].ss_prime_count == 0
        assert settings[36].ss_prime_count > 0

    def test_set64_always_ss(self, settings):
        assert settings[64].ds_prime_count == 0

    def test_mid_words_share_set36_primes(self, settings):
        assert settings[48].q_primes == settings[36].q_primes
        assert settings[48].aux_primes == settings[36].aux_primes

    def test_short_words_forced_to_high_normal_scale(self, settings):
        assert settings[28].normal_scale_bits >= 47
        assert settings[32].normal_scale_bits >= 47
        assert settings[36].normal_scale_bits == 35


class TestBudget:
    @pytest.mark.parametrize("w", (28, 32, 36, 48, 64))
    def test_within_security_budget(self, settings, w):
        s = settings[w]
        assert s.log_pq <= s.security_budget

    @pytest.mark.parametrize("w", (28, 32, 36, 48, 64))
    def test_primes_fit_word(self, settings, w):
        s = settings[w]
        for p in s.q_primes + s.aux_primes:
            assert p < (1 << w)

    @pytest.mark.parametrize("w", (28, 32, 36, 48, 64))
    def test_aux_exceed_all_q(self, settings, w):
        s = settings[w]
        assert min(s.aux_primes) > max(s.q_primes)

    @pytest.mark.parametrize("w", (28, 32, 36, 48, 64))
    def test_k_matches_dnum(self, settings, w):
        s = settings[w]
        assert s.k == math.ceil(s.max_level / s.dnum)


class TestStorageSizes:
    def test_ciphertext_size_matches_paper(self, settings):
        """Paper S5: a max-level ciphertext is 19.7 MB (MiB)."""
        mib = settings[36].ciphertext_bytes() / 2**20
        assert mib == pytest.approx(19.7, abs=0.2)

    def test_evk_size_matches_paper(self, settings):
        """Paper S5: an evk is 79.3 MB, 40.3 MB with PRNG."""
        s36 = settings[36]
        assert s36.evk_bytes() / 2**20 == pytest.approx(79.3, abs=0.5)
        assert s36.evk_bytes(prng=True) / 2**20 == pytest.approx(39.7, abs=1.0)

    def test_working_set_insensitive_to_word_length(self, settings):
        """Observation (4): evk grows ~1.08x (28->36b), ~1.22x (28->64b)."""
        e28 = settings[28].evk_bytes()
        e36 = settings[36].evk_bytes()
        e64 = settings[64].evk_bytes()
        assert e36 / e28 == pytest.approx(1.08, abs=0.12)
        assert e64 / e28 == pytest.approx(1.22, abs=0.15)


class TestSecurityBudget:
    def test_reference_point(self):
        assert max_log_pq(1 << 16) == 1555

    def test_scales_with_degree(self):
        assert max_log_pq(1 << 15) == 777
        assert max_log_pq(1 << 17) == 3110

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            max_log_pq(1000)

    def test_stronger_target_smaller_budget(self):
        assert max_log_pq(1 << 16, security_bits=256) < 1555


class TestBuilderValidation:
    def test_rejects_extreme_word_lengths(self):
        with pytest.raises(ValueError):
            build_sharp_setting(20)
        with pytest.raises(ValueError):
            build_sharp_setting(72)

    def test_describe_mentions_key_facts(self):
        text = build_sharp_setting(36).describe()
        assert "L=35" in text and "K=12" in text and "L_eff=8" in text


class TestOneFitRule:
    """Every chain the model and the engine build reads one fit rule and
    one level realizer (``repro.params.primes``)."""

    # sha256 of the realized primes below, pinned before the chain
    # builder and ``make_params`` shared the realizer.
    CHAINS_DIGEST = "73caa41d1b8ef771599b861a6ac9254d0da35b5b618c416d247df04035afd407"

    def test_realized_chains_are_pinned(self, small_context, ds_context, boot_context):
        rows: dict[str, object] = {}
        for w in (*range(27, 62), 63, 64):
            s = build_sharp_setting(w)
            rows[f"set{w}"] = [
                [g.name, g.scale_bits, g.primes_per_level, list(g.primes)] for g in s.groups
            ] + [list(s.aux_primes)]
        for w in NATIVE_WORD_LENGTHS:
            rows[f"native{w}"] = build_native_ckks_params(w, degree=1 << 11, depth=4).to_spec()
        for name, context in (("small", small_context), ("ds", ds_context), ("boot", boot_context)):
            rows[name] = context.params.to_spec()
        blob = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.CHAINS_DIGEST

    def test_set62_is_the_mid_word_chain(self):
        """62-bit words take the 2^62 boot scale as DS pairs, as every
        mid word does, so Set_62 is Set_61's chain."""
        s62, s61 = build_sharp_setting(62), build_sharp_setting(61)
        assert s62.group("boot").is_double
        assert (s62.q_primes, s62.aux_primes) == (s61.q_primes, s61.aux_primes)

    # (scale bits, word bits) -> primes per level the fit rule gives.
    FIT_PAIRS = {(35.5, 36): 2, (35, 36): 1, (47, 32): 2, (55, 28): 2, (62, 32): 2, (62, 64): 1}

    @pytest.mark.parametrize(("scale_bits", "word_bits"), FIT_PAIRS)
    def test_model_and_engine_realize_the_same_levels(self, scale_bits, word_bits):
        two_n, width = 2 << 12, self.FIT_PAIRS[scale_bits, word_bits]
        model = _build_group("normal", two_n, scale_bits, 3, word_bits, set())
        engine = realize_levels(two_n, scale_bits, 3, word_bits, set())
        assert level_width(scale_bits, word_bits) == model.primes_per_level == width
        assert [model.primes[i : i + width] for i in range(0, 3 * width, width)] == engine

    def test_engine_pairs_a_scale_one_bit_short_of_the_word(self):
        from repro.ckks.context import make_params

        params = make_params(degree=1 << 12, scale_bits=35.5, depth=3, word_bits=36)
        assert [len(step.primes) for step in params.steps] == [2, 2, 2]
