"""Tests for the static noise-budget analyzer and the word-length audit.

Covers: the single-source calibration contract (the static pass's
``NoiseParams`` is the empirical executor's ``NoiseModel``), the
abstract transfer functions (precision anchors, poison propagation,
realization discipline), the word-length audit's Table 2 regimes and
anchors, and the Hypothesis domination property: for random small
evaluator programs the static worst-case bound always dominates the
empirical ``NoisyEvaluator`` error.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import calibration
from repro.ckks.calibration import NoiseModel
from repro.ckks.noise import NoisyEvaluator
from repro.check.diagnostics import CheckReport
from repro.check.noise_check import (
    K_SIGMA,
    NoiseCheckEvaluator,
    NoiseParams,
    check_noise_program,
)
from repro.check.wordlen_audit import (
    EXPECTED_REGIMES,
    PAPER_BOOT_PRECISION,
    PAPER_FRESH_PRECISION,
    run_audit,
    scale_audit,
)
from repro.params.presets import NATIVE_WORD_LENGTHS

HYPO = settings(derandomize=True, deadline=None, max_examples=25)


@pytest.fixture(scope="module")
def audit():
    return run_audit()


# ---------------------------------------------------------------------------
# Single-source calibration: executor and analyzer cannot disagree
# ---------------------------------------------------------------------------


class TestCalibrationSingleSource:
    SCALES = (27.0, 29.0, 35.0, 49.0, 61.0)

    @pytest.mark.parametrize("scale", SCALES)
    def test_model_delegates_to_calibration(self, scale):
        # Each std is 2^-(scale - offset) with the calibrated offset;
        # the boot std's cap sits 36.5 bits below the boot scale.
        model = NoiseModel(scale, boot_scale_bits=62.0)
        assert model.fresh_std == 2.0 ** -(scale - calibration.FRESH_OFFSET_BITS)
        assert model.op_std == 2.0 ** -(scale - calibration.OP_OFFSET_BITS)
        assert model.relative_std == 2.0 ** -(scale - calibration.RELATIVE_OFFSET_BITS)
        assert model.boot_std == max(
            2.0 ** -(scale - calibration.BOOT_OFFSET_BITS),
            2.0 ** -(62.0 - calibration.BOOT_CAP_OFFSET_BITS),
        )

    @pytest.mark.parametrize("scale", SCALES)
    def test_params_delegate_to_calibration(self, scale):
        params = NoiseParams(scale_bits=scale, boot_scale_bits=62.0)
        model = NoiseModel(scale, boot_scale_bits=62.0)
        assert params.fresh_std == model.fresh_std
        assert params.op_std == model.op_std
        assert params.relative_std == model.relative_std
        assert params.boot_std == model.boot_std

    def test_boot_cap_binds_at_wide_scales(self):
        # At a 49-bit scale the 62-bit boot scale's expressiveness cap
        # (not the per-boot noise) limits precision.
        assert NoiseModel(49.0, 62.0).boot_std == 2.0 ** -(62.0 - 36.5)
        assert NoiseModel(35.0, 62.0).boot_std == 2.0 ** -(35.0 - 13.3)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


class TestTransferFunctions:
    def test_fresh_precision_anchor(self):
        ev = NoiseCheckEvaluator(NoiseParams(scale_bits=35.0))
        ct = ev.encrypt()
        assert ct.mean_precision_bits == pytest.approx(35.0 - 12.6)
        assert ct.worst_error == pytest.approx(K_SIGMA * NoiseModel(35.0).fresh_std)

    def test_add_is_quadrature_mean_linear_worst(self):
        ev = NoiseCheckEvaluator(NoiseParams(scale_bits=35.0))
        a, b = ev.encrypt(), ev.encrypt()
        out = ev.add(a, b)
        assert out.std == pytest.approx(math.sqrt(2.0) * a.std)
        assert out.worst == pytest.approx(a.worst + b.worst)
        assert out.mag == a.mag + b.mag

    def test_multiply_amplifies_by_message_bounds(self):
        ev = NoiseCheckEvaluator(NoiseParams(scale_bits=35.0))
        a = ev.encrypt(mag=4.0)
        b = ev.encrypt(mag=3.0)
        out = ev.multiply(a, b)
        assert out.mag == 12.0
        # Cross terms: each side's noise scaled by the other's bound.
        assert out.worst >= a.worst * 3.0 + b.worst * 4.0

    def test_rescale_jitter_scales_with_message(self):
        params = NoiseParams(scale_bits=35.0)
        ev = NoiseCheckEvaluator(params)
        small = ev.rescale(ev.encrypt(mag=1.0))
        ev2 = NoiseCheckEvaluator(params)
        big = ev2.rescale(ev2.encrypt(mag=100.0))
        assert big.std > small.std  # relative error: bigger values, more noise

    def test_explosion_has_provenance_and_poisons(self):
        ev = NoiseCheckEvaluator(NoiseParams(scale_bits=35.0))
        ct = ev.encrypt(mag=5.0)  # way outside the fitted interval
        out = ev.poly_eval(ct, np.tanh, 7, (-1.0, 1.0), out_mag=1.0, label="tight poly")
        assert ev.exploded and ev.explosion_op == 1
        # Downstream ops stay silent: one explosion, one diagnostic.
        out = ev.add(out, ev.encrypt())
        out = ev.bootstrap(out)
        errors = ev.report.errors
        assert len(errors) == 1
        assert errors[0].code == "NOISE-EXPLOSION"
        assert errors[0].op_index == 1
        summary = ev.summary()
        assert summary.exploded
        assert summary.mean_floor_bits == -math.inf

    def test_bootstrap_range_check(self):
        ev = NoiseCheckEvaluator(NoiseParams(scale_bits=35.0, message_ratio=8.0))
        ct = ev.encrypt(mag=20.0)
        ev.bootstrap(ct)
        assert ev.report.error_codes() == {"NOISE-BOOT-RANGE"}

    def test_bootstrap_accumulates_rather_than_resets(self):
        # The empirical bootstrap adds noise to whatever was there; the
        # static one must not pretend it refreshes precision.
        ev = NoiseCheckEvaluator(NoiseParams(scale_bits=35.0))
        ct = ev.encrypt()
        before = ct.std
        after = ev.bootstrap(ct)
        assert after.std > before
        assert after.worst > ct.worst

    def test_unrealizable_scale_is_rejected(self):
        report, _ = check_noise_program(
            lambda ev: ev.encrypt(),
            NoiseParams(scale_bits=60.0, boot_scale_bits=55.0, word_bits=28),
            "inflated",
        )
        assert "NOISE-SCALE-UNREALIZABLE" in report.error_codes()

    def test_ds_realizable_scale_is_accepted(self):
        # 28-bit words *can* realize a 55-bit scale as a DS pair.
        report, _ = check_noise_program(
            lambda ev: ev.encrypt(),
            NoiseParams(scale_bits=27.0, boot_scale_bits=55.0, word_bits=28),
            "ds",
        )
        assert report.ok

    def test_nonpositive_scale_is_rejected(self):
        report, _ = check_noise_program(
            lambda ev: ev.encrypt(), NoiseParams(scale_bits=0.0), "zero"
        )
        assert "NOISE-SCALE-RANGE" in report.error_codes()


# ---------------------------------------------------------------------------
# Word-length audit: the static Table 2 / Fig. 1 twin
# ---------------------------------------------------------------------------


class TestWordlenAudit:
    def test_regimes_match_the_paper(self, audit):
        for word in NATIVE_WORD_LENGTHS:
            expected = "explosion" if EXPECTED_REGIMES[word] == "explosion" else "robust"
            assert audit.regime(word) == expected, word

    def test_short_word_explosions_have_provenance(self, audit):
        for entry in audit.for_word(28):
            if entry.workload == "bootstrapping":
                continue  # a single refresh survives; its floor just sinks
            assert entry.exploded
            assert entry.explosion_op is not None
            assert any(
                d.code in ("NOISE-EXPLOSION", "NOISE-BOOT-RANGE")
                for d in entry.report.errors
            )

    def test_robust_regimes_have_zero_false_positives(self, audit):
        for word in (36, 50, 62):
            for entry in audit.for_word(word):
                assert entry.report.ok, (word, entry.workload)
                assert entry.passed, (word, entry.workload)

    def test_36_bit_floors_clear_targets_with_margin(self, audit):
        for entry in audit.for_word(36):
            assert entry.mean_floor_bits >= entry.target_bits + 2.0

    def test_table2_boot_anchor_within_one_bit(self, audit):
        entry = audit.entry(36, "bootstrapping")
        assert abs(entry.mean_floor_bits - PAPER_BOOT_PRECISION[35]) <= 1.0

    def test_table2_fresh_anchor_within_one_bit(self, audit):
        entry = audit.entry(36, "helr")
        assert abs(entry.fresh_precision_bits - PAPER_FRESH_PRECISION[35]) <= 1.0

    def test_wider_words_never_lower_floors(self, audit):
        for workload in ("helr", "resnet20", "sorting", "bootstrapping"):
            floors = [
                audit.entry(w, workload).mean_floor_bits for w in (36, 50, 62)
            ]
            assert floors == sorted(floors), workload

    def test_scale_sweep_reproduces_the_cliffs(self):
        # ResNet-20 needs two more scale bits than HELR (Table 2).
        by_scale = {
            s: {e.workload: e for e in scale_audit(float(s), float(b))}
            for s, b in ((27, 55), (29, 59), (31, 60), (33, 62))
        }
        assert all(
            by_scale[27][w].exploded for w in ("helr", "resnet20", "sorting")
        )
        assert not by_scale[29]["helr"].exploded
        assert not by_scale[29]["sorting"].exploded
        assert by_scale[29]["resnet20"].exploded
        assert by_scale[31]["resnet20"].exploded
        assert not by_scale[33]["resnet20"].exploded

    def test_render_mentions_every_workload(self, audit):
        text = audit.render()
        for name in ("helr", "resnet20", "sorting", "bootstrapping"):
            assert name in text

    def test_entry_to_dict_is_json_serializable(self, audit):
        payload = [e.to_dict() for e in audit.entries]
        json.dumps(payload)  # must not raise (infinities mapped to null)


# ---------------------------------------------------------------------------
# Hypothesis: static worst case dominates the empirical executor
# ---------------------------------------------------------------------------

N_SLOTS = 64
DOMINATION_SEEDS = (0, 1, 2)

_op = st.sampled_from(
    ["add_fresh", "sub_fresh", "mul_fresh", "mul_plain", "mul_scalar",
     "add_plain", "rotate", "bootstrap"]
)
_scalar = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
_program = st.lists(st.tuples(_op, _scalar), min_size=1, max_size=6)
_scale = st.sampled_from([29.0, 35.0, 49.0])


def _fresh_values(rng):
    return rng.uniform(-1.0, 1.0, N_SLOTS)


def _run_static(ops, scale_bits):
    params = NoiseParams(scale_bits=scale_bits)
    report = CheckReport("noise", "random-program")
    ev = NoiseCheckEvaluator(params, report)
    ct = ev.encrypt(mag=1.0)
    for kind, c in ops:
        if kind == "add_fresh":
            ct = ev.add(ct, ev.encrypt(mag=1.0))
        elif kind == "sub_fresh":
            ct = ev.sub(ct, ev.encrypt(mag=1.0))
        elif kind == "mul_fresh":
            ct = ev.multiply(ct, ev.encrypt(mag=1.0))
        elif kind == "mul_plain":
            ct = ev.multiply_plain(ct, pt_mag=abs(c))
        elif kind == "mul_scalar":
            ct = ev.multiply_scalar(ct, c)
        elif kind == "add_plain":
            ct = ev.add_plain(ct, pt_mag=abs(c))
        elif kind == "rotate":
            ct = ev.rotate(ct, 3)
        elif kind == "bootstrap":
            ct = ev.bootstrap(ct)
    return report, ct


def _run_empirical(ops, scale_bits, seed):
    model = NoiseModel(scale_bits)
    ev = NoisyEvaluator(model, seed=seed)
    data = np.random.default_rng(99)  # plaintext data: fixed across seeds
    ref = _fresh_values(data)
    ct = ev.encrypt(ref)
    for kind, c in ops:
        if kind in ("add_fresh", "sub_fresh", "mul_fresh"):
            v = _fresh_values(data)
            other = ev.encrypt(v)
            if kind == "add_fresh":
                ct, ref = ev.add(ct, other), ref + v
            elif kind == "sub_fresh":
                ct, ref = ev.sub(ct, other), ref - v
            else:
                ct, ref = ev.multiply(ct, other), ref * v
        elif kind == "mul_plain":
            plain = np.full(N_SLOTS, c)
            ct, ref = ev.multiply_plain(ct, plain), ref * c
        elif kind == "mul_scalar":
            ct, ref = ev.multiply_scalar(ct, c), ref * c
        elif kind == "add_plain":
            plain = np.full(N_SLOTS, c)
            ct, ref = ev.add_plain(ct, plain), ref + c
        elif kind == "rotate":
            ct, ref = ev.rotate(ct, 3), np.roll(ref, -3)
        elif kind == "bootstrap":
            ct = ev.bootstrap(ct)
            ref = np.mod(ref + ev.message_ratio, 2 * ev.message_ratio) - ev.message_ratio
    return float(np.max(np.abs(ct - ref)))


class TestDomination:
    @HYPO
    @given(ops=_program, scale_bits=_scale)
    def test_static_worst_case_dominates_empirical(self, ops, scale_bits):
        report, ct = _run_static(ops, scale_bits)
        if not report.ok:
            # The static pass proved an explosion (e.g. a value bound
            # outside the bootstrap range): no finite bound is claimed,
            # so there is nothing to dominate.
            return
        bound = ct.worst_error
        for seed in DOMINATION_SEEDS:
            err = _run_empirical(ops, scale_bits, seed)
            assert err <= bound, (
                f"empirical error {err:.3g} exceeds static bound {bound:.3g} "
                f"for {ops} at 2^{scale_bits}"
            )

    def test_bound_is_not_vacuous(self):
        # The domination test must compare against meaningful bounds:
        # for a simple chain the static bound should sit within a few
        # orders of magnitude of the empirical error, not at infinity.
        ops = [("mul_fresh", 0.0), ("add_fresh", 0.0), ("rotate", 0.0)]
        report, ct = _run_static(ops, 35.0)
        assert report.ok
        err = _run_empirical(ops, 35.0, 0)
        assert err <= ct.worst_error <= err * 1e4
