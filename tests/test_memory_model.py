"""The simulator's one memory model: one evk size, one pricing path.

*Agreement*: every model that holds or moves an evaluation key sizes it
with ``WordLengthSetting.evk_bytes(prng, limbs)`` — liveness at the
key's highest use, the allocator's first fetch at exactly that size,
and the price list carries no byte count of its own.

*Calibration kept as numbers*: the closed-form memory model this repo
was seeded with (a fixed 0.35 x evk residency share plus an overflow
fraction) is gone; the twenty runtimes it produced at the last commit
that had it are the literals below, and the scheduled model must land
within 3 % of them on SHARP and 10 % on the variants.
"""

import dataclasses

import pytest

from repro.core.config import (
    ark36_config,
    sharp28_config,
    sharp64_config,
    sharp_config,
)
from repro.hw.lowering import FuWork
from repro.hw.sim import Simulator
from repro.params.presets import build_sharp_setting
from repro.sched.liveness import analyze_liveness
from repro.workloads.traces import evaluation_traces

WORKLOADS = ("bootstrap", "helr256", "helr1024", "resnet20", "sorting")

# Closed-form runtimes in ms (whole trace, not normalized), and the
# tolerance the one model is held to on that row.
CLOSED_FORM_MS = {
    "SHARP": (sharp_config, 0.03, (1.630, 5.362, 21.448, 30.249, 176.10)),
    "ARK36-180": (ark36_config, 0.10, (1.860, 6.082, 24.330, 34.476, 201.07)),
    "SHARP_28": (sharp28_config, 0.10, (1.940, 8.325, 33.300, 47.772, 210.29)),
    "SHARP_64": (sharp64_config, 0.10, (1.732, 5.720, 24.725, 39.296, 186.71)),
}


class TestOneEvkSize:
    @pytest.mark.parametrize("prng", (True, False))
    @pytest.mark.parametrize("word_bits", (28, 36, 48, 64))
    def test_scheduler_sizes_keys_with_the_setting(self, word_bits, prng):
        setting = build_sharp_setting(word_bits)
        sim = Simulator(sharp_config().with_features(prng_evk=prng), setting)
        for name, trace in evaluation_traces(setting).items():
            sched = sim.schedule(trace)
            live = analyze_liveness(trace, setting, prng_evk=prng)
            first_fetch = {}
            for event in sched.events:
                for value in event.fetched:
                    first_fetch.setdefault(value, event)
            top = {}
            for op in trace.ops:
                if op.key_id is not None:
                    key = f"evk:{op.key_id}"
                    top[key] = max(top.get(key, 0), op.limbs)
            assert set(top) == set(live.evk_ranges), name
            for key, limbs in top.items():
                size = setting.evk_bytes(prng=prng, limbs=limbs)
                assert live.evk_ranges[key].size_bytes == size, (name, key)
                # The op that first fetches the key moves the key's
                # bytes plus those of the ciphertexts it fetched.
                event = first_fetch[key]
                others = sum(
                    live.ranges[v].size_bytes for v in event.fetched if v != key
                )
                assert event.fetch_bytes == pytest.approx(size + others), (name, key)

    def test_full_chain_is_the_default(self):
        s = build_sharp_setting(36)
        assert s.evk_bytes() == s.evk_bytes(limbs=s.max_level)
        assert s.evk_bytes(prng=True, limbs=12) < s.evk_bytes(prng=True, limbs=13)

    def test_price_list_carries_no_bytes(self):
        assert not any("bytes" in f.name for f in dataclasses.fields(FuWork))


class TestCalibration:
    @pytest.mark.parametrize("config_name", CLOSED_FORM_MS)
    def test_scheduled_model_lands_on_the_closed_form(self, config_name):
        make, tolerance, literals = CLOSED_FORM_MS[config_name]
        sim = Simulator(make())
        traces = evaluation_traces(sim.setting)
        for workload, closed_ms in zip(WORKLOADS, literals):
            ms = sim.run(traces[workload]).seconds * 1e3
            assert ms == pytest.approx(closed_ms, rel=tolerance), workload
