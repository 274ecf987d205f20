"""Extra ablations the paper discusses in passing.

* the dnum trade-off of S2.3 (higher dnum -> higher L_eff but bigger
  evks and more key-switch compute);
* CraterLake's PRNG evk generation (S4.1: halves evk storage/traffic);
* the DSU's double-prime accumulation share at Set_36 (S4.5).
"""

from conftest import print_table

from repro.core.opcount import hmult_counts
from repro.hw.isa import HeOp, OpKind
from repro.hw.lowering import OpLowering
from repro.params.presets import build_setting


def test_dnum_tradeoff(benchmark):
    """S2.3: 'Increasing dnum results in a higher L_eff, but also
    increases the evk size and computational complexity.'"""

    def sweep():
        return {d: build_setting(36, dnum=d) for d in (2, 3, 4)}

    settings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for d, s in settings.items():
        ks = hmult_counts(s, s.max_level, 1).total_muls
        rows.append(
            [
                d,
                s.l_eff,
                s.max_level,
                s.k,
                f"{s.evk_bytes(prng=True)/2**20:.1f} MiB",
                f"{ks/1e6:.0f}M muls",
            ]
        )
    print_table(
        "S2.3: the dnum trade-off at 36-bit words",
        ["dnum", "L_eff", "L", "K", "evk (PRNG)", "top-level HMult"],
        rows,
    )
    l_effs = [settings[d].l_eff for d in (2, 3, 4)]
    assert l_effs == sorted(l_effs)  # higher dnum -> more levels
    evks = [settings[d].evk_bytes() for d in (2, 3, 4)]
    assert evks == sorted(evks)  # ... at larger key cost


def test_prng_evk_traffic_halving(benchmark):
    """S4.1: the PRNG regenerates the evk's A-half from a seed."""
    setting = build_setting(36)
    limbs = setting.max_level  # the top-level HMult's key

    def measure():
        return (
            setting.evk_bytes(prng=True, limbs=limbs),
            setting.evk_bytes(prng=False, limbs=limbs),
        )

    prng_bytes, plain_bytes = benchmark(measure)
    print(
        f"\nevk stream per HMult: {plain_bytes/2**20:.1f} MiB -> "
        f"{prng_bytes/2**20:.1f} MiB with PRNG (paper: halved)"
    )
    assert plain_bytes == 2 * prng_bytes


def test_dsu_engaged_only_on_ds_steps(benchmark):
    """S4.5: the DSU performs the double-prime accumulations."""
    setting = build_setting(36)

    def measure():
        lowering = OpLowering(setting)
        ds = lowering.lower(HeOp(OpKind.RESCALE, setting.max_level, drop=2))
        ss = lowering.lower(HeOp(OpKind.RESCALE, 14, drop=1))
        return ds.dsu_words, ss.dsu_words

    ds_words, ss_words = benchmark(measure)
    print(f"\nDSU words: DS rescale {ds_words:.0f}, SS rescale {ss_words:.0f}")
    assert ds_words > 0 and ss_words == 0
