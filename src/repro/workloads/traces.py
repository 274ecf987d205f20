"""HE-op trace generators for the evaluation workloads (paper S6.1).

Each generator produces a :class:`repro.hw.isa.Trace` at the target
parameter set (the full-size ``Set_k`` chains): *bootstrapping*
(amortized per effective level), *HELR* logistic-regression training
iterations at batch 256/1024, *ResNet-20* inference, *two-way bitonic
sorting* of 2^14 elements, and the *narrow*/*wide* synthetic workloads
of S3.2.

The :class:`TraceBuilder` tracks the level cursor through the normal
region and transparently inserts a full bootstrapping sequence whenever
the chain is exhausted — matching how the paper's compiler schedules
FHE programs (all workloads spend 59-95% of their time bootstrapping).

All generated ops carry SSA dataflow annotations (``dst``/``srcs``):
the builder threads a current-value cursor through the op stream, and
rotation ladders produce temporaries that stay live until the next
accumulation consumes them — which is exactly the (bs + 1)-ciphertext
BSGS working set the paper's Fig. 5(b) plots.  The annotations feed
the :mod:`repro.sched` scheduling compiler, whose schedule is what
the simulator prices traffic from.

Every op is appended by one emitter, :meth:`SsaEmitter.emit`, which
the served program's abstract run
(:class:`repro.check.admission.ProductFold`) shares.
With ``explicit_rescale=True`` it emits each consuming op followed by a
standalone ``RESCALE`` instead of folding the drop into the op — the
*unfused* form that :mod:`repro.sched.fusion` re-fuses, so fusion
savings can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.isa import HeOp, OpKind, Trace
from repro.params.presets import WordLengthSetting

__all__ = [
    "SsaEmitter",
    "TraceBuilder",
    "bootstrap_trace",
    "helr_trace",
    "resnet20_trace",
    "sorting_trace",
    "synthetic_trace",
    "evaluation_traces",
]

# Bootstrap pipeline constants (CtS -> EvalMod -> StC, as in
# repro.ckks.bootstrap); repro.core.opcount prices the same ops.
CTS_STAGES = 3
STC_STAGES = 3
LT_ROTATIONS_PER_STAGE = 8  # BSGS baby+giant rotations per stage
LT_PMULTS_PER_STAGE = 16  # diagonal multiplications per stage
EVALMOD_HMULTS = 20  # Chebyshev ladder + PS products (both halves)
EVALMOD_PMULTS = 40  # coefficient foldings


class SsaEmitter:
    """The one SSA op emitter every trace producer shares.

    :meth:`emit` names the value it defines ``v<n>_<hint>``, appends the
    :class:`HeOp`, and — with ``explicit_rescale`` — splits a
    level-dropping op into the op itself plus a standalone ``RESCALE``
    carrying the drop.
    """

    def __init__(self, explicit_rescale: bool = False) -> None:
        self.explicit_rescale = explicit_rescale
        self.ops: list[HeOp] = []
        self._n = 0

    def fresh(self, hint: str) -> str:
        self._n += 1
        return f"v{self._n}_{hint}"

    def emit(
        self,
        kind: OpKind,
        limbs: int,
        srcs: tuple[str, ...],
        drop: int = 0,
        key_id: str | None = None,
        count: float = 1.0,
        hint: str | None = None,
    ) -> str:
        """Append ``kind`` over ``srcs``; return the value id it defines."""
        if self.explicit_rescale and drop:
            srcs = (self.emit(kind, limbs, srcs, 0, key_id, count, hint),)
            kind, key_id, count, hint = OpKind.RESCALE, None, 1.0, None
        dst = self.fresh(hint or kind.value)
        self.ops.append(HeOp(kind, limbs, drop, key_id, count, dst=dst, srcs=srcs))
        return dst


def _bootstrap_ops(setting: WordLengthSetting, ssa: SsaEmitter, cur: str) -> str:
    """Emit one full bootstrapping invocation of the value ``cur``.

    Returns the SSA id of the refreshed ciphertext.
    """
    boot = setting.group("boot")
    stc = setting.group("stc")
    normal = setting.group("normal")

    limbs = setting.max_level
    cur = ssa.emit(OpKind.MOD_RAISE, limbs, (cur,))

    def linear_stage(tag: str, drop: int) -> None:
        # A BSGS rotation ladder off ``cur``, then the diagonal
        # multiplications that accumulate it (one rescale per stage).
        nonlocal cur, limbs
        temps = tuple(
            ssa.emit(OpKind.HROT, limbs, (cur,), key_id=f"{tag}_{r}", hint="rot")
            for r in range(LT_ROTATIONS_PER_STAGE)
        )
        cur = ssa.emit(
            OpKind.PMULT, limbs, (cur, *temps), drop, count=LT_PMULTS_PER_STAGE
        )
        limbs -= drop

    # CtS stages at the top boot levels.
    cts_levels = min(CTS_STAGES, boot.levels)
    for stage in range(cts_levels):
        linear_stage(f"boot_cts{stage}", boot.primes_per_level)

    evalmod_levels = boot.levels - cts_levels
    for _ in range(evalmod_levels):
        drop = boot.primes_per_level
        # The HMult carries the level's rescale; the PMults of the
        # same EvalMod level then run on its already-rescaled output.
        cur = ssa.emit(
            OpKind.HMULT, limbs, (cur,), drop, "mult", EVALMOD_HMULTS / evalmod_levels
        )
        cur = ssa.emit(
            OpKind.PMULT, limbs - drop, (cur,), count=EVALMOD_PMULTS / evalmod_levels
        )
        limbs -= drop

    for stage in range(min(STC_STAGES, stc.levels)):
        linear_stage(f"boot_stc{stage}", stc.primes_per_level)

    assert limbs == setting.base_prime_count + normal.levels * normal.primes_per_level
    return cur


@dataclass
class TraceBuilder:
    """Builds application traces with automatic bootstrap insertion."""

    setting: WordLengthSetting
    name: str
    explicit_rescale: bool = False

    def __post_init__(self):
        self._normal = self.setting.group("normal")
        self._level = self._normal.levels  # normal levels remaining
        self._ssa = SsaEmitter(self.explicit_rescale)
        self._cur = self._ssa.fresh("input")  # external input ciphertext
        self._pending: list[str] = []  # rotation outputs awaiting accumulation

    @property
    def limbs(self) -> int:
        return (
            self.setting.base_prime_count
            + self._level * self._normal.primes_per_level
        )

    def _ensure_levels(self, needed: int) -> None:
        if self._level < needed:
            self._cur = _bootstrap_ops(self.setting, self._ssa, self._cur)
            self._level = self._normal.levels

    def op(
        self,
        kind: OpKind,
        key_id: str | None = None,
        consumes: int = 0,
        count: float = 1.0,
    ) -> None:
        """Append ``count`` identical ops, consuming ``consumes`` levels each."""
        self._ensure_levels(consumes if consumes else 1)
        drop = self._normal.primes_per_level if consumes else 0
        srcs: tuple[str, ...] = (self._cur,)
        if kind in (OpKind.HADD, OpKind.PMADD) and self._pending:
            srcs += tuple(self._pending)
            self._pending.clear()
        self._cur = self._ssa.emit(kind, self.limbs, srcs, drop, key_id, count)
        self._level -= consumes

    def rotations(self, how_many: int, tag: str) -> None:
        for r in range(how_many):
            self._ensure_levels(1)
            self._pending.append(
                self._ssa.emit(
                    OpKind.HROT, self.limbs, (self._cur,), key_id=f"{tag}_{r}", hint="rot"
                )
            )

    def build(self) -> Trace:
        return Trace(name=self.name, ops=self._ssa.ops)


def bootstrap_trace(
    setting: WordLengthSetting, explicit_rescale: bool = False
) -> Trace:
    """One bootstrapping invocation, normalized per effective level."""
    ssa = SsaEmitter(explicit_rescale)
    _bootstrap_ops(setting, ssa, ssa.fresh("boot_in"))
    return Trace(
        name="bootstrap",
        ops=ssa.ops,
        normalize=setting.group("normal").levels,
    )


def helr_trace(
    setting: WordLengthSetting,
    batch: int = 1024,
    iterations: int = 4,
    explicit_rescale: bool = False,
) -> Trace:
    """HELR training iterations (logistic regression, 196 features).

    Per iteration: inner products of the packed batch against the
    weights (rotation ladders), a degree-7 sigmoid, and the gradient
    update — scaled by the number of ciphertexts the batch occupies.
    Several iterations run back to back so the level cursor depletes
    and bootstrapping is charged at its steady-state rate; runtimes
    are normalized per iteration.
    """
    b = TraceBuilder(setting, f"helr{batch}", explicit_rescale=explicit_rescale)
    streams = max(1, batch // 256)
    features_log = 8  # ceil(log2(196))
    for _it in range(iterations):
        for s in range(streams):
            # Inner product: rotate-and-accumulate over feature lanes.
            b.rotations(features_log, f"ip{s}")
            b.op(OpKind.PMADD, consumes=1, count=features_log)
            # Sigmoid (degree 7 polynomial: 3 mult depth).
            b.op(OpKind.HMULT, key_id="mult", consumes=1, count=2)
            b.op(OpKind.HMULT, key_id="mult", consumes=1, count=2)
            b.op(OpKind.HMULT, key_id="mult", consumes=1, count=1)
            # Gradient: multiply by inputs and reduce across the batch.
            b.op(OpKind.PMULT, consumes=1, count=2)
            b.rotations(features_log, f"grad{s}")
            b.op(OpKind.PMADD, consumes=1, count=2)
            # Weight update.
            b.op(OpKind.HADD, count=2)
    trace = b.build()
    trace.normalize = iterations
    return trace


def resnet20_trace(
    setting: WordLengthSetting, explicit_rescale: bool = False
) -> Trace:
    """ResNet-20 CIFAR-10 inference (multiplexed-convolution style [75]).

    Twenty convolution layers, each a BSGS linear transform over the
    packed image plus a high-degree polynomial ReLU; bootstraps are
    inserted whenever the chain runs dry, giving the dozens of
    bootstrap invocations the paper's 59-95% boot share reflects.
    """
    b = TraceBuilder(setting, "resnet20", explicit_rescale=explicit_rescale)
    for layer in range(20):
        # Multiplexed convolution: rotations + plaintext MACs.
        b.rotations(12, f"conv{layer}")
        b.op(OpKind.PMADD, consumes=1, count=27)
        b.op(OpKind.HADD, count=4)
        # Polynomial ReLU approximation (composite minimax, depth ~5).
        for _ in range(5):
            b.op(OpKind.HMULT, key_id="mult", consumes=1, count=2)
        b.op(OpKind.PMULT, consumes=1, count=2)
    # Final pooling + fully connected layer.
    b.rotations(6, "pool")
    b.op(OpKind.PMADD, consumes=1, count=4)
    return b.build()


def sorting_trace(setting: WordLengthSetting, explicit_rescale: bool = False) -> Trace:
    """Two-way bitonic sorting of 2^14 packed values [52].

    ``k*(k+1)/2`` = 105 comparator stages for ``k = 14``; each stage
    evaluates a composite sign polynomial (depth ~8) on rotated pairs.
    """
    b = TraceBuilder(setting, "sorting", explicit_rescale=explicit_rescale)
    stages = 14 * 15 // 2
    for stage in range(stages):
        # Reserve the stage's full depth (5 consumed levels + the
        # accumulate) before rotating, so a bootstrap never fires while
        # the rotated pair is still pending — the rotations and the
        # comparator that combines them must share a chain segment.
        b._ensure_levels(6)
        b.rotations(2, f"sort{stage % 16}")
        # Composite minimax sign: f3(g3(x)) style, ~8 squarings/mults.
        for _ in range(4):
            b.op(OpKind.HMULT, key_id="mult", consumes=1, count=2)
        b.op(OpKind.PMULT, consumes=1, count=2)
        b.op(OpKind.HADD, count=3)
    return b.build()


def synthetic_trace(setting: WordLengthSetting, hmults_per_level: int) -> Trace:
    """The paper's narrow (1) / wide (30) synthetic workloads."""
    label = "narrow" if hmults_per_level == 1 else f"wide{hmults_per_level}"
    b = TraceBuilder(setting, label)
    for _ in range(setting.group("normal").levels):
        b.op(OpKind.HMULT, key_id="mult", consumes=1, count=hmults_per_level)
    return b.build()


def evaluation_traces(
    setting: WordLengthSetting, explicit_rescale: bool = False
) -> dict[str, Trace]:
    """The five workloads of Fig. 6(a)."""
    return {
        "bootstrap": bootstrap_trace(setting, explicit_rescale=explicit_rescale),
        "helr256": helr_trace(setting, 256, explicit_rescale=explicit_rescale),
        "helr1024": helr_trace(setting, 1024, explicit_rescale=explicit_rescale),
        "resnet20": resnet20_trace(setting, explicit_rescale=explicit_rescale),
        "sorting": sorting_trace(setting, explicit_rescale=explicit_rescale),
    }
