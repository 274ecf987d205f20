"""Operation fusion — the paper's S5 peephole pass over HE-op traces.

Two rewrites, both driven by the SSA dataflow annotations:

* **Rescale folding** — a standalone ``RESCALE`` whose only input is
  the value defined by the immediately preceding ``HMULT`` / ``PMULT``
  / ``PMADD`` folds into that op's ``drop`` field, eliminating the
  intermediate value and one scheduled op (the trailing-rescale fusion
  the lowering layer already prices).
* **PMADD formation** — a ``PMULT`` whose result feeds the very next
  ``HADD`` becomes the EWE's fused multiply-add (``PMADD``, Table 3),
  absorbing one accumulation into the multiply's datapath pass.

The pass reports before/after op counts so benchmarks can quantify
the savings per workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.isa import HeOp, OpKind, Trace

__all__ = ["FusionReport", "fuse_trace"]

_FOLDABLE = (OpKind.HMULT, OpKind.PMULT, OpKind.PMADD)


@dataclass(frozen=True)
class FusionReport:
    """Before/after accounting for one fusion run."""

    trace_name: str
    before_ops: int  # scheduled trace entries before fusion
    after_ops: int
    before_count: float  # op_count() including repeat factors
    after_count: float
    rescales_folded: int
    pmadds_formed: int


def _use_counts(ops: list[HeOp]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in ops:
        for src in op.srcs:
            counts[src] = counts.get(src, 0) + 1
    return counts


def _fold_rescales(ops: list[HeOp]) -> tuple[list[HeOp], int]:
    uses = _use_counts(ops)
    out: list[HeOp] = []
    folded = 0
    for op in ops:
        prev = out[-1] if out else None
        if (
            op.kind is OpKind.RESCALE
            and prev is not None
            and prev.kind in _FOLDABLE
            and prev.drop == 0
            and op.srcs == (prev.dst,)
            and uses.get(prev.dst, 0) == 1
        ):
            out[-1] = HeOp(
                prev.kind,
                prev.limbs,
                drop=op.drop,
                key_id=prev.key_id,
                count=prev.count,
                dst=op.dst,
                srcs=prev.srcs,
            )
            folded += 1
        else:
            out.append(op)
    return out, folded


def _form_pmadds(ops: list[HeOp]) -> tuple[list[HeOp], int]:
    uses = _use_counts(ops)
    out: list[HeOp] = []
    formed = 0
    i = 0
    fresh = 0
    while i < len(ops):
        op = ops[i]
        nxt = ops[i + 1] if i + 1 < len(ops) else None
        if (
            op.kind is OpKind.PMULT
            and nxt is not None
            and nxt.kind is OpKind.HADD
            and op.dst in nxt.srcs
            and uses.get(op.dst, 0) == 1
        ):
            other_srcs = tuple(s for s in nxt.srcs if s != op.dst)
            if nxt.count <= 1:
                # The whole HAdd rides the MAD pass.
                out.append(
                    HeOp(
                        OpKind.PMADD,
                        op.limbs,
                        drop=op.drop + nxt.drop,
                        count=op.count,
                        dst=nxt.dst,
                        srcs=op.srcs + other_srcs,
                    )
                )
            else:
                # One of the accumulations fuses; the rest stay HAdds.
                fresh += 1
                mid = f"fused{fresh}_{op.dst}"
                out.append(
                    HeOp(
                        OpKind.PMADD,
                        op.limbs,
                        drop=op.drop,
                        count=op.count,
                        dst=mid,
                        srcs=op.srcs + other_srcs,
                    )
                )
                out.append(
                    HeOp(
                        OpKind.HADD,
                        nxt.limbs,
                        drop=nxt.drop,
                        count=nxt.count - 1,
                        dst=nxt.dst,
                        srcs=(mid,),
                    )
                )
            formed += 1
            i += 2
        else:
            out.append(op)
            i += 1
    return out, formed


def fuse_trace(trace: Trace) -> tuple[Trace, FusionReport]:
    """Apply both peephole rewrites; returns (fused trace, report).

    Requires an SSA-annotated trace — fusion legality (the folded
    value has exactly one consumer) is a dataflow property.
    """
    if not trace.annotated:
        raise ValueError(
            f"trace {trace.name!r} has no SSA annotations; fusion needs dataflow"
        )
    before_ops = len(trace.ops)
    before_count = trace.op_count()

    ops, folded = _fold_rescales(list(trace.ops))
    ops, formed = _form_pmadds(ops)

    fused = Trace(name=trace.name, ops=ops, normalize=trace.normalize)
    report = FusionReport(
        trace_name=trace.name,
        before_ops=before_ops,
        after_ops=len(ops),
        before_count=before_count,
        after_count=fused.op_count(),
        rescales_folded=folded,
        pmadds_formed=formed,
    )
    return fused, report
