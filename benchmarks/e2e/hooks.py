"""The entry points the traced run wraps, one block per layer.

Layers are named after the repo's modules.  Each hook is a public
callable that ROADMAP does not schedule for deletion; a target that a
later change renames is skipped with a note (see ``Tracer.install``),
and its layer then reports zeros.
"""

from __future__ import annotations

import math
from typing import Any

from tracer import UNIT, Hook


def _backend_class() -> type:
    """Class of the kernel backend a scrubbed environment resolves to."""
    from repro.rns.backend import resolve_backend

    return type(resolve_backend())


def _backend(layer: str, op: str, method: str, count: Any = None) -> Hook:
    return Hook(layer, op, "repro.rns.backend", method, count, owner=_backend_class)


# -- counters: (counters, args, result); args[0] is ``self`` for methods ---------


def _count_ntt(counters: dict, args: tuple, result: Any) -> None:
    rows, n = args[2].shape[0], args[2].shape[-1]
    counters["ntt.limb_rows"] += rows
    counters["ntt.butterflies"] += rows * (n // 2) * int(math.log2(n))


def _count_bconv(counters: dict, args: tuple, result: Any) -> None:
    src, width = args[2].shape
    counters["bconv.macs"] += src * result.shape[0] * width


def _count_mul(counters: dict, args: tuple, result: Any) -> None:
    counters["kernels.mul_words"] += result.size


def _count_admission(counters: dict, args: tuple, result: Any) -> None:
    counters["admission.rejected"] += 0 if result.admitted else 1


def _count_certify(counters: dict, args: tuple, result: Any) -> None:
    counters["equiv.source_ops"] += len(args[0].ops)


def _count_plans(counters: dict, args: tuple, result: Any) -> None:
    counters["batching.plans"] += len(result)
    counters["batching.jobs"] += sum(plan.size for plan in result)
    counters["batching.occupancy"] += sum(plan.occupancy for plan in result)
    # Everything the batch worker does next serves these plans.
    UNIT.set("batch-" + "+".join(job.job_id for plan in result for job in plan.jobs))


def _count_job_id(counters: dict, args: tuple, result: Any) -> None:
    # The server names the job first thing in its handler; the rest of
    # the handler's spans (decode, admit, encode, write) belong to it.
    UNIT.set(result)


def _count_frame(counters: dict, args: tuple, result: Any) -> None:
    kind = args[0].name
    if kind == "JOB":
        counters["wire.bytes_in"] += len(result)
    elif kind in ("RESULT", "ERROR"):
        counters["wire.bytes_out"] += len(result)


def _count_schedule(counters: dict, args: tuple, result: Any) -> None:
    counters["sched.ops_in"] += len(args[0].ops)
    counters["sched.ops_out"] += len(result.ops)
    counters["sched.offchip_bytes"] += result.offchip_bytes


def _count_sim(counters: dict, args: tuple, result: Any) -> None:
    counters["sim.ops"] += len(args[1].ops)
    counters["sim.simulated_s"] += result.seconds


_EVALUATOR_OPS = (
    "multiply", "square", "multiply_plain", "multiply_scalar", "rotate", "conjugate",
    "rescale", "add", "add_plain", "add_scalar", "sub", "negate", "apply_switch_key",
    "adjust", "match", "consume_level", "drop_to_level",
)  # fmt: skip

_WIRE_CODECS = (
    "encode_blobs", "decode_blobs", "encode_json", "decode_json", "encode_program",
    "decode_program", "encode_ciphertext", "decode_ciphertext", "encode_public_key",
    "decode_public_key", "encode_switch_key", "decode_switch_key", "write_frame",
)  # fmt: skip

HOOKS: list[Hook] = [
    _backend("ntt.plan", "fwd", "ntt_forward_all", _count_ntt),
    _backend("ntt.plan", "inv", "ntt_inverse_all", _count_ntt),
    _backend("rns.bconv", "bconv", "bconv", _count_bconv),
    _backend("rns.kernels", "mul", "mul", _count_mul),
    _backend("rns.kernels", "add", "add"),
    _backend("rns.kernels", "inner", "keyswitch_inner"),
    Hook("rns.kernels", "shoup_precompute", "repro.rns.kernels", "shoup_precompute"),
    Hook("rns.poly", "automorphism", "repro.rns.poly", "RnsPolynomial.automorphism"),
    Hook("ckks.keyswitch", "switch", "repro.ckks.keyswitch", "KeySwitcher.switch"),
    *(
        Hook("ckks.context", op, "repro.ckks.context", f"CkksContext.{op}")
        for op in ("encode", "decode", "encrypt", "decrypt")
    ),
    *(Hook("ckks.ops", op, "repro.ckks.ops", f"Evaluator.{op}") for op in _EVALUATOR_OPS),
    Hook("ckks.linear", "apply", "repro.ckks.linear", "LinearTransform.apply"),
    Hook("ckks.poly_eval", "evaluate", "repro.ckks.poly_eval", "ChebyshevEvaluator.evaluate"),
    Hook("ckks.bootstrap", "bootstrap", "repro.ckks.bootstrap", "Bootstrapper.bootstrap"),
    Hook("ckks.bootstrap", "mod_raise", "repro.ckks.bootstrap", "Bootstrapper.mod_raise"),
    *(Hook("serve.wire", op, "repro.serve.wire", op) for op in _WIRE_CODECS),
    Hook("serve.wire", "encode_frame", "repro.serve.wire", "encode_frame", _count_frame),
    # serve.server calls the names it imported, so those bindings are
    # the ones to wrap.
    Hook("check.admission", "admit", "repro.serve.server", "admit_program", _count_admission),
    Hook("serve.batching", "plan", "repro.serve.server", "plan_batches", _count_plans),
    Hook("serve.server", "job_id", "repro.serve.session", "TenantSession.next_job_id",
         _count_job_id),
    Hook("check.equiv", "certify_for_execution", "repro.check.admission",
         "certify_for_execution"),
    Hook("check.equiv", "certify_schedule", "repro.check.equiv", "certify_schedule",
         _count_certify),
    Hook("sched.execute", "execute", "repro.sched.execute", "execute_scheduled"),
    Hook("sched.trace", "schedule", "repro.sched.trace", "schedule_trace", _count_schedule),
    Hook("workloads.traces", "evaluation_traces", "repro.workloads.traces",
         "evaluation_traces"),
    Hook("hw.sim", "run", "repro.hw.sim", "Simulator.run", _count_sim),
]
