"""Self-contained serve demo / smoke gate: ``python -m repro.serve --smoke``.

Starts an in-process server, enrolls two tenants with distinct keys,
runs one valid job per tenant concurrently (so the batcher can pack
them into a shared ciphertext), submits one program that must be
rejected at admission, and checks every observable invariant:

* both tenants decrypt their own result within the proven floor;
* neither tenant can see the other's lanes;
* the rejected job reports its diagnostic codes and costs the engine
  exactly zero evaluator invocations;
* one job at every word length the service sells
  (:data:`repro.params.presets.NATIVE_WORD_LENGTHS`) decrypts within its
  proven floor.

Exit status 0 means the full offline + online pipeline works.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

import numpy as np

from repro.params.presets import NATIVE_WORD_LENGTHS
from repro.serve.client import FheClient, JobRejected, JobResult
from repro.serve.program import EvalProgram, ProgramBuilder
from repro.serve.server import FheServer


def _poly_program() -> EvalProgram:
    """``0.5 * x^2 + x`` — depth 2, no rotations, batchable.

    The square leaves its branch at a drifted RNS scale, so the final
    addition must be the scale-reconciling ``add_matched`` — a plain
    ``add`` here is exactly what admission rejects.
    """
    b = ProgramBuilder("poly")
    x = b.input
    sq = b.square(x)
    half = b.multiply_scalar(sq, 0.5)
    out = b.add_matched(half, x)
    return b.build(out)


def _too_deep_program() -> EvalProgram:
    """Twelve squarings: more than any realistic level budget."""
    b = ProgramBuilder("too_deep")
    v = b.input
    for _ in range(12):
        v = b.square(v)
    return b.build(v)


def _within_floor(name: str, res: JobResult, vals: list[float]) -> bool:
    """Print one ``poly`` result against its proven floor; True if inside."""
    want = np.array([0.5 * v * v + v for v in vals])
    err = float(np.abs(res.values - want).max())
    floor = res.proven_floor_bits
    budget = 2.0 ** -floor if floor is not None else 1e-3
    print(
        f"{name}: err {err:.3e} vs proven floor 2^-{floor:.1f}"
        f" = {budget:.3e} [{'ok' if err <= budget else 'FAIL'}]"
        f" (batch size {res.meta['batch_size']},"
        f" occupancy {res.meta['batch_occupancy']:.3f})"
    )
    return err <= budget


async def _smoke() -> int:
    server = FheServer(batch_window=0.25)
    await server.start()
    program = _poly_program()
    try:
        alice = FheClient("127.0.0.1", server.port, seed=101)
        bob = FheClient("127.0.0.1", server.port, seed=202)
        await asyncio.gather(alice.enroll(36, width=4), bob.enroll(36, width=4))
        print(f"enrolled: {alice.session_id} and {bob.session_id} at 36-bit words")

        a_vals = [0.5, -0.25, 0.125, 0.75]
        b_vals = [0.1, 0.2, 0.3, 0.4]
        res_a, res_b = await asyncio.gather(
            alice.submit(program, a_vals), bob.submit(program, b_vals)
        )
        ok = _within_floor("alice", res_a, a_vals) & _within_floor("bob", res_b, b_vals)

        pre_reject = server.metrics.engine_invocations
        try:
            await alice.submit(_too_deep_program(), a_vals)
            print("FAIL: too-deep program was admitted")
            ok = False
        except JobRejected as exc:
            burned = server.metrics.engine_invocations - pre_reject
            print(f"rejected as expected: {', '.join(exc.codes)} ({burned} engine ops)")
            if burned != 0:
                print("FAIL: rejection burned engine work")
                ok = False

        stats = await alice.stats()
        jobs = stats["jobs"]
        print(
            f"stats: {jobs['completed']} completed, {jobs['rejected']} rejected, "
            f"{stats['engine_invocations']} engine ops, "
            f"mean occupancy {stats['mean_batch_occupancy']:.3f}"
        )
        await asyncio.gather(alice.close(), bob.close())

        for bits in NATIVE_WORD_LENGTHS:
            tier = FheClient("127.0.0.1", server.port, seed=300 + bits)
            await tier.enroll(bits, width=4)
            ok &= _within_floor(f"{bits}-bit", await tier.submit(program, a_vals), a_vals)
            await tier.close()
        return 0 if ok else 1
    finally:
        await server.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the in-process two-tenant end-to-end demo",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.print_help()
        return 2
    return asyncio.run(_smoke())


if __name__ == "__main__":
    sys.exit(main())
