"""Limb-parallel kernel backend over a shared-memory process pool.

The ``(L, N)`` limb matrix is embarrassingly parallel across rows for
the NTT (each limb transforms independently) and across *destination*
rows for BConv (each output prime's inner product reads the whole
source matrix but writes only its own row).  This backend shards those
two operations over a spawn-context ``ProcessPoolExecutor``, moving the
matrix through ``multiprocessing.shared_memory`` so workers mutate rows
in place instead of pickling arrays back and forth.

Worker processes lazily build and cache their own ``NttPlan`` /
``BaseConverter`` per (degree, sub-chain) — first touch pays the table
generation, steady state pays only the slice transform.  Elementwise
mul/add and the key-switch inner product stay on the in-process numpy
backend: they are memory-bound single passes where IPC costs more than
the work.

Small matrices (below :data:`MIN_SHARD_ELEMS`) are not worth a
round-trip either and delegate to numpy wholesale, so on a one-core
machine this backend is numpy plus a no-op guard.  Sharding is
bit-exact by construction: each worker runs the identical plan code on
its rows (BConv's centered overflow estimate depends only on the source
basis, which every shard sees in full).
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor, wait
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.rns.backend import NumpyBackend

if TYPE_CHECKING:
    from repro.ntt.plan import NttPlan
    from repro.rns.bconv import BaseConverter
    from repro.rns.kernels import ModulusKernel

__all__ = ["ParallelBackend", "MIN_SHARD_ELEMS", "WORKERS_ENV_VAR"]

# Below this element count the IPC round-trip dominates the transform.
MIN_SHARD_ELEMS = 1 << 14

WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"

# Per-worker-process caches, keyed by (degree, moduli) / converter key.
_WORKER_PLANS: dict[tuple[int, tuple[int, ...]], "NttPlan"] = {}
_WORKER_CONVS: dict[
    tuple[tuple[int, ...], tuple[int, ...], bool], "BaseConverter"
] = {}


class _SupportsShardedBconv(Protocol):
    """What the sharded BConv path needs from a converter."""

    src_moduli: tuple[int, ...]
    dst_moduli: tuple[int, ...]
    centered: bool

    def convert_rows(self, limbs: np.ndarray) -> np.ndarray: ...


def _worker_plan(degree: int, moduli: tuple[int, ...]) -> "NttPlan":
    plan = _WORKER_PLANS.get((degree, moduli))
    if plan is None:
        from repro.ntt.plan import NttPlan
        from repro.ntt.reference import NttContext

        plan = NttPlan([NttContext(degree, q) for q in moduli])
        _WORKER_PLANS[(degree, moduli)] = plan
    return plan


def _ntt_shard(
    name: str,
    shape: tuple[int, ...],
    degree: int,
    moduli: tuple[int, ...],
    lo: int,
    hi: int,
    forward: bool,
) -> None:
    """Transform rows ``[lo, hi)`` of the shared limb matrix in place."""
    shm = shared_memory.SharedMemory(name=name)
    try:
        mat: np.ndarray = np.ndarray(shape, dtype=np.uint64, buffer=shm.buf)
        plan = _worker_plan(degree, moduli[lo:hi])
        sub = np.array(mat[lo:hi])
        mat[lo:hi] = plan.forward_all(sub) if forward else plan.inverse_all(sub)
    finally:
        shm.close()


def _bconv_shard(
    src_name: str,
    dst_name: str,
    src_shape: tuple[int, ...],
    dst_shape: tuple[int, ...],
    src_moduli: tuple[int, ...],
    dst_moduli: tuple[int, ...],
    centered: bool,
    lo: int,
    hi: int,
) -> None:
    """Convert the full source matrix into destination rows ``[lo, hi)``."""
    src_shm = shared_memory.SharedMemory(name=src_name)
    dst_shm = shared_memory.SharedMemory(name=dst_name)
    try:
        src: np.ndarray = np.ndarray(
            src_shape, dtype=np.uint64, buffer=src_shm.buf
        )
        dst: np.ndarray = np.ndarray(
            dst_shape, dtype=np.uint64, buffer=dst_shm.buf
        )
        key = (src_moduli, dst_moduli[lo:hi], centered)
        conv = _WORKER_CONVS.get(key)
        if conv is None:
            from repro.rns.bconv import BaseConverter

            conv = BaseConverter(src_moduli, dst_moduli[lo:hi], centered)
            _WORKER_CONVS[key] = conv
        dst[lo:hi] = conv.convert_rows(np.array(src))
    finally:
        src_shm.close()
        dst_shm.close()


def _shards(rows: int, workers: int) -> list[tuple[int, int]]:
    """Split ``rows`` into at most ``workers`` contiguous (lo, hi) spans."""
    parts = min(workers, rows)
    bounds = np.linspace(0, rows, parts + 1).astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(parts)
        if bounds[i + 1] > bounds[i]
    ]


class ParallelBackend:
    """Shared-memory limb-parallel backend (NTT + BConv sharded)."""

    name = "parallel"

    def __init__(
        self,
        workers: int | None = None,
        min_shard_elems: int = MIN_SHARD_ELEMS,
    ) -> None:
        if workers is None:
            env = os.environ.get(WORKERS_ENV_VAR)
            workers = int(env) if env else min(os.cpu_count() or 1, 8)
        self.workers = max(1, workers)
        self.min_shard_elems = min_shard_elems
        self._numpy = NumpyBackend()
        self._pool: ProcessPoolExecutor | None = None

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=get_context("spawn")
            )
            atexit.register(self.close)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; re-opens on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _sharded(self, size: int, rows: int) -> bool:
        return self.workers > 1 and rows > 1 and size >= self.min_shard_elems

    # -- elementwise ops: in-process (memory-bound) ------------------------

    def mul(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._numpy.mul(kern, a, b)

    def add(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._numpy.add(kern, a, b)

    def keyswitch_inner(
        self,
        kern: ModulusKernel,
        ext: np.ndarray,
        b_stack: np.ndarray,
        a_stack: np.ndarray,
        b_shoup_f: np.ndarray | None = None,
        a_shoup_f: np.ndarray | None = None,
        level: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._numpy.keyswitch_inner(
            kern, ext, b_stack, a_stack, b_shoup_f, a_shoup_f, level
        )

    # -- sharded ops -------------------------------------------------------

    def _ntt_all(
        self, plan: NttPlan, limbs: np.ndarray, forward: bool
    ) -> np.ndarray:
        rows = limbs.shape[0]
        if not self._sharded(limbs.size, rows):
            if forward:
                return self._numpy.ntt_forward_all(plan, limbs)
            return self._numpy.ntt_inverse_all(plan, limbs)
        pool = self._ensure_pool()
        shm = shared_memory.SharedMemory(create=True, size=limbs.nbytes)
        try:
            mat: np.ndarray = np.ndarray(
                limbs.shape, dtype=np.uint64, buffer=shm.buf
            )
            mat[...] = limbs
            futs = [
                pool.submit(
                    _ntt_shard,
                    shm.name,
                    limbs.shape,
                    plan.degree,
                    plan.moduli,
                    lo,
                    hi,
                    forward,
                )
                for lo, hi in _shards(rows, self.workers)
            ]
            done, _ = wait(futs)
            for f in done:
                f.result()  # surface worker exceptions
            return np.array(mat)
        finally:
            shm.close()
            shm.unlink()

    def ntt_forward_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return self._ntt_all(plan, limbs, forward=True)

    def ntt_inverse_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return self._ntt_all(plan, limbs, forward=False)

    def bconv(
        self, conv: _SupportsShardedBconv, limbs: np.ndarray
    ) -> np.ndarray:
        dst_rows = len(conv.dst_moduli)
        n = limbs.shape[-1]
        if not self._sharded(dst_rows * n, dst_rows):
            return self._numpy.bconv(conv, limbs)
        pool = self._ensure_pool()
        src_shm = shared_memory.SharedMemory(create=True, size=limbs.nbytes)
        dst_nbytes = dst_rows * n * limbs.itemsize
        dst_shm = shared_memory.SharedMemory(create=True, size=dst_nbytes)
        try:
            src: np.ndarray = np.ndarray(
                limbs.shape, dtype=np.uint64, buffer=src_shm.buf
            )
            src[...] = limbs
            dst_shape = (dst_rows, n)
            futs = [
                pool.submit(
                    _bconv_shard,
                    src_shm.name,
                    dst_shm.name,
                    limbs.shape,
                    dst_shape,
                    conv.src_moduli,
                    conv.dst_moduli,
                    conv.centered,
                    lo,
                    hi,
                )
                for lo, hi in _shards(dst_rows, self.workers)
            ]
            done, _ = wait(futs)
            for f in done:
                f.result()
            dst: np.ndarray = np.ndarray(
                dst_shape, dtype=np.uint64, buffer=dst_shm.buf
            )
            return np.array(dst)
        finally:
            src_shm.close()
            src_shm.unlink()
            dst_shm.close()
            dst_shm.unlink()
