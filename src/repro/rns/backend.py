"""Kernel backend registry: one interface, swappable execution engines.

A :class:`KernelBackend` owns the five hot operations of the RNS-CKKS
evaluator — elementwise modular mul/add over an ``(L, N)`` limb matrix,
the batched forward/inverse NTT over a precomputed
:class:`~repro.ntt.plan.NttPlan`, base conversion through a
:class:`~repro.rns.bconv.BaseConverter`, and the key-switch inner
product over the digit decomposition.  ``RingContext`` resolves a
backend once at construction (explicit argument, then the
``REPRO_KERNEL_BACKEND`` environment variable, then ``"numpy"``) and
every polynomial op dispatches through it; ``repro.serve`` picks a
backend per preset at enrollment.

Registered backends:

``numpy``
    The vectorized single-process baseline.  Uses the float-quotient
    lane (``kernels.FLOAT_QHAT_LIMIT``) for variable products and the
    fused key-switch inner product when the chain's bounds certificate
    allows it; bit-exact with the legacy per-limb paths by construction
    (canonical residues are unique).
``parallel``
    Shards the ``(L, N)`` limb matrix across a ``multiprocessing``
    shared-memory pool for the NTT and BConv; elementwise ops delegate
    to numpy (they are memory-bound).  See :mod:`repro.rns.parallel`.
``numba``
    Optional JIT backend; degrades to ``numpy`` with a warning when
    the import fails.  See :mod:`repro.rns.numba_backend`.

Every backend must be *bit-exact* with ``numpy`` — the parity suite in
``tests/test_backends.py`` enforces this across the 28/36/50/62-bit
presets, which is what makes backend choice a pure deployment knob
rather than a numerical decision.
"""

from __future__ import annotations

import importlib
import os
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.rns import kernels

if TYPE_CHECKING:
    from repro.ntt.plan import NttPlan
    from repro.rns.kernels import ModulusKernel

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
    "BACKEND_ENV_VAR",
]

BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"



class _SupportsConvertRows(Protocol):
    """Structural stand-in for BaseConverter (avoids a circular import)."""

    def convert_rows(self, limbs: np.ndarray) -> np.ndarray: ...


class KernelBackend(Protocol):
    """The pluggable execution engine behind a ``RingContext``."""

    name: str

    def mul(
        self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray: ...

    def add(
        self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray: ...

    def ntt_forward_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray: ...

    def ntt_inverse_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray: ...

    def bconv(
        self, conv: _SupportsConvertRows, limbs: np.ndarray
    ) -> np.ndarray: ...

    def keyswitch_inner(
        self,
        kern: ModulusKernel,
        ext: np.ndarray,
        b_stack: np.ndarray,
        a_stack: np.ndarray,
        b_shoup_f: np.ndarray | None = None,
        a_shoup_f: np.ndarray | None = None,
        level: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def close(self) -> None: ...


class NumpyBackend:
    """Single-process vectorized baseline (float-quotient lane where safe)."""

    name = "numpy"

    def __init__(self) -> None:
        # (D, E, N) scratch of the key-switch inner product — steady
        # state allocates nothing.
        self._scratch = kernels.ScratchPool()

    def mul(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if kern.float_ok and kern.split:
            return kern.mul_f(a, b)
        return kern.mul(a, b)

    def add(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kern.add(a, b)

    def ntt_forward_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return plan.forward_all(limbs)

    def ntt_inverse_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return plan.inverse_all(limbs)

    def bconv(self, conv: _SupportsConvertRows, limbs: np.ndarray) -> np.ndarray:
        return conv.convert_rows(limbs)

    @kernels._wrapping
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
        """``(sum_d ext_d * b_d, sum_d ext_d * a_d)`` mod the chain.

        The stacks either match ``ext``'s ``(D, E, N)`` shape or are a
        key's full-basis ``(dnum, L+K, N)`` tensors with ``level`` given:
        then ``ext``'s first ``level`` rows pair with the stacks' first
        rows and its remaining (auxiliary) rows with their last rows, so
        one table per key serves every level without a gather.

        The fused paths keep the ``D`` digit products lazy, sum them as
        plain uint64 (the gates guarantee no wraparound), and pay one
        float-Barrett reduction per output row — versus the legacy
        ``2D`` canonical multiplies plus ``2(D-1)`` modular additions.
        When the caller supplies precomputed per-element float Shoup
        quotients for the (constant) evk stacks, each digit product is a
        6-pass Shoup multiply left lazy in ``[0, 3q)`` instead of the
        ~3x more expensive variable split product.
        """
        digits, rows = ext.shape[:2]
        blocks = [(slice(None), slice(None))]  # (ext rows, stack rows)
        if level is not None and b_stack.shape[1] != rows:
            aux = b_stack.shape[1] - (rows - level)
            blocks = [(slice(0, level), slice(0, level)), (slice(level, rows), slice(aux, None))]
        if (
            b_shoup_f is not None
            and a_shoup_f is not None
            and kern.float_ok
            and digits * 3 * int(kern.q_max) < (1 << 63)
        ):
            (f,) = self._scratch.take(np.float64, ext.shape)
            qhat, r, acc = self._scratch.take(np.uint64, ext.shape, ext.shape, ext.shape[1:])
            outs = []
            for stack, shoup_f in ((b_stack, b_shoup_f), (a_stack, a_shoup_f)):
                for mine, theirs in blocks:
                    x, q = ext[:, mine], kern.q[mine]
                    f_, qhat_, r_ = f[:, mine], qhat[:, mine], r[:, mine]
                    np.multiply(x, shoup_f[:digits, theirs], out=f_)
                    np.copyto(qhat_, f_, casting="unsafe")
                    qhat_ *= q
                    np.multiply(x, stack[:digits, theirs], out=r_)
                    r_ -= qhat_
                    np.add(r_, q, out=qhat_)
                    np.minimum(r_, qhat_, out=r_)  # wrap fix: [0, 3q)
                # Unrolled digit sum, < digits*3*q < 2**63.
                if digits == 1:
                    np.copyto(acc, r[0])
                else:
                    np.add(r[0], r[1], out=acc)
                    for d in range(2, digits):
                        acc += r[d]
                outs.append(kern.reduce64_f(acc))
            return outs[0], outs[1]
        b_stack, a_stack = b_stack[:digits], a_stack[:digits]
        if len(blocks) > 1:  # wide moduli: gather the rows, the products dominate
            b_stack, a_stack = (
                np.concatenate([stack[:, theirs] for _, theirs in blocks], axis=1)
                for stack in (b_stack, a_stack)
            )
        fused = (
            kern.float_ok
            and kern.split
            and digits * 2 * int(kern.q_max) < (1 << 63)
        )
        if fused:
            t0 = kern.mul_f(ext, b_stack, lazy=True).sum(axis=0)
            t1 = kern.mul_f(ext, a_stack, lazy=True).sum(axis=0)
            return kern.reduce64_f(t0), kern.reduce64_f(t1)
        acc0 = kern.mul(ext[0], b_stack[0])
        acc1 = kern.mul(ext[0], a_stack[0])
        for d in range(1, digits):
            acc0 = kern.add(acc0, kern.mul(ext[d], b_stack[d]))
            acc1 = kern.add(acc1, kern.mul(ext[d], a_stack[d]))
        return acc0, acc1

    def close(self) -> None:
        """Nothing to release."""


_REGISTRY: dict[str, Callable[[], KernelBackend]] = {}

# Optional backends resolve lazily by module path: importing them here
# would create an import cycle (they subclass NumpyBackend from this
# module) and would pay pool/JIT import costs nobody asked for.
_LAZY: dict[str, tuple[str, str]] = {
    "parallel": ("repro.rns.parallel", "ParallelBackend"),
    "numba": ("repro.rns.numba_backend", "NumbaBackend"),
}


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend class under ``name`` (idempotent overwrite)."""
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`, registered first."""
    return tuple(dict.fromkeys((*_REGISTRY, *_LAZY)))


def get_backend(name: str) -> KernelBackend:
    """Instantiate the backend registered (or lazily loadable) as ``name``."""
    factory = _REGISTRY.get(name)
    if factory is None and name in _LAZY:
        module_name, attr = _LAZY[name]
        factory = getattr(importlib.import_module(module_name), attr)
        _REGISTRY[name] = factory
    if factory is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    backend: KernelBackend = factory()
    return backend


def resolve_backend(spec: object = None) -> KernelBackend:
    """Resolve a backend from an explicit spec, the environment, or default.

    ``spec`` may be a backend instance (returned as-is), a registered
    name, or ``None`` — in which case ``$REPRO_KERNEL_BACKEND`` is
    consulted and ``"numpy"`` is the fallback.
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or "numpy"
    if isinstance(spec, str):
        return get_backend(spec)
    if hasattr(spec, "keyswitch_inner"):
        return spec  # type: ignore[return-value]
    raise TypeError(f"backend spec must be a name or KernelBackend, got {spec!r}")


register_backend("numpy", NumpyBackend)
