"""Python-integer reference for the RNS engine.

Every arithmetic step runs on Python ``int`` / ``Fraction`` (object
arrays are Python ints, vectorised), sharing no kernel, table or
converter with the code under test.  Only the transforms go through
``NttChain``, which ``test_kernels_exact.py`` holds to :func:`ntt_oracle`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np

from repro.ntt.reference import NttChain, NttContext


def crt(residues, moduli) -> int:
    """The integer in ``[0, prod(moduli))`` with the given residues."""
    big = prod(moduli)
    return sum(int(r) * (big // q) * pow(big // q, -1, q) for r, q in zip(residues, moduli)) % big


def bconv_oracle(src, dst, limbs, columns=None) -> np.ndarray:
    """Centered HPS base conversion of the chosen columns: the overflow count is subtracted."""
    big = prod(src)
    inverses = [pow(big // q % q, -1, q) for q in src]
    columns = range(limbs.shape[1]) if columns is None else columns
    out = np.empty((len(dst), len(columns)), dtype=np.uint64)
    for k, column in enumerate(columns):
        y = [int(limbs[i, column]) * inv % q for i, (q, inv) in enumerate(zip(src, inverses))]
        total = sum(yi * (big // q) for yi, q in zip(y, src))
        total -= round(sum(Fraction(yi, q) for yi, q in zip(y, src))) * big
        out[:, k] = [total % p for p in dst]
    return out


def ntt_oracle(context: NttContext, coeffs, slot: int) -> int:
    """Evaluation at ``psi**(2*slot + 1)`` (Horner)."""
    q = context.modulus
    point = pow(context.psi, 2 * slot + 1, q)
    acc = 0
    for c in coeffs[::-1]:
        acc = (acc * point + int(c)) % q
    return acc


_context = lru_cache(maxsize=None)(NttContext)  # (degree, q): the root search is slow at 62 bits


def _chain(degree: int, moduli) -> NttChain:
    return NttChain([_context(degree, q) for q in moduli])


def _ntt(rows, moduli) -> np.ndarray:
    return _chain(rows.shape[1], moduli).forward_all(rows.astype(np.uint64))


def _intt(rows, moduli) -> np.ndarray:
    return _chain(rows.shape[1], moduli).inverse_all(rows.astype(np.uint64))


def _column(values) -> np.ndarray:
    return np.array([int(v) for v in values], dtype=object).reshape(-1, 1)


def decompose_oracle(params, poly) -> np.ndarray:
    """ModUp of an NTT-form ``poly``: each digit's own rows, BConv to the rest of ``C + P``."""
    active = poly.moduli
    target = active + params.aux_primes
    coeff = _intt(poly.limbs, active)
    ext = []
    for start, stop in params.digit_spans():
        if start >= len(active):
            break
        stop = min(stop, len(active))
        rest = [i for i in range(len(target)) if not start <= i < stop]
        rows = np.empty((len(target), coeff.shape[1]), dtype=np.uint64)
        rows[start:stop] = coeff[start:stop]
        rows[rest] = bconv_oracle(active[start:stop], [target[i] for i in rest], coeff[start:stop])
        ext.append(_ntt(rows, target))
    return np.stack(ext)


def switch_oracle(params, poly, evk) -> tuple[np.ndarray, np.ndarray]:
    """Digit split -> BConv -> inner product mod each prime of ``C + P`` -> ModDown."""
    return _inner_mod_down(params, poly.moduli, decompose_oracle(params, poly), evk)


def rotate_oracle(params, ct, galois: int, evk) -> tuple[np.ndarray, np.ndarray]:
    """``(c0, c1)`` of the rotation: decompose ``c1`` first, then permute the digits' lanes.

    In evaluation form ``X -> X**galois`` sends lane ``k`` the value at
    ``psi**((2k + 1) * galois)``, i.e. input lane ``((2k + 1) * galois mod 2N - 1) / 2``.
    """
    n = params.degree
    perm = [((2 * k + 1) * galois % (2 * n) - 1) // 2 for k in range(n)]
    u0, u1 = _inner_mod_down(params, ct.moduli, decompose_oracle(params, ct.c1)[:, :, perm], evk)
    c0 = (ct.c0.limbs[:, perm].astype(object) + u0) % _column(ct.moduli)
    return c0.astype(np.uint64), u1


def _inner_mod_down(params, active, ext, evk) -> tuple[np.ndarray, np.ndarray]:
    """Inner product of the extended digits with ``evk``, then the division by ``P``."""
    aux = params.aux_primes
    total = len(params.q_primes)
    keep = [*range(len(active)), *range(total, total + len(aux))]
    ext = ext.astype(object)
    p_inv = _column(pow(prod(aux), -1, q) for q in active)
    out = []
    for key in (evk.b, evk.a):
        acc = (ext * key[: len(ext), keep].astype(object)).sum(axis=0) % _column(active + aux)
        p_coeff = _intt(acc[len(active) :], aux)
        corr = _ntt(bconv_oracle(aux, active, p_coeff), active).astype(object)
        out.append(((acc[: len(active)] - corr) * p_inv % _column(active)).astype(np.uint64))
    return out[0], out[1]


def rescale_oracle(poly, count: int) -> np.ndarray:
    """``(x - [x]_drop) / drop`` with ``[.]`` centered; ``drop`` is the last prime (SS) or pair (DS)."""
    keep, dropped = poly.moduli[:-count], poly.moduli[-count:]
    drop = prod(dropped)
    tail = [crt(column, dropped) for column in _intt(poly.limbs[-count:], dropped).T]
    centered = [x - drop if x > drop // 2 else x for x in tail]
    corr = _ntt(np.array([[x % q for x in centered] for q in keep], dtype=np.uint64), keep)
    inv = _column(pow(drop, -1, q) for q in keep)
    head = poly.limbs[:-count].astype(object)
    return ((head - corr.astype(object)) * inv % _column(keep)).astype(np.uint64)
