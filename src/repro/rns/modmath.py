"""Scalar number theory for the RNS primes: modular inverse, a primality
test, primitive roots and roots of unity (NTT twiddles, RNS base
conversion, the prime search).

The modular multipliers of SHARP's datapath (paper Fig. 2(a): general,
Montgomery and Barrett) are priced in :mod:`repro.core.alu_model`; the
vectorized kernels that run are in :mod:`repro.rns.kernels`, and their
overflow bounds are proven in :mod:`repro.check.bounds`.
"""

from __future__ import annotations

__all__ = [
    "mod_inverse",
    "is_probable_prime",
    "find_primitive_root",
    "nth_root_of_unity",
]


def mod_inverse(value: int, modulus: int) -> int:
    """Multiplicative inverse of ``value`` modulo a prime ``modulus``.

    Raises ``ValueError`` when the inverse does not exist.
    """
    value %= modulus
    if value == 0:
        raise ValueError("0 has no modular inverse")
    inv = pow(value, -1, modulus)
    return inv


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish integers.

    The witness set below is sufficient for all ``n < 3.3e24``, which
    covers every RNS prime any word-length setting (28..64 bits) can
    produce.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of ``n`` by trial division + recursion."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def find_primitive_root(prime: int) -> int:
    """Smallest primitive root (generator) of ``Z_prime``."""
    if prime == 2:
        return 1
    order = prime - 1
    factors = _factorize(order)
    candidate = 2
    while True:
        if all(pow(candidate, order // f, prime) != 1 for f in factors):
            return candidate
        candidate += 1


def nth_root_of_unity(n: int, prime: int) -> int:
    """A primitive ``n``-th root of unity modulo ``prime``.

    Requires ``prime = 1 mod n`` (Eq. 3 in the paper, with ``n = 2N``).
    """
    if (prime - 1) % n != 0:
        raise ValueError(f"{prime} != 1 mod {n}; no primitive {n}-th root exists")
    g = find_primitive_root(prime)
    root = pow(g, (prime - 1) // n, prime)
    # g is a generator, so root has exact order n; assert the primitive half.
    if pow(root, n // 2, prime) == 1:
        raise ArithmeticError("root is not primitive")  # pragma: no cover
    return root
