"""NTT-friendly RNS prime search.

CKKS with RNS needs primes satisfying ``q = 1 mod 2N`` (paper Eq. 3) so
that a primitive ``2N``-th root of unity exists for the negacyclic NTT.
Rescaling additionally wants each rescale step to divide by (a product
of) primes *close to the scale* Delta.

Two realizations exist (paper S3.1):

* **Single-prime scaling (SS)** — one prime per rescale, near Delta.
* **Double-prime scaling (DS)** — two primes per rescale whose
  *product* is near Delta, used when Delta does not fit the word.

Prime availability is the crux of observation (3): numbers of the form
``k * 2N + 1`` are sparse near small targets, so at ``N = 2**16`` there
are essentially no usable primes below ~2**23 and DS cannot realize
scales below ~2**47 — which is why Set_28 / Set_32 are forced to
wastefully large normal scales.  The searches below surface that
scarcity as an explicit :class:`PrimeScarcityError` instead of baking
the paper's conclusion in.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.rns.modmath import is_probable_prime

__all__ = [
    "PrimeScarcityError",
    "find_ntt_primes",
    "find_ss_primes",
    "find_ds_pairs",
    "find_aux_primes",
    "max_scale_bits",
    "level_width",
    "realize_levels",
    "min_ds_scale_bits",
    "relative_deviation",
    "MAX_SS_DEVIATION",
    "MAX_DS_PRODUCT_DEVIATION",
]

# An SS prime is usable when within +-30% of the scale; a DS *product*
# must be within +-10% (its two factors may individually stray further,
# pairing a smaller prime with a compensating larger one).
MAX_SS_DEVIATION = 0.30
MAX_DS_PRODUCT_DEVIATION = 0.10


class PrimeScarcityError(ValueError):
    """Raised when not enough NTT-friendly primes exist near a target."""


def relative_deviation(value: float, target: float) -> float:
    """``|value - target| / target`` — distance from the scale."""
    return abs(value - target) / target


def max_scale_bits(word_bits: int, double: bool = False) -> int:
    """The fit rule (S3.1): the widest scale one level realizes on
    ``word_bits``-bit words.

    A single prime near ``2**s`` fits the word when ``s + 1 <= word``
    (SS); a pair of primes, each below ``2**word``, reaches
    ``s <= 2 * word - 1`` (DS).
    """
    return 2 * word_bits - 1 if double else word_bits - 1


def level_width(scale_bits: float, word_bits: int) -> int:
    """Primes per level of a ``scale_bits`` scale on ``word_bits``-bit
    words: 1 (SS) when one prime fits, 2 (DS) when only a pair does, 0
    when the scale is not realizable at all."""
    if scale_bits <= max_scale_bits(word_bits):
        return 1
    if scale_bits <= max_scale_bits(word_bits, double=True):
        return 2
    return 0


def find_ntt_primes(
    two_n: int,
    target: float,
    count: int,
    max_value: int,
    min_value: int = 3,
    exclude: set[int] | None = None,
    max_deviation: float | None = None,
) -> list[int]:
    """Find ``count`` primes ``= 1 mod two_n`` nearest to ``target``.

    Candidates ``k * two_n + 1`` are explored outward from the target
    (alternating above/below).  Primes outside ``[min_value, max_value]``
    or farther than ``max_deviation`` from the target are skipped; a
    :class:`PrimeScarcityError` is raised when the window is exhausted.

    Returns the primes sorted ascending.
    """
    if count <= 0:
        return []
    exclude = exclude or set()
    base_k = max(1, round((target - 1) / two_n))
    found: list[int] = []

    def try_k(k: int) -> None:
        if k < 1:
            return
        cand = k * two_n + 1
        if cand < min_value or cand > max_value or cand in exclude:
            return
        if max_deviation is not None and relative_deviation(cand, target) > max_deviation:
            return
        if is_probable_prime(cand):
            found.append(cand)

    lo_k = max(1, min_value // two_n)
    hi_k = max_value // two_n
    if max_deviation is not None:
        lo_k = max(lo_k, int(target * (1 - max_deviation)) // two_n)
        hi_k = min(hi_k, int(target * (1 + max_deviation)) // two_n + 1)

    try_k(base_k)
    offset = 1
    max_offset = max(base_k - lo_k, hi_k - base_k) + 1
    while len(found) < count and offset <= max_offset:
        try_k(base_k + offset)
        if len(found) < count:
            try_k(base_k - offset)
        offset += 1

    if len(found) < count:
        raise PrimeScarcityError(
            f"only {len(found)} NTT primes (mod {two_n}) near {target:.4g} "
            f"within [{min_value}, {max_value}], needed {count}"
        )
    found.sort(key=lambda p: abs(p - target))
    return sorted(found[:count])


def find_ss_primes(
    two_n: int,
    scale_bits: float,
    count: int,
    word_bits: int,
    exclude: set[int] | None = None,
) -> list[int]:
    """Single-prime-scaling primes near ``2**scale_bits`` fitting the word."""
    target = 2.0 ** scale_bits
    max_value = (1 << word_bits) - 1
    if target * (1.0 - MAX_SS_DEVIATION) > max_value:
        raise PrimeScarcityError(
            f"scale 2^{scale_bits:g} cannot fit a {word_bits}-bit word"
        )
    return find_ntt_primes(
        two_n,
        target,
        count,
        max_value=max_value,
        exclude=exclude,
        max_deviation=MAX_SS_DEVIATION,
    )


def _small_side_pool(
    two_n: int, scale_bits: float, word_bits: int, exclude: set[int]
) -> Iterator[int]:
    """The NTT primes at or below sqrt(scale), descending (largest first).

    Every DS pair must have one factor <= sqrt(Delta), so the size of
    this pool bounds the number of distinct DS levels a scale supports.
    Lazy: :func:`find_ds_pairs` stops at its first ``num_pairs`` matches,
    a handful of primes into a pool of millions at a 68-bit scale.
    """
    sqrt_target = 2.0 ** (scale_bits / 2.0)
    limit = min(int(sqrt_target), (1 << word_bits) - 1)
    for k in range(limit // two_n, 0, -1):
        cand = k * two_n + 1
        if cand <= limit and cand not in exclude and is_probable_prime(cand):
            yield cand


def find_ds_pairs(
    two_n: int,
    scale_bits: float,
    num_pairs: int,
    word_bits: int,
    exclude: set[int] | None = None,
) -> list[tuple[int, int]]:
    """Double-prime-scaling pairs ``(a, b)`` with ``a * b ~ 2**scale_bits``.

    Pairs are built by walking the small-side pool downward from
    sqrt(Delta) and matching each small prime with the nearest distinct
    partner so the product lands within ``MAX_DS_PRODUCT_DEVIATION`` of
    the scale.  Both factors must fit the word.  Raises
    :class:`PrimeScarcityError` when fewer than ``num_pairs`` pairs
    exist — the mechanism behind the paper's ">= 2^47 normal scale for
    Set_28/Set_32" finding.
    """
    if num_pairs <= 0:
        return []
    exclude = set(exclude or set())
    target = 2.0 ** scale_bits
    max_word_value = (1 << word_bits) - 1
    pool = _small_side_pool(two_n, scale_bits, word_bits, exclude)
    pairs: list[tuple[int, int]] = []
    used = set(exclude)
    for small in pool:
        if small in used:
            continue
        partner_target = target / small
        if partner_target > max_word_value:
            continue
        try:
            (big,) = find_ntt_primes(
                two_n,
                partner_target,
                1,
                max_value=max_word_value,
                exclude=used | {small},
                max_deviation=MAX_DS_PRODUCT_DEVIATION,
            )
        except PrimeScarcityError:
            continue
        if relative_deviation(small * big, target) > MAX_DS_PRODUCT_DEVIATION:
            continue
        pairs.append((small, big))
        used.add(small)
        used.add(big)
        if len(pairs) == num_pairs:
            break
    if len(pairs) < num_pairs:
        raise PrimeScarcityError(
            f"only {len(pairs)} DS pairs for scale 2^{scale_bits:g} on "
            f"{word_bits}-bit words (mod {two_n}), needed {num_pairs}"
        )
    return pairs


def realize_levels(
    two_n: int,
    scale_bits: float,
    count: int,
    word_bits: int,
    exclude: set[int],
    force_ds: bool = False,
) -> list[tuple[int, ...]]:
    """Realize ``count`` rescaling levels of one scale: single primes (SS)
    when the scale fits the word and enough primes exist near it, prime
    pairs (DS) otherwise or when ``force_ds``.  The chosen primes join
    ``exclude``."""
    levels: list[tuple[int, ...]] | None = None
    if not force_ds and level_width(scale_bits, word_bits) == 1:
        try:
            primes = find_ss_primes(two_n, scale_bits, count, word_bits, exclude=exclude)
            levels = [(p,) for p in primes]
        except PrimeScarcityError:
            pass  # not enough single primes near the scale: pair up
    if levels is None:
        levels = list(find_ds_pairs(two_n, scale_bits, count, word_bits, exclude=exclude))
    for level in levels:
        exclude.update(level)
    return levels


def min_ds_scale_bits(two_n: int, num_pairs: int, word_bits: int) -> int:
    """Smallest integer scale in [30, 64] bits DS can realize with
    ``num_pairs`` levels.

    Linear scan — the supportability predicate is monotone in practice
    but cheap enough not to need bisection.
    """
    for bits in range(30, 65):
        try:
            find_ds_pairs(two_n, float(bits), num_pairs, word_bits)
            return bits
        except PrimeScarcityError:
            continue
    raise PrimeScarcityError(
        f"no DS-supportable scale in [30, 64] bits for "
        f"{num_pairs} pairs on {word_bits}-bit words"
    )


def find_aux_primes(
    two_n: int,
    count: int,
    min_value: int,
    word_bits: int,
) -> list[int]:
    """The ``p_i`` auxiliary primes: smallest NTT primes above ``min_value``.

    Key-switching requires every ``p_i > max(q_i)`` (paper S2.2);
    choosing the *smallest* such primes maximizes the budget left for
    ``Q``.  This is how Set_36 (max q_i ~ 2^35) reaches L_eff = 8 while
    Set_64 (max q_i ~ 2^62, hence p_i ~ 2^62) is stuck at 7.
    """
    max_value = (1 << word_bits) - 1
    if min_value >= max_value:
        raise PrimeScarcityError(
            f"p_i must exceed {min_value} but the {word_bits}-bit word caps at {max_value}"
        )
    found: list[int] = []
    k = min_value // two_n + 1
    limit_k = max_value // two_n
    while len(found) < count and k <= limit_k:
        cand = k * two_n + 1
        if cand > min_value and is_probable_prime(cand):
            found.append(cand)
        k += 1
    if len(found) < count:
        raise PrimeScarcityError(
            f"only {len(found)} aux primes in ({min_value}, {max_value}], needed {count}"
        )
    return found
