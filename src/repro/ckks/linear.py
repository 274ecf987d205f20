"""Homomorphic linear transforms on slots (BSGS matrix-vector).

A complex matrix ``M`` acts on a ciphertext's slot vector as
``z -> M z`` via the diagonal method:  ``M z = sum_d diag_d(M) *
rot_d(z)``, grouped baby-step/giant-step so only ``O(sqrt(D))``
rotations are needed for ``D`` non-zero diagonals (paper S5's BSGS
subroutine — the bootstrapping phase whose ``bs``/``gs`` split SHARP
tunes to its memory capacity).

A transform *is* its diagonals; no matrix is held.  ``bs`` counts
strides (the offsets' gcd with ``n``), so a sparse stage such as a
merged butterfly group of CoeffToSlot, offsets ``t * 2^k``, still splits
into ``O(sqrt(D))`` baby and giant rotations.

R-linear maps that also involve the conjugate carry a second diagonal
set applied to ``conj(z)``; one that is round-off against the first
costs no conjugation and no rotation.  (Fully packed CoeffToSlot /
SlotToCoeff are C-linear and carry none.)

The diagonals are operands, not work: a transform compiles them into
encoded plaintexts on its first application at an operating point and
reuses them afterwards (bootstrapping applies the same two transforms
at the same point every time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.ops import Evaluator

__all__ = ["Diagonals", "LinearTransform", "bsgs_split"]

# A slot matrix as its non-zero diagonals: offset d -> diag_d.
Diagonals = dict[int, np.ndarray]

# One part of a transform, compiled: the baby rotation amounts it
# needs, and per giant step (a rotation by a multiple of ``bs``) its
# ``(baby amount, pre-rotated diagonal plaintext)`` terms.
_Part = tuple[list[int], list[tuple[int, list[tuple[int, Plaintext]]]]]


def bsgs_split(n_diagonals: int, baby: int | None = None) -> tuple[int, int]:
    """(bs, gs) split with ``bs * gs >= n_diagonals``.

    Defaults to the balanced ``bs = gs = sqrt(D)`` the paper calls the
    computational optimum; SHARP's memory-capacity-aware fine-tuning
    picks a smaller ``bs`` instead (modeled in
    :mod:`repro.analysis.bsgs`).
    """
    if baby is None:
        baby = 1 << round(math.log2(max(1.0, math.sqrt(n_diagonals))))
    baby = max(1, min(baby, n_diagonals))
    giant = math.ceil(n_diagonals / baby)
    return baby, giant


@dataclass
class LinearTransform:
    """A (possibly conjugate-carrying) slot-space linear map, held as its
    diagonals ``{d: diag_d}`` with ``diag_d[j] = M[j, (j + d) % n]``."""

    diagonals: Diagonals  # applied to z
    conj_diagonals: Diagonals | None = None  # applied to conj(z)
    baby_steps: int | None = None  # in units of the offsets' stride
    # The one compiled plan: (operating point, per part: baby amounts and
    # giant steps of (baby, plaintext) terms).  Replaced when the point
    # changes, so a transform holds one plaintext per diagonal.
    _compiled: tuple[Any, list[_Part]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        parts = [self.diagonals, self.conj_diagonals or {}]
        sizes = {len(v) for part in parts for v in part.values()}
        if len(sizes) != 1:
            raise ValueError("diagonals must be non-empty vectors of one length")
        (self.size,) = sizes
        # One cut for the whole transform: a diagonal (or a whole part)
        # that is round-off against the largest entry is dropped.
        cut = 1e-14 * max(np.max(np.abs(v)) for part in parts for v in part.values())
        self.diagonals, conj = [
            {d % self.size: np.asarray(v, dtype=np.complex128)
             for d, v in part.items() if np.max(np.abs(v)) > cut}
            for part in parts
        ]  # fmt: skip
        self.conj_diagonals = conj or None

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, conj: np.ndarray | None = None, baby_steps: int | None = None
    ) -> LinearTransform:
        """The transform of a dense square ``matrix`` (and conjugate part)."""
        if np.ndim(matrix) != 2 or len(matrix) != len(matrix[0]):
            raise ValueError("matrix must be square")
        j = np.arange(len(matrix))

        def diagonals(a: np.ndarray) -> Diagonals:
            return {d: np.asarray(a)[j, (j + d) % len(j)] for d in range(len(j))}

        return cls(diagonals(matrix), None if conj is None else diagonals(conj), baby_steps)

    def reference_apply(self, z: np.ndarray) -> np.ndarray:
        parts = ((self.diagonals, z), (self.conj_diagonals or {}, np.conj(z)))
        terms = (v * np.roll(x, -d) for diags, x in parts for d, v in diags.items())
        return sum(terms, np.zeros(self.size, dtype=np.complex128))

    def baby_step(self) -> int:
        """``bs`` in slots: a count of strides, the offsets' gcd with ``n``."""
        offsets = {*self.diagonals, *(self.conj_diagonals or {})}
        stride = math.gcd(self.size, *offsets)
        return stride * (self.baby_steps or bsgs_split(len(offsets))[0])

    # -- homomorphic application -----------------------------------------------------

    def apply(
        self, ev: Evaluator, ct: Ciphertext, output_scale: float | None = None
    ) -> Ciphertext:
        """Evaluate the transform; consumes exactly one level.

        ``output_scale`` sets the exact scale of the result (default:
        the input's scale).  Bootstrapping uses this to move a
        ciphertext between the normal working scale and the larger
        EvalMod scale: the diagonal plaintexts are encoded at whatever
        scale makes the post-rescale result land exactly there.
        """
        if ev.params.slots != self.size:
            raise ValueError("transform size must equal the slot count")
        target_scale = output_scale if output_scale is not None else ct.scale
        point = (ev.context, ct.level, ct.scale, target_scale)
        if self._compiled is None or self._compiled[0] != point:
            self._compiled = (point, self._compile(ev, ct, target_scale))
        # Giant step -> every (baby ciphertext, diagonal) term of both
        # parts that its rotation carries into place.
        groups: dict[int, tuple[list[Ciphertext], list[Plaintext]]] = {}
        for conj, (babies, giants) in zip((False, True), self._compiled[1]):
            if not giants:  # no (or a round-off) part: no work
                continue
            base = ev.conjugate(ct) if conj else ct
            # Baby rotations rot_j(base) share base's one decomposition.
            baby_cts = {j: ev.rotate(base, j) for j in babies}
            for shift, terms in giants:
                cts, pts = groups.setdefault(shift, ([], []))
                cts.extend(baby_cts[j] for j, _ in terms)
                pts.extend(pt for _, pt in terms)
        if not groups:
            raise ValueError("transform is numerically zero")
        # One multiply-accumulate per giant step, one ModDown for all
        # the giant rotations, one rescale for the stage.
        sums = (ev.multiply_plain_sum(cts, pts) for cts, pts in groups.values())
        out = ev.rescale(ev.rotate_sum(sums, groups))
        return Ciphertext(out.c0, out.c1, out.level, target_scale)

    def _compile(self, ev: Evaluator, ct: Ciphertext, target_scale: float) -> list[_Part]:
        """Encode the diagonals for ``ct``'s operating point."""
        # Rotations keep level and scale, so every baby shares ct's.
        pt_scale = target_scale * ev.params.step_at(ct.level).scale / ct.scale
        bs = self.baby_step()
        parts: list[_Part] = []
        for diags in (self.diagonals, self.conj_diagonals or {}):
            giants: dict[int, list[tuple[int, Plaintext]]] = {}
            for d in sorted(diags):
                # Pre-rotate each diagonal so the outer rotation by its
                # giant shift lands it in place.
                shift = d - d % bs
                pt = ev.context.encode(np.roll(diags[d], shift), level=ct.level, scale=pt_scale)
                giants.setdefault(shift, []).append((d % bs, pt))
            parts.append((sorted({d % bs for d in diags}), list(giants.items())))
        return parts
