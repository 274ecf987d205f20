"""Homomorphic linear transforms on slots (BSGS matrix-vector).

A complex matrix ``M`` acts on a ciphertext's slot vector as
``z -> M z`` via the diagonal method:  ``M z = sum_d diag_d(M) *
rot_d(z)``, grouped baby-step/giant-step so only ``O(sqrt(n))``
rotations are needed (paper S5's BSGS subroutine — the bootstrapping
phase whose ``bs``/``gs`` split SHARP tunes to its memory capacity).

R-linear maps that also involve the conjugate carry a second matrix
applied to ``conj(z)``; one that is round-off against the first costs
no conjugation and no rotation.  (Fully packed CoeffToSlot /
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

__all__ = ["LinearTransform", "bsgs_split"]

# One matrix of a transform, compiled: the baby rotation amounts it
# needs, and per giant step ``i`` (rotation ``i * bs``) its
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
    """A (possibly conjugate-carrying) slot-space linear map."""

    matrix: np.ndarray  # applied to z
    conj_matrix: np.ndarray | None = None  # applied to conj(z)
    baby_steps: int | None = None
    # The one compiled plan: (operating point, per part: baby amounts and
    # giant steps of (baby, plaintext) terms).  Replaced when the point
    # changes, so a transform holds at most 2n plaintexts.
    _compiled: tuple[Any, list[_Part]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = m
        if self.conj_matrix is not None:
            c = np.asarray(self.conj_matrix, dtype=np.complex128)
            if c.shape != m.shape:
                raise ValueError("conjugate matrix shape mismatch")
            self.conj_matrix = c

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def reference_apply(self, z: np.ndarray) -> np.ndarray:
        out = self.matrix @ z
        if self.conj_matrix is not None:
            out = out + self.conj_matrix @ np.conj(z)
        return out

    # -- diagonal extraction ------------------------------------------------------

    @staticmethod
    def _diagonals(matrix: np.ndarray, tol: float = 0.0) -> dict[int, np.ndarray]:
        n = matrix.shape[0]
        j = np.arange(n)
        out = {}
        for d in range(n):
            diag = matrix[j, (j + d) % n]
            if tol == 0.0 or np.max(np.abs(diag)) > tol:
                out[d] = diag
        return out

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
        n = self.size
        if ev.params.slots != n:
            raise ValueError("transform size must equal the slot count")
        target_scale = output_scale if output_scale is not None else ct.scale
        bs, gs = bsgs_split(n, self.baby_steps)
        point = (ev.context, ct.level, ct.scale, target_scale, bs)
        if self._compiled is None or self._compiled[0] != point:
            self._compiled = (point, self._compile(ev, ct, target_scale, bs, gs))
        # Giant step -> every (baby ciphertext, diagonal) term of both
        # matrices that its rotation carries into place.
        groups: dict[int, tuple[list[Ciphertext], list[Plaintext]]] = {}
        for conj, (babies, giants) in zip((False, True), self._compiled[1]):
            if not giants:  # round-off against the other part: no work
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

    def _compile(
        self, ev: Evaluator, ct: Ciphertext, target_scale: float, bs: int, gs: int
    ) -> list[_Part]:
        """Extract the diagonals and encode them for ``ct``'s operating point."""
        # Rotations keep level and scale, so every baby shares ct's.
        pt_scale = target_scale * ev.params.step_at(ct.level).scale / ct.scale
        matrices = [self.matrix]
        if self.conj_matrix is not None:
            matrices.append(self.conj_matrix)
        # One cut for the whole transform: a part that is round-off
        # against the other compiles to no terms.
        scale_cut = 1e-14 * (max(np.max(np.abs(m)) for m in matrices) + 1e-300)
        parts: list[_Part] = []
        for matrix in matrices:
            diags = self._diagonals(matrix, tol=scale_cut)
            giants = []
            for i in range(gs):
                # Pre-rotate each diagonal so the outer rotation by
                # i*bs lands it in place.
                terms = [
                    (j, ev.context.encode(
                        np.roll(diags[i * bs + j], i * bs), level=ct.level, scale=pt_scale
                    ))
                    for j in range(bs)
                    if i * bs + j in diags
                ]
                if terms:
                    giants.append((i * bs, terms))
            parts.append((sorted({d % bs for d in diags}), giants))
        return parts
