"""Dual-rail teleportation from flat space to a near-horizon observer.

Alice holds an unknown dual-rail qubit alpha |1,0> + beta |0,1> on an
input mode pair and half of a dual-rail Bell pair on an ancilla pair.
Bob's half of the Bell pair lives near the horizon, so each of his logical
basis states is the channel embedding of a photon-number state across
region I and region II (modes B1I, B1II, B2I, B2II).  Alice measures her
four modes in the dual-rail Bell basis, Bob applies the outcome's
correction unitary to his accessible region-I rails, and region II is
traced out.

The protocol runs on Schmidt vectors, not on a dense resource.  Two-mode
squeezing fixes n_I - n_II on each rail (|m, m> for the vacuum, |m+1, m>
for one photon), and each logical branch of Bob's state is a product over
his rails, so it is held as two 1-D vectors over the region-II occupation
m, each with its rail's region-I offset: a run costs O(n_max).  Alice's
input and Bell states carry one photon per dual-rail pair, so her Bell
measurement is 2x2 linear algebra: ``fock.project`` of a row of
``BELL_TABLE`` onto (alpha, beta) leaves a 2-vector on her ancilla that
weights the two branches.  The correction relabels the rails.

The post-correction fidelity against the ideal dual-rail state obeys the
closed form F = 1 / cosh^6 r for every outcome and every input; the
simulation here exists to verify that law numerically.  The dense six-mode
resource, the Fock-space Bell states and the protocol run on them are the
reference the tests hold this route to; they live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel
from .channel import SqueezeParams
from .fock import TOLERANCE, project

__all__ = [
    "DualRailQubit",
    "TeleportOutcome",
    "ProtocolRun",
    "OUTCOME_LABELS",
    "DEGENERATE_PROBABILITY",
    "BELL_TABLE",
    "run_protocol",
    "fidelity_analytic",
]

OUTCOME_LABELS = ("00", "01", "10", "11")

# The four dual-rail Bell states of Alice's input pair and her ancilla in
# the logical basis, axes (outcome, input bit, ancilla bit), in
# OUTCOME_LABELS order.  Projecting each onto the input (alpha, beta) leaves
# Bob the conditional logical amplitudes (alpha, beta), (beta, alpha),
# (alpha, -beta), (-beta, alpha), which ``_correct`` undoes.
BELL_TABLE = np.array(
    [
        [[1, 0], [0, 1]],  # (|0L 0L> + |1L 1L>) / sqrt(2)
        [[0, 1], [1, 0]],  # (|0L 1L> + |1L 0L>) / sqrt(2)
        [[1, 0], [0, -1]],  # (|0L 0L> - |1L 1L>) / sqrt(2)
        [[0, 1], [-1, 0]],  # (|0L 1L> - |1L 0L>) / sqrt(2)
    ],
    dtype=np.complex128,
) / math.sqrt(2.0)
BELL_TABLE.setflags(write=False)

# outcomes with less weight than this are flagged instead of renormalized
DEGENERATE_PROBABILITY = 1e-14

# tracemalloc peak of run_protocol per cutoff level, n_max + 1 of them:
# measured 40 bytes at n_max 10^3 to 4 10^6
_PEAK_BYTES_PER_LEVEL = 64


@dataclass(frozen=True)
class DualRailQubit:
    """Logical qubit alpha |1,0> + beta |0,1> on Alice's input pair."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm_sq - 1.0) > TOLERANCE:
            raise ValueError(f"qubit not normalized: |alpha|^2 + |beta|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class TeleportOutcome:
    """One Bell result: its probability and the post-correction fidelity.

    A probability below DEGENERATE_PROBABILITY is flagged "degenerate" and
    the fidelity reported as NaN (not applicable), never divided through.
    """

    label: str
    probability: float
    fidelity: float
    flags: tuple[str, ...] = ()


class ProtocolRun(NamedTuple):
    """One run: the outcomes in label order, their probability-weighted
    fidelity, and the truncation loss, 1 - sum of their probabilities."""

    outcomes: list[TeleportOutcome]
    fidelity: float
    loss: float


def _correct(label: str, branch, target):
    """Relabel and match: the entry of one of Bob's branches that his
    correction for ``label`` lands on region-I occupations ``target``.

    01 swaps the two rails (dual-rail bit flip), 10 puts a pi phase per
    photon on rail 2 (dual-rail phase flip), 11 swaps and then signs.  A
    corrected rail hits at region-II index m = target - offset.  Returns
    ((m1, m2), amplitude) by Bob's region-II rails, or None when an m lies
    outside 0..n_max.
    """
    if label not in OUTCOME_LABELS:
        raise ValueError(f"unknown outcome label {label!r}")
    swap = label in ("01", "11")
    (a1, offset1), (a2, offset2) = branch[::-1] if swap else branch
    m1, m2 = target[0] - offset1, target[1] - offset2
    if not (0 <= m1 < len(a1) and 0 <= m2 < len(a2)):
        return None
    amplitude = a1[m1] * a2[m2]
    if label in ("10", "11") and target[1] % 2:
        amplitude = -amplitude
    return ((m2, m1) if swap else (m1, m2)), amplitude  # region II is not swapped


def fidelity_analytic(params: SqueezeParams) -> float:
    """Closed-form post-correction fidelity 1 / cosh^6 r = (1 - tanh^2 r)^3."""
    return params.sech2_r**3


def _degenerate_outcome(label: str, probability: float) -> TeleportOutcome:
    """Outcome that (numerically) cannot occur: NaN fidelity, flagged."""
    return TeleportOutcome(
        label=label, probability=probability, fidelity=math.nan, flags=("degenerate",)
    )


def run_protocol(params: SqueezeParams, qubit: DualRailQubit, n_max: int) -> ProtocolRun:
    """Teleport ``qubit`` on Bob's Schmidt vectors at Fock cutoff ``n_max``
    (at least 1): measure, correct, score.

    Bob's logical branches, |0L> (photon on rail 1) then |1L>, are products
    of two rails, each held as (amplitudes by region-II occupation m,
    region-I offset): offset 1 on the photon rail (|m+1, m>), 0 on the
    vacuum rail (|m, m>).  The branches occupy disjoint kets, so their
    squared norms add.  For each Bell outcome, projecting its row of
    ``BELL_TABLE`` onto the input (alpha, beta) leaves a logical vector v
    on Alice's ancilla and Bob the state (conj(v0) E0 + conj(v1) E1) /
    sqrt(2); the Born probability is the projection weight times its
    squared norm.  The fidelity with region II traced out is
    F = sum_{m1,m2} |conj(alpha) psi[1,m1,0,m2] + conj(beta) psi[0,m1,1,m2]|^2
    of the corrected state psi: ``_correct`` finds each branch's entries on
    region-I occupations (1, 0) and (0, 1), added coherently by (m1, m2).

    The run loses the dual-rail tail above ``n_max``, which
    ``channel.required_cutoff`` bounds.  Time and memory are O(n_max); a
    cutoff that would not fit in physical memory raises ``ValueError``
    before any array is allocated, and a run whose outcomes are all
    degenerate, which has no average fidelity, raises it at the end.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    needed = _PEAK_BYTES_PER_LEVEL * (n_max + 1)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(
            f"cutoff {n_max} needs about {needed / 1e9:.3g} GB for Bob's state, "
            f"more than the {physical / 1e9:.3g} GB of physical memory"
        )
    zero, one = channel._schmidt_coefficients(params, n_max)
    branches = ((one, 1), (zero, 0)), ((zero, 0), (one, 1))
    branch_norms = [float(a1 @ a1) * float(a2 @ a2) for (a1, _), (a2, _) in branches]
    targets = (((1, 0), qubit.alpha.conjugate()), ((0, 1), qubit.beta.conjugate()))
    logical = np.array([qubit.alpha, qubit.beta])

    outcomes = []
    for label, bell in zip(OUTCOME_LABELS, BELL_TABLE):
        weight, v = project(bell, logical)
        scales = (v[0].conjugate() / math.sqrt(2.0), v[1].conjugate() / math.sqrt(2.0))
        norm_sq = sum(abs(c) ** 2 * n for c, n in zip(scales, branch_norms))
        probability = weight * norm_sq
        if probability < DEGENERATE_PROBABILITY:
            outcomes.append(_degenerate_outcome(label, probability))
            continue
        overlap = {}
        for scale, branch in zip(scales, branches):
            for target, conj_amp in targets:
                hit = _correct(label, branch, target)
                if hit is not None:
                    m, amplitude = hit
                    overlap[m] = overlap.get(m, 0.0) + conj_amp * scale * amplitude
        fidelity = sum(abs(c) ** 2 for c in overlap.values()) / norm_sq
        outcomes.append(TeleportOutcome(label, probability, fidelity))
    loss = 1.0 - sum(o.probability for o in outcomes)
    return ProtocolRun(outcomes, _average_fidelity(outcomes), loss)


def _average_fidelity(outcomes: list[TeleportOutcome]) -> float:
    """Probability-weighted fidelity over the non-degenerate outcomes."""
    weights = [o.probability for o in outcomes if "degenerate" not in o.flags]
    values = [o.fidelity for o in outcomes if "degenerate" not in o.flags]
    total = sum(weights)
    if total == 0.0:
        retained = sum(o.probability for o in outcomes)
        raise ValueError(
            f"all outcomes degenerate: they retain probability {retained:.3g} in all, "
            "so the cutoff truncates almost all of Bob's state; no average fidelity"
        )
    return sum(w * f for w, f in zip(weights, values)) / total
