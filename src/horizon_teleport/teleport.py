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
m, each with its rail's region-I offset: a run costs O(n_max) time.
Alice's input and Bell states carry one photon per dual-rail pair, so her
Bell measurement is 2x2 linear algebra: ``fock.project`` of a row of
``BELL_TABLE`` onto (alpha, beta) leaves a 2-vector on her ancilla that
weights the two branches.  The correction relabels the rails, so each
corrected branch meets the ideal state on one entry only: where region II
is empty.  Numpy holds Bob's vectors, one block of levels at a time, and
takes their squared norms, and holds Alice's input for ``fock.project``;
the rest of a run, a few scalars per outcome, is Python float and complex
arithmetic.  ``BELL_TABLE`` is Python complex numbers, so this module
loads numpy only when a run does, and the closed form never does.

Alice's half of a run depends on the input qubit alone, so it is computed
once per ``DualRailQubit``, on the first run that reads it, and kept with
the qubit: a sweep that runs one probe at every grid point projects it four
times in all.  Every run, first or not, reads the same stored numbers, so
its output does not depend on what ran before.

The post-correction fidelity against the ideal dual-rail state obeys the
closed form F = 1 / cosh^6 r for every outcome and every input; the
simulation here exists to verify that law numerically.  The tests hold this
route to a dense reference in ``tests/oracles.py``: the six-mode resource,
its rails built by the two-mode squeezer and not from ``channel``'s closed
forms, the Fock-space Bell states and the protocol run on them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import channel
from .channel import SqueezeParams
from .fock import project

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

# a Bell row's 1 / sqrt(2) as a factor, for the table and Alice's scales:
# a multiply by the reciprocal, as numpy divides a complex by a real, where
# Python's complex division rounds apart; the printed digits are those of
# the multiply
_SQRT_HALF = 1.0 / math.sqrt(2.0)

# The four dual-rail Bell states of Alice's input pair and her ancilla in
# the logical basis, axes (outcome, input bit, ancilla bit), in
# OUTCOME_LABELS order, as nested tuples of Python complex numbers.
# Projecting each onto the input (alpha, beta) leaves Bob the conditional
# logical amplitudes (alpha, beta), (beta, alpha), (alpha, -beta),
# (-beta, alpha), which Bob's correction undoes.
BELL_TABLE = tuple(
    tuple(tuple(complex(entry * _SQRT_HALF) for entry in row) for row in bell)
    for bell in (
        ((1, 0), (0, 1)),  # (|0L 0L> + |1L 1L>) / sqrt(2)
        ((0, 1), (1, 0)),  # (|0L 1L> + |1L 0L>) / sqrt(2)
        ((1, 0), (0, -1)),  # (|0L 0L> - |1L 1L>) / sqrt(2)
        ((0, 1), (-1, 0)),  # (|0L 1L> - |1L 0L>) / sqrt(2)
    )
)
# each outcome with its Bell row and Bob's correction: 01 swaps the rails
# (dual-rail bit flip), 10 puts a pi phase per photon on rail 2 (phase
# flip), 11 signs and then swaps (Z then X, which is X then Z times -1)
_BELL_ROWS = tuple(
    zip(OUTCOME_LABELS, BELL_TABLE, (False, True, False, True), (False, False, True, True))
)

# a run raises when each outcome carries less weight than this, instead of
# renormalizing: its cutoff has truncated almost all of Bob's state
DEGENERATE_PROBABILITY = 1e-14

# numerical slack of the check on a qubit's norm
TOLERANCE = 1e-10


@dataclass(frozen=True)
class DualRailQubit:
    """Logical qubit alpha |1,0> + beta |0,1> on Alice's input pair."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm_sq - 1.0) <= TOLERANCE:  # NaN fails it too
            raise ValueError(f"qubit not normalized: |alpha|^2 + |beta|^2 = {norm_sq!r}")

    @functools.cached_property
    def _bell_terms(self) -> tuple:
        """Alice's half of every run on this input, in ``_BELL_ROWS`` order.

        Per outcome: (label, projection weight, |s0|^2, |s1|^2, product0,
        product1), where v is what ``project`` of the Bell row onto
        (alpha, beta) leaves on the ancilla, s_k = conj(v_k) / sqrt(2)
        weights Bob's branch k, and product_k is s_k times the target,
        conj(alpha) or conj(beta), of logical bit k ^ swap.  Where the
        outcome signs, product1 is negated: the sign lands on branch 1
        before the swap, Z then X, which differs from X then Z by a global
        phase of -1 that no probability or fidelity can see.  Built on
        first read, inside ``run_protocol``, and kept with the qubit.  Two
        threads that read it first at once may both build it; they compute
        the same values, so either copy serves.
        """
        import numpy as np

        targets = self.alpha.conjugate(), self.beta.conjugate()
        logical = np.array([self.alpha, self.beta])
        rows = []
        for label, bell, swap, sign in _BELL_ROWS:
            weight, v = project(bell, logical)
            v0, v1 = v.tolist()
            s0, s1 = v0.conjugate() * _SQRT_HALF, v1.conjugate() * _SQRT_HALF
            product1 = targets[not swap] * s1
            if sign:
                product1 = -product1
            rows.append((label, weight, abs(s0) ** 2, abs(s1) ** 2, targets[swap] * s0, product1))
        return tuple(rows)


class TeleportOutcome(NamedTuple):
    """One Bell result: its probability and the post-correction fidelity.

    ``flags`` is always "": every outcome carries a quarter of the retained
    weight, so a run either scores all four or raises.  The field stays
    because it is a column of the ``simulate`` table.
    """

    label: str
    probability: float
    fidelity: float
    flags: str = ""


class ProtocolRun(NamedTuple):
    """One run: the outcomes in label order, their probability-weighted
    fidelity, and the truncation loss, 1 - sum of their probabilities."""

    outcomes: list[TeleportOutcome]
    fidelity: float
    loss: float


def fidelity_analytic(params: SqueezeParams) -> float:
    """Closed-form post-correction fidelity 1 / cosh^6 r = (1 - tanh^2 r)^3."""
    return params.sech2_r**3


def run_protocol(params: SqueezeParams, qubit: DualRailQubit, n_max: int) -> ProtocolRun:
    """Teleport ``qubit`` on Bob's Schmidt vectors at Fock cutoff ``n_max``
    (at least 1): measure, correct, score.

    Bob's logical branches, |0L> (photon on rail 1) then |1L>, are products
    of two rails, each held as (amplitudes by region-II occupation m,
    region-I offset): offset 1 on the photon rail (|m+1, m>), 0 on the
    vacuum rail (|m, m>).  The branches occupy disjoint kets, so their
    squared norms add, and each is the product of the rails' squared norms.
    For each Bell outcome, projecting its row of ``BELL_TABLE`` onto the
    input (alpha, beta) leaves a logical vector v on Alice's ancilla and Bob
    the state (conj(v0) E0 + conj(v1) E1) / sqrt(2); the Born probability
    is the projection weight times its squared norm.  The fidelity with
    region II traced out is
    F = sum_{m1,m2} |conj(alpha) psi[1,m1,0,m2] + conj(beta) psi[0,m1,1,m2]|^2
    of the corrected state psi.  A corrected rail sits at region-I
    occupation m + offset, and each target, (1, 0) or (0, 1), has a 0 on
    one rail, so a branch meets only the target whose 1 is on its photon
    rail, and only at (m1, m2) = (0, 0): branch k lands on logical bit
    k ^ swap with amplitude one[0] * zero[0], and where the outcome signs,
    branch 1 carries the sign.  The sum has one term.

    Numpy does the O(n_max) work in ``channel._schmidt_norms``: the Schmidt
    vectors and their two squared norms.  The rest, per outcome a few
    scales, products and moduli, runs on Python floats and complex numbers,
    which skips numpy's per-call overhead and rounds exactly as numpy
    scalars do.  The part that reads only the input (each outcome's
    projection weight, |scale_k|^2 and the target-times-scale products) is
    computed once per qubit, by its first run, and reused by later runs on
    that qubit.  It is built lazily, not when the qubit is made, so the
    projections run inside a run, where a profile charges them, and a qubit
    that never runs costs nothing.

    The run loses the dual-rail tail above ``n_max``, which
    ``channel.required_cutoff`` bounds.  Time is O(n_max), memory at most
    about 200 KB; a cutoff above ``channel.CUTOFF_LIMIT`` raises
    ``ValueError`` before any work.  Each row of ``BELL_TABLE`` is unitary
    over sqrt(2), so every outcome's probability is a quarter of the
    retained weight; when they fall below ``DEGENERATE_PROBABILITY`` the
    cutoff has cut away almost all of Bob's state, and the run raises
    ``ValueError`` at the end instead of returning an average.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    if n_max > channel.CUTOFF_LIMIT:
        raise ValueError(f"cutoff {n_max} is above the limit of {channel.CUTOFF_LIMIT} levels")
    norm, vacuum = channel._schmidt_norms(params, n_max)

    # the probabilities add in turn: sum() of floats compensates the
    # rounding from Python 3.12 on, which would move the printed loss
    outcomes, retained, weighted, degenerate = [], 0.0, 0.0, False
    for label, weight, a0, a1, product0, product1 in qubit._bell_terms:
        norm_sq = a0 * norm + a1 * norm
        probability = weight * norm_sq
        overlap = product0 * vacuum + product1 * vacuum
        fidelity = abs(overlap) ** 2 / norm_sq
        retained += probability
        weighted += probability * fidelity
        degenerate = degenerate or probability < DEGENERATE_PROBABILITY
        outcomes.append(TeleportOutcome(label, probability, fidelity))
    if degenerate:
        raise ValueError(
            f"all outcomes degenerate: they retain probability {retained:.3g} in all, "
            "so the cutoff truncates almost all of Bob's state; no average fidelity"
        )
    return ProtocolRun(outcomes, weighted / retained, 1.0 - retained)
