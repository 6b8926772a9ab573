"""Dual-rail teleportation from flat space to a near-horizon observer.

Alice holds an unknown dual-rail qubit alpha |1,0> + beta |0,1> on an
input mode pair and half of a dual-rail Bell pair on an ancilla pair.
Bob's half of the Bell pair lives near the horizon, so each of his logical
basis states is the channel embedding of a photon-number state across
region I and region II (modes B1I, B1II, B2I, B2II).  Alice measures her
four modes in the dual-rail Bell basis, Bob applies the outcome's
correction unitary to his accessible region-I rails, and region II is
traced out.

The protocol runs on sectors, not on a dense resource.  Two-mode squeezing
fixes n_I - n_II on each rail (|m, m> for the vacuum, |m+1, m> for one
photon), so each logical branch of Bob's state is one amplitude array over
his region-II occupations (m1, m2), and the branch fixes the region-I
occupations.  Bob's state then has O(n_max^2) amplitudes where the dense
four-mode tensor has O(n_max^4).  Alice's input and her Bell states carry
one photon per dual-rail pair, so her Bell measurement is 2x2 linear
algebra in the logical basis: ``fock.project`` of a row of ``BELL_TABLE``
onto (alpha, beta) leaves a 2-vector on her ancilla that weights the two
branches.  The correction is a relabelling of the region-I occupations.

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

import numpy as np

from . import channel
from .channel import SqueezeParams
from .fock import TOLERANCE, project

__all__ = [
    "DualRailQubit",
    "TeleportOutcome",
    "ProtocolConfig",
    "OUTCOME_LABELS",
    "DEGENERATE_PROBABILITY",
    "BELL_TABLE",
    "run_protocol",
    "fidelity_analytic",
    "premeasure_weight",
    "average_fidelity",
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

# tracemalloc peak of run_protocol per amplitude of one of Bob's branch
# arrays, (n_max + 1)^2 of them: measured 57 bytes at n_max 100 to 2000
_PEAK_BYTES_PER_AMPLITUDE = 64


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


@dataclass(frozen=True)
class ProtocolConfig:
    """One teleportation run.

    ``n_max_bob`` fixes the cutoff of Bob's four squeezed modes; when None
    it is derived as the smallest cutoff from required_cutoff(params,
    epsilon_trunc) up whose dual-rail tail is within the budget, so it meets
    the budget by construction.  An explicit cutoff overrides the budget
    (the loss is then observable as 1 - sum of outcome probabilities).
    """

    params: SqueezeParams
    input: DualRailQubit
    epsilon_trunc: float = 1e-10
    n_max_bob: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon_trunc <= 0.1:
            raise ValueError(
                f"epsilon_trunc must lie in (0, 0.1], got {self.epsilon_trunc!r}"
            )
        if self.n_max_bob is not None and self.n_max_bob < 1:
            raise ValueError(f"n_max_bob must be >= 1, got {self.n_max_bob!r}")

    def bob_cutoff(self) -> int:
        if self.n_max_bob is not None:
            return self.n_max_bob
        # required_cutoff bounds the one-photon tail alone; the budget holds
        # the dual-rail tail, which adds the vacuum tail of the other rail
        n_max = channel.required_cutoff(self.params, self.epsilon_trunc)
        while channel.dual_rail_tail(self.params, n_max) > self.epsilon_trunc:
            n_max += 1
        return n_max


def _correct(label: str, n1, n2):
    """Bob's correction for a Bell outcome, as a relabelling of his region-I
    occupations ``n1`` (rail 1) and ``n2`` (rail 2).

    Returns the corrected occupations and the sign each amplitude takes:
    01 swaps the two rails (dual-rail bit flip), 10 puts a pi phase per
    photon on rail 2 (dual-rail phase flip), 11 swaps and then signs.
    """
    if label not in OUTCOME_LABELS:
        raise ValueError(f"unknown outcome label {label!r}")
    if label in ("01", "11"):
        n1, n2 = n2, n1
    sign = np.where(n2 % 2 == 0, 1.0, -1.0) if label in ("10", "11") else 1.0
    return n1, n2, sign


def fidelity_analytic(params: SqueezeParams) -> float:
    """Closed-form post-correction fidelity 1 / cosh^6 r = (1 - tanh^2 r)^3."""
    return params.sech2_r**3


def _degenerate_outcome(label: str, probability: float) -> TeleportOutcome:
    """Outcome that (numerically) cannot occur: NaN fidelity, flagged."""
    return TeleportOutcome(
        label=label, probability=probability, fidelity=math.nan, flags=("degenerate",)
    )


def _bob_branches(config: ProtocolConfig):
    """Bob's half of the resource in sector form, one entry per logical
    branch: |0L> (photon on rail 1), then |1L> (photon on rail 2).

    Each entry is (amplitudes, (n1, n2)): the real amplitudes over Bob's
    region-II occupations (m1, m2), and the region-I occupations of rails
    1 and 2 as integer arrays that broadcast against them (m + 1 on the
    photon rail, m on the vacuum rail).  The two branches occupy disjoint
    kets, so their squared norms add.  A cutoff whose run would need more
    than the machine's physical memory raises ``ValueError`` before any
    array is allocated.
    """
    n_max = config.bob_cutoff()
    needed = _PEAK_BYTES_PER_AMPLITUDE * (n_max + 1) ** 2
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(
            f"cutoff {n_max} needs about {needed / 1e9:.3g} GB for Bob's state, "
            f"more than the {physical / 1e9:.3g} GB of physical memory"
        )
    zero, one = channel._schmidt_coefficients(config.params, n_max)
    m = np.arange(n_max + 1)
    m1, m2 = m[:, None], m[None, :]
    return (
        (np.multiply.outer(one, zero), (m1 + 1, m2)),
        (np.multiply.outer(zero, one), (m1, m2 + 1)),
    )


def run_protocol(config: ProtocolConfig) -> list[TeleportOutcome]:
    """Teleportation on Bob's sectors: measure, correct, score.

    For each Bell outcome, projects its row of ``BELL_TABLE`` onto the input
    (alpha, beta), which leaves a logical vector v on Alice's ancilla.
    Projecting the resource (|0L>_A E0 + |1L>_A E1) / sqrt(2) onto v
    leaves Bob the state (conj(v0) E0 + conj(v1) E1) / sqrt(2), held as
    its two branches (see ``_bob_branches``); the Born probability is the
    projection weight times that state's squared norm.  Bob's correction
    relabels the region-I occupations, and the fidelity against the ideal
    dual-rail state, with region II traced out, is
    F = sum_{m1,m2} |conj(alpha) psi[1,m1,0,m2] + conj(beta) psi[0,m1,1,m2]|^2,
    read from the entries whose corrected region-I occupations are (1, 0)
    and (0, 1).  Time and memory are O(n_max^2); a cutoff whose arrays
    would not fit in physical memory raises ``ValueError`` before they are
    allocated.  Returns the four outcomes in label order 00, 01, 10, 11.
    """
    qubit = config.input
    branches = _bob_branches(config)
    branch_norms = [float(np.vdot(amps, amps)) for amps, _ in branches]
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
        overlap = np.zeros(branches[0][0].shape, dtype=np.complex128)
        for scale, (amplitudes, occupations) in zip(scales, branches):
            n1, n2, sign = _correct(label, *occupations)
            psi = sign * amplitudes
            for (t1, t2), conj_amp in targets:
                hit = (n1 == t1) & (n2 == t2)
                overlap[hit] += conj_amp * scale * psi[hit]
        fidelity = float(np.vdot(overlap, overlap).real) / norm_sq
        outcomes.append(TeleportOutcome(label, probability, fidelity))
    return outcomes


def premeasure_weight(config: ProtocolConfig) -> tuple[float, float]:
    """Single-excitation weight of Bob's region-I pair before measurement.

    The weight of the resource entries whose region-I occupations
    (n_1I, n_2I) are (1, 0) or (0, 1), i.e. of the ideal one-photon
    manifold span{|1,0>, |0,1>} in the region-I reduced state.  Returns
    (measured, claimed) where claimed is the closed form 1 / cosh^6 r; the
    two are reported side by side for diagnostics and deliberately not
    asserted equal by this operation.
    """
    measured = 0.0
    for amplitudes, (n1, n2) in _bob_branches(config):
        single = ((n1 == 1) & (n2 == 0)) | ((n1 == 0) & (n2 == 1))
        measured += 0.5 * float(np.sum(amplitudes[single] ** 2))  # ancilla weight 1/2
    claimed = fidelity_analytic(config.params)
    return measured, claimed


def average_fidelity(outcomes: list[TeleportOutcome]) -> float:
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
