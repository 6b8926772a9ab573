"""Dual-rail teleportation from flat space to a near-horizon observer.

Alice holds an unknown dual-rail qubit alpha |1,0> + beta |0,1> on a mode
pair (X1, X2) and half of a dual-rail Bell pair on (A1, A2).  Bob's half of
the Bell pair lives near the horizon, so each of his logical basis states
is the channel embedding of a photon-number state across region I and
region II (modes B1I, B1II, B2I, B2II).  Alice measures (X1, X2, A1, A2)
in the dual-rail Bell basis, Bob applies the outcome's correction unitary
to his accessible region-I rails, and region II is traced out.

The input qubit and the resource are never joined into one eight-mode
state: a Bell state contracted against the input qubit leaves a vector on
Alice's ancilla (A1, A2), and projecting the six-mode resource onto that
vector leaves Bob's four modes.

The post-correction fidelity against the ideal dual-rail state obeys the
closed form F = 1 / cosh^6 r for every outcome and every input; the
brute-force pipeline here exists to verify that law numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import RegionPair, SqueezeParams
from .fock import (
    DEFAULT_TOLERANCES,
    FockVector,
    ModeLayout,
    basis_state,
    project,
    reduced_density,
    tensor,
)

__all__ = [
    "DualRailQubit",
    "TeleportOutcome",
    "ProtocolConfig",
    "OUTCOME_LABELS",
    "DEGENERATE_PROBABILITY",
    "ALICE_ANCILLA",
    "BOB_PAIRS",
    "resource_layout",
    "bell_resource",
    "bell_basis",
    "correction",
    "run_protocol",
    "fidelity_analytic",
    "premeasure_weight",
    "average_fidelity",
]

OUTCOME_LABELS = ("00", "01", "10", "11")

# outcomes with less weight than this are flagged instead of renormalized
DEGENERATE_PROBABILITY = 1e-14

ALICE_ANCILLA = ("A1", "A2")
BOB_PAIRS = (RegionPair("B1I", "B1II"), RegionPair("B2I", "B2II"))


@dataclass(frozen=True)
class DualRailQubit:
    """Logical qubit alpha |1,0> + beta |0,1> on a named mode pair."""

    alpha: complex
    beta: complex
    mode_pair: tuple[str, str] = ("X1", "X2")

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "mode_pair", tuple(self.mode_pair))
        if len(self.mode_pair) != 2 or self.mode_pair[0] == self.mode_pair[1]:
            raise ValueError("mode_pair must be two distinct labels")
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm_sq - 1.0) > DEFAULT_TOLERANCES.norm:
            raise ValueError(f"qubit not normalized: |alpha|^2 + |beta|^2 = {norm_sq!r}")

    def state(self, cutoff: int = 1) -> FockVector:
        """The qubit as a Fock vector on its mode pair."""
        layout = ModeLayout.uniform(self.mode_pair, cutoff)
        return (
            self.alpha * basis_state(layout, (1, 0))
            + self.beta * basis_state(layout, (0, 1))
        )


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
    it is derived as required_cutoff(params, epsilon_trunc), which meets
    the tail budget by construction.  An explicit cutoff overrides the
    budget (the loss is then observable as 1 - sum of outcome
    probabilities).
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
        reserved = ALICE_ANCILLA + tuple(
            m for pair in BOB_PAIRS for m in pair.modes
        )
        if set(self.input.mode_pair) & set(reserved):
            raise ValueError(f"input mode labels collide with {reserved}")

    def bob_cutoff(self) -> int:
        if self.n_max_bob is not None:
            return self.n_max_bob
        return channel.required_cutoff(self.params, self.epsilon_trunc)


def resource_layout(n_max: int) -> ModeLayout:
    """Standard six-mode layout of the shared resource: Alice's ancilla
    pair at cutoff 1, then Bob's two (region I, region II) pairs."""
    bob_modes = tuple(m for pair in BOB_PAIRS for m in pair.modes)
    return ModeLayout(ALICE_ANCILLA + bob_modes, (1, 1) + (n_max,) * 4)


def bell_resource(
    params: SqueezeParams,
    layout: ModeLayout,
    n_max: int,
    epsilon_trunc: float | None = None,
) -> FockVector:
    """The shared entangled resource, Bob's half pushed through the channel.

    (|1,0>_A embed_dual_rail(|0L>) + |0,1>_A embed_dual_rail(|1L>)) / sqrt(2)

    Positional layout contract: modes[0:2] are Alice's dual-rail ancilla at
    cutoff 1, modes[2:4] and modes[4:6] are Bob's rails as (region I,
    region II) pairs at cutoff ``n_max``.  At r = 0 this is the flat
    dual-rail Bell state with region II in vacuum.  A truncation loss above
    ``epsilon_trunc`` raises ``TruncationBudgetExceeded``.
    """
    if layout.mode_count != 6:
        raise ValueError("resource layout needs 6 modes (ancilla pair + two rails)")
    if layout.cutoffs[:2] != (1, 1):
        raise ValueError("Alice's ancilla modes must have cutoff 1")
    if layout.cutoffs[2:] != (n_max,) * 4:
        raise ValueError(f"Bob's modes must all have cutoff {n_max}")

    ancilla = ModeLayout.uniform(layout.modes[:2], 1)
    pairs = (RegionPair(*layout.modes[2:4]), RegionPair(*layout.modes[4:6]))
    zero_l, _ = channel.embed_dual_rail(
        DualRailQubit(1.0, 0.0), params, pairs, n_max, epsilon_trunc
    )
    one_l, _ = channel.embed_dual_rail(
        DualRailQubit(0.0, 1.0), params, pairs, n_max, epsilon_trunc
    )
    branch0 = tensor(basis_state(ancilla, (1, 0)), zero_l)
    branch1 = tensor(basis_state(ancilla, (0, 1)), one_l)
    return (branch0 + branch1) * (1.0 / math.sqrt(2.0))


def bell_basis(
    mode_labels: tuple[str, str, str, str] = ("X1", "X2", "A1", "A2"),
) -> dict[str, FockVector]:
    """The four dual-rail Bell states on two logical qubits (four modes).

    Outcome labels are assigned so that projecting the full protocol state
    yields Bob's conditional logical amplitudes (alpha, beta), (beta,
    alpha), (alpha, -beta), (-beta, alpha) for 00, 01, 10, 11.
    """
    layout = ModeLayout.uniform(tuple(mode_labels), 1)
    zz = basis_state(layout, (1, 0, 1, 0))  # |0L 0L>
    oo = basis_state(layout, (0, 1, 0, 1))  # |1L 1L>
    zo = basis_state(layout, (1, 0, 0, 1))  # |0L 1L>
    oz = basis_state(layout, (0, 1, 1, 0))  # |1L 0L>
    s = 1.0 / math.sqrt(2.0)
    return {
        "00": s * (zz + oo),
        "01": s * (zo + oz),
        "10": s * (zz - oo),
        "11": s * (zo - oz),
    }


def _correct(label: str, amplitudes: np.ndarray, rails: tuple[int, int]) -> np.ndarray:
    """Bob's correction for a Bell outcome, applied to an amplitude array
    whose axes ``rails`` are his region-I rails (rail 1, rail 2).

    01 swaps the two rails (dual-rail bit flip), 10 puts a pi phase per
    photon on rail 2 (dual-rail phase flip), 11 swaps and then signs.
    """
    if label not in OUTCOME_LABELS:
        raise ValueError(f"unknown outcome label {label!r}")
    rail1, rail2 = rails
    if label in ("01", "11"):
        amplitudes = np.swapaxes(amplitudes, rail1, rail2)
    if label in ("10", "11"):
        shape = [1] * amplitudes.ndim
        shape[rail2] = amplitudes.shape[rail2]
        parity = np.where(np.arange(shape[rail2]) % 2 == 0, 1.0, -1.0)
        amplitudes = amplitudes * parity.reshape(shape)
    return amplitudes


def correction(label: str, cutoff: int = 1) -> np.ndarray:
    """Bob's correction unitary for a Bell outcome, on his region-I pair.

    00: identity.  01: dual-rail bit flip, i.e. swap of the two rails.
    10: dual-rail phase flip, a pi phase per photon on the second rail.
    11: flip then phase.  Each maps the outcome's conditional logical
    amplitudes back to (alpha, beta).  The matrix acts on the joint basis
    of the pair, row-major (second mode fastest), at the given cutoff.
    """
    d = cutoff + 1
    columns = np.eye(d * d, dtype=np.complex128).reshape(d, d, d * d)
    return _correct(label, columns, (0, 1)).reshape(d * d, d * d)


def fidelity_analytic(params: SqueezeParams) -> float:
    """Closed-form post-correction fidelity 1 / cosh^6 r = (1 - tanh^2 r)^3."""
    return (1.0 - params.tanh_r**2) ** 3


def _degenerate_outcome(label: str, probability: float) -> TeleportOutcome:
    """Outcome that (numerically) cannot occur: NaN fidelity, flagged."""
    return TeleportOutcome(
        label=label, probability=probability, fidelity=math.nan, flags=("degenerate",)
    )


def run_protocol(config: ProtocolConfig) -> list[TeleportOutcome]:
    """Brute-force teleportation: measure, correct, score.

    For each Bell outcome, projects the Bell state of Alice's four modes
    onto the input qubit, which leaves a vector on her ancilla (A1, A2), and
    projects the six-mode resource onto that vector; the Born probability
    is the product of the two projection probabilities, and the remainder
    is Bob's conditional state on (B1I, B1II, B2I, B2II).  Bob's correction
    acts on the region-I axes, and the fidelity against the ideal
    dual-rail state, with region II traced out, is
    F = sum_{m1,m2} |conj(alpha) psi[1,m1,0,m2] + conj(beta) psi[0,m1,1,m2]|^2.
    Returns the four outcomes in label order 00, 01, 10, 11.
    """
    qubit = config.input
    n_max = config.bob_cutoff()
    budget = config.epsilon_trunc if config.n_max_bob is None else None

    resource = bell_resource(
        config.params, resource_layout(n_max), n_max, epsilon_trunc=budget
    )
    basis = bell_basis(qubit.mode_pair + ALICE_ANCILLA)
    input_state = qubit.state()

    outcomes = []
    for label in OUTCOME_LABELS:
        weight, ancilla = project(basis[label], [input_state])
        conditional_probability, bob = project(resource, [ancilla])
        probability = weight * conditional_probability
        if probability < DEGENERATE_PROBABILITY:
            outcomes.append(_degenerate_outcome(label, probability))
            continue
        # axes of Bob's tensor: B1I, B1II, B2I, B2II (resource layout order)
        psi = _correct(label, bob.as_tensor(), (0, 2))
        overlap = (
            qubit.alpha.conjugate() * psi[1, :, 0, :]
            + qubit.beta.conjugate() * psi[0, :, 1, :]
        )
        fidelity = float(np.vdot(overlap, overlap).real)
        outcomes.append(TeleportOutcome(label, probability, fidelity))
    return outcomes


def premeasure_weight(config: ProtocolConfig) -> tuple[float, float]:
    """Single-excitation weight of Bob's region-I pair before measurement.

    Reduces the shared resource to the region-I rails and measures the
    weight of the ideal one-photon manifold span{|1,0>, |0,1>}.  Returns
    (measured, claimed) where claimed is the closed form 1 / cosh^6 r; the
    two are reported side by side for diagnostics and deliberately not
    asserted equal by this operation.
    """
    n_max = config.bob_cutoff()
    budget = config.epsilon_trunc if config.n_max_bob is None else None
    resource = bell_resource(
        config.params, resource_layout(n_max), n_max, epsilon_trunc=budget
    )
    region_i = (BOB_PAIRS[0].region_I_mode, BOB_PAIRS[1].region_I_mode)
    rho = reduced_density(resource, region_i)
    i10 = rho.layout.flat_index((1, 0))
    i01 = rho.layout.flat_index((0, 1))
    measured = float(rho.matrix[i10, i10].real + rho.matrix[i01, i01].real)
    claimed = fidelity_analytic(config.params)
    return measured, claimed


def average_fidelity(outcomes: list[TeleportOutcome]) -> float:
    """Probability-weighted fidelity over the non-degenerate outcomes."""
    weights = [o.probability for o in outcomes if "degenerate" not in o.flags]
    values = [o.fidelity for o in outcomes if "degenerate" not in o.flags]
    total = sum(weights)
    if total == 0.0:
        raise ValueError("all outcomes degenerate; no average fidelity")
    return sum(w * f for w, f in zip(weights, values)) / total
