"""Dense reference routes for checking the sector-sparse protocol.

``dense_protocol`` runs the protocol on the dense six-mode resource from
``teleport.bell_resource``: per Bell outcome it projects the resource onto
the ancilla vector that the Bell state leaves after contraction with the
input qubit, corrects Bob's four-mode tensor by swapping the B1I and B2I
axes and signing B2I by (-1)^n, and reads
F = sum_{m1,m2} |conj(alpha) psi[1,m1,0,m2] + conj(beta) psi[0,m1,1,m2]|^2.
Its correction is written here on the tensor axes, independently of the
relabelling in ``teleport._correct``.  Memory is O(n_max^4).
"""

import numpy as np

from horizon_teleport.fock import project
from horizon_teleport.teleport import (
    ALICE_ANCILLA,
    DEGENERATE_PROBABILITY,
    OUTCOME_LABELS,
    bell_basis,
    bell_resource,
    resource_layout,
)


def _dense_correct(label, psi):
    """The correction on Bob's tensor, axes (B1I, B1II, B2I, B2II)."""
    if label in ("01", "11"):
        psi = np.swapaxes(psi, 0, 2)
    if label in ("10", "11"):
        parity = np.where(np.arange(psi.shape[2]) % 2 == 0, 1.0, -1.0)
        psi = psi * parity[None, None, :, None]
    return psi


def dense_protocol(config):
    """(outcomes, premeasure weight) on the dense resource.

    Outcomes are (label, probability, fidelity, flags) in label order; the
    premeasure weight is the region-I weight of span{|1,0>, |0,1>}, read
    as the squared norm of the resource entries with those occupations.
    """
    qubit, n_max = config.input, config.bob_cutoff()
    budget = config.epsilon_trunc if config.n_max_bob is None else None
    resource = bell_resource(config.params, resource_layout(n_max), n_max, epsilon_trunc=budget)
    basis = bell_basis(qubit.mode_pair + ALICE_ANCILLA)
    input_state = qubit.state()

    outcomes = []
    for label in OUTCOME_LABELS:
        weight, ancilla = project(basis[label], [input_state])
        conditional_probability, bob = project(resource, [ancilla])
        probability = weight * conditional_probability
        if probability < DEGENERATE_PROBABILITY:
            outcomes.append((label, probability, float("nan"), ("degenerate",)))
            continue
        psi = _dense_correct(label, bob.as_tensor())
        overlap = (
            qubit.alpha.conjugate() * psi[1, :, 0, :]
            + qubit.beta.conjugate() * psi[0, :, 1, :]
        )
        outcomes.append((label, probability, float(np.vdot(overlap, overlap).real), ()))

    # axes: A1, A2, B1I, B1II, B2I, B2II
    tens = resource.as_tensor()
    weight = float(np.vdot(tens[:, :, 1, :, 0, :], tens[:, :, 1, :, 0, :]).real)
    weight += float(np.vdot(tens[:, :, 0, :, 1, :], tens[:, :, 0, :, 1, :]).real)
    return outcomes, weight
