"""Alice's projective measurement: one factor of a pure state against a unit
vector.

Alice's input qubit and her Bell states carry one photon per dual-rail
pair, so the protocol in ``teleport`` measures them in the logical basis,
as 2-vectors and 2x2 tables, not as Fock states.  The dense multimode Fock
toolkit that the tests check the protocol against lives with them in
``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TOLERANCE", "project"]

# numerical slack of every check on a norm
TOLERANCE = 1e-10


def project(state: np.ndarray, vector: np.ndarray) -> tuple[float, np.ndarray]:
    """Measure the first factor of ``state`` against the unit ``vector``.

    ``state`` holds the amplitudes of a two-factor pure state, the measured
    factor on axis 0.  Returns the Born probability |<vector|psi>|^2 and the
    renormalized conditional state on the other factor.  The caller's state
    must overlap ``vector``: a zero-probability outcome is not handled.
    """
    norm_dev = abs(float(np.vdot(vector, vector).real) - 1.0)
    if norm_dev > TOLERANCE:
        raise ValueError(f"measurement vector not normalized: deviation {norm_dev:.3e}")
    coeff = vector.conj() @ state
    probability = float(np.vdot(coeff, coeff).real)
    return probability, coeff / math.sqrt(probability)
