"""Alice's projective measurement: one factor of a pure state against a unit
vector.

Alice's input qubit and her Bell states carry one photon per dual-rail
pair, so the protocol in ``teleport`` measures them in the logical basis,
as 2-vectors and 2x2 tables, not as Fock states.  The tests hold it to the
Fock-space Bell states of ``tests/oracles.py``, four-mode arrays built from
occupations.  ``project`` imports numpy when it runs, so importing this
module does not load it.
"""

from __future__ import annotations

import math

# numpy is imported inside ``project``; annotations name it np

__all__ = ["project"]


def project(state: np.ndarray, vector: np.ndarray) -> tuple[float, np.ndarray]:
    """Measure the first factor of ``state`` against the unit ``vector``.

    ``state`` holds the amplitudes of a two-factor pure state, the measured
    factor on axis 0, as an array or as nested sequences of numbers, such
    as a row of ``teleport.BELL_TABLE``.  Returns the Born probability
    |<vector|psi>|^2 and the renormalized conditional state on the other
    factor.  The caller's state must overlap ``vector``, and ``vector``
    must be normalized, as the protocol's ``DualRailQubit`` already checks:
    neither is checked here.
    """
    import numpy as np

    coeff = vector.conj() @ state
    probability = float(np.vdot(coeff, coeff).real)
    return probability, coeff / math.sqrt(probability)
