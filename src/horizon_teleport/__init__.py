"""Dual-rail qubit teleportation across a Schwarzschild horizon.

Alice holds a free-space dual-rail qubit; Bob hovers near the horizon,
where each of his rail modes opens into an entangled two-region squeezed
state.  The package runs the Bell-measurement protocol on Bob's Fock
sectors, a truncated simulation that holds his state in Schmidt form, and
compares the resulting teleportation fidelity with the closed form
(1 - tanh^2 r)^3.  Alice's side is 2x2 linear algebra on the logical
amplitudes (alpha, beta), since her input and her Bell states carry one
photon per dual-rail pair.  The tests check it against a dense reference in
``tests/oracles.py`` that shares no numbers with the package: Bob's rails
built by the two-mode squeezer itself, Bell states built from occupations,
and the protocol run on one dense array.

Layers, bottom up: :mod:`~horizon_teleport.fock` (Alice's projective
measurement, one ``project``, run four times per input qubit, once per
Bell outcome), :mod:`~horizon_teleport.channel`
(the horizon two-mode-squeezing channel), :mod:`~horizon_teleport.teleport`
(the protocol), :mod:`~horizon_teleport.analysis` (parameter sweeps and
convergence tables), :mod:`~horizon_teleport.cli` (command line).  Numpy
serves the simulation only: ``fock.project``, ``channel``'s Schmidt
vectors and ``teleport``'s Alice import it when a run needs it, so
importing the package, the closed form and an analytic sweep never load it.
"""

from .channel import (
    CutoffInfeasible,
    DivergentSqueezing,
    SqueezeParams,
    radius_to_mass,
    required_cutoff,
)
from .teleport import (
    DualRailQubit,
    ProtocolRun,
    TeleportOutcome,
    fidelity_analytic,
    run_protocol,
)
from .analysis import (
    SweepGrid,
    SweepRecord,
    convergence_report,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CutoffInfeasible",
    "DivergentSqueezing",
    "SqueezeParams",
    "radius_to_mass",
    "required_cutoff",
    "DualRailQubit",
    "ProtocolRun",
    "TeleportOutcome",
    "fidelity_analytic",
    "run_protocol",
    "SweepGrid",
    "SweepRecord",
    "convergence_report",
    "sweep",
    "__version__",
]
