"""Dual-rail qubit teleportation across a Schwarzschild horizon.

Alice holds a free-space dual-rail qubit; Bob hovers near the horizon,
where each of his rail modes opens into an entangled two-region squeezed
state.  The package runs the Bell-measurement protocol on Bob's Fock
sectors, a truncated simulation that holds his state in Schmidt form, and
compares the resulting teleportation fidelity with the closed form
(1 - tanh^2 r)^3.  Alice's side is 2x2 linear algebra on the logical
amplitudes (alpha, beta), since her input and her Bell states carry one
photon per dual-rail pair.  The dense Fock-space route that the tests check
it against, with its own Fock toolkit and Bell states, lives in
``tests/oracles.py``, not in the package.

Layers, bottom up: :mod:`~horizon_teleport.fock` (Alice's projective
measurement, one ``project``), :mod:`~horizon_teleport.channel`
(the horizon two-mode-squeezing channel), :mod:`~horizon_teleport.teleport`
(the protocol), :mod:`~horizon_teleport.analysis` (parameter sweeps and
convergence tables), :mod:`~horizon_teleport.cli` (command line).
"""

from .channel import (
    CutoffInfeasible,
    DivergentSqueezing,
    SqueezeParams,
    radius_to_mass,
    required_cutoff,
    squeeze_param,
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
    "squeeze_param",
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
