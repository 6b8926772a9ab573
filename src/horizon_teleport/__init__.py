"""Dual-rail qubit teleportation across a Schwarzschild horizon.

Alice holds a free-space dual-rail qubit; Bob hovers near the horizon,
where each of his rail modes opens into an entangled two-region squeezed
state.  The package builds the shared resource in a truncated Fock space,
runs the Bell-measurement protocol by brute force, and compares the
resulting teleportation fidelity with the closed form (1 - tanh^2 r)^3.

Layers, bottom up: :mod:`~horizon_teleport.fock` (truncated multimode
states and operators), :mod:`~horizon_teleport.channel` (the horizon
two-mode-squeezing channel), :mod:`~horizon_teleport.teleport` (the
protocol), :mod:`~horizon_teleport.analysis` (parameter sweeps and
convergence tables), :mod:`~horizon_teleport.cli` (command line).
"""

from .fock import (
    DEFAULT_TOLERANCES,
    DensityOperator,
    FockVector,
    ModeLayout,
    Tolerances,
    annihilate,
    basis_state,
    create,
    inner,
    partial_trace,
    project,
    reduced_density,
    tensor,
    vacuum,
)
from .channel import (
    CutoffInfeasible,
    DivergentSqueezing,
    RegionPair,
    SqueezeParams,
    TruncationBudgetExceeded,
    embed_dual_rail,
    embed_one,
    embed_zero,
    radius_to_mass,
    required_cutoff,
    squeeze_param,
    thermal_reduced,
)
from .teleport import (
    DualRailQubit,
    ProtocolConfig,
    TeleportOutcome,
    average_fidelity,
    bell_basis,
    bell_resource,
    correction,
    fidelity_analytic,
    premeasure_weight,
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
    "DEFAULT_TOLERANCES",
    "DensityOperator",
    "FockVector",
    "ModeLayout",
    "Tolerances",
    "annihilate",
    "basis_state",
    "create",
    "inner",
    "partial_trace",
    "project",
    "reduced_density",
    "tensor",
    "vacuum",
    "CutoffInfeasible",
    "DivergentSqueezing",
    "RegionPair",
    "SqueezeParams",
    "TruncationBudgetExceeded",
    "embed_dual_rail",
    "embed_one",
    "embed_zero",
    "radius_to_mass",
    "required_cutoff",
    "squeeze_param",
    "thermal_reduced",
    "DualRailQubit",
    "ProtocolConfig",
    "TeleportOutcome",
    "average_fidelity",
    "bell_basis",
    "bell_resource",
    "correction",
    "fidelity_analytic",
    "premeasure_weight",
    "run_protocol",
    "SweepGrid",
    "SweepRecord",
    "convergence_report",
    "sweep",
    "__version__",
]
