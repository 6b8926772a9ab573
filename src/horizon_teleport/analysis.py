"""Parameter sweeps and convergence studies over the fidelity surface.

The sweep walks a (horizon radius, frequency) grid, radius-major, and
evaluates the closed-form fidelity at every point, optionally backing it
with the simulation where the required cutoff stays under a cap
(``channel.CUTOFF_CAP`` unless given).  The convergence report pins how
fast the simulated fidelity approaches the closed form as the cutoff
grows.  Each simulated point and each convergence row is one
``teleport.run_protocol`` call, whose fidelity and loss it reports.  Each
sweep and each report builds its own probe qubit, so Alice measures it
once for all of its points or cutoffs.

The grid's axes are lists of Python floats, each value raised with libm's
``pow``, so an analytic sweep runs without numpy; only the simulation
loads it, on its first run.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import channel, teleport

__all__ = [
    "SweepGrid",
    "SweepRecord",
    "ConvergenceRow",
    "DEFAULT_GRID",
    "GRID_LIMIT",
    "SWEEP_MODES",
    "sweep",
    "convergence_report",
]

SWEEP_MODES = ("analytic-only", "with-simulation")

# the most points a grid takes: a sweep holds about 500 B a point, 1 GB in all
GRID_LIMIT = 2**21


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular (radius, omega) grid, log-spaced on both axes between
    finite, positive edges, of at most ``GRID_LIMIT`` points.

    Defaults are the package's default surface: radius from 1e-4 to 1 and
    frequency from 1e-3 to 1, 50 steps each (the ranges span four and three
    decades).
    """

    radius_min: float = 1e-4
    radius_max: float = 1.0
    omega_min: float = 1e-3
    omega_max: float = 1.0
    radius_steps: int = 50
    omega_steps: int = 50

    def __post_init__(self) -> None:
        for lo, hi, name in (
            (self.radius_min, self.radius_max, "radius"),
            (self.omega_min, self.omega_max, "omega"),
        ):
            if not 0.0 < lo < hi:
                raise ValueError(f"{name} range needs 0 < min < max, got [{lo!r}, {hi!r}]")
            if hi == math.inf:
                raise ValueError(f"{name} range needs a finite max, got {hi!r}")
        for steps, name in ((self.radius_steps, "radius"), (self.omega_steps, "omega")):
            if steps < 2:
                raise ValueError(f"{name}_steps must be >= 2, got {steps}")
        size = self.radius_steps * self.omega_steps
        if size > GRID_LIMIT:
            shape = f"{self.radius_steps} x {self.omega_steps}"
            raise ValueError(f"a {shape} grid ({size} points) is above the limit of {GRID_LIMIT} points")

    @staticmethod
    def _axis(lo: float, hi: float, steps: int) -> list[float]:
        """``steps`` values from ``lo`` to ``hi``, evenly spaced in log10.

        The exponents are formed as ``numpy.linspace`` forms them, y_i =
        i step + log10(lo), and each is raised as 10.0 ** y_i, which is
        libm's ``pow``: within about half an ulp of 10^y_i, whatever the
        CPU, where numpy's vectorized ``pow`` may round the other way.
        """
        start = math.log10(lo)
        step = (math.log10(hi) - start) / (steps - 1)
        # the corners are exact, never raised: 10.0 ** log10(hi) may round
        # past the largest double, where libm's pow raises OverflowError
        return [lo, *(10.0 ** (i * step + start) for i in range(1, steps - 1)), hi]

    def radius_values(self) -> list[float]:
        return self._axis(self.radius_min, self.radius_max, self.radius_steps)

    def omega_values(self) -> list[float]:
        return self._axis(self.omega_min, self.omega_max, self.omega_steps)


DEFAULT_GRID = SweepGrid()


class SweepRecord(NamedTuple):
    """One grid point; its fields, in order, are the columns the CLI writes.
    mass = radius / 2 always; the numeric fields are None where the point
    was not simulated (analytic mode, capped cutoff, or divergent
    squeezing, the latter flagged with fidelity 0)."""

    radius: float
    omega: float
    mass: float
    r_squeeze: float | None
    fidelity_analytic: float
    fidelity_numeric: float | None = None
    n_max: int | None = None
    truncation_loss: float | None = None
    flags: str = ""


class ConvergenceRow(NamedTuple):
    """One cutoff of a convergence report, fields in the CLI's column order."""

    n_max: int
    abs_error: float
    truncation_loss: float


# amplitude of the fixed, symmetric probe input (|0L> + |1L>) / sqrt(2)
_PROBE_AMPLITUDE = 1.0 / math.sqrt(2.0)


def _evaluate_point(
    mode: str, epsilon: float, max_cutoff: int, probe: teleport.DualRailQubit, radius: float, omega: float
) -> SweepRecord:
    mass = channel.radius_to_mass(radius)
    try:
        params = channel.SqueezeParams(mass, omega)
    except channel.DivergentSqueezing:
        return SweepRecord(radius, omega, mass, None, 0.0, flags="divergent")

    r_squeeze, analytic = params.r_squeeze, teleport.fidelity_analytic(params)
    if mode == "analytic-only":
        return SweepRecord(radius, omega, mass, r_squeeze, analytic)
    try:
        n_max = channel.required_cutoff(params, epsilon, hard_cap=max_cutoff)
    except channel.CutoffInfeasible:
        return SweepRecord(radius, omega, mass, r_squeeze, analytic, flags="cutoff-capped")
    run = teleport.run_protocol(params, probe, n_max)
    return SweepRecord(radius, omega, mass, r_squeeze, analytic, run.fidelity, n_max, run.loss)


def sweep(
    grid: SweepGrid,
    mode: str = "analytic-only",
    epsilon: float = channel.EPSILON_DEFAULT,
    max_cutoff: int = channel.CUTOFF_CAP,
    workers: int | None = None,
) -> list[SweepRecord]:
    """Evaluate the fidelity over the grid, radius-major, deterministically.

    Points where the squeezing diverges are recorded with fidelity 0 and a
    "divergent" flag.  In with-simulation mode a point runs at the cutoff
    ``channel.required_cutoff`` picks for ``epsilon``; points whose cutoff
    would exceed ``max_cutoff`` fall back to analytic-only records flagged
    "cutoff-capped" rather than aborting the sweep.  ``channel.check_budget``
    refuses an ``epsilon`` or ``max_cutoff`` out of range before any point
    runs.  Every simulated point runs the same probe input, (|0L> + |1L>) /
    sqrt(2), built once per call, so Alice's measurement of it is computed
    once for the whole sweep.

    ``workers`` is the number of threads (None, 0 or 1 means one: the
    points run in turn on the calling thread).  Two or more run each radius
    row on a thread pool, which holds one row of futures at a time and pays
    only where numpy releases the interpreter lock for long stretches; at
    the default sizes one thread is faster.  Grid points are independent
    pure functions and results are ordered by grid index, so the output is
    identical for any worker count.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    channel.check_budget(epsilon, max_cutoff)
    probe = teleport.DualRailQubit(_PROBE_AMPLITUDE, _PROBE_AMPLITUDE)

    omegas = grid.omega_values()
    pool = None
    if workers is not None and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    records: list[SweepRecord] = []
    with pool or contextlib.nullcontext():
        for radius in grid.radius_values():
            row = functools.partial(_evaluate_point, mode, epsilon, max_cutoff, probe, radius)
            records.extend(pool.map(row, omegas) if pool else map(row, omegas))
    return records


def convergence_report(
    params: channel.SqueezeParams,
    cutoffs: list[int] | tuple[int, ...],
) -> list[ConvergenceRow]:
    """Simulated-vs-closed-form fidelity error along ascending cutoffs.

    Returns a ``ConvergenceRow`` (n_max, |F_numeric - F_analytic|,
    truncation_loss) per cutoff; the error column is nonincreasing up to
    double-precision jitter because the lost tail weight shrinks
    geometrically with the cutoff.  Both the simulation and the closed form
    read ``params`` as given, so the error is measured against the same
    ``fidelity_analytic`` that the ``fidelity`` command prints for the
    point.  The smallest cutoff runs first, so ``run_protocol`` refuses one
    below 1 before any other work.
    """
    cutoffs = [int(c) for c in cutoffs]
    if not cutoffs:
        raise ValueError("cutoff list must not be empty")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly ascending, got {cutoffs}")

    probe = teleport.DualRailQubit(_PROBE_AMPLITUDE, _PROBE_AMPLITUDE)
    analytic = teleport.fidelity_analytic(params)
    rows = []
    for n_max in cutoffs:
        run = teleport.run_protocol(params, probe, n_max)
        rows.append(ConvergenceRow(n_max, abs(run.fidelity - analytic), run.loss))
    return rows
