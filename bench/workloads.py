"""The benchmark's workloads: seeded CLI argv per call, and output checks.

Every call gets its own inputs, drawn from ``random.Random`` seeded with
(workload, seed, call index), so the same seed gives the same argv on any
machine and a cache kept across calls cannot hit on inputs that real
one-shot CLI runs would never repeat.  Only the generated argv reaches the
program.

The checks compute the closed form F = (1 - tanh^2 r)^3 with
tanh r = exp(-2 pi M Omega) here, from the values the CLI echoes, and never
import it from the package under test.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("simulate-strong", "sweep-simulated", "surface-analytic")
SIZES = ("full", "tiny")

# |F_numeric - F_closed| gate, the same as the package's acceptance test
NUMERIC_TOLERANCE = 1e-6
# relative gate on every fidelity_analytic cell; the package computes
# 1 - tanh^2 r by subtraction, which loses about 1e-16 / (4 pi M Omega)
# relative precision (2e-10 at the smallest M Omega of the surface)
ANALYTIC_RTOL = 1e-8
# grid coordinates echoed by a sweep must match log spacing this closely
GRID_RTOL = 1e-12
# the CLI's default truncation budget, used for the expected cutoff
EPSILON = 1e-10
# grid edges move by up to this share of their value on every call
EDGE_JITTER = 0.03
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SWEEP_COLUMNS = [
    "radius", "omega", "mass", "r_squeeze", "fidelity_analytic",
    "fidelity_numeric", "n_max", "truncation_loss", "flags",
]

# (tanh r of simulate-strong, sweep-simulated grid side, surface grid side)
_SIZE_PARAMS = {"full": (0.7, 20, 50), "tiny": (0.3, 3, 5)}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its argv, the file it writes (None for stdout),
    the grid points (or protocol runs) it covers, and what to check."""

    argv: list[str]
    out_file: str | None
    points: int
    expect: dict = field(default_factory=dict)


def _g(value: float) -> str:
    return "%.17g" % value


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def make_call(workload: str, seed: int, index: int, workdir: str, size: str = "full") -> Call:
    """The argv of call ``index`` of a workload run with ``seed``."""
    tanh_r, sim_steps, surface_steps = _SIZE_PARAMS[size]
    if workload == "simulate-strong":
        rng = _rng(workload, seed, index)
        omega = -math.log(tanh_r) / (2.0 * math.pi)  # with --mass 1
        amps = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(a * a for a in amps))
        re_a, im_a, re_b, im_b = (a / norm for a in amps)
        # "--flag=value": argparse takes a bare "-6.9e-05" for an option
        argv = [
            "simulate", "--mass=1", f"--omega={_g(omega)}",
            f"--alpha-re={_g(re_a)}", f"--alpha-im={_g(im_a)}",
            f"--beta-re={_g(re_b)}", f"--beta-im={_g(im_b)}",
        ]
        return Call(argv, None, 1, {"mass": 1.0, "omega": float(_g(omega))})

    if workload == "sweep-simulated":
        edges, steps, mode = (0.5, 1.0, 0.5, 1.0), sim_steps, "with-simulation"
    elif workload == "surface-analytic":
        edges, steps, mode = (1e-4, 1.0, 1e-3, 1.0), surface_steps, "analytic-only"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The jitter walks [-EDGE_JITTER, EDGE_JITTER] along a golden-ratio
    # sequence from a seeded start, each edge a quarter period apart.  Any
    # few consecutive calls then spread evenly over the range, so a run's
    # work does not hinge on the luck of a handful of random draws: the
    # cost of a simulated sweep grows steeply with the cutoff at its
    # low-(M Omega) corner.
    u = _rng(workload, seed, "edges").random() + index * _GOLDEN
    r_lo, r_hi, w_lo, w_hi = (
        float(_g(e * (1.0 + EDGE_JITTER * (2.0 * ((u + k / 4.0) % 1.0) - 1.0))))
        for k, e in enumerate(edges)
    )
    out = os.path.join(workdir, f"{workload}.csv")
    argv = [
        "sweep", "--mode", mode,
        "--radius-min", _g(r_lo), "--radius-max", _g(r_hi), "--radius-steps", str(steps),
        "--omega-min", _g(w_lo), "--omega-max", _g(w_hi), "--omega-steps", str(steps),
        "--out", out,
    ]
    expect = {
        "radius": (r_lo, r_hi, steps),
        "omega": (w_lo, w_hi, steps),
        "simulated": mode == "with-simulation",
    }
    return Call(argv, out, steps * steps, expect)


def closed_form_fidelity(mass: float, omega: float) -> float:
    """(1 - tanh^2 r)^3 with tanh^2 r = exp(-4 pi M Omega), at full precision."""
    return (-math.expm1(-4.0 * math.pi * mass * omega)) ** 3


def expected_cutoff(mass: float, omega: float, epsilon: float = EPSILON) -> int:
    """Smallest n whose one-photon tail x^n (1 + n (1 - x)), x = tanh^2 r,
    is within epsilon."""
    x = math.exp(-4.0 * math.pi * mass * omega)
    n = 1
    while x**n * (1.0 + n * (1.0 - x)) > epsilon:
        n += 1
    return n


def _log_axis(lo: float, hi: float, steps: int) -> list[float]:
    a, b = math.log10(lo), math.log10(hi)
    values = [10.0 ** (a + (b - a) * i / (steps - 1)) for i in range(steps)]
    values[0], values[-1] = lo, hi
    return values


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check(call: Call, output: str) -> list[str]:
    """Everything wrong with one call's output; an empty list means correct."""
    if call.argv[0] == "simulate":
        return _check_simulate(call.expect, output)
    return _check_sweep(call.expect, output)


def _check_simulate(expect: dict, output: str) -> list[str]:
    lines = output.splitlines()
    table = [ln for ln in lines if not ln.startswith("#")]
    notes = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# ") and "=" in ln)
    rows = list(csv.reader(table))
    if not rows or rows[0] != ["label", "probability", "fidelity", "flags"]:
        return [f"simulate: bad header {rows[:1]!r}"]
    body = rows[1:]
    if [r[0] for r in body if r] != ["00", "01", "10", "11"] or any(len(r) != 4 for r in body):
        return [f"simulate: expected four outcome rows 00..11, got {body!r}"]
    errors = []
    try:
        probs = [float(r[1]) for r in body]
        fids = [float(r[2]) for r in body]
        n_max = int(notes["n_max"])
    except (KeyError, ValueError) as exc:
        return [f"simulate: unparsable output ({exc!r})"]
    if any(r[3] for r in body):
        errors.append(f"simulate: flagged outcomes {[r[3] for r in body]!r}")
    total = sum(probs)
    f_avg = sum(p * f for p, f in zip(probs, fids)) / total if total > 0 else math.nan
    f_closed = closed_form_fidelity(expect["mass"], expect["omega"])
    if not abs(f_avg - f_closed) <= NUMERIC_TOLERANCE:
        errors.append(f"simulate: |F_avg - F_closed| = {abs(f_avg - f_closed):.3g} > {NUMERIC_TOLERANCE}")
    cutoff = expected_cutoff(expect["mass"], expect["omega"])
    if n_max != cutoff:
        errors.append(f"simulate: n_max {n_max} != required cutoff {cutoff}")
    return errors


def _check_sweep(expect: dict, output: str) -> list[str]:
    rows = list(csv.reader(output.splitlines()))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return [f"sweep: bad header {rows[:1]!r}"]
    radii, omegas = _log_axis(*expect["radius"]), _log_axis(*expect["omega"])
    grid = [(r, w) for r in radii for w in omegas]
    body = rows[1:]
    if len(body) != len(grid):
        return [f"sweep: {len(body)} rows for {len(grid)} grid points"]
    errors = []
    for i, (row, (radius, omega)) in enumerate(zip(body, grid)):
        if len(row) != len(SWEEP_COLUMNS):
            errors.append(f"sweep row {i}: {len(row)} cells")
            continue
        cells = dict(zip(SWEEP_COLUMNS, row))
        try:
            r_cell, w_cell = float(cells["radius"]), float(cells["omega"])
            f_cell = float(cells["fidelity_analytic"])
            numeric = float(cells["fidelity_numeric"]) if cells["fidelity_numeric"] else None
        except ValueError as exc:
            errors.append(f"sweep row {i}: unparsable ({exc})")
            continue
        if not (_close(r_cell, radius, GRID_RTOL) and _close(w_cell, omega, GRID_RTOL)):
            errors.append(f"sweep row {i}: point ({r_cell}, {w_cell}) != grid ({radius}, {omega})")
            continue
        f_closed = closed_form_fidelity(radius / 2.0, omega)
        if not _close(f_cell, f_closed, ANALYTIC_RTOL):
            errors.append(f"sweep row {i}: fidelity_analytic {f_cell!r} != closed form {f_closed!r}")
        if numeric is None:
            allowed = ("cutoff-capped",) if expect["simulated"] else ("",)
            if cells["flags"] not in allowed:
                errors.append(f"sweep row {i}: no numeric fidelity, flags {cells['flags']!r}")
        elif not expect["simulated"]:
            errors.append(f"sweep row {i}: numeric fidelity in an analytic-only sweep")
        elif cells["flags"]:
            errors.append(f"sweep row {i}: simulated row flagged {cells['flags']!r}")
        elif not abs(numeric - f_closed) <= NUMERIC_TOLERANCE:
            errors.append(f"sweep row {i}: |F_numeric - F_closed| = {abs(numeric - f_closed):.3g}")
    return errors


def count_simulated(call: Call, output: str) -> int:
    """Rows of a sweep output that carry a numeric fidelity."""
    if call.out_file is None:
        return 0
    rows = list(csv.reader(output.splitlines()))[1:]
    return sum(1 for row in rows if len(row) == len(SWEEP_COLUMNS) and row[5])
