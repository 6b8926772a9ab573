"""Command-line front end.

Four subcommands: ``fidelity`` evaluates the closed-form law at one
parameter point, ``simulate`` runs the protocol on Bob's Fock sectors and
compares, ``sweep`` writes the fidelity surface over a (radius, omega)
grid, and ``converge`` tabulates simulation error against the cutoff.

``simulate`` and simulated ``sweep`` points run at the cutoff
``channel.required_cutoff`` picks for ``--epsilon``
(``channel.EPSILON_DEFAULT`` by default), under ``--max-cutoff``
(``channel.CUTOFF_CAP`` by default); ``channel.check_budget`` holds both to
their range, so a ``--max-cutoff`` above ``channel.CUTOFF_LIMIT`` = 2^27
exits 1 before any point runs.  ``simulate`` prints the outcomes, fidelity
and loss of one ``teleport.run_protocol`` call.  The sweep's grid flags and
their defaults come from ``analysis.DEFAULT_GRID``.  Every command prints
through one writer, ``_write_rows``: a row is a record's NamedTuple fields
(``SweepRecord``, ``TeleportOutcome``, ``ConvergenceRow``), so the field
names are both the CSV columns and the JSON keys.
A CSV row is its cells joined by "," and ended by LF, written line by line
without the ``csv`` module: no cell needs quoting, since numbers, empty
cells, outcome labels, flags and field names hold no ",", '"', CR or LF.

Exit codes: 0 success, 1 validation failure (including a cutoff above
``channel.CUTOFF_LIMIT`` or a sweep grid above ``analysis.GRID_LIMIT``
points), 2 divergent squeezing, 3 infeasible cutoff.  Output formats are
deterministic byte for byte, whatever the BLAS thread count: floats carry
17 significant digits and lines end with LF.  ``HORIZON_TELEPORT_THREADS``
sets how many threads a sweep uses (0 or unset: one, the calling thread);
the output does not depend on the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import re
import sys

from . import analysis, channel, teleport

__all__ = ["main", "entry"]

THREADS_ENV = "HORIZON_TELEPORT_THREADS"


class _ExitOneParser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for divergent
    squeezing and wants validation failures on exit code 1.

    argparse also takes a negative number in exponent notation, such as
    ``--beta-re -6.9e-05``, for an option flag, because its negative-number
    pattern has no exponent; this parser and its subparsers read it as a
    value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _DefaultsHelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends an option's default to its help, except when it has none."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _write_rows(rows: list[tuple], fh, fmt: str, summary: dict | None = None) -> None:
    """Write ``rows``, NamedTuple records of one type, as CSV or as a JSON
    list.

    CSV takes its header from the first record's ``_fields``, prints floats
    with 17 significant digits (enough to round-trip any double), None as
    an empty cell and any other value, a record's flag string among them,
    as ``str``, and follows the rows with one ``# key=value`` line per
    ``summary`` item.  Each row is its cells joined by "," and ended by LF,
    which is what ``csv.writer`` would print: no cell needs quoting, as
    none holds ",", '"', CR or LF.  A cell is a formatted number, an empty
    cell, an outcome label, the flag "divergent" or "cutoff-capped", or a
    field name.  JSON writes each record's ``_asdict()`` and nests the rows
    under "outcomes" beside the ``summary`` keys.
    """
    if fmt == "json":
        import json  # here, so the CSV commands start without it

        rows = [r._asdict() for r in rows]
        json.dump(rows if summary is None else {"outcomes": rows, **summary}, fh, indent=2)
        fh.write("\n")
        return

    # a sweep repeats its grid coordinates, so each float is formatted once;
    # zero is not cached, as 0.0 and -0.0 are one key but print apart
    text = {}

    def cells(values):
        return [
            (text.get(v) or text.setdefault(v, "%.17g" % v) if v else "%.17g" % v)
            if isinstance(v, float)
            else "" if v is None else str(v)
            for v in values
        ]

    fh.write(",".join(rows[0]._fields) + "\n")
    fh.writelines(",".join(cells(row)) + "\n" for row in rows)
    if summary:
        for key, cell in zip(summary, cells(summary.values())):
            fh.write(f"# {key}={cell}\n")


def _require_positive(value: float, name: str) -> float:
    if value is None or not value > 0.0:
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    return float(value)


def _resolve_geometry(args) -> tuple[float, float]:
    """(radius, mass) from whichever of --radius/--mass was given."""
    if args.radius is not None:
        radius = _require_positive(args.radius, "--radius")
        return radius, channel.radius_to_mass(radius)
    mass = _require_positive(args.mass, "--mass")
    return 2.0 * mass, mass


def _cmd_fidelity(args) -> int:
    radius, mass = _resolve_geometry(args)
    omega = _require_positive(args.omega, "--omega")
    params = channel.SqueezeParams(mass, omega)
    record = analysis.SweepRecord(radius, omega, mass, params.r_squeeze, teleport.fidelity_analytic(params))
    _write_rows([record], sys.stdout, args.format)
    return 0


def _cmd_simulate(args) -> int:
    radius, mass = _resolve_geometry(args)
    omega = _require_positive(args.omega, "--omega")
    channel.check_budget(args.epsilon, args.max_cutoff)

    alpha = complex(args.alpha_re, args.alpha_im)
    beta = complex(args.beta_re, args.beta_im)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(norm_sq - 1.0) <= 1e-6:  # NaN fails it too
        raise ValueError(
            f"input amplitudes must be normalized within 1e-6, got |a|^2+|b|^2 = {norm_sq!r}"
        )
    scale = 1.0 / math.sqrt(norm_sq)
    qubit = teleport.DualRailQubit(alpha * scale, beta * scale)

    params = channel.SqueezeParams(mass, omega)
    n_max = channel.required_cutoff(params, args.epsilon, hard_cap=args.max_cutoff)
    outcomes, fidelity, loss = teleport.run_protocol(params, qubit, n_max)
    analytic = teleport.fidelity_analytic(params)
    summary = {
        "fidelity_analytic": analytic,
        "abs_deviation": abs(fidelity - analytic),
        "n_max": n_max,
        "truncation_loss": loss,
    }
    _write_rows(outcomes, sys.stdout, args.format, summary)
    return 0


def _sweep_workers() -> int | None:
    raw = os.environ.get(THREADS_ENV)
    if raw is None or raw == "":
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if workers < 0:
        raise ValueError(f"{THREADS_ENV} must be >= 0, got {workers}")
    return workers


def _cmd_sweep(args) -> int:
    grid = analysis.SweepGrid(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(analysis.SweepGrid)}
    )
    records = analysis.sweep(
        grid,
        mode=args.mode,
        epsilon=args.epsilon,
        max_cutoff=args.max_cutoff,
        workers=_sweep_workers(),
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        _write_rows(records, fh, args.format)
    return 0


def _cmd_converge(args) -> int:
    if args.tanh_r is not None:
        if args.mass is not None or args.omega is not None:
            raise ValueError("give either --tanh-r or --mass with --omega, not both")
        params = channel.SqueezeParams.from_tanh(args.tanh_r)
    else:
        if args.mass is None or args.omega is None:
            raise ValueError("give either --tanh-r or both --mass and --omega")
        mass = _require_positive(args.mass, "--mass")
        omega = _require_positive(args.omega, "--omega")
        params = channel.SqueezeParams(mass, omega)

    cutoffs = [int(piece) for piece in args.cutoffs.split(",") if piece.strip()]
    rows = analysis.convergence_report(params, cutoffs)
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        _write_rows(rows, fh, "csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ExitOneParser(
        prog="horizon-teleport",
        description="Dual-rail teleportation fidelity across a Schwarzschild horizon.",
        formatter_class=_DefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func):
        p = sub.add_parser(
            name,
            help=help_text,
            formatter_class=_DefaultsHelpFormatter,
        )
        p.set_defaults(func=func)
        return p

    def geometry(p) -> None:
        geom = p.add_mutually_exclusive_group(required=True)
        geom.add_argument("--mass", type=float, help="black-hole mass M (Planck units)")
        geom.add_argument("--radius", type=float, help="horizon radius r+ = 2M (Planck units)")
        p.add_argument("--omega", type=float, required=True, help="mode frequency (Planck units)")

    def budget(p, cap_help: str) -> None:
        p.add_argument("--epsilon", type=float, default=channel.EPSILON_DEFAULT, help="truncation tail budget")
        p.add_argument("--max-cutoff", type=int, default=channel.CUTOFF_CAP, help=cap_help)

    def output_format(p) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p = add("fidelity", "closed-form fidelity at one parameter point", _cmd_fidelity)
    geometry(p)
    output_format(p)

    p = add("simulate", "protocol run vs the closed form", _cmd_simulate)
    geometry(p)
    p.add_argument("--alpha-re", type=float, default=1.0, help="Re alpha of the input qubit")
    p.add_argument("--alpha-im", type=float, default=0.0, help="Im alpha of the input qubit")
    p.add_argument("--beta-re", type=float, default=0.0, help="Re beta of the input qubit")
    p.add_argument("--beta-im", type=float, default=0.0, help="Im beta of the input qubit")
    budget(p, "hard cap on the Fock cutoff")
    output_format(p)

    p = add("sweep", "fidelity surface over a (radius, omega) grid", _cmd_sweep)
    for axis, noun in (("radius", "horizon radius"), ("omega", "frequency")):
        for key, help_text in (
            ("min", f"smallest {noun}"),
            ("max", f"largest {noun}"),
            ("steps", f"log-spaced grid points along {axis}"),
        ):
            default = getattr(analysis.DEFAULT_GRID, f"{axis}_{key}")
            p.add_argument(f"--{axis}-{key}", type=type(default), default=default, help=help_text)
    p.add_argument("--mode", choices=analysis.SWEEP_MODES, default="analytic-only", help="evaluation mode")
    budget(p, "cutoff cap for simulated points")
    p.add_argument("--out", required=True, help="output file path")
    output_format(p)

    p = add("converge", "simulation error vs Fock cutoff", _cmd_converge)
    p.add_argument("--tanh-r", type=float, default=None, help="squeezing as tanh r in [0, 1)")
    p.add_argument("--mass", type=float, default=None, help="black-hole mass M (Planck units)")
    p.add_argument("--omega", type=float, default=None, help="mode frequency (Planck units)")
    p.add_argument("--cutoffs", required=True, help="comma-separated ascending cutoffs, e.g. 5,10,20,30")
    p.add_argument("--out", default=None, help="output file path (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (channel.DivergentSqueezing, channel.CutoffInfeasible, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return {channel.DivergentSqueezing: 2, channel.CutoffInfeasible: 3}.get(type(exc), 1)


def entry() -> None:
    sys.exit(main())
