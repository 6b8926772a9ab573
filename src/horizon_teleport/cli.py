"""Command-line front end.

Four subcommands: ``fidelity`` evaluates the closed-form law at one
parameter point, ``simulate`` runs the brute-force protocol and compares,
``sweep`` writes the fidelity surface over a (radius, omega) grid, and
``converge`` tabulates simulation error against the cutoff.

Exit codes: 0 success, 1 validation failure, 2 divergent squeezing,
3 infeasible cutoff.  Output formats are deterministic byte for byte:
floats carry 17 significant digits, lines end with LF, and the CSV and
JSON writers expose identical field names.  ``HORIZON_TELEPORT_THREADS``
caps sweep parallelism (0 or unset picks one worker per CPU); the output
does not depend on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

from . import analysis, channel, teleport

__all__ = ["main", "entry", "SWEEP_COLUMNS", "CONVERGE_COLUMNS"]

SWEEP_COLUMNS = (
    "radius",
    "omega",
    "mass",
    "r_squeeze",
    "fidelity_analytic",
    "fidelity_numeric",
    "n_max",
    "truncation_loss",
    "flags",
)

CONVERGE_COLUMNS = ("n_max", "abs_error", "truncation_loss")

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


def _g(value: float) -> str:
    # 17 significant digits round-trip any double exactly
    return "%.17g" % value


def _record_cells(rec: analysis.SweepRecord) -> list[str]:
    return [
        _g(rec.radius),
        _g(rec.omega),
        _g(rec.mass),
        "" if rec.r_squeeze is None else _g(rec.r_squeeze),
        _g(rec.fidelity_analytic),
        "" if rec.fidelity_numeric is None else _g(rec.fidelity_numeric),
        "" if rec.n_max_used is None else str(rec.n_max_used),
        "" if rec.truncation_loss is None else _g(rec.truncation_loss),
        ";".join(rec.flags),
    ]


def _record_json(rec: analysis.SweepRecord) -> dict:
    return {
        "radius": rec.radius,
        "omega": rec.omega,
        "mass": rec.mass,
        "r_squeeze": rec.r_squeeze,
        "fidelity_analytic": rec.fidelity_analytic,
        "fidelity_numeric": rec.fidelity_numeric,
        "n_max": rec.n_max_used,
        "truncation_loss": rec.truncation_loss,
        "flags": ";".join(rec.flags),
    }


def _write_records(records: list[analysis.SweepRecord], fh, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for rec in records:
            writer.writerow(_record_cells(rec))
    else:
        json.dump([_record_json(r) for r in records], fh, indent=2)
        fh.write("\n")


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
    params = channel.squeeze_param(mass, omega, exponent_scale=args.exponent_scale)
    record = analysis.SweepRecord(
        radius=radius,
        omega=omega,
        mass=mass,
        r_squeeze=params.r_squeeze,
        fidelity_analytic=teleport.fidelity_analytic(params),
    )
    _write_records([record], sys.stdout, args.format)
    return 0


def _cmd_simulate(args) -> int:
    radius, mass = _resolve_geometry(args)
    omega = _require_positive(args.omega, "--omega")
    if not 0.0 < args.epsilon <= 0.1:
        raise ValueError(f"--epsilon must lie in (0, 0.1], got {args.epsilon!r}")
    if args.max_cutoff < 1:
        raise ValueError(f"--max-cutoff must be >= 1, got {args.max_cutoff}")

    alpha = complex(args.alpha_re, args.alpha_im)
    beta = complex(args.beta_re, args.beta_im)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > 1e-6:
        raise ValueError(
            f"input amplitudes must be normalized within 1e-6, got |a|^2+|b|^2 = {norm_sq!r}"
        )
    scale = 1.0 / math.sqrt(norm_sq)
    qubit = teleport.DualRailQubit(alpha * scale, beta * scale)

    params = channel.squeeze_param(mass, omega, exponent_scale=args.exponent_scale)
    n_max = channel.required_cutoff(params, args.epsilon, hard_cap=args.max_cutoff)
    config = teleport.ProtocolConfig(
        params=params, input=qubit, epsilon_trunc=args.epsilon, n_max_bob=n_max
    )
    outcomes = teleport.run_protocol(config)

    analytic = teleport.fidelity_analytic(params)
    deviation = abs(teleport.average_fidelity(outcomes) - analytic)
    loss = 1.0 - sum(o.probability for o in outcomes)

    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("label", "probability", "fidelity", "flags"))
        for o in outcomes:
            writer.writerow((o.label, _g(o.probability), _g(o.fidelity), ";".join(o.flags)))
        sys.stdout.write(f"# fidelity_analytic={_g(analytic)}\n")
        sys.stdout.write(f"# abs_deviation={_g(deviation)}\n")
        sys.stdout.write(f"# n_max={n_max}\n")
        sys.stdout.write(f"# truncation_loss={_g(loss)}\n")
    else:
        json.dump(
            {
                "outcomes": [
                    {
                        "label": o.label,
                        "probability": o.probability,
                        "fidelity": o.fidelity,
                        "flags": ";".join(o.flags),
                    }
                    for o in outcomes
                ],
                "fidelity_analytic": analytic,
                "abs_deviation": deviation,
                "n_max": n_max,
                "truncation_loss": loss,
            },
            sys.stdout,
            indent=2,
        )
        sys.stdout.write("\n")
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
        radius_min=args.radius_min,
        radius_max=args.radius_max,
        omega_min=args.omega_min,
        omega_max=args.omega_max,
        radius_steps=args.radius_steps,
        omega_steps=args.omega_steps,
        radius_scale=args.radius_scale,
        omega_scale=args.omega_scale,
    )
    records = analysis.sweep(
        grid,
        mode=args.mode,
        epsilon_trunc=args.epsilon,
        max_cutoff=args.max_cutoff,
        exponent_scale=args.exponent_scale,
        workers=_sweep_workers(),
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        _write_records(records, fh, args.format)
    return 0


def _cmd_converge(args) -> int:
    if args.tanh_r is not None:
        if args.mass is not None or args.omega is not None:
            raise ValueError("give either --tanh-r or --mass with --omega, not both")
        if not 0.0 <= args.tanh_r < 1.0:
            raise ValueError(f"--tanh-r must lie in [0, 1), got {args.tanh_r!r}")
        params = channel.SqueezeParams.from_tanh(args.tanh_r)
    else:
        if args.mass is None or args.omega is None:
            raise ValueError("give either --tanh-r or both --mass and --omega")
        mass = _require_positive(args.mass, "--mass")
        omega = _require_positive(args.omega, "--omega")
        params = channel.squeeze_param(mass, omega, exponent_scale=args.exponent_scale)

    cutoffs = [int(piece) for piece in args.cutoffs.split(",") if piece.strip()]
    rows = analysis.convergence_report(params.r_squeeze, cutoffs)

    fh = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CONVERGE_COLUMNS)
        for n_max, abs_error, loss in rows:
            writer.writerow((str(n_max), _g(abs_error), _g(loss)))
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ExitOneParser(
        prog="horizon-teleport",
        description="Dual-rail teleportation fidelity across a Schwarzschild horizon.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func):
        p = sub.add_parser(
            name,
            help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.add_argument(
            "--exponent-scale",
            type=float,
            default=1.0,
            help="multiplies the exponent 2*pi*M*Omega of the channel map",
        )
        p.set_defaults(func=func)
        return p

    p = add("fidelity", "closed-form fidelity at one parameter point", _cmd_fidelity)
    geom = p.add_mutually_exclusive_group(required=True)
    geom.add_argument("--mass", type=float, help="black-hole mass M (Planck units)")
    geom.add_argument("--radius", type=float, help="horizon radius r+ = 2M (Planck units)")
    p.add_argument("--omega", type=float, required=True, help="mode frequency (Planck units)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p = add("simulate", "brute-force protocol run vs the closed form", _cmd_simulate)
    geom = p.add_mutually_exclusive_group(required=True)
    geom.add_argument("--mass", type=float, help="black-hole mass M (Planck units)")
    geom.add_argument("--radius", type=float, help="horizon radius r+ = 2M (Planck units)")
    p.add_argument("--omega", type=float, required=True, help="mode frequency (Planck units)")
    p.add_argument("--alpha-re", type=float, default=1.0, help="Re alpha of the input qubit")
    p.add_argument("--alpha-im", type=float, default=0.0, help="Im alpha of the input qubit")
    p.add_argument("--beta-re", type=float, default=0.0, help="Re beta of the input qubit")
    p.add_argument("--beta-im", type=float, default=0.0, help="Im beta of the input qubit")
    p.add_argument("--epsilon", type=float, default=1e-10, help="truncation tail budget")
    p.add_argument("--max-cutoff", type=int, default=40, help="hard cap on the Fock cutoff")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p = add("sweep", "fidelity surface over a (radius, omega) grid", _cmd_sweep)
    p.add_argument("--radius-min", type=float, default=1e-4, help="smallest horizon radius")
    p.add_argument("--radius-max", type=float, default=1.0, help="largest horizon radius")
    p.add_argument("--radius-steps", type=int, default=50, help="grid points along radius")
    p.add_argument("--radius-scale", choices=analysis._SCALES, default="log", help="radius axis spacing")
    p.add_argument("--omega-min", type=float, default=1e-3, help="smallest frequency")
    p.add_argument("--omega-max", type=float, default=1.0, help="largest frequency")
    p.add_argument("--omega-steps", type=int, default=50, help="grid points along omega")
    p.add_argument("--omega-scale", choices=analysis._SCALES, default="log", help="omega axis spacing")
    p.add_argument("--mode", choices=analysis.SWEEP_MODES, default="analytic-only", help="evaluation mode")
    p.add_argument("--epsilon", type=float, default=1e-10, help="truncation tail budget")
    p.add_argument("--max-cutoff", type=int, default=40, help="cutoff cap for simulated points")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

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
    except channel.DivergentSqueezing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except channel.CutoffInfeasible as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())
