"""Command-line contract: flags, exit codes, and serialized output formats."""

import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizon_teleport import analysis, channel, cli, teleport
from horizon_teleport.channel import SqueezeParams
from horizon_teleport.teleport import fidelity_analytic
from oracles import LAW_RTOL, PI_60, finite_cutoff_law, law_deviation

ROOT = Path(__file__).resolve().parent.parent

HIGH_CORNER = (1.0 - math.exp(-2.0 * math.pi)) ** 3


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse paths (--help, bad flags)
        return exc.code if isinstance(exc.code, int) else 0


def parse_csv(text):
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def parse_summary_comments(text):
    pairs = {}
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            pairs[key] = value
    return pairs


# ---------------------------------------------------------------- fidelity


def test_fidelity_prints_one_record(capsys):
    assert run_cli(["fidelity", "--radius", "1", "--omega", "1"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == list(analysis.SweepRecord._fields)
    assert len(rows) == 1
    record = dict(zip(header, rows[0]))
    assert float(record["radius"]) == 1.0
    assert float(record["mass"]) == 0.5
    assert float(record["fidelity_analytic"]) == pytest.approx(HIGH_CORNER, abs=1e-15)
    assert record["fidelity_analytic"] == "%.17g" % HIGH_CORNER
    assert record["fidelity_numeric"] == ""
    assert record["flags"] == ""


def test_fidelity_mass_and_radius_agree(capsys):
    assert run_cli(["fidelity", "--radius", "1", "--omega", "1"]) == 0
    by_radius = capsys.readouterr().out
    assert run_cli(["fidelity", "--mass", "0.5", "--omega", "1"]) == 0
    by_mass = capsys.readouterr().out
    assert by_radius == by_mass


def test_fidelity_json_matches_csv(capsys):
    assert run_cli(["fidelity", "--radius", "0.25", "--omega", "0.5"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    record = dict(zip(header, rows[0]))

    assert run_cli(["fidelity", "--radius", "0.25", "--omega", "0.5", "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert set(entry) == set(analysis.SweepRecord._fields)
    for field in ("radius", "omega", "mass", "r_squeeze", "fidelity_analytic"):
        assert float(record[field]) == entry[field]
    assert entry["fidelity_numeric"] is None and record["fidelity_numeric"] == ""


def test_fidelity_validation_exit_codes(capsys):
    assert run_cli(["fidelity", "--radius", "0", "--omega", "1"]) == 1
    assert run_cli(["fidelity", "--radius", "-2", "--omega", "1"]) == 1
    assert run_cli(["fidelity", "--radius", "1", "--omega", "-1"]) == 1
    # zero is not positive: refused as input, not reported as divergent
    assert run_cli(["fidelity", "--radius", "1", "--omega", "0"]) == 1
    assert run_cli(["fidelity", "--mass", "0", "--omega", "1"]) == 1
    assert run_cli(["fidelity", "--radius", "1"]) == 1  # omega missing
    assert run_cli(["fidelity", "--omega", "1"]) == 1  # neither mass nor radius
    assert run_cli(["fidelity", "--mass", "1", "--radius", "1", "--omega", "1"]) == 1
    assert run_cli(["not-a-command"]) == 1
    capsys.readouterr()


def test_divergent_squeezing_exits_2_with_the_product(capsys):
    assert run_cli(["fidelity", "--mass", "1e-18", "--omega", "1"]) == 2
    err = capsys.readouterr().err
    assert "1e-18" in err


# ---------------------------------------------------------------- simulate


def test_simulate_flat_limit_rows(capsys):
    # flat space, and 2 pi M Omega overflowed to inf, where tanh^0 r must
    # still be 1: no NaN and no numpy warning
    for mass, omega in (("100", "100"), ("1", "1e308"), ("inf", "1")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["simulate", "--mass", mass, "--omega", omega]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        header, rows = parse_csv(out)
        assert header == ["label", "probability", "fidelity", "flags"]
        assert [r[0] for r in rows] == ["00", "01", "10", "11"]
        for row in rows:
            assert float(row[1]) == pytest.approx(0.25, abs=1e-10)
            assert float(row[2]) == pytest.approx(1.0, abs=1e-10)
        summary = parse_summary_comments(out)
        assert summary["n_max"] == "1"
        assert float(summary["truncation_loss"]) == pytest.approx(0.0, abs=1e-12)


def test_simulate_matches_the_closed_form(capsys):
    assert run_cli(["simulate", "--mass", "0.5", "--omega", "1"]) == 0
    summary = parse_summary_comments(capsys.readouterr().out)
    assert float(summary["fidelity_analytic"]) == pytest.approx(HIGH_CORNER, abs=1e-12)
    assert float(summary["abs_deviation"]) <= 1e-6
    assert int(summary["n_max"]) >= 1


def test_simulate_measures_its_input_once_per_outcome(count_calls, capsys):
    projections = count_calls(teleport, "project")
    argv = ["simulate", "--mass", "1", "--omega", "0.11", "--alpha-re", "0.6", "--beta-im", "0.8"]
    assert run_cli(argv) == 0
    assert len(projections) == 4
    assert run_cli(argv) == 0  # the same input again is a new qubit
    assert len(projections) == 8
    capsys.readouterr()


def test_simulate_reported_loss_stays_within_epsilon(capsys):
    # tanh r 0.99: 1312 is the first cutoff whose dual-rail tail, the loss
    # the run reports, is within the default budget 1e-10 (it loses 9.82e-11)
    assert run_cli(["simulate", "--mass", "1", "--omega", "0.0016"]) == 0
    summary = parse_summary_comments(capsys.readouterr().out)
    assert summary["n_max"] == "1312"
    assert float(summary["truncation_loss"]) <= 1e-10


def test_simulate_json_format(capsys):
    assert run_cli(
        ["simulate", "--mass", "0.5", "--omega", "1", "--beta-re", "1", "--alpha-re", "0", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "outcomes", "fidelity_analytic", "abs_deviation", "n_max", "truncation_loss",
    }
    assert [o["label"] for o in data["outcomes"]] == ["00", "01", "10", "11"]
    assert data["abs_deviation"] <= 1e-6


def test_simulate_csv_and_json_carry_identical_values(capsys):
    args = ["simulate", "--mass", "1", "--omega", "0.11", "--alpha-re", "0.6", "--beta-im", "0.8"]
    assert run_cli(args) == 0
    text = capsys.readouterr().out
    assert run_cli(args + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)

    header, rows = parse_csv(text)
    assert len(rows) == len(data["outcomes"]) == 4
    for row, entry in zip(rows, data["outcomes"]):
        assert list(entry) == header
        record = dict(zip(header, row))
        assert (record["label"], record["flags"]) == (entry["label"], entry["flags"])
        for field in ("probability", "fidelity"):
            assert float(record[field]) == entry[field]  # 17 digits round-trip exactly
    summary = parse_summary_comments(text)
    assert list(summary) == [key for key in data if key != "outcomes"]
    assert int(summary["n_max"]) == data["n_max"]
    for key in ("fidelity_analytic", "abs_deviation", "truncation_loss"):
        assert float(summary[key]) == data[key]


def test_simulate_validation_exit_codes(capsys):
    assert run_cli(["simulate", "--mass", "1", "--omega", "1", "--beta-re", "1"]) == 1
    assert run_cli(["simulate", "--mass", "1", "--omega", "1", "--epsilon", "0.5"]) == 1
    assert run_cli(["simulate", "--mass", "1", "--omega", "1", "--max-cutoff", "0"]) == 1
    # NaN fails every comparison, so a norm check written as "> tol" let it
    # through to four NaN rows and a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["simulate", "--mass", "1", "--omega", "0.1", "--alpha-re", "nan"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "normalized" in err
    # near-normalized input within the 1e-6 budget is renormalized, not refused
    assert run_cli(["simulate", "--mass", "1", "--omega", "1", "--alpha-re", "1.0000004"]) == 0
    capsys.readouterr()


def test_simulate_reads_a_negative_amplitude_in_exponent_notation(capsys):
    argv = ["simulate", "--mass", "1", "--omega", "0.3", "--alpha-re", "1", "--beta-re", "-6.9e-05"]
    assert run_cli(argv) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["00", "01", "10", "11"]


def test_simulate_infeasible_cutoff_exits_3(capsys):
    # M Omega = 1e-4 needs cutoff 20986
    assert run_cli(["simulate", "--mass", "0.001", "--omega", "0.1", "--max-cutoff", "40"]) == 3
    assert "cutoff" in capsys.readouterr().err
    # M Omega = 2.098524e-5 needs cutoff 100001, one level above the
    # default cap of 100000 that the README states
    argv = ["simulate", "--mass", "1", "--omega", "2.098524e-05"]
    assert run_cli(argv) == 3
    assert "no cutoff <= 100000 reaches" in capsys.readouterr().err
    assert run_cli(argv + ["--max-cutoff", "100001"]) == 0
    assert "# n_max=100001\n" in capsys.readouterr().out


# the paper's claim as numbers: F = (1 - exp(-4 pi M W))^3 falls to a
# threshold F* at M W* = -ln(1 - F*^(1/3)) / (4 pi).  F* = 2/3 is the best a
# measure-and-prepare scheme reaches on an unknown qubit (Massar & Popescu,
# PRL 74, 1259 (1995)); 0.9 and 0.99 are stricter marks.  Each with M W* to
# five digits and the number of the default surface's 2500 points above it
CROSSOVERS = [(Fraction(2, 3), "0.16458", 30), (Fraction(9, 10), "0.26790", 12), (Fraction(99, 100), "0.45363", 1)]


@pytest.mark.parametrize("threshold, product, above", CROSSOVERS)
def test_simulate_crosses_each_fidelity_threshold_where_the_closed_form_does(capsys, threshold, product, above):
    with localcontext() as ctx:
        ctx.prec = 60
        cube = (Decimal(threshold.numerator) / threshold.denominator) ** (Decimal(1) / 3)
        crossover = -(1 - cube).ln() / (4 * PI_60)
    assert round(crossover, 5) == Decimal(product)
    # a point 1e-6 below M W* squeezes harder and falls below F*, one 1e-6
    # above rises over it: the fidelity moves by 5.7e-8 or more, the
    # truncation by 1e-10 at most
    for scale in (1 - 1e-6, 1 + 1e-6):
        argv = ["simulate", "--mass", "1", "--omega", repr(float(crossover) * scale)]
        assert run_cli(argv) == 0
        text = capsys.readouterr().out
        _assert_the_finite_cutoff_law(argv, text)
        header, cells = parse_csv(text)
        fidelities = [Decimal(row[header.index("fidelity")]) for row in cells]
        assert len(fidelities) == 4
        assert all((fidelity > threshold) == (scale > 1) for fidelity in fidelities), (scale, fidelities)
    records = analysis.sweep(analysis.DEFAULT_GRID)
    assert sum(record.fidelity_analytic > threshold for record in records) == above


# ---------------------------------------------------------------- sweep


def test_sweep_default_grid_rows_and_determinism(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(["sweep", "--out", str(first)]) == 0
    assert run_cli(["sweep", "--out", str(second)]) == 0

    data = first.read_bytes()
    assert data == second.read_bytes()
    assert b"\r" not in data
    lines = data.decode("ascii").split("\n")
    assert lines[0] == ",".join(analysis.SweepRecord._fields)
    assert len(lines) == 1 + 2500 + 1  # header + records + trailing LF


def test_sweep_csv_and_json_carry_identical_values(tmp_path):
    args = [
        "sweep",
        "--radius-min", "0.5", "--radius-max", "1", "--radius-steps", "3",
        "--omega-min", "0.5", "--omega-max", "1", "--omega-steps", "2",
        "--mode", "with-simulation", "--max-cutoff", "25",
    ]
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    assert run_cli(args + ["--out", str(csv_path)]) == 0
    assert run_cli(args + ["--out", str(json_path), "--format", "json"]) == 0

    header, rows = parse_csv(csv_path.read_text())
    entries = json.loads(json_path.read_text())
    assert len(rows) == len(entries) == 6
    for row, entry in zip(rows, entries):
        record = dict(zip(header, row))
        for field in analysis.SweepRecord._fields:
            cell, value = record[field], entry[field]
            if field == "flags":
                assert cell == value
            elif cell == "":
                assert value is None
            elif field == "n_max":
                assert int(cell) == value
            else:
                assert float(cell) == value  # 17 digits round-trip exactly
        assert abs(entry["fidelity_numeric"] - entry["fidelity_analytic"]) <= 1e-6


def test_sweep_reported_loss_stays_within_epsilon(tmp_path):
    # the first corner sits where the one-photon tail alone is within 1e-10
    # at cutoff 12, where the run loses 1.0086e-10
    out = tmp_path / "corner.csv"
    assert run_cli([
        "sweep",
        "--radius-min", "0.61893828630197589", "--radius-max", "1", "--radius-steps", "2",
        "--omega-min", "0.54590135636655879", "--omega-max", "1", "--omega-steps", "2",
        "--mode", "with-simulation", "--out", str(out),
    ]) == 0
    header, rows = parse_csv(out.read_text())
    records = [dict(zip(header, r)) for r in rows]
    assert (records[0]["radius"], records[0]["omega"]) == ("0.61893828630197589", "0.54590135636655879")
    assert records[0]["n_max"] == "13"
    for record in records:
        assert float(record["truncation_loss"]) <= 1e-10


def test_sweep_records_divergent_and_capped_points(tmp_path):
    out = tmp_path / "flags.csv"
    assert run_cli([
        "sweep",
        "--radius-min", "2e-18", "--radius-max", "0.002", "--radius-steps", "2",
        "--omega-min", "1", "--omega-max", "2", "--omega-steps", "2",
        "--mode", "with-simulation", "--max-cutoff", "10",
    ] + ["--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    records = [dict(zip(header, r)) for r in rows]

    divergent = [r for r in records if float(r["radius"]) == 2e-18]
    assert len(divergent) == 2
    for r in divergent:
        assert r["flags"] == "divergent"
        assert r["r_squeeze"] == ""
        assert float(r["fidelity_analytic"]) == 0.0

    capped = [r for r in records if float(r["radius"]) != 2e-18]
    assert len(capped) == 2  # tanh r too close to 1 for a cutoff of 10
    for r in capped:
        assert r["flags"] == "cutoff-capped"
        assert r["fidelity_numeric"] == ""
        assert float(r["fidelity_analytic"]) > 0.0


def test_sweep_thread_env_does_not_change_output(tmp_path, monkeypatch):
    args = ["sweep", "--radius-steps", "4", "--omega-steps", "3"]
    monkeypatch.setenv("HORIZON_TELEPORT_THREADS", "2")
    threaded = tmp_path / "threads2.csv"
    assert run_cli(args + ["--out", str(threaded)]) == 0
    for setting in ("1", "0"):  # 0, as unset, runs on the calling thread
        monkeypatch.setenv("HORIZON_TELEPORT_THREADS", setting)
        serial = tmp_path / f"threads{setting}.csv"
        assert run_cli(args + ["--out", str(serial)]) == 0
        assert threaded.read_bytes() == serial.read_bytes()

    monkeypatch.setenv("HORIZON_TELEPORT_THREADS", "abc")
    assert run_cli(args + ["--out", str(tmp_path / "bad.csv")]) == 1
    monkeypatch.setenv("HORIZON_TELEPORT_THREADS", "-1")
    assert run_cli(args + ["--out", str(tmp_path / "bad.csv")]) == 1


def test_sweep_validation_and_io_errors(tmp_path, capsys):
    assert run_cli([
        "sweep", "--radius-min", "2", "--radius-max", "1",
        "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert run_cli(["sweep", "--out", str(tmp_path / "no-such-dir" / "x.csv")]) == 1
    assert run_cli(["sweep"]) == 1  # --out is required
    capsys.readouterr()


@pytest.mark.parametrize("edge", ["--radius-max", "--omega-max"])
def test_sweep_refuses_an_infinite_edge(tmp_path, capsys, edge):
    # an infinite edge would put inf and NaN on the log axis
    out = tmp_path / "o.csv"
    argv = ["sweep", edge, "inf", "--radius-steps", "3", "--omega-steps", "3", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == 1
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_sweep_above_the_grid_limit_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(analysis.SweepGrid, "_axis", staticmethod(built))
    out = tmp_path / "o.csv"
    # GRID_LIMIT + 1 = 3 x 699051 points, and 200000000 points
    for radius_steps, omega_steps in ((3, (analysis.GRID_LIMIT + 1) // 3), (100000000, 2)):
        argv = ["sweep", "--radius-steps", str(radius_steps), "--omega-steps", str(omega_steps)]
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert not out.exists()
        size = radius_steps * omega_steps
        assert f"{radius_steps} x {omega_steps} grid ({size} points)" in capsys.readouterr().err
        assert size > analysis.GRID_LIMIT


def test_a_cutoff_cap_above_the_limit_exits_1_before_any_point(tmp_path, capsys):
    # at cap 10^9 the first point's cutoff, 325969711, lies between the
    # limit and the cap; the sweep is refused whole, not aborted there, and
    # at a cap equal to the limit that point is flagged and the rest run
    out = tmp_path / "o.csv"
    argv = [
        "sweep", "--mode", "with-simulation", "--epsilon", "0.1", "--out", str(out),
        "--radius-min", "2e-5", "--radius-max", "1", "--radius-steps", "2",
        "--omega-min", "1e-4", "--omega-max", "1", "--omega-steps", "2",
    ]
    assert run_cli(argv + ["--max-cutoff", "1000000000"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: cutoff cap 1000000000 is above the limit of 134217728 levels\n"

    assert run_cli(argv + ["--max-cutoff", str(channel.CUTOFF_LIMIT)]) == 0
    _, rows = parse_csv(out.read_text())
    assert [row[-1] for row in rows] == ["cutoff-capped", "", "", ""]
    assert all(row[5] for row in rows[1:])  # simulated


# a sweep command's peak memory per point, times GRID_LIMIT: the largest
# grid fits in the 1.2 GB that the README states
GRID_LIMIT_BYTES = 1.2e9


def test_a_sweep_holds_the_same_memory_per_point_on_the_thread_pool(tmp_path, monkeypatch):
    # the whole command on its costliest output, JSON, which builds a dict
    # per record; the pool holds one row of futures, not one per point
    argv = ["sweep", "--radius-steps", "100", "--omega-steps", "100", "--format", "json"]
    peaks = []
    for threads in ("1", "2"):
        monkeypatch.setenv(cli.THREADS_ENV, threads)
        tracemalloc.start()
        try:
            assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_thread, pooled = peaks
    assert pooled <= 1.2 * one_thread, peaks
    assert max(peaks) / 100**2 * analysis.GRID_LIMIT <= GRID_LIMIT_BYTES, peaks


# ---------------------------------------------------------------- converge


def test_converge_table_on_stdout(capsys):
    assert run_cli(["converge", "--tanh-r", "0.5", "--cutoffs", "5,10,20,30"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == list(analysis.ConvergenceRow._fields)
    assert [int(r[0]) for r in rows] == [5, 10, 20, 30]
    errors = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-6


def test_converge_flat_and_file_output(tmp_path, capsys):
    # flat space, and the overflowed 2 pi M Omega of the simulate test above
    for geometry in (["--tanh-r", "0"], ["--mass", "1e308", "--omega", "10"]):
        argv = ["converge"] + geometry + ["--cutoffs", "1,2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 0
        stdout, err = capsys.readouterr()
        assert err == ""
        _, rows = parse_csv(stdout)
        for row in rows:
            assert float(row[1]) <= 1e-12
            assert float(row[2]) <= 1e-12

        out = tmp_path / "table.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert out.read_text() == stdout


def test_converge_accepts_mass_and_omega(capsys):
    assert run_cli(["converge", "--mass", "0.5", "--omega", "1", "--cutoffs", "2,4"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 2


def test_cutoff_above_the_limit_exits_1(capsys, monkeypatch):
    def summed(*args):
        raise AssertionError("Bob's norms were summed")

    monkeypatch.setattr(channel, "_schmidt_norms", summed)
    for n_max in (channel.CUTOFF_LIMIT + 1, 10**12):
        assert run_cli(["converge", "--tanh-r", "0.5", "--cutoffs", str(n_max)]) == 1
        err = capsys.readouterr().err
        assert f"cutoff {n_max} is above the limit of {channel.CUTOFF_LIMIT} levels" in err


@pytest.mark.parametrize(
    "argv, params",
    [
        (["--tanh-r", "0.5", "--cutoffs", "5,10,20,30"], SqueezeParams.from_tanh(0.5)),
        # M Omega = 1e-7, tanh r = 1 - 6e-7: cutoffs in the millions keep
        # most of Bob's state
        (["--mass", "1e-3", "--omega", "1e-4", "--cutoffs", "2000000,4000000"], SqueezeParams(1e-3, 1e-4)),
    ],
)
def test_converge_error_is_the_closed_form_times_the_lost_odds(capsys, argv, params):
    # with K = 1 - L the weight a branch keeps, the run reports F / K, so
    # its error against the closed form F is F L / (1 - L); worst measured
    # 15.8 ulp(F), at the divergent point.  The loss column is 1 - sum p,
    # which cancels to ulp noise, so its gate is absolute (worst measured
    # 2.19e-15, 9.8 machine epsilons, at cutoff 4000000)
    assert run_cli(["converge", *argv]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == list(analysis.ConvergenceRow._fields)
    cutoffs = [int(c) for c in argv[-1].split(",")]
    assert [int(row[0]) for row in rows] == cutoffs
    closed = fidelity_analytic(params)
    for n_max, abs_error, loss in rows:
        probability, _ = finite_cutoff_law(params.decay, int(n_max))
        lost = 1 - 4 * probability
        assert float(loss) == pytest.approx(float(lost), rel=0.0, abs=4e-15), n_max
        expected = Decimal(closed) * lost / (1 - lost)
        deviation = abs(Decimal(float(abs_error)) - expected)
        assert deviation <= LAW_RTOL * closed + math.ulp(closed), n_max


def test_converge_names_the_cutoff_when_every_outcome_is_degenerate(capsys):
    # M Omega = 1e-7: tanh r = 1 - 6e-7, so cutoffs 5 and 10 keep almost none
    # of Bob's state and every outcome falls below DEGENERATE_PROBABILITY
    assert run_cli(["converge", "--mass", "1e-3", "--omega", "1e-4", "--cutoffs", "5,10"]) == 1
    err = capsys.readouterr().err
    assert "cutoff" in err
    assert "retain probability" in err


def test_converge_validation_exit_codes(capsys):
    assert run_cli(["converge", "--tanh-r", "0.5", "--cutoffs", ""]) == 1
    assert run_cli(["converge", "--tanh-r", "0.5", "--cutoffs", "10,5"]) == 1
    assert run_cli(["converge", "--tanh-r", "1.0", "--cutoffs", "5"]) == 1
    assert run_cli(["converge", "--cutoffs", "5"]) == 1  # no parameter choice
    assert run_cli(["converge", "--tanh-r", "0.5", "--mass", "1", "--omega", "1", "--cutoffs", "5"]) == 1
    assert run_cli(["converge", "--tanh-r", "0.5", "--omega", "1", "--cutoffs", "5"]) == 1
    capsys.readouterr()
    # half a geometry is named as such, not as a missing number
    assert run_cli(["converge", "--mass", "1", "--cutoffs", "5"]) == 1
    assert "give either --tanh-r or both --mass and --omega" in capsys.readouterr().err


# ---------------------------------------------------------------- shared contract


_FLAGS = ("", "divergent", "cutoff-capped")


class _Row(NamedTuple):
    x: object
    flags: str


def test_csv_cells_follow_each_value_even_where_values_repeat():
    # the writer formats each repeated float once; 0.0 and -0.0 compare
    # equal yet print apart, and None prints as an empty cell
    values = (0.0, -0.0, 0.0, 0.1, -0.0, 0.1, None, math.nan, 3)
    out = io.StringIO()
    cli._write_rows([_Row(v, _FLAGS[i % 3]) for i, v in enumerate(values)], out, "csv")
    assert out.getvalue().split("\n") == [
        "x,flags", "0,", "-0,divergent", "0,cutoff-capped", "0.10000000000000001,", "-0,divergent",
        "0.10000000000000001,cutoff-capped", ",", "nan,divergent", "3,cutoff-capped", "",
    ]


_RECORDS = (analysis.SweepRecord, teleport.TeleportOutcome, analysis.ConvergenceRow)
# the edges of the double: signed zeros, nan, infinities, subnormals, and a
# value whose 17 digits differ from its 16
_EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 0.1)


@st.composite
def _written_rows(draw):
    """(rows, summary): records of one type whose floats come from a small
    pool, so values repeat, and optionally a summary like simulate's."""
    record = draw(st.sampled_from(_RECORDS))
    pool = draw(st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(), min_size=1, max_size=4))
    number = st.sampled_from(pool) | st.none() | st.integers(-(2**70), 2**70)

    def cell(name):
        if name == "label":
            return st.sampled_from(teleport.OUTCOME_LABELS)
        if name == "flags":
            return st.sampled_from(_FLAGS)
        return number

    rows = draw(st.lists(st.tuples(*map(cell, record._fields)).map(record._make), min_size=1, max_size=6))
    keys = ("fidelity_analytic", "abs_deviation", "n_max", "truncation_loss")
    summary = draw(st.none() | st.tuples(*[number] * len(keys)).map(lambda values: dict(zip(keys, values))))
    return rows, summary


def _csv_cell(value):
    if isinstance(value, float):
        return "%.17g" % value
    return "" if value is None else str(value)


@settings(max_examples=60, deadline=None)
@given(_written_rows())
@example(([analysis.ConvergenceRow(v, v, None) for v in (0.0, -0.0, 0.1, 0.0)], None))
def test_csv_rows_are_what_the_csv_module_writes(written):
    # _write_rows joins its cells without quoting; that matches csv.writer
    # because no field name, outcome label or flag holds a character that
    # csv would quote, and formatted numbers never do
    for text in (*(name for record in _RECORDS for name in record._fields), *teleport.OUTCOME_LABELS, *_FLAGS):
        assert not set(text) & set(',"\r\n'), text
    rows, summary = written
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(rows[0]._fields)
    writer.writerows(map(_csv_cell, row) for row in rows)
    for key, value in (summary or {}).items():
        expected.write(f"# {key}={_csv_cell(value)}\n")
    out = io.StringIO()
    cli._write_rows(rows, out, "csv", summary)
    assert out.getvalue() == expected.getvalue()


def _reads_back(cell, value):
    """A CSV cell holds its JSON value: None as an empty cell, strings as
    they are, and numbers exactly, from 17 digits."""
    if value is None or isinstance(value, str):
        return cell == (value or "")
    return type(value)(cell) == value


# a sweep whose cap leaves some points simulated and flags the rest, so
# both filled and empty cells are compared
_FORMAT_SWEEP = (
    "sweep --mode with-simulation --max-cutoff 25 --radius-min 0.01 --radius-max 1 --radius-steps 6"
    " --omega-min 0.01 --omega-max 1 --omega-steps 5"
)


@pytest.mark.parametrize(
    "argv, record",
    [
        (["fidelity", "--radius", "0.25", "--omega", "0.5"], analysis.SweepRecord),
        (["simulate", "--mass", "1", "--omega", "0.11", "--alpha-re", "0.6", "--beta-im", "0.8"], teleport.TeleportOutcome),
        (shlex.split(_FORMAT_SWEEP), analysis.SweepRecord),
        (["converge", "--tanh-r", "0.5", "--cutoffs", "5,10"], analysis.ConvergenceRow),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value.__name__,
)
def test_csv_and_json_rows_are_the_record_fields_with_identical_values(tmp_path, capsys, argv, record):
    # a row is its record: the CSV header and the JSON keys are _fields, and
    # each JSON value reads back from its CSV cell; simulate's summary
    # comments are its JSON keys beside "outcomes", in order
    out = tmp_path / "out"
    to_file = ["--out", str(out)] if argv[0] == "sweep" else []

    def written(fmt):
        assert run_cli(argv + to_file + (["--format", fmt] if fmt == "json" else [])) == 0
        stdout = capsys.readouterr().out
        return out.read_text() if to_file else stdout

    text = written("csv")
    header, rows = parse_csv(text)
    assert tuple(header) == record._fields
    if argv[0] == "converge":  # CSV only
        return
    data = json.loads(written("json"))
    if argv[0] == "simulate":
        summary = parse_summary_comments(text)
        assert list(data) == ["outcomes", *summary] == [
            "outcomes", "fidelity_analytic", "abs_deviation", "n_max", "truncation_loss",
        ]
        assert all(_reads_back(cell, data[key]) for key, cell in summary.items())
        data = data["outcomes"]
    assert len(data) == len(rows)
    for row, entry in zip(rows, data):
        assert tuple(entry) == record._fields
        assert all(_reads_back(cell, value) for cell, value in zip(row, entry.values(), strict=True)), entry


def _readme_examples():
    """(argv, expected lines) for each ``$ horizon-teleport`` example in the
    README that prints to stdout; a continued command line ends in "\\"."""
    examples = []
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    for block in blocks:
        lines = block.strip("\n").split("\n")
        while lines and lines[0].startswith("$ horizon-teleport "):
            command = lines.pop(0)
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            printed = []
            while lines and not lines[0].startswith("$ "):
                printed.append(lines.pop(0))
            argv = shlex.split(command)[2:]
            if "--out" not in argv:
                examples.append((argv, printed))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_lists_the_stdout_examples():
    assert sorted(argv[0] for argv, _ in README_EXAMPLES) == [
        "converge", "converge", "fidelity", "simulate",
    ]


@pytest.mark.parametrize(
    "argv, expected", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example_prints_what_the_readme_shows(argv, expected, capsys):
    assert run_cli(argv) == 0
    printed = capsys.readouterr().out.split("\n")
    assert printed.pop() == ""  # every line ends in LF
    if "..." in expected:  # it stands for printed lines left out of the README
        cut = expected.index("...")
        after = len(expected) - cut - 1
        assert len(printed) >= len(expected) - 1
        printed = printed[:cut] + printed[len(printed) - after:]
        expected = expected[:cut] + expected[cut + 1:]
    assert printed == expected


def test_readme_library_example_prints_the_closed_form(capsys):
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    (code,) = [b.removeprefix("python\n") for b in blocks if b.startswith("python\n")]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].endswith("0.421875")


_README_GRID = (
    "sweep --mode with-simulation --radius-min 0.5 --radius-max 1 --radius-steps 4"
    " --omega-min 0.5 --omega-max 1 --omega-steps 4"
)
# simulate --mass 1 at tanh r 0.3, 0.7 and 0.99
_TANH_OMEGAS = ("0.191618223156684", "0.056766580404873923", "0.0015995606308184588")
# the default input, the README's, and a generic one whose printed digits
# change with the rounding of the run's scalar steps
_INPUTS = (
    "",
    " --alpha-re 0.6 --beta-im 0.8 --format json",
    " --alpha-re 0.386530 --alpha-im -0.569622 --beta-re -0.274639 --beta-im 0.671341",
)

# sha256 of the file a simulated sweep writes, or of what the other
# commands print; any change to a printed digit of a simulated value shows
SIMULATED_DIGESTS = dict(
    zip(
        [_README_GRID, _README_GRID + " --format json"]
        + [f"simulate --mass 1 --omega {omega}{qubit}" for omega in _TANH_OMEGAS for qubit in _INPUTS]
        + ["converge --tanh-r 0.5 --cutoffs 5,10,20,30"],
        [
            "bb2c5fe4dbfd87ccf649cec113c2bfc260c19471e62f7569d1e6f309efdf66c1",
            "01e665394908cca7888096ceaf13ea1c46eca8f70b8e5d63be1d44686a1bf185",
            "5d375bc0996506e4aa568c1b5cea2b0f58c16567bda0f17f49af9179dc3ca21d",
            "6b60b05c360a946804f5571e8f25629d37416b5cbd9fabe7e84752f134ac8bef",
            "20fb9730037ebc8a3080648f2fdbf95b13fc62f74f7dcb53a5ae6ab368ea14d8",
            "9b72a5775b3f77d28a86b2dfd280b812cf8092c0fda83f4431ae8ec04a2bbc08",
            "8446686f5ae065e3db18aecbe60d4ec6fbf56049c33a95a688c018774640c0d3",
            "38e092099ab139a7be5936a95480f6e2ccd4ad2b276def71414a170f716a437e",
            "302439084094c9ea9adf39bc8faa93e51373fd95653ec97941d1cdac57d6f2a7",
            "98a648eb82ea02250daf1e51a93103135a01c1438fc411c07ed48e4c5b54f8b0",
            "91c6662598e6b05dc67271a6ccd088093d2a7cae52b3ed9930e848b7e6adcad9",
            "f811f2ff139ef7fde7b93afac3880925157c3f6869223d122ac2f477c5c4874c",
        ],
    )
)


def _assert_the_finite_cutoff_law(argv, text):
    if "json" in argv:
        data = json.loads(text)
        rows, n_max = data["outcomes"], data["n_max"]
    else:
        header, cells = parse_csv(text)
        rows = [dict(zip(header, r)) for r in cells]
        n_max = int(parse_summary_comments(text)["n_max"])
    omega = float(argv[argv.index("--omega") + 1])
    probability, fidelity = finite_cutoff_law(SqueezeParams(1.0, omega).decay, n_max)
    for row in rows:
        assert law_deviation(float(row["probability"]), probability) <= LAW_RTOL
        assert law_deviation(float(row["fidelity"]), fidelity) <= LAW_RTOL


@pytest.mark.parametrize("command", list(SIMULATED_DIGESTS))
def test_simulated_outputs_are_pinned_byte_for_byte(command, tmp_path, capsys):
    argv = shlex.split(command)
    out = tmp_path / "surface"
    if argv[0] == "sweep":
        argv += ["--out", str(out)]
    assert run_cli(argv) == 0
    data = out.read_bytes() if argv[0] == "sweep" else capsys.readouterr().out.encode()
    if argv[0] == "simulate":
        # checked first, so a changed digit says how far it moved
        _assert_the_finite_cutoff_law(argv, data.decode())
    assert hashlib.sha256(data).hexdigest() == SIMULATED_DIGESTS[command]


def test_every_subcommand_help_lists_defaults(capsys):
    for name in ("fidelity", "simulate", "sweep", "converge"):
        assert run_cli([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert "(default:" in out
        assert "(default: None)" not in out


def test_the_output_does_not_depend_on_the_blas_thread_count():
    # the README's multi-block converge example: OpenBLAS splits a dot of
    # more than 10000 elements over its threads, which moves the last
    # digits of a sum; on one CPU both runs take one thread
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["converge", "--mass", "1e-3", "--omega", "1e-4", "--cutoffs", "2000000,4000000"]
    printed = [
        subprocess.run(
            [sys.executable, "-m", "horizon_teleport", *argv],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert printed[0] == printed[1]


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "horizon_teleport", "fidelity", "--radius", "1", "--omega", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith(",".join(analysis.SweepRecord._fields[:3]))
