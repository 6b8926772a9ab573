"""Command-line contract: flags, exit codes, and serialized output formats."""

import csv
import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from horizon_teleport import cli
from horizon_teleport.channel import squeeze_param
from horizon_teleport.cli import CONVERGE_COLUMNS, SWEEP_COLUMNS
from horizon_teleport.teleport import fidelity_analytic

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
    assert header == list(SWEEP_COLUMNS)
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
    assert set(entry) == set(SWEEP_COLUMNS)
    for field in ("radius", "omega", "mass", "r_squeeze", "fidelity_analytic"):
        assert float(record[field]) == entry[field]
    assert entry["fidelity_numeric"] is None and record["fidelity_numeric"] == ""


def test_fidelity_validation_exit_codes(capsys):
    assert run_cli(["fidelity", "--radius", "0", "--omega", "1"]) == 1
    assert run_cli(["fidelity", "--radius", "-2", "--omega", "1"]) == 1
    assert run_cli(["fidelity", "--radius", "1", "--omega", "-1"]) == 1
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
    assert run_cli(["simulate", "--mass", "100", "--omega", "100"]) == 0
    out = capsys.readouterr().out
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
    assert lines[0] == ",".join(SWEEP_COLUMNS)
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
        for field in SWEEP_COLUMNS:
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
    monkeypatch.setenv("HORIZON_TELEPORT_THREADS", "1")
    serial = tmp_path / "threads1.csv"
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


# ---------------------------------------------------------------- converge


def test_converge_table_on_stdout(capsys):
    assert run_cli(["converge", "--tanh-r", "0.5", "--cutoffs", "5,10,20,30"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == list(CONVERGE_COLUMNS)
    assert [int(r[0]) for r in rows] == [5, 10, 20, 30]
    errors = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-6


def test_converge_flat_and_file_output(tmp_path, capsys):
    assert run_cli(["converge", "--tanh-r", "0", "--cutoffs", "1,2"]) == 0
    stdout = capsys.readouterr().out
    _, rows = parse_csv(stdout)
    for row in rows:
        assert float(row[1]) <= 1e-12

    out = tmp_path / "table.csv"
    assert run_cli(["converge", "--tanh-r", "0", "--cutoffs", "1,2", "--out", str(out)]) == 0
    assert out.read_text() == stdout


def test_converge_accepts_mass_and_omega(capsys):
    assert run_cli(["converge", "--mass", "0.5", "--omega", "1", "--cutoffs", "2,4"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 2


def test_cutoff_beyond_physical_memory_exits_1(capsys):
    # cutoff 10^12 would need 64 TB; refused before anything is allocated
    assert run_cli(["converge", "--tanh-r", "0.5", "--cutoffs", "1000000000000"]) == 1
    err = capsys.readouterr().err
    assert "cutoff 1000000000000" in err
    assert "physical memory" in err


def test_converge_runs_near_the_divergence(capsys):
    # M Omega = 1e-7, tanh r = 1 - 6e-7: cutoffs in the millions keep most
    # of Bob's state, and F (1 - loss) is the closed form, so the error
    # against it is F_closed loss / (1 - loss)
    argv = ["converge", "--mass", "1e-3", "--omega", "1e-4", "--cutoffs", "2000000,4000000"]
    assert run_cli(argv) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == list(CONVERGE_COLUMNS)
    assert [int(row[0]) for row in rows] == [2000000, 4000000]
    closed = fidelity_analytic(squeeze_param(1e-3, 1e-4))
    for _, abs_error, loss in rows:
        expected = float(loss) / (1.0 - float(loss))
        assert float(abs_error) / closed == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    capsys.readouterr()


# ---------------------------------------------------------------- shared contract


def test_csv_cells_follow_each_value_even_where_values_repeat():
    # the writer formats each repeated float once; 0.0 and -0.0 compare
    # equal yet print apart, None prints as an empty cell and flags joined
    values = (0.0, -0.0, 0.0, 0.1, -0.0, 0.1, None, math.nan, 3)
    out = io.StringIO()
    cli._write_rows([{"x": v, "flags": ("a", "b")[: i % 3]} for i, v in enumerate(values)], out, "csv")
    assert out.getvalue().split("\n") == [
        "x,flags", "0,", "-0,a", "0,a;b", "0.10000000000000001,", "-0,a",
        "0.10000000000000001,a;b", ",", "nan,a", "3,a;b", "",
    ]


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


def test_every_subcommand_help_lists_defaults(capsys):
    for name in ("fidelity", "simulate", "sweep", "converge"):
        assert run_cli([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert "(default:" in out


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "horizon_teleport", "fidelity", "--radius", "1", "--omega", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith(",".join(SWEEP_COLUMNS[:3]))
