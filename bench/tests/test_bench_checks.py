"""The benchmark's output checks, seeded inputs and tracer.

Real CLI output is produced by calling the unmodified program at tiny
sizes; the corruptions are applied to that output text only.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import workloads  # noqa: E402
from horizon_teleport import cli, teleport  # noqa: E402
from spans import Tracer  # noqa: E402


def _output(call: workloads.Call) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(call.argv) == 0
    if call.out_file is None:
        return buf.getvalue()
    with open(call.out_file, encoding="utf-8", newline="") as fh:
        return fh.read()


def _replace_cell(text: str, line_no: int, column: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[line_no].split(",")
    cells[column] = value
    lines[line_no] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv_and_new_calls_new_inputs(workload, tmp_path):
    first = workloads.make_call(workload, 7, 3, str(tmp_path))
    again = workloads.make_call(workload, 7, 3, str(tmp_path))
    assert first == again
    assert workloads.make_call(workload, 7, 4, str(tmp_path)).argv != first.argv
    assert workloads.make_call(workload, 8, 3, str(tmp_path)).argv != first.argv


def test_simulate_argv_survives_amplitudes_in_exponent_notation(tmp_path):
    # seed 108, call 8 draws alpha_re = -6.9e-05, which argparse would read
    # as an option if it were a separate token
    call = workloads.make_call("simulate-strong", 108, 8, str(tmp_path), "tiny")
    assert "--alpha-re=-6.8964007152842038e-05" in call.argv
    assert workloads.check(call, _output(call)) == []


def test_simulate_output_passes_and_corrupted_lines_fail(tmp_path):
    call = workloads.make_call("simulate-strong", 1, 0, str(tmp_path), "tiny")
    text = _output(call)
    assert workloads.check(call, text) == []

    assert workloads.check(call, _replace_cell(text, 1, 2, "0.5"))  # fidelity of outcome 00
    assert workloads.check(call, _replace_cell(text, 2, 3, "degenerate"))
    assert workloads.check(call, text.replace("# n_max=", "# n_max=1"))
    lines = text.split("\n")
    assert workloads.check(call, "\n".join(lines[:4] + lines[5:]))  # outcome 11 lost


@pytest.mark.parametrize("workload", ["sweep-simulated", "surface-analytic"])
def test_sweep_output_passes_and_corrupted_lines_fail(workload, tmp_path):
    call = workloads.make_call(workload, 1, 0, str(tmp_path), "tiny")
    text = _output(call)
    assert workloads.check(call, text) == []

    lines = text.split("\n")
    assert workloads.check(call, "\n".join(lines[:2] + lines[3:]))  # one row lost
    f_cell = lines[2].split(",")[4]
    nudged = "%.17g" % (float(f_cell) * (1 + 1e-7))
    assert workloads.check(call, _replace_cell(text, 2, 4, nudged))
    assert workloads.check(call, _replace_cell(text, 2, 0, "0.123"))  # off-grid radius
    off_by_1e5 = "%.17g" % (float(f_cell) - 1e-5)
    bad_numeric = _replace_cell(text, 2, 5, off_by_1e5)
    assert workloads.check(call, bad_numeric)  # beyond 1e-6, or present in analytic mode
    if workload == "sweep-simulated":
        assert workloads.check(call, _replace_cell(text, 2, 8, "cutoff-capped"))


def test_closed_form_is_independent_of_the_package():
    params = teleport.channel.SqueezeParams.from_tanh(0.5)
    assert workloads.closed_form_fidelity(params.mass, params.frequency) == pytest.approx(27 / 64, rel=1e-14)
    assert workloads.expected_cutoff(params.mass, params.frequency) == teleport.channel.required_cutoff(
        params, 1e-10
    )


def test_tail_latency_keeps_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert run.tail_latency(values) == (89.0, 90.0)
    assert run.tail_latency(values[:15]) == (7.0, 50.0)


def test_tracer_parents_pool_work_to_the_sweep_and_restores_the_package(tmp_path, monkeypatch):
    monkeypatch.setenv("HORIZON_TELEPORT_THREADS", "2")
    original = teleport.project
    tracer = Tracer()
    tracer.install()
    try:
        assert teleport.project is not original
        _output(workloads.make_call("sweep-simulated", 1, 0, str(tmp_path), "tiny"))
        tracer.fold()
    finally:
        tracer.uninstall()
    assert teleport.project is original

    spans = {s["id"]: s for s in tracer.dump()}
    names = {s["name"] for s in spans.values()}
    assert {"cli.main", "analysis.sweep", "teleport.run_protocol", "fock.project"} <= names
    (sweep_id,) = [i for i, s in spans.items() if s["name"] == "analysis.sweep"]
    protocols = [s for s in spans.values() if s["name"] == "teleport.run_protocol"]
    assert len(protocols) == 9 and all(s["parent"] == sweep_id for s in protocols)
    (main_span,) = [s for s in spans.values() if s["name"] == "cli.main"]
    assert all(s["thread"] != main_span["thread"] for s in protocols)  # ran on pool threads
    for s in spans.values():
        if s["name"] == "fock.project":
            assert spans[s["parent"]]["name"] == "teleport.run_protocol"

    metrics = tracer.metrics()
    assert metrics["teleport.run_protocol.calls"] == 9
    assert 0.0 < metrics["analysis.sweep.busy_frac"] <= 1.0
    assert 0.0 <= metrics["fock.project.self_s"] <= sum(
        s["end"] - s["start"] for s in spans.values() if s["name"] == "fock.project"
    )
