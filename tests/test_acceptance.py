"""End-to-end acceptance: the analytic fidelity law against brute force.

Each test is one acceptance gate.  They intentionally re-derive their
expectations from closed forms rather than reusing library shortcuts, and
print the measured numbers so a full run doubles as a results report.
"""

import json
import math
import time

import numpy as np
import pytest

from horizon_teleport import cli
from horizon_teleport.analysis import DEFAULT_GRID, sweep
from horizon_teleport.channel import (
    SqueezeParams,
    dual_rail_tail,
    required_cutoff,
    squeeze_param,
)
from horizon_teleport.teleport import DualRailQubit, fidelity_analytic, run_protocol
from oracles import RegionPair, dense_protocol, embed_one, embed_zero, inner, thermal_reduced


def closed_form(tanh_r):
    return (1.0 - tanh_r * tanh_r) ** 3


def test_simulated_fidelity_matches_the_analytic_law():
    # brute-force protocol vs (1 - tanh^2 r)^3 across squeezing strengths,
    # all four outcomes, and a shared bank of random input qubits
    rng = np.random.default_rng(20240917)
    qubits = []
    for _ in range(20):
        raw = rng.normal(size=4)
        norm = math.sqrt(float(np.sum(raw**2)))
        qubits.append(
            DualRailQubit((raw[0] + 1j * raw[1]) / norm, (raw[2] + 1j * raw[3]) / norm)
        )

    start = time.monotonic()
    worst = 0.0
    for t in (0.1, 0.3, 0.5, 0.7):
        params = SqueezeParams.from_tanh(t)
        n_max = required_cutoff(params, 1e-10)
        assert n_max <= 40
        expected = closed_form(t)
        for qubit in qubits:
            for outcome in run_protocol(params, qubit, n_max).outcomes:
                deviation = abs(outcome.fidelity - expected)
                worst = max(worst, deviation)
                assert deviation <= 1e-6, (t, outcome.label)
    elapsed = time.monotonic() - start
    print(
        f"analytic law: 4 squeezings x 20 qubits x 4 outcomes, "
        f"max |F_sim - F_analytic| = {worst:.3e}, {elapsed:.1f}s"
    )


def _first_cutoff_within(params, budget):
    # bisection for the first n with dual_rail_tail(n) <= budget; the tail
    # falls monotonically in n
    lo, hi = 0, 1
    while dual_rail_tail(params, hi) > budget:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if dual_rail_tail(params, mid) > budget else (lo, mid)
    return hi


def test_strong_squeezing_matches_the_analytic_law():
    # beyond the reach of a dense Fock simulation: cutoffs 125, 1312,
    # 131850 and 1318555 (tanh r 0.9 to 0.99999), where the dense six-mode
    # resource would hold 4 (n_max + 1)^4 amplitudes.  required_cutoff,
    # with its cap raised above 100000, is held to a bisection written
    # here.  F falls to about 8e-15, where the absolute gate says nothing,
    # so the outcome probabilities and F (1 - loss) are held to the closed
    # forms as well.
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for t in (0.9, 0.99, 0.9999, 0.99999):
        params = SqueezeParams.from_tanh(t)
        expected = closed_form(t)
        n_max = _first_cutoff_within(params, 1e-10)
        assert required_cutoff(params, 1e-10, hard_cap=10**7) == n_max, t
        kept = 1.0 - dual_rail_tail(params, n_max)
        for _ in range(3):
            raw = rng.normal(size=4)
            raw /= math.sqrt(float(np.sum(raw**2)))
            qubit = DualRailQubit(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
            for outcome in run_protocol(params, qubit, n_max).outcomes:
                deviation = abs(outcome.fidelity - expected)
                worst = max(worst, deviation)
                assert deviation <= 1e-6, (t, outcome.label)
                assert outcome.probability == pytest.approx(kept / 4, abs=1e-13), t
                assert outcome.fidelity * kept == pytest.approx(
                    fidelity_analytic(params), rel=1e-12, abs=0.0
                ), (t, outcome.label)
    print(f"strong squeezing: tanh r 0.9 to 0.99999, max |F_sim - F_analytic| = {worst:.3e}")


def test_spot_fidelity_values():
    half = SqueezeParams.from_tanh(0.5)
    analytic = closed_form(half.tanh_r)
    assert analytic == pytest.approx(27.0 / 64.0, abs=1e-9)

    outcomes = run_protocol(half, DualRailQubit(1.0, 0.0), required_cutoff(half, 1e-10)).outcomes
    numeric = sum(o.probability * o.fidelity for o in outcomes) / sum(
        o.probability for o in outcomes
    )
    assert numeric == pytest.approx(27.0 / 64.0, abs=1e-6)

    unit_radius = squeeze_param(0.5, 1.0)
    expected = (1.0 - math.exp(-2.0 * math.pi)) ** 3
    assert closed_form(unit_radius.tanh_r) == pytest.approx(expected, abs=1e-9)
    print(
        f"spot values: F(tanh r=1/2) = {numeric!r} vs 27/64 = 0.421875; "
        f"F(M=1/2, W=1) = {expected!r}"
    )


def test_flat_space_limit_recovers_exact_teleportation():
    params = squeeze_param(10.0, 10.0)  # huge M*Omega: r < 1e-100 but nonzero
    assert 0.0 < params.r_squeeze < 1e-100
    outcomes = run_protocol(params, DualRailQubit(0.6, 0.8j), required_cutoff(params, 1e-10)).outcomes
    for outcome in outcomes:
        assert outcome.probability == pytest.approx(0.25, abs=1e-10)
        assert outcome.fidelity == pytest.approx(1.0, abs=1e-10)
    print(
        "flat limit: probabilities "
        + ", ".join(f"{o.probability:.12f}" for o in outcomes)
        + f"; fidelities all within {max(abs(o.fidelity - 1.0) for o in outcomes):.2e} of 1"
    )


def test_fidelity_surface_is_monotone_with_exact_corners():
    records = sweep(DEFAULT_GRID)
    steps = DEFAULT_GRID.radius_steps
    surface = np.array([r.fidelity_analytic for r in records]).reshape(steps, steps)

    assert np.all(np.diff(surface, axis=0) > 0)  # radius direction
    assert np.all(np.diff(surface, axis=1) > 0)  # omega direction

    high = float(surface[-1, -1])
    expected = (1.0 - math.exp(-2.0 * math.pi)) ** 3
    assert high == pytest.approx(expected, abs=1e-12)
    assert round(high, 4) == 0.9944
    low = float(surface[0, 0])
    assert low < 1e-15
    print(
        f"surface: strictly monotone on {steps}x{steps}; "
        f"corners F(1, 1) = {high!r}, F(1e-4, 1e-3) = {low:.3e}"
    )


def test_thermal_occupation_matches_planck_law():
    worst = 0.0
    for product in (0.1, 0.25, 0.5):
        params = squeeze_param(1.0, product)
        rho = thermal_reduced(params, 60)
        occupations = np.arange(61)
        mean = float(np.sum(occupations * np.diag(rho.matrix).real))
        sinh_sq = (params.tanh_r * params.cosh_r) ** 2
        planck = 1.0 / (math.exp(4.0 * math.pi * product) - 1.0)
        worst = max(worst, abs(mean - sinh_sq), abs(mean - planck))
        assert mean == pytest.approx(sinh_sq, abs=1e-8)
        assert mean == pytest.approx(planck, abs=1e-8)
    print(f"thermal state: mean photon number vs sinh^2 r and Planck form, worst |diff| = {worst:.2e}")


def test_embedding_norms_and_orthogonality_across_the_squeezing_range():
    pair = RegionPair("I", "II")
    worst_overlap = 0.0
    for r in np.linspace(0.0, 3.0, 13):
        params = SqueezeParams.from_tanh(math.tanh(r))
        n_max = required_cutoff(params, 1e-12)
        zero, tail0 = embed_zero(params, pair, n_max)
        one, tail1 = embed_one(params, pair, n_max)

        assert 1.0 - tail0 - 1e-12 <= zero.norm() <= 1.0 + 1e-12
        assert 1.0 - tail1 - 1e-12 <= one.norm() <= 1.0 + 1e-12
        overlap = abs(inner(zero, one))
        worst_overlap = max(worst_overlap, overlap)
        assert overlap <= 1e-10
    print(
        f"embeddings: norms within reported tails for r in [0, 3] "
        f"(largest cutoff {n_max}), max |<0|1>| = {worst_overlap:.2e}"
    )


def test_single_excitation_weight_report():
    # the one-photon sector weight of Bob's premeasurement state, measured
    # on the dense oracle, is the closed form sech^6 r at any cutoff
    lines = []
    for t in (0.3, 0.5):
        params = SqueezeParams.from_tanh(t)
        qubit = DualRailQubit(1.0 / math.sqrt(2), 1.0 / math.sqrt(2))
        _, measured = dense_protocol(params, qubit, required_cutoff(params, 1e-10))
        claimed = fidelity_analytic(params)
        assert claimed == pytest.approx(closed_form(t), abs=1e-12)
        assert measured == pytest.approx(claimed, rel=1e-12, abs=0.0)
        lines.append(
            f"tanh r = {t}: measured = {measured!r}, claimed = {claimed!r}, "
            f"|diff| = {abs(measured - claimed):.3e}"
        )
    report = "\n".join("single-excitation weight " + line for line in lines)
    print(report)
    assert report  # the report itself is the deliverable


def test_sweep_output_is_deterministic_and_format_equivalent(tmp_path):
    args = [
        "sweep",
        "--radius-min", "0.01", "--radius-max", "1", "--radius-steps", "6",
        "--omega-min", "0.01", "--omega-max", "1", "--omega-steps", "5",
        "--mode", "with-simulation", "--max-cutoff", "25",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    as_json = tmp_path / "records.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert cli.main(args + ["--out", str(as_json), "--format", "json"]) == 0

    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    entries = json.loads(as_json.read_text())
    assert len(entries) == len(lines) - 1 == 30

    simulated = 0
    for line, entry in zip(lines[1:], entries):
        cells = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
        for field in cli.SWEEP_COLUMNS:
            cell, value = cells[field], entry[field]
            if field == "flags":
                assert cell == value
            elif cell == "":
                assert value is None
            elif field == "n_max":
                assert int(cell) == value
            else:
                assert float(cell) == value
        if entry["fidelity_numeric"] is not None:
            simulated += 1
    assert simulated > 0
    print(
        f"sweep determinism: two runs byte-identical ({len(lines) - 1} records, "
        f"{simulated} simulated), CSV and JSON values identical"
    )
