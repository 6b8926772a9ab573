"""Parameter sweeps over (radius, frequency) and cutoff-convergence tables."""

import math
import threading

import pytest

from horizon_teleport import analysis, teleport
from horizon_teleport.analysis import (
    DEFAULT_GRID,
    SweepGrid,
    convergence_report,
    sweep,
)
from horizon_teleport.channel import SqueezeParams, dual_rail_tail, squeeze_param

HIGH_CORNER = (1.0 - math.exp(-2.0 * math.pi)) ** 3


# ---------------------------------------------------------------- grid


def test_default_grid_covers_the_surface_ranges():
    assert DEFAULT_GRID.radius_min == 1e-4
    assert DEFAULT_GRID.radius_max == 1.0
    assert DEFAULT_GRID.omega_min == 1e-3
    assert DEFAULT_GRID.omega_max == 1.0
    assert DEFAULT_GRID.radius_steps == DEFAULT_GRID.omega_steps == 50
    assert DEFAULT_GRID.radius_scale == DEFAULT_GRID.omega_scale == "log"


def test_grid_axis_endpoints_are_exact():
    radii = DEFAULT_GRID.radius_values()
    omegas = DEFAULT_GRID.omega_values()
    assert len(radii) == len(omegas) == 50
    assert radii[0] == 1e-4 and radii[-1] == 1.0
    assert omegas[0] == 1e-3 and omegas[-1] == 1.0
    assert all(a < b for a, b in zip(radii, radii[1:]))

    linear = SweepGrid(radius_min=1.0, radius_max=2.0, radius_steps=3, radius_scale="linear")
    assert list(linear.radius_values()) == [1.0, 1.5, 2.0]


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(radius_min=1.0, radius_max=0.5)
    with pytest.raises(ValueError):
        SweepGrid(radius_steps=1)
    with pytest.raises(ValueError):
        SweepGrid(omega_scale="cubic")
    with pytest.raises(ValueError):
        SweepGrid(omega_min=0.0)


# ---------------------------------------------------------------- sweeps


def corner_grid(steps=2):
    return SweepGrid(radius_steps=steps, omega_steps=steps)


def test_sweep_enumerates_radius_major():
    records = sweep(corner_grid())
    assert len(records) == 4
    grid = corner_grid()
    expected = [
        (grid.radius_values()[0], grid.omega_values()[0]),
        (grid.radius_values()[0], grid.omega_values()[1]),
        (grid.radius_values()[1], grid.omega_values()[0]),
        (grid.radius_values()[1], grid.omega_values()[1]),
    ]
    assert [(r.radius, r.omega) for r in records] == expected
    assert len(sweep(SweepGrid(radius_steps=3, omega_steps=4))) == 12


def test_sweep_corner_values():
    records = sweep(corner_grid())
    by_point = {(r.radius, r.omega): r for r in records}

    high = by_point[(1.0, 1.0)]
    assert high.fidelity_analytic == pytest.approx(HIGH_CORNER, abs=1e-12)
    assert high.mass == 0.5

    low = by_point[(1e-4, 1e-3)]
    assert low.fidelity_analytic < 1e-15
    assert low.mass == pytest.approx(5e-5)

    for r in records:
        assert 0.0 <= r.fidelity_analytic <= 1.0
        assert r.mass == r.radius / 2.0
        assert r.fidelity_numeric is None  # analytic-only mode
        assert r.flags == ()


def test_sweep_surface_is_monotone():
    records = sweep(SweepGrid(radius_steps=6, omega_steps=6))
    fidelities = [r.fidelity_analytic for r in records]
    rows = [fidelities[i * 6 : (i + 1) * 6] for i in range(6)]
    for row in rows:  # increasing in omega at fixed radius
        assert all(a < b for a, b in zip(row, row[1:]))
    for column in zip(*rows):  # increasing in radius at fixed omega
        assert all(a < b for a, b in zip(column, column[1:]))


def test_sweep_with_simulation_fills_numeric_fields():
    grid = SweepGrid(radius_min=0.5, radius_max=1.0, omega_min=0.5, omega_max=1.0)
    records = sweep(grid, mode="with-simulation", max_cutoff=40)
    for r in records:
        assert r.flags == ()
        assert r.n_max is not None and r.n_max >= 1
        assert r.truncation_loss is not None and 0.0 <= r.truncation_loss <= 1e-9
        assert abs(r.fidelity_numeric - r.fidelity_analytic) <= 1e-6


def test_sweep_flags_points_beyond_the_cutoff_cap():
    grid = SweepGrid(radius_min=0.5, radius_max=1.0, omega_min=0.5, omega_max=1.0)
    records = sweep(grid, mode="with-simulation", max_cutoff=2)
    for r in records:
        assert r.flags == ("cutoff-capped",)
        assert r.fidelity_numeric is None
        assert r.n_max is None
        assert r.fidelity_analytic > 0.0  # analytic value still recorded


def test_sweep_flags_divergent_points():
    grid = SweepGrid(
        radius_min=2e-18,
        radius_max=1.0,
        omega_min=1.0,
        omega_max=2.0,
        radius_steps=2,
        omega_steps=2,
    )
    records = sweep(grid, mode="with-simulation", max_cutoff=40)
    divergent = [r for r in records if r.radius == 2e-18]
    assert len(divergent) == 2
    for r in divergent:
        assert r.flags == ("divergent",)
        assert r.r_squeeze is None
        assert r.fidelity_analytic == 0.0
        assert r.fidelity_numeric is None
    healthy = [r for r in records if r.radius == 1.0]
    assert all(r.flags == () for r in healthy)


def test_sweep_is_deterministic_across_worker_counts():
    grid = SweepGrid(radius_steps=3, omega_steps=3)
    assert (
        sweep(grid, workers=1)
        == sweep(grid, workers=2)
        == sweep(grid, workers=None)
    )


def test_sweep_runs_on_the_calling_thread_by_default(monkeypatch):
    threads = set()
    evaluate = analysis._evaluate_point

    def recording(*args):
        threads.add(threading.get_ident())
        return evaluate(*args)

    monkeypatch.setattr(analysis, "_evaluate_point", recording)
    for workers in (None, 0):
        sweep(SweepGrid(radius_steps=2, omega_steps=2), workers=workers)
    assert threads == {threading.get_ident()}


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(corner_grid(), mode="approximate")
    with pytest.raises(ValueError):
        sweep(corner_grid(), epsilon=0.0)
    with pytest.raises(ValueError):
        sweep(corner_grid(), max_cutoff=0)


# ---------------------------------------------------------------- convergence


def test_convergence_report_flat_is_exact():
    rows = convergence_report(SqueezeParams.from_tanh(0.0), [1, 2])
    assert [n for n, _, _ in rows] == [1, 2]
    for _, error, loss in rows:
        assert error <= 1e-12
        assert loss == pytest.approx(0.0, abs=1e-15)


def test_convergence_report_error_decreases():
    params = SqueezeParams.from_tanh(0.5)
    rows = convergence_report(params, [5, 10, 20, 30])
    errors = [error for _, error, _ in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-6

    # 1 - sum p is ulp noise below about 1e-15 (9.99e-16 at cutoff 30,
    # where the tail is 2.06e-17), so the gate is absolute, at a few ulps
    for n_max, _, loss in rows:
        assert loss == pytest.approx(dual_rail_tail(params, n_max), rel=0.0, abs=2e-15)


def test_convergence_loss_shrinks_geometrically():
    params = SqueezeParams.from_tanh(0.5)
    rows = convergence_report(params, [5, 6, 7, 8])
    losses = [loss for _, _, loss in rows]
    ratios = [b / a for a, b in zip(losses, losses[1:])]
    for ratio in ratios:  # dominated by the tanh^2 r tail ratio
        assert 0.2 <= ratio <= 0.35


def test_convergence_report_measures_against_the_given_closed_form(monkeypatch):
    # at M Omega = 1e-7, 1 - tanh^2 r is 1.3e-6: rebuilding the parameters
    # from r moves the closed form by 1.7e-10 relative; a zero numeric
    # fidelity makes the error column the closed form itself
    params = squeeze_param(1e-3, 1e-4)
    monkeypatch.setattr(teleport, "_average_fidelity", lambda outcomes: 0.0)
    rows = convergence_report(params, [1, 2])
    assert [error for _, error, _ in rows] == [teleport.fidelity_analytic(params)] * 2


def test_convergence_report_validation():
    params = SqueezeParams.from_tanh(math.tanh(0.5))
    with pytest.raises(ValueError):
        convergence_report(params, [])
    with pytest.raises(ValueError):
        convergence_report(params, [10, 5])
    with pytest.raises(ValueError):
        convergence_report(params, [0, 5])
    with pytest.raises(ValueError):
        convergence_report(SqueezeParams.from_tanh(math.tanh(-0.5)), [5])
