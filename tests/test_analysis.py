"""Parameter sweeps over (radius, frequency) and cutoff-convergence tables."""

import decimal
import math
import sys
import threading

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horizon_teleport import analysis, channel, teleport
from horizon_teleport.analysis import (
    DEFAULT_GRID,
    SweepGrid,
    convergence_report,
    sweep,
)
from horizon_teleport.channel import SqueezeParams
from oracles import LAW_RTOL, finite_cutoff_law, law_deviation

HIGH_CORNER = (1.0 - math.exp(-2.0 * math.pi)) ** 3


# ---------------------------------------------------------------- grid


def test_default_grid_covers_the_surface_ranges():
    assert DEFAULT_GRID.radius_min == 1e-4
    assert DEFAULT_GRID.radius_max == 1.0
    assert DEFAULT_GRID.omega_min == 1e-3
    assert DEFAULT_GRID.omega_max == 1.0
    assert DEFAULT_GRID.radius_steps == DEFAULT_GRID.omega_steps == 50


def test_grid_axis_endpoints_are_exact():
    radii = DEFAULT_GRID.radius_values()
    omegas = DEFAULT_GRID.omega_values()
    assert len(radii) == len(omegas) == 50
    assert radii[0] == 1e-4 and radii[-1] == 1.0
    assert omegas[0] == 1e-3 and omegas[-1] == 1.0
    assert all(a < b for a, b in zip(radii, radii[1:]))


def _ulps_from_exact(value, y):
    """|value - 10^y| in units in the last place of 10^y, the power taken
    in 60-digit decimal from the double ``y``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        exact = decimal.Decimal(10) ** decimal.Decimal(y)
        nearest = float(exact)
        ulp = math.ulp(nearest)
        if math.frexp(nearest)[0] == 0.5 and decimal.Decimal(nearest) > exact:
            ulp /= 2  # 10^y lies just below a power of two, in the finer binade
        return float(abs(decimal.Decimal(value) - exact) / decimal.Decimal(ulp))


def _exponents(lo, hi, steps):
    """The exponents of a log axis, formed as ``numpy.linspace`` forms them."""
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (steps - 1)
    return [i * step + start for i in range(steps)]


# where numpy's vectorized pow (SVML on an AVX-512 host) rounds the default
# axes the other way: libm's 10.0 ** y, one ulp above numpy's, is the
# nearer double at every one of them
_LIBM_ROUNDED = {
    "radius": {16: "0x1.093c66b70ab9cp-9", 31: "0x1.15f904ac46e8fp-5", 44: "0x1.90121616d597ap-2"},
    "omega": {
        6: "0x1.316435a7a387cp-9",
        27: "0x1.7082f87edfc95p-5",
        39: "0x1.f421e9ccf2155p-3",
        43: "0x1.b77e7b4188b5dp-2",
        44: "0x1.fa080cfd3ca17p-2",
    },
}


def test_the_default_axes_are_pinned_where_libm_and_numpy_round_apart():
    for axis, values, (lo, hi, steps) in (
        ("radius", DEFAULT_GRID.radius_values(), (1e-4, 1.0, 50)),
        ("omega", DEFAULT_GRID.omega_values(), (1e-3, 1.0, 50)),
    ):
        exponents = _exponents(lo, hi, steps)
        for index, text in _LIBM_ROUNDED[axis].items():
            assert values[index] == float.fromhex(text), (axis, index)
            assert _ulps_from_exact(values[index], exponents[index]) < 0.5, (axis, index)


@settings(deadline=None, max_examples=25)
@given(
    st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max),
    st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max),
    st.integers(min_value=2, max_value=200),
)
@example(1e-4, 1.0, 50)
@example(1e-3, 1.0, 50)
def test_every_axis_value_is_correctly_rounded_between_exact_corners(lo, hi, steps):
    # normal edges at least a millionth apart: closer edges, or subnormal
    # ones, leave fewer doubles between them than an axis has steps
    lo, hi = min(lo, hi), max(lo, hi)
    assume(hi >= lo * (1.0 + 1e-6))
    values = SweepGrid._axis(lo, hi, steps)
    assert len(values) == steps
    assert values[0] == lo and values[-1] == hi
    assert all(a < b for a, b in zip(values, values[1:]))
    exponents = _exponents(lo, hi, steps)
    worst = max((_ulps_from_exact(v, y) for v, y in zip(values[1:-1], exponents[1:-1])), default=0.0)
    assert worst <= 0.52, worst


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(radius_min=1.0, radius_max=0.5)
    with pytest.raises(ValueError):
        SweepGrid(omega_min=0.5, omega_max=0.5)  # an axis of one value
    with pytest.raises(ValueError):
        SweepGrid(radius_steps=1)
    with pytest.raises(ValueError):
        SweepGrid(omega_min=0.0)
    # an infinite edge would put inf and NaN on the log axis
    with pytest.raises(ValueError, match="finite"):
        SweepGrid(radius_max=math.inf)
    with pytest.raises(ValueError, match="finite"):
        SweepGrid(omega_max=math.inf)


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
        assert r.flags == ""


def test_sweep_surface_is_monotone():
    records = sweep(DEFAULT_GRID)
    fidelities = [r.fidelity_analytic for r in records]
    steps = DEFAULT_GRID.omega_steps
    rows = [fidelities[i : i + steps] for i in range(0, len(fidelities), steps)]
    for row in rows:  # increasing in omega at fixed radius
        assert all(a < b for a, b in zip(row, row[1:]))
    for column in zip(*rows):  # increasing in radius at fixed omega
        assert all(a < b for a, b in zip(column, column[1:]))


def test_sweep_with_simulation_fills_numeric_fields():
    grid = SweepGrid(radius_min=0.5, radius_max=1.0, omega_min=0.5, omega_max=1.0)
    records = sweep(grid, mode="with-simulation", max_cutoff=40)
    for r in records:
        assert r.flags == ""
        assert r.n_max is not None and r.n_max >= 1
        assert r.truncation_loss is not None and 0.0 <= r.truncation_loss <= 1e-9
        assert abs(r.fidelity_numeric - r.fidelity_analytic) <= 1e-6


def test_every_simulated_point_of_the_default_surface_follows_the_finite_cutoff_law():
    # with x = tanh^2 r, each point's fidelity is (1 - x)^3 / K and its loss
    # 1 - K at the cutoff it ran; 1 - sum p cancels to ulp noise, so the loss
    # gate is absolute (worst measured 1.30e-15, 5.9 machine epsilons)
    records = sweep(DEFAULT_GRID, mode="with-simulation")
    simulated = [r for r in records if r.fidelity_numeric is not None]
    assert len(simulated) == 1774
    for r in simulated:
        probability, fidelity = finite_cutoff_law(SqueezeParams(r.mass, r.omega).decay, r.n_max)
        assert law_deviation(r.fidelity_numeric, fidelity) <= LAW_RTOL, (r.radius, r.omega)
        assert r.truncation_loss == pytest.approx(float(1 - 4 * probability), rel=0.0, abs=2e-15)


def test_the_hardest_point_of_the_whole_surface_follows_the_finite_cutoff_law():
    # the default surface's four corners, none capped: its low corner,
    # radius 1e-4 and omega 1e-3, needs the most levels of its 2500 points
    corners = SweepGrid(radius_steps=2, omega_steps=2)
    records = sweep(corners, mode="with-simulation", max_cutoff=channel.CUTOFF_LIMIT)
    assert (records[0].radius, records[0].omega, records[0].n_max) == (1e-4, 1e-3, 41_971_110)
    for r in records:
        probability, fidelity = finite_cutoff_law(SqueezeParams(r.mass, r.omega).decay, r.n_max)
        assert law_deviation(r.fidelity_numeric, fidelity) <= LAW_RTOL, (r.radius, r.omega)
        # the kept weight K = 4 p is near 1 and summed over 5124 blocks at
        # the low corner, so its loss 1 - K holds to the law's LAW_RTOL
        # absolute (measured 4.5e-15 there), not to the 2e-15 of 1e5 levels
        assert r.truncation_loss == pytest.approx(float(1 - 4 * probability), rel=0.0, abs=LAW_RTOL)


def test_sweep_flags_points_beyond_the_cutoff_cap():
    grid = SweepGrid(radius_min=0.5, radius_max=1.0, omega_min=0.5, omega_max=1.0)
    records = sweep(grid, mode="with-simulation", max_cutoff=2)
    for r in records:
        assert r.flags == "cutoff-capped"
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
        assert r.flags == "divergent"
        assert r.r_squeeze is None
        assert r.fidelity_analytic == 0.0
        assert r.fidelity_numeric is None
    healthy = [r for r in records if r.radius == 1.0]
    assert all(r.flags == "" for r in healthy)


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
    for workers in (None, 0, 1):
        sweep(SweepGrid(radius_steps=2, omega_steps=2), workers=workers)
    assert threads == {threading.get_ident()}
    # two workers or more run the points on a pool, off the calling thread
    threads.clear()
    sweep(SweepGrid(radius_steps=2, omega_steps=2), workers=2)
    assert threads and threading.get_ident() not in threads


def test_each_sweep_and_report_measures_its_probe_once(count_calls):
    # Alice's four Bell projections depend on the input alone: one per
    # outcome per sweep, not per point, and again for the next sweep
    projections = count_calls(teleport, "project")
    runs = count_calls(teleport, "run_protocol")
    grid = SweepGrid(0.5, 1.0, 0.5, 1.0, radius_steps=3, omega_steps=3)
    records = sweep(grid, mode="with-simulation", max_cutoff=40)
    assert all(r.fidelity_numeric is not None for r in records)
    assert (len(projections), len(runs)) == (4, 9)
    sweep(grid, mode="with-simulation", max_cutoff=40)
    assert (len(projections), len(runs)) == (8, 18)
    convergence_report(SqueezeParams.from_tanh(0.5), [5, 10, 20, 30])
    assert (len(projections), len(runs)) == (12, 22)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(corner_grid(), mode="approximate")
    with pytest.raises(ValueError):
        sweep(corner_grid(), epsilon=0.0)
    with pytest.raises(ValueError):
        sweep(corner_grid(), max_cutoff=0)


def test_a_cutoff_cap_above_the_limit_is_refused_before_the_axes(monkeypatch):
    def built(*args):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(SweepGrid, "_axis", staticmethod(built))
    for cap in (channel.CUTOFF_LIMIT + 1, 10**9):
        with pytest.raises(ValueError, match=f"cutoff cap {cap} is above the limit of {channel.CUTOFF_LIMIT} levels"):
            sweep(corner_grid(), mode="with-simulation", max_cutoff=cap)
    with pytest.raises(AssertionError, match="an axis was built"):
        sweep(corner_grid(), max_cutoff=channel.CUTOFF_LIMIT)  # the limit itself is a valid cap


def test_a_grid_above_the_limit_is_refused_at_construction():
    SweepGrid(radius_steps=analysis.GRID_LIMIT // 2, omega_steps=2)  # exactly the limit
    limit = f"is above the limit of {analysis.GRID_LIMIT} points"
    # GRID_LIMIT + 1 = 3 x 699051 points
    with pytest.raises(ValueError, match=rf"3 x 699051 grid \(2097153 points\) {limit}"):
        SweepGrid(radius_steps=3, omega_steps=(analysis.GRID_LIMIT + 1) // 3)
    with pytest.raises(ValueError, match=rf"100000000 x 100000 grid \(10000000000000 points\) {limit}"):
        SweepGrid(radius_steps=10**8, omega_steps=10**5)


# ---------------------------------------------------------------- convergence


def test_convergence_rows_read_by_name_and_unpack_as_triples():
    rows = convergence_report(SqueezeParams.from_tanh(0.5), [5, 10])
    assert [type(row) for row in rows] == [analysis.ConvergenceRow] * 2
    for row, cutoff in zip(rows, [5, 10]):
        n_max, error, loss = row
        assert (row.n_max, row.abs_error, row.truncation_loss) == (n_max, error, loss)
        assert n_max == cutoff and 0.0 < error < loss


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
        assert loss == pytest.approx(channel._tails(params, n_max)[2], rel=0.0, abs=2e-15)


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
    params = SqueezeParams(1e-3, 1e-4)
    monkeypatch.setattr(teleport, "run_protocol", lambda *args: teleport.ProtocolRun([], 0.0, 0.0))
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
    with pytest.raises(ValueError, match="strictly ascending"):
        convergence_report(params, [5, 5])
