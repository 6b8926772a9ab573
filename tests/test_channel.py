"""Horizon channel: squeezing map, Schmidt coefficients, tails and cutoffs,
the coefficients held to the oracle's squeezer."""

import math
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizon_teleport import channel
from horizon_teleport.channel import (
    CUTOFF_LIMIT,
    EPSILON_MAX,
    CutoffInfeasible,
    DivergentSqueezing,
    SqueezeParams,
    dual_rail_tail,
    radius_to_mass,
    required_cutoff,
)
from horizon_teleport.teleport import fidelity_analytic
from oracles import finite_cutoff_law, squeeze, squeezed, working_size

# frozen closed-form evaluations, independent of the implementation
ARTANH_EXP_NEG_PI = 0.04324084828357019  # artanh(e^-pi)
ARTANH_HALF = 0.5493061443340548
PRODUCT_FOR_TANH_HALF = 0.1103178000763258  # ln 2 / (2 pi)
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


# ---------------------------------------------------------------- squeezing map


@pytest.mark.parametrize("product", [1e-9, 1e-12, 1e-14])
def test_closed_forms_keep_relative_precision_near_divergence(product):
    # 1 - tanh^2 r = 1 - exp(-x), x = 4 pi M Omega, and r = ln((1 + t) /
    # (1 - t)) / 2, t = exp(-x / 2), in 40-digit decimals
    params = SqueezeParams(1.0, product)
    with localcontext() as ctx:
        ctx.prec = 40
        sech2 = 1 - (-Decimal(4.0 * math.pi * product)).exp()
        fidelity = float(sech2**3)
        sech2 = float(sech2)
        t = (-Decimal(2.0 * math.pi * product)).exp()
        r_squeeze = float(((1 + t) / (1 - t)).ln() / 2)
    assert params.r_squeeze == pytest.approx(r_squeeze, rel=1e-14, abs=0.0)
    assert abs(fidelity_analytic(params) / fidelity - 1.0) <= 1e-14
    assert abs(params.cosh_r**-2 / sech2 - 1.0) <= 1e-14


def test_squeeze_param_spot_values():
    p = SqueezeParams(0.5, 1.0)
    assert p.r_squeeze == pytest.approx(ARTANH_EXP_NEG_PI, abs=1e-15)
    assert p.tanh_r == pytest.approx(math.exp(-math.pi), abs=1e-16)

    p = SqueezeParams(1.0, PRODUCT_FOR_TANH_HALF)
    assert p.tanh_r == pytest.approx(0.5, abs=1e-15)
    assert p.r_squeeze == pytest.approx(ARTANH_HALF, abs=1e-14)


def test_squeeze_param_formula_consistency():
    rng = np.random.default_rng(2)
    for _ in range(40):
        mass = 10.0 ** rng.uniform(-3, 1)
        omega = 10.0 ** rng.uniform(-3, 1)
        p = SqueezeParams(mass, omega)
        product = mass * omega
        assert math.tanh(p.r_squeeze) == pytest.approx(
            math.exp(-2 * math.pi * product), abs=1e-12
        )
        assert p.cosh_r == pytest.approx(
            (1 - math.exp(-4 * math.pi * product)) ** -0.5, rel=1e-10
        )
        # relative to cosh^2, the scale of the two cancelling terms
        assert abs(p.cosh_r**2 - (p.tanh_r * p.cosh_r) ** 2 - 1.0) <= 1e-10 * p.cosh_r**2


def test_flat_limit_handled_without_error():
    tiny = SqueezeParams(10.0, 10.0)
    assert 0.0 < tiny.r_squeeze < 1e-100

    # the exponential underflows to exactly 0: flat space, not an error
    flat = SqueezeParams(100.0, 100.0)
    assert flat.tanh_r == 0.0
    assert flat.r_squeeze == 0.0


def test_divergent_squeezing():
    with pytest.raises(DivergentSqueezing) as info:
        SqueezeParams(1e-18, 1.0)
    assert info.value.product == pytest.approx(1e-18, rel=1e-12, abs=0.0)
    assert repr(info.value.product) in str(info.value)

    # one decade larger no longer rounds exp(-2 pi M Omega) up to 1
    assert SqueezeParams(1e-17, 1.0).r_squeeze > 0

    for mass in (0.0, -1.0):
        with pytest.raises(DivergentSqueezing):
            SqueezeParams(mass, 1.0)


def test_r_strictly_decreasing_in_the_product():
    products = np.geomspace(1e-3, 10, 25)
    values = [SqueezeParams(1.0, w).r_squeeze for w in products]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_radius_to_mass():
    assert radius_to_mass(1.0) == 0.5
    assert radius_to_mass(2.0) == 1.0
    assert radius_to_mass(0.0001) == 5e-05
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            radius_to_mass(bad)


def test_from_tanh_and_from_r():
    assert SqueezeParams.from_tanh(0.5).tanh_r == pytest.approx(0.5, abs=1e-15)
    assert SqueezeParams.from_tanh(0.0).r_squeeze == 0.0
    assert SqueezeParams.from_tanh(math.tanh(0.7)).r_squeeze == pytest.approx(0.7, rel=1e-12)
    with pytest.raises(ValueError):
        SqueezeParams.from_tanh(1.0)
    with pytest.raises(ValueError):
        SqueezeParams.from_tanh(-0.1)


# ---------------------------------------------------------------- Schmidt coefficients


@pytest.mark.parametrize("tanh_r", [0.0, 0.1, 0.5, 0.9])
def test_the_schmidt_coefficients_are_the_squeezed_vacuum_and_photon(tanh_r):
    # the package's closed forms against S(r) = exp(r (a+ b+ - a b))
    # applied to |0, 0> and |1, 0>, amplitude by amplitude, on levels that
    # carry weight (0.9^40 = 0.015); the photon rail's level n_max is 0
    params = SqueezeParams.from_tanh(tanh_r)
    n_max = 40
    zero, one = channel._schmidt_coefficients(params, n_max, 0, n_max + 1)
    assert one[n_max] == 0.0
    size = working_size(params.r_squeeze, n_max)
    for d, package in ((0, zero), (1, one[:n_max])):
        kept = squeeze(params.r_squeeze, d, size)[: n_max + 1 - d]
        assert np.max(np.abs(kept - package)) <= 2e-15, d
        # twice the working size moves no amplitude the oracle reads
        doubled = squeeze(params.r_squeeze, d, 2 * size)[: n_max + 1 - d]
        assert np.max(np.abs(doubled - kept)) <= 2e-15, d


@pytest.mark.parametrize("tanh_r, n_max", [(0.5, 10), (0.7, 20), (0.9, 40)])
def test_the_squeezers_tails_are_the_channels(tanh_r, n_max):
    # the weight S(r) puts above the cutoff against the closed forms the
    # package truncates by; absolute, as each squeezed amplitude carries
    # about 1e-16 of rounding
    params = SqueezeParams.from_tanh(tanh_r)
    zero, one, dual = channel._tails(params)(n_max)
    (_, zero_tail), (_, one_tail) = (squeezed(params.r_squeeze, d, n_max) for d in (0, 1))
    assert [zero_tail, one_tail] == pytest.approx([zero, one], rel=0.0, abs=1e-15)
    assert zero_tail + one_tail * (1.0 - zero_tail) == pytest.approx(dual, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("d", [0, 1])
def test_the_squeezer_is_the_identity_at_r_0(d):
    # flat space: S(0)|d, 0> is |d, 0> itself, with nothing above any cutoff
    np.testing.assert_allclose(squeeze(0.0, d, 8), np.eye(8)[0], rtol=0.0, atol=1e-15)
    amplitudes, tail = squeezed(0.0, d, 4)
    np.testing.assert_allclose(amplitudes, np.eye(5 - d)[0], rtol=0.0, atol=1e-15)
    assert tail <= 1e-30


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("tanh_r", [0.3, 0.6, 0.9])
def test_the_squeezer_moves_the_mean_photon_numbers_as_the_bogoliubov_map(tanh_r, d):
    # S+ b S = cosh r b + sinh r a+, so S(r)|d, 0> holds (d + 1) sinh^2 r
    # photons on average in region II, and d more in region I; the squeezer
    # holds |m + d, m> at index m, every level to the working size
    r = SqueezeParams.from_tanh(tanh_r).r_squeeze
    amplitudes = squeeze(r, d, working_size(r, 40))
    weights = amplitudes**2
    m = np.arange(len(amplitudes))
    assert weights.sum() == pytest.approx(1.0, rel=0.0, abs=1e-13)
    assert m @ weights == pytest.approx((d + 1) * math.sinh(r) ** 2, rel=1e-12, abs=1e-15)
    assert (m + d) @ weights == pytest.approx(d * math.cosh(r) ** 2 + math.sinh(r) ** 2, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("tanh_r", [0.3, 0.5, 0.9])
def test_the_squeezed_photon_is_the_squeezed_creation_operator_on_the_squeezed_vacuum(tanh_r):
    # S a+ S+ = cosh r a+ - sinh r b, so S(r)|1, 0> = (cosh r a+ - sinh r b)
    # S(r)|0, 0>: from the vacuum rail's amplitudes v_m on |m, m>, the
    # photon rail's on |m + 1, m> are sqrt(m + 1) (cosh r v_m - sinh r v_{m+1});
    # two separate runs of the squeezer, tied by the commutation relations
    r = SqueezeParams.from_tanh(tanh_r).r_squeeze
    n_max = 40
    vacuum, _ = squeezed(r, 0, n_max)
    photon, _ = squeezed(r, 1, n_max)
    m = np.arange(n_max)
    raised = np.sqrt(m + 1) * (math.cosh(r) * vacuum[:-1] - math.sinh(r) * vacuum[1:])
    np.testing.assert_allclose(photon, raised, rtol=0.0, atol=1e-13)


def test_vacuum_rail_coefficients_and_tail():
    params = SqueezeParams.from_tanh(0.5)
    n_max = 30
    zero, _ = channel._schmidt_coefficients(params, n_max, 0, n_max + 1)

    # diagonal kets carry tanh^n r / cosh r
    inv_cosh = math.sqrt(3.0) / 2.0
    for n in range(n_max + 1):
        assert zero[n] == pytest.approx(0.5**n * inv_cosh, rel=1e-13, abs=0.0)

    tail = channel._tails(params)(n_max)[0]
    assert tail == pytest.approx(0.5 ** (2 * (n_max + 1)), rel=1e-13, abs=0.0)
    assert zero @ zero == pytest.approx(1.0 - tail, abs=1e-13)


def test_thermal_occupation_matches_planck_law():
    # region I of the squeezed vacuum S(r)|0, 0>, r from (M, Omega), holds
    # m photons with weight |amplitude of |m, m>|^2
    for product in (0.1, 0.25, 0.5):
        params = SqueezeParams(1.0, product)
        amplitudes, _ = squeezed(params.r_squeeze, 0, 60)
        mean = float(np.arange(61) @ amplitudes**2)
        sinh_sq = (params.tanh_r * params.cosh_r) ** 2
        planck = 1.0 / (math.exp(4.0 * math.pi * product) - 1.0)
        assert mean == pytest.approx(sinh_sq, abs=1e-8)
        assert mean == pytest.approx(planck, abs=1e-8)


def test_schmidt_coefficients_match_the_closed_forms_across_the_squeezing_range():
    # beyond the squeezer's reach (r = 3 is tanh r = 0.995, cutoff 3140):
    # every amplitude of both rails against tanh^m r / cosh r and
    # sqrt(m + 1) tanh^m r / cosh^2 r, and each rail's kept weight against
    # 1 - x^(n+1) and 1 - x^n (1 + n (1 - x)), x = tanh^2 r, all in
    # 60-digit decimals from the exact decay
    for r in np.linspace(0.0, 3.0, 13):
        params = SqueezeParams.from_tanh(math.tanh(r))
        n_max = required_cutoff(params, 1e-12)
        zero, one = channel._schmidt_coefficients(params, n_max, 0, n_max + 1)
        with localcontext() as ctx:
            ctx.prec = 60
            tanh_r = (-Decimal(params.decay)).exp()
            x = tanh_r * tanh_r
            power, want_zero, want_one = Decimal(1), [], []
            for m in range(n_max + 1):
                want_zero.append(float(power * (1 - x).sqrt()))
                want_one.append(float(power * Decimal(m + 1).sqrt() * (1 - x)) if m < n_max else 0.0)
                power *= tanh_r
            kept_zero = float(1 - x ** (n_max + 1))
            kept_one = float(1 - x**n_max * (1 + n_max * (1 - x)))
        for got, want in ((zero, np.array(want_zero)), (one, np.array(want_one))):
            assert np.all(np.abs(got - want) <= 1e-14 * want), r
        assert zero @ zero == pytest.approx(kept_zero, rel=0.0, abs=1e-13), r
        assert one @ one == pytest.approx(kept_one, rel=0.0, abs=1e-13), r


def test_tail_formulas_match_brute_series():
    for t, n_max in ((0.2, 3), (0.5, 7), (0.8, 25)):
        params = SqueezeParams.from_tanh(t)
        zero_tail, one_tail, _ = channel._tails(params)(n_max)
        x = t * t
        brute_zero = (1 - x) * sum(x**n for n in range(n_max + 1, 3000))
        assert zero_tail == pytest.approx(brute_zero, rel=1e-10)
        brute_one = (1 - x) ** 2 * sum(
            (n + 1) * x**n for n in range(n_max, 3000)
        )
        assert one_tail == pytest.approx(brute_one, rel=1e-10)


@pytest.mark.parametrize("tanh_r, n_max", [(0.5, 30), (0.5, 60), (0.99999, 1318555)])
def test_tails_keep_relative_precision_near_divergence(tanh_r, n_max):
    # x = tanh^2 r = exp(-4 pi M Omega) in 60-digit decimals; a power of
    # the rounded x drifts by about n_max ulps, and 1 - (1 - zero)(1 - one)
    # rounds to 0 below 1e-16
    params = SqueezeParams.from_tanh(tanh_r)
    with localcontext() as ctx:
        ctx.prec = 60
        x = (-4 * PI_60 * Decimal(params.mass) * Decimal(params.frequency)).exp()
        zero = x ** (n_max + 1)
        one = x**n_max * (1 + n_max * (1 - x))
        expected = [float(zero), float(one), float(1 - (1 - zero) * (1 - one))]
    got = [*channel._tails(params)(n_max)[:2], dual_rail_tail(params, n_max)]
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------- cutoff search


def test_required_cutoff_boundaries():
    assert required_cutoff(SqueezeParams.from_tanh(0.0), 1e-12) == 1

    params = SqueezeParams.from_tanh(0.5)
    n = required_cutoff(params, 1e-12)
    assert n == 23
    assert dual_rail_tail(params, n) <= 1e-12 < dual_rail_tail(params, n - 1)

    loose = required_cutoff(params, 0.1)
    assert loose <= 3
    assert dual_rail_tail(params, loose) <= 0.1
    with pytest.raises(ValueError):
        required_cutoff(params, 0.5)  # the budget lies in (0, 0.1]


def test_required_cutoff_known_values():
    # (tanh r, epsilon): cutoff, each the first n whose dual-rail tail is
    # within epsilon in a 60-digit search, found under a cap raised to 10^7
    expected = {
        (0.1, 1e-10): 6,
        (0.3, 1e-10): 11,
        (0.5, 1e-10): 19,
        (0.7, 1e-10): 37,
        (0.1, 1e-20): 11,
        (0.3, 1e-16): 17,
        (0.5, 1e-16): 29,
        (0.5, 1e-20): 36,
        (0.7, 1e-14): 50,
        (0.7, 1e-20): 70,
        (0.9, 1e-20): 237,
        (0.99, 1e-20): 2488,
        (0.9, 1e-10): 125,
        (0.99, 1e-10): 1312,
        (0.9999, 1e-10): 131850,
        (0.99999, 1e-10): 1318555,
    }
    for (t, epsilon), n in expected.items():
        params = SqueezeParams.from_tanh(t)
        got = required_cutoff(params, epsilon, hard_cap=10**7)
        assert got == n, (t, epsilon)
        assert dual_rail_tail(params, got) <= epsilon < dual_rail_tail(params, got - 1)
        # and against the 60-digit tail, 1 - 4 p of the finite-cutoff law
        exact = [1 - 4 * finite_cutoff_law(params.decay, k)[0] for k in (n, n - 1)]
        assert exact[0] <= epsilon < exact[1], (t, epsilon)


def test_required_cutoff_monotone_in_epsilon():
    params = SqueezeParams.from_tanh(0.6)
    budgets = (1e-4, 1e-8, 1e-12)
    cutoffs = [required_cutoff(params, eps) for eps in budgets]
    assert cutoffs == sorted(cutoffs)


def test_required_cutoff_infeasible_and_validation():
    params = SqueezeParams.from_tanh(0.999)
    with pytest.raises(CutoffInfeasible) as info:
        required_cutoff(params, 1e-12, hard_cap=40)
    assert info.value.hard_cap == 40

    for bad in (0.0, 1.0, -1e-3):
        with pytest.raises(ValueError):
            required_cutoff(params, bad)


def _reference_cutoff(params, epsilon, hard_cap):
    """The first cutoff whose dual-rail tail is within ``epsilon``, by
    doubling from 1 and then bisecting; None when ``hard_cap`` misses it."""

    def misses(n):
        return dual_rail_tail(params, n) > epsilon

    if misses(hard_cap):
        return None
    lo, hi = 0, 1  # cutoff 0 drops the whole photon rail
    while misses(hi):
        lo, hi = hi, min(2 * hi, hard_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if misses(mid) else (lo, mid)
    return hi


@settings(deadline=None, max_examples=300)
@given(
    params=st.floats(-9.0, math.log10(30.0)).map(lambda exponent: SqueezeParams(1.0, 10.0**exponent)),
    epsilon=st.floats(-300.0, -1.0).map(lambda exponent: 10.0**exponent),
    hard_cap=st.sampled_from([1, 37, 1000, 10**5, CUTOFF_LIMIT]),
    offset=st.integers(-4, 4) | st.integers(-CUTOFF_LIMIT, CUTOFF_LIMIT),
)
@example(params=SqueezeParams.from_tanh(0.0), epsilon=1e-10, hard_cap=10**5, offset=0)  # flat space
@example(params=SqueezeParams(1e-17, 1.0), epsilon=EPSILON_MAX, hard_cap=CUTOFF_LIMIT, offset=0)  # the edge
@example(params=SqueezeParams(1.0, 1.0), epsilon=EPSILON_MAX, hard_cap=1, offset=0)
@example(params=SqueezeParams(1.0, 1e-6), epsilon=EPSILON_MAX, hard_cap=CUTOFF_LIMIT, offset=0)
@example(params=SqueezeParams.from_tanh(0.999), epsilon=1e-12, hard_cap=40, offset=0)  # infeasible
@example(params=SqueezeParams.from_tanh(0.7), epsilon=1e-10, hard_cap=10**5, offset=-1)
def test_required_cutoff_is_the_first_cutoff_within_the_budget_from_any_estimate(
    params, epsilon, hard_cap, offset
):
    # the search starts from an estimate and checks it with the tail: moved
    # by any number of levels, the estimate changes neither the cutoff nor
    # the refusal, which are those of a plain doubling-and-bisection search
    estimate = channel._cutoff_estimate
    expected = _reference_cutoff(params, epsilon, hard_cap)
    with mock.patch.object(channel, "_cutoff_estimate", lambda *args: estimate(*args) + offset):
        if expected is None:
            with pytest.raises(CutoffInfeasible) as info:
                required_cutoff(params, epsilon, hard_cap)
            assert info.value.hard_cap == hard_cap
        else:
            assert required_cutoff(params, epsilon, hard_cap) == expected
