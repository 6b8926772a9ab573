"""Horizon channel: squeezing map, tails and cutoffs in the package; the
dense state embeddings and thermal reduction in the oracle."""

import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from horizon_teleport.channel import (
    CutoffInfeasible,
    DivergentSqueezing,
    SqueezeParams,
    dual_rail_tail,
    one_tail,
    radius_to_mass,
    required_cutoff,
    zero_tail,
)
from horizon_teleport.teleport import fidelity_analytic

import oracles
from oracles import (
    RegionPair,
    embed_dual_rail,
    embed_one,
    embed_zero,
    thermal_reduced,
)

PAIR = RegionPair("I", "II")

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
    weights = np.diag(thermal_reduced(params, 3).matrix).real
    assert abs(weights[0] / sech2 - 1.0) <= 1e-14


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


def test_region_pair_labels_distinct():
    with pytest.raises(ValueError):
        RegionPair("same", "same")
    assert RegionPair("I", "II").modes == ("I", "II")


# ---------------------------------------------------------------- embeddings


def test_embed_zero_flat_limit_is_exact_vacuum():
    state, tail = embed_zero(SqueezeParams.from_tanh(0.0), PAIR, 4)
    assert tail == 0.0
    assert state.amplitudes[state.layout.flat_index((0, 0))] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_embed_zero_coefficients_and_tail():
    params = SqueezeParams.from_tanh(0.5)
    n_max = 30
    state, tail = embed_zero(params, PAIR, n_max)
    layout = state.layout

    # diagonal kets carry tanh^n r / cosh r, everything else vanishes
    inv_cosh = math.sqrt(3.0) / 2.0
    for n in range(n_max + 1):
        amp = state.amplitudes[layout.flat_index((n, n))]
        assert amp == pytest.approx(0.5**n * inv_cosh, rel=1e-13, abs=0.0)
    assert np.count_nonzero(state.amplitudes) == n_max + 1

    assert tail == pytest.approx(0.5 ** (2 * (n_max + 1)), rel=1e-13, abs=0.0)
    assert state.norm() ** 2 == pytest.approx(1.0 - tail, abs=1e-13)


def test_tail_formulas_match_brute_series():
    for t, n_max in ((0.2, 3), (0.5, 7), (0.8, 25)):
        params = SqueezeParams.from_tanh(t)
        x = t * t
        brute_zero = (1 - x) * sum(x**n for n in range(n_max + 1, 3000))
        assert zero_tail(params, n_max) == pytest.approx(brute_zero, rel=1e-10)
        brute_one = (1 - x) ** 2 * sum(
            (n + 1) * x**n for n in range(n_max, 3000)
        )
        assert one_tail(params, n_max) == pytest.approx(brute_one, rel=1e-10)


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
    got = [zero_tail(params, n_max), one_tail(params, n_max), dual_rail_tail(params, n_max)]
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_embed_one_flat_limit_and_norm():
    state, tail = embed_one(SqueezeParams.from_tanh(0.0), PAIR, 4)
    assert tail == 0.0
    assert state.amplitudes[state.layout.flat_index((1, 0))] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1

    params = SqueezeParams.from_tanh(0.5)
    state, tail = embed_one(params, PAIR, 30)
    assert state.norm() ** 2 == pytest.approx(1.0 - tail, abs=1e-13)


def test_embeddings_are_orthogonal():
    params = SqueezeParams.from_tanh(0.5)
    zero, _ = embed_zero(params, PAIR, 30)
    one, _ = embed_one(params, PAIR, 30)
    assert abs(oracles.inner(zero, one)) <= 1e-10


def test_one_photon_embedding_matches_squeezed_creation_oracle():
    # independent route: the region-I squeezed creation operator
    # cosh r a_I+ - sinh r a_II applied to the vacuum embedding must
    # reproduce embed_one amplitude for amplitude
    params = SqueezeParams.from_tanh(0.5)
    n_max = 30
    zero, _ = embed_zero(params, PAIR, n_max)
    one, _ = embed_one(params, PAIR, n_max)

    raised, _ = oracles.create(zero, "I")
    lowered = oracles.annihilate(zero, "II")
    candidate = params.cosh_r * raised + (-params.tanh_r * params.cosh_r) * lowered
    np.testing.assert_allclose(candidate.amplitudes, one.amplitudes, atol=1e-12)


def test_embed_dual_rail():
    pairs = (RegionPair("I1", "II1"), RegionPair("I2", "II2"))
    flat = SqueezeParams.from_tanh(0.0)

    state, tail = embed_dual_rail(SimpleNamespace(alpha=1.0, beta=0.0), flat, pairs, 2)
    assert tail == 0.0
    assert state.layout.modes == ("I1", "II1", "I2", "II2")
    assert state.amplitudes[state.layout.flat_index((1, 0, 0, 0))] == 1.0

    state, _ = embed_dual_rail(SimpleNamespace(alpha=0.0, beta=1.0), flat, pairs, 2)
    assert state.amplitudes[state.layout.flat_index((0, 0, 1, 0))] == 1.0

    s = 1.0 / math.sqrt(2.0)
    params = SqueezeParams.from_tanh(0.5)
    state, tail = embed_dual_rail(SimpleNamespace(alpha=s, beta=s), params, pairs, 30)
    assert state.norm() == pytest.approx(1.0, abs=1e-8)
    t0, t1 = zero_tail(params, 30), one_tail(params, 30)
    assert tail == pytest.approx(t0 + t1 * (1.0 - t0), rel=1e-12, abs=0.0)


def test_embed_dual_rail_is_linear():
    pairs = (RegionPair("I1", "II1"), RegionPair("I2", "II2"))
    params = SqueezeParams.from_tanh(0.4)
    e10, _ = embed_dual_rail(SimpleNamespace(alpha=1.0, beta=0.0), params, pairs, 8)
    e01, _ = embed_dual_rail(SimpleNamespace(alpha=0.0, beta=1.0), params, pairs, 8)
    mixed, _ = embed_dual_rail(
        SimpleNamespace(alpha=0.6, beta=0.8j), params, pairs, 8
    )
    combined = 0.6 * e10 + 0.8j * e01
    np.testing.assert_allclose(mixed.amplitudes, combined.amplitudes, atol=1e-12)


# ---------------------------------------------------------------- thermal state


def test_thermal_reduced_flat_limit():
    rho = thermal_reduced(SqueezeParams.from_tanh(0.0), 3)
    np.testing.assert_allclose(rho.matrix, np.diag([1, 0, 0, 0]), atol=1e-15)
    rho.validate()


def test_thermal_mean_photon_number():
    params = SqueezeParams.from_tanh(0.5)
    rho = thermal_reduced(params, 60)
    occupations = np.arange(61)
    mean = float(np.sum(occupations * np.diag(rho.matrix).real))
    assert mean == pytest.approx(1.0 / 3.0, abs=1e-10)  # sinh^2 r at tanh r = 1/2

    # Planck form at (M, Omega) = (0.5, 1)
    params = SqueezeParams(0.5, 1.0)
    rho = thermal_reduced(params, 60)
    mean = float(np.sum(occupations * np.diag(rho.matrix).real))
    assert mean == pytest.approx(
        1.0 / (math.exp(4 * math.pi * 0.5) - 1.0), abs=1e-10
    )
    assert mean == pytest.approx((params.tanh_r * params.cosh_r) ** 2, abs=1e-10)


def test_thermal_equals_traced_vacuum_embedding():
    params = SqueezeParams.from_tanh(0.5)
    n_max = 20
    state, _ = embed_zero(params, PAIR, n_max)
    traced = oracles.reduced_density(state, ("I",))
    direct = thermal_reduced(params, n_max)
    np.testing.assert_allclose(direct.matrix, traced.matrix, atol=1e-12)


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
    # within epsilon in a 60-digit search
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
    }
    for (t, epsilon), n in expected.items():
        params = SqueezeParams.from_tanh(t)
        got = required_cutoff(params, epsilon)
        assert got == n, (t, epsilon)
        assert dual_rail_tail(params, got) <= epsilon < dual_rail_tail(params, got - 1)


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
