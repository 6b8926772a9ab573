"""Teleportation protocol: Bell machinery, corrections, fidelity law."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizon_teleport import channel, fock, teleport
from horizon_teleport.channel import (
    SqueezeParams,
    dual_rail_tail,
    one_tail,
    required_cutoff,
    squeeze_param,
    zero_tail,
)
from horizon_teleport.teleport import (
    BELL_TABLE,
    DEGENERATE_PROBABILITY,
    OUTCOME_LABELS,
    DualRailQubit,
    fidelity_analytic,
    run_protocol,
)
from oracles import (
    ALICE_ANCILLA,
    FockVector,
    ModeLayout,
    TruncationBudgetExceeded,
    basis_state,
    bell_basis,
    bell_resource,
    correction_matrix,
    dense_protocol,
    inner,
    input_state,
    project,
    reduced_density,
    resource_layout,
    tensor,
)

S = 1.0 / math.sqrt(2.0)
FLAT = squeeze_param(100.0, 100.0)  # exponential underflow: exactly r = 0

# the conditional logical amplitudes produced by each Bell outcome
CONDITIONAL_TABLE = {
    "00": lambda a, b: (a, b),
    "01": lambda a, b: (b, a),
    "10": lambda a, b: (a, -b),
    "11": lambda a, b: (-b, a),
}


def make_qubit(alpha, beta):
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return DualRailQubit(alpha / norm, beta / norm)


def _seeded_qubit(seed):
    raw = np.random.default_rng(seed).normal(size=4)
    return make_qubit(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])


# ---------------------------------------------------------------- inputs


def test_dual_rail_qubit_validation_and_state():
    with pytest.raises(ValueError):
        DualRailQubit(1.0, 1.0)
    qubit = DualRailQubit(0.6, 0.8j)
    state = input_state(qubit)
    assert state.layout.modes == ("X1", "X2")
    assert state.amplitudes[state.layout.flat_index((1, 0))] == 0.6
    assert state.amplitudes[state.layout.flat_index((0, 1))] == 0.8j


def test_protocol_config_validation():
    qubit = DualRailQubit(1.0, 0.0)
    params = SqueezeParams.from_tanh(0.5)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            run_protocol(params, qubit, bad)
    with pytest.raises(TypeError):
        run_protocol(params, qubit)  # the cutoff is not derived

    n_max = required_cutoff(params, 1e-10)
    assert n_max == 19
    assert len(run_protocol(params, qubit, n_max).outcomes) == 4


@pytest.mark.parametrize("tanh_r, epsilon, n_max", [(0.2815, 1e-10, 11), (0.3235, 1e-6, 8)])
def test_derived_cutoff_meets_its_own_budget(tanh_r, epsilon, n_max):
    # the one-photon tail alone is within the budget one level lower (10
    # and 7 here); the dual-rail tail, the loss a run reports, is not
    params = SqueezeParams.from_tanh(tanh_r)
    assert required_cutoff(params, epsilon) == n_max
    assert one_tail(params, n_max - 1) <= epsilon
    assert dual_rail_tail(params, n_max) <= epsilon < dual_rail_tail(params, n_max - 1)
    run = run_protocol(params, DualRailQubit(1.0, 0.0), n_max)
    assert 1.0 - sum(o.probability for o in run.outcomes) == run.loss <= epsilon


# ---------------------------------------------------------------- Bell machinery


def test_bell_basis_orthonormal_in_the_two_photon_sector():
    basis = bell_basis()
    assert list(basis) == list(OUTCOME_LABELS)
    vectors = list(basis.values())
    gram = np.array(
        [[inner(u, v) for v in vectors] for u in vectors]
    )
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)

    layout = vectors[0].layout
    occupations = [
        (i, j, k, l)
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
    ]
    for vec in vectors:
        for occ in occupations:
            if vec.amplitudes[layout.flat_index(occ)] != 0.0:
                assert sum(occ) == 2  # dual-rail states carry one photon per qubit


def test_bell_table_matches_the_fock_space_bell_states():
    # the package's logical 2x2 measurement against the oracle's four-mode
    # Fock-space one: same Born weight, same ancilla amplitudes
    qubits = [DualRailQubit(1.0, 0.0), DualRailQubit(0.0, 1.0), DualRailQubit(0.6, 0.8j)]
    qubits += [_seeded_qubit(seed) for seed in range(5)]
    basis = bell_basis()
    for qubit in qubits:
        for label, bell in zip(OUTCOME_LABELS, BELL_TABLE, strict=True):
            weight, ancilla = fock.project(bell, np.array([qubit.alpha, qubit.beta]))
            fock_weight, fock_ancilla = project(basis[label], input_state(qubit))
            assert weight == pytest.approx(0.5, abs=1e-15), label
            assert weight == pytest.approx(fock_weight, abs=1e-15), label
            v = fock_ancilla.as_tensor()  # ancilla modes (A1, A2): |0L> = |1,0>
            np.testing.assert_allclose(
                ancilla, [v[1, 0], v[0, 1]], rtol=0, atol=1e-15, err_msg=label
            )

    with pytest.raises(ValueError, match="not normalized"):
        fock.project(BELL_TABLE[0], np.array([1.0, 1.0]))


def test_bell_resource_flat_limit_is_the_bell_state():
    layout = resource_layout(1)
    state = bell_resource(FLAT, layout, 1)
    expected = np.zeros(layout.dim, dtype=complex)
    expected[layout.flat_index((1, 0, 1, 0, 0, 0))] = S
    expected[layout.flat_index((0, 1, 0, 0, 1, 0))] = S
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_bell_resource_norm_and_alice_marginal():
    params = SqueezeParams.from_tanh(0.5)
    state = bell_resource(params, resource_layout(30), 30)
    assert state.norm() == pytest.approx(1.0, abs=1e-8)

    flat_state = bell_resource(FLAT, resource_layout(1), 1)
    marginal = reduced_density(flat_state, ALICE_ANCILLA)
    np.testing.assert_allclose(
        marginal.matrix, np.diag([0, 0.5, 0.5, 0]), atol=1e-14
    )


def test_bell_resource_layout_contract():
    params = SqueezeParams.from_tanh(0.3)
    with pytest.raises(ValueError):
        bell_resource(params, ModeLayout.uniform(("a", "b"), 1), 1)
    bad_ancilla = ModeLayout(("A1", "A2", "a", "b", "c", "d"), (2, 1, 3, 3, 3, 3))
    with pytest.raises(ValueError):
        bell_resource(params, bad_ancilla, 3)
    bad_bob = ModeLayout(("A1", "A2", "a", "b", "c", "d"), (1, 1, 3, 3, 3, 2))
    with pytest.raises(ValueError):
        bell_resource(params, bad_bob, 3)


def test_bell_resource_peak_memory_stays_within_twice_the_result():
    params = SqueezeParams.from_tanh(0.7)
    tracemalloc.start()
    try:
        state = bell_resource(params, resource_layout(20), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state.amplitudes.nbytes, peak / state.amplitudes.nbytes


def test_bell_resource_budget():
    params = SqueezeParams.from_tanh(0.9)
    with pytest.raises(TruncationBudgetExceeded):
        bell_resource(params, resource_layout(2), 2, epsilon_trunc=1e-8)


def test_correction_restores_the_conditional_amplitudes():
    alpha, beta = 0.6, 0.8j
    layout = ModeLayout.uniform(("R1", "R2"), 1)

    for label, conditional in CONDITIONAL_TABLE.items():
        x, y = conditional(alpha, beta)
        state = x * basis_state(layout, (1, 0)) + y * basis_state(layout, (0, 1))
        fixed = correction_matrix(label) @ state.amplitudes
        expected = alpha * basis_state(layout, (1, 0)) + beta * basis_state(
            layout, (0, 1)
        )
        np.testing.assert_allclose(
            fixed, expected.amplitudes, atol=1e-14, err_msg=label
        )


def test_correction_matrices_are_unitary_permutations():
    for cutoff in (1, 3):
        dim = (cutoff + 1) ** 2
        for label in OUTCOME_LABELS:
            u = correction_matrix(label, cutoff)
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(dim), atol=1e-14, err_msg=label
            )
            # signed permutation: one entry of modulus 1 per column
            np.testing.assert_allclose(np.abs(u).sum(axis=0), 1.0, atol=1e-14)

    swap = correction_matrix("01", 2)
    layout = ModeLayout.uniform(("R1", "R2"), 2)
    assert swap[layout.flat_index((1, 2)), layout.flat_index((2, 1))] == 1.0

    with pytest.raises(ValueError):
        correction_matrix("02")


def test_fidelity_analytic_examples():
    assert fidelity_analytic(FLAT) == 1.0
    assert fidelity_analytic(SqueezeParams.from_tanh(0.5)) == pytest.approx(
        27.0 / 64.0, abs=1e-9
    )
    values = [
        fidelity_analytic(SqueezeParams.from_tanh(math.tanh(r))) for r in np.linspace(0.0, 5.0, 21)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10  # large squeezing wipes the fidelity out


# ---------------------------------------------------------------- protocol runs


def test_flat_space_protocol_is_exact():
    for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (S, S * 1j)):
        outcomes = run_protocol(FLAT, DualRailQubit(alpha, beta), 1).outcomes
        assert [o.label for o in outcomes] == list(OUTCOME_LABELS)
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            assert o.fidelity == pytest.approx(1.0, abs=1e-12)
            assert o.flags == ()
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)


def test_conditional_amplitudes_match_the_outcome_table():
    # project the flat-limit pre-correction state by hand: each outcome's
    # conditional region-I amplitudes must follow the (x, y) table
    alpha, beta = 0.6, 0.8
    qubit = DualRailQubit(alpha, beta)
    resource = bell_resource(FLAT, resource_layout(1), 1)
    full = tensor(input_state(qubit), resource)
    basis = bell_basis()

    for label, conditional in CONDITIONAL_TABLE.items():
        x, y = conditional(alpha, beta)
        prob, state = project(full, basis[label])
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert state.layout.modes == ("B1I", "B1II", "B2I", "B2II")
        got_x = state.amplitudes[state.layout.flat_index((1, 0, 0, 0))]
        got_y = state.amplitudes[state.layout.flat_index((0, 0, 1, 0))]
        assert got_x == pytest.approx(x, abs=1e-12)
        assert got_y == pytest.approx(y, abs=1e-12)


def test_moderate_squeezing_matches_the_closed_form():
    params = SqueezeParams.from_tanh(0.5)
    outcomes = run_protocol(params, DualRailQubit(S, S), 25).outcomes
    for o in outcomes:
        assert o.fidelity == pytest.approx(27.0 / 64.0, abs=1e-6)


def test_unit_radius_point_matches_the_closed_form():
    params = squeeze_param(0.5, 1.0)
    run = run_protocol(params, DualRailQubit(1.0, 0.0), required_cutoff(params, 1e-10))
    expected = (1.0 - math.exp(-2.0 * math.pi)) ** 3
    assert run.fidelity == pytest.approx(expected, abs=1e-6)


def test_outcomes_are_equivalent_after_correction():
    params = SqueezeParams.from_tanh(0.5)
    outcomes = run_protocol(params, make_qubit(0.3 + 0.4j, 0.5 - 0.7j), 19).outcomes
    fidelities = [o.fidelity for o in outcomes]
    assert max(fidelities) - min(fidelities) <= 1e-8
    probabilities = [o.probability for o in outcomes]
    assert max(probabilities) - min(probabilities) <= 1e-8


def _eight_mode_protocol(params, qubit, n_max):
    """The protocol on the full eight-mode input-resource state: project
    each Bell outcome, apply the correction matrix to the region-I axes,
    reduce to region I and read <phi| rho_I |phi>."""
    d = n_max + 1
    full = tensor(input_state(qubit), bell_resource(params, resource_layout(n_max), n_max))
    basis = bell_basis()
    pair = ModeLayout.uniform(("B1I", "B2I"), n_max)
    phi = qubit.alpha * basis_state(pair, (1, 0)) + qubit.beta * basis_state(pair, (0, 1))
    outcomes = []
    for label in OUTCOME_LABELS:
        probability, conditional = project(full, basis[label])
        u = correction_matrix(label, n_max).reshape(d, d, d, d)
        # (out1, out2) x (B1II, B2II), back to (B1I, B1II, B2I, B2II)
        corrected = np.tensordot(u, conditional.as_tensor(), axes=([2, 3], [0, 2]))
        corrected = FockVector(conditional.layout, corrected.transpose(0, 2, 1, 3).reshape(-1))
        rho = reduced_density(corrected, ("B1I", "B2I"))
        fidelity = float(np.vdot(phi.amplitudes, rho.matrix @ phi.amplitudes).real)
        flags = ("degenerate",) if probability < DEGENERATE_PROBABILITY else ()
        outcomes.append((label, probability, fidelity, flags))
    return outcomes


@pytest.mark.parametrize("tanh_r", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("n_max", [1, 2, 3, 7, 12])
def test_protocol_matches_the_eight_mode_pipeline(n_max, tanh_r):
    params = SqueezeParams.from_tanh(tanh_r)
    rng = np.random.default_rng(1000 * n_max + int(10 * tanh_r))
    for _ in range(3):
        raw = rng.normal(size=4)
        qubit = make_qubit(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
        for outcome, (label, probability, fidelity, flags) in zip(
            run_protocol(params, qubit, n_max).outcomes, _eight_mode_protocol(params, qubit, n_max)
        ):
            assert outcome.label == label
            assert outcome.flags == flags
            assert outcome.probability == pytest.approx(probability, abs=1e-12)
            assert outcome.fidelity == pytest.approx(fidelity, abs=1e-12)


@pytest.mark.parametrize(
    "tanh_r, cutoffs",
    [(0.0, (1, 5, 12)), (0.3, (1, 5, 12)), (0.7, range(1, 41))],
    ids=["flat", "tanh0.3", "tanh0.7-every-cutoff-to-40"],
)
def test_sector_route_matches_the_dense_oracle(tanh_r, cutoffs):
    params = SqueezeParams.from_tanh(tanh_r)
    for n_max in cutoffs:
        qubit = _seeded_qubit(100 * n_max + int(10 * tanh_r))
        dense_outcomes, dense_weight = dense_protocol(params, qubit, n_max)
        for outcome, (label, probability, fidelity, flags) in zip(
            run_protocol(params, qubit, n_max).outcomes, dense_outcomes, strict=True
        ):
            assert (outcome.label, outcome.flags) == (label, flags), n_max
            assert outcome.probability == pytest.approx(probability, abs=1e-12), n_max
            assert outcome.fidelity == pytest.approx(fidelity, abs=1e-12), n_max
        # Bob's single-excitation weight before the measurement is sech^6 r
        # at every cutoff: it sits on region-II occupation 0 of both rails
        assert dense_weight == pytest.approx(fidelity_analytic(params), rel=1e-12, abs=0.0), n_max


@pytest.mark.parametrize("tanh_r, limit_mb", [(0.7, 5), (0.99, 1)])
def test_protocol_memory_scales_with_the_sectors(tanh_r, limit_mb):
    # n_max 37 and 1312: the dense six-mode resource would be 133 MB and
    # 190 TB, and an (n_max + 1)^2 grid per branch would peak at 0.1 MB and
    # 98 MB, so the limits hold a run to O(n_max)
    params = SqueezeParams.from_tanh(tanh_r)
    n_max = required_cutoff(params, 1e-10)
    tracemalloc.start()
    try:
        run_protocol(params, _seeded_qubit(3), n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6, peak


def test_memory_preflight_bounds_the_measured_peak():
    n_max = 10**6
    tracemalloc.start()
    try:
        run_protocol(SqueezeParams.from_tanh(0.99999), _seeded_qubit(5), n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= teleport._PEAK_BYTES_PER_LEVEL * (n_max + 1), peak


def test_cutoff_beyond_physical_memory_is_refused_before_allocation():
    # 64 (10^12 + 1) bytes is 64 TB: without the preflight the first
    # Schmidt vector (8 TB) fails in malloc
    with pytest.raises(ValueError, match="physical memory"):
        run_protocol(SqueezeParams.from_tanh(0.5), DualRailQubit(1.0, 0.0), 10**12)


def test_truncation_error_is_nonincreasing_in_the_cutoff():
    for t in (0.1, 0.3, 0.5, 0.7):
        params = SqueezeParams.from_tanh(t)
        target = fidelity_analytic(params)
        errors = []
        for n_max in (5, 10, 15, 20, 25, 30):
            run = run_protocol(params, DualRailQubit(S, S), n_max)
            errors.append(abs(run.fidelity - target))
        for previous, current in zip(errors, errors[1:]):
            assert current <= previous + 1e-12, (t, errors)


def test_fidelity_is_input_independent():
    params = SqueezeParams.from_tanh(0.3)
    rng = np.random.default_rng(7)
    values = []
    for _ in range(50):
        raw = rng.normal(size=4)
        qubit = make_qubit(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
        values.append(run_protocol(params, qubit, 11).fidelity)
    assert max(values) - min(values) <= 1e-6


def test_probabilities_complete_up_to_truncation_loss():
    params = SqueezeParams.from_tanh(0.5)
    for n_max in (6, 12):
        outcomes = run_protocol(params, DualRailQubit(0.6, 0.8), n_max).outcomes
        loss = 1.0 - (1.0 - zero_tail(params, n_max)) * (1.0 - one_tail(params, n_max))
        total = sum(o.probability for o in outcomes)
        assert total + loss == pytest.approx(1.0, abs=1e-10)


# squeezing drawn two ways: tanh r up to 0.999 through from_tanh, and (M,
# Omega) log-uniform over [1e-2, 1e2]^2 (M Omega >= 1e-4, tanh r <= 0.99938),
# whose tanh r carries the rounding of a generic exp(-2 pi M Omega)
_SQUEEZINGS = st.one_of(
    st.floats(0.0, 0.999).map(SqueezeParams.from_tanh),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda exponents: squeeze_param(10.0 ** exponents[0], 10.0 ** exponents[1])
    ),
)


@settings(deadline=None, max_examples=300)
@given(
    params=_SQUEEZINGS,
    n_max=st.integers(1, 2000),
    theta=st.floats(0.0, math.pi),
    phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
)
@example(params=SqueezeParams.from_tanh(0.999), n_max=1, theta=1.0, phases=(0.5, 2.0))
@example(params=squeeze_param(0.01, 0.01), n_max=2000, theta=1.0, phases=(0.5, 2.0))
def test_every_outcome_has_the_predicted_probability_and_fidelity(params, n_max, theta, phases):
    # each outcome carries a quarter of the kept weight, and its fidelity,
    # scaled by that weight, is the closed form, for any input qubit
    qubit = DualRailQubit(
        math.cos(theta / 2) * complex(math.cos(phases[0]), math.sin(phases[0])),
        math.sin(theta / 2) * complex(math.cos(phases[1]), math.sin(phases[1])),
    )
    kept = 1.0 - dual_rail_tail(params, n_max)
    # the same weight as the product of the two rails' partial Schmidt sums,
    # (1 - x) sum_{m <= n_max} x^m and (1 - x)^2 sum_{m < n_max} (m + 1) x^m
    # with x^m = exp(-4 pi M Omega m): 1 - dual_rail_tail cancels to about
    # 1e-9 relative when little is kept (tanh r 0.999 at cutoff 1 keeps 1.6e-8)
    powers = np.exp(-4.0 * math.pi * params.mass * params.frequency * np.arange(n_max + 1))
    m = np.arange(n_max)
    kept_sums = params.sech2_r**3 * float(np.sum(powers)) * float(np.sum((m + 1) * powers[:-1]))
    target = fidelity_analytic(params)
    for o in run_protocol(params, qubit, n_max).outcomes:
        assert o.flags == ()
        assert o.probability == pytest.approx(kept / 4, abs=1e-13)
        assert o.fidelity * kept_sums == pytest.approx(target, rel=1e-13, abs=0.0)


def test_generic_point_keeps_the_predicted_weight():
    # a generic (M, Omega) from the default surface at the cutoff that
    # required_cutoff picks for 1e-10: powers of the rounded tanh r drift
    # by about 611246 ulps there and lose 4.5e-12 more than the tail
    params = squeeze_param(channel.radius_to_mass(1e-4), 0.068664884500430012)
    n_max = 611246
    assert required_cutoff(params, 1e-10, hard_cap=10**6) == n_max
    expected = (1.0 - dual_rail_tail(params, n_max)) / 4
    for o in run_protocol(params, DualRailQubit(S, S), n_max).outcomes:
        assert o.probability == pytest.approx(expected, rel=1e-13, abs=0.0), o.label


def test_reported_values_stay_in_bounds():
    for t, n_max in ((0.3, 8), (0.7, 12)):
        params = SqueezeParams.from_tanh(t)
        outcomes = run_protocol(params, DualRailQubit(1.0, 0.0), n_max).outcomes
        for o in outcomes:
            assert 0.0 <= o.probability <= 1.0
            assert 0.0 <= o.fidelity <= 1.0 + 1e-12


# ---------------------------------------------------------------- diagnostics


def test_degenerate_outcomes_are_flagged_not_divided():
    outcome = teleport._degenerate_outcome("10", 0.0)
    assert outcome.flags == ("degenerate",)
    assert math.isnan(outcome.fidelity)
    assert outcome.probability == 0.0
    assert DEGENERATE_PROBABILITY == 1e-14

    with pytest.raises(ValueError, match="cutoff truncates"):
        teleport._average_fidelity([outcome])


def test_average_fidelity_weights_by_probability():
    a = teleport.TeleportOutcome("00", 0.2, 0.5)
    b = teleport.TeleportOutcome("01", 0.6, 1.0)
    degenerate = teleport._degenerate_outcome("10", 0.0)
    assert teleport._average_fidelity([a, b, degenerate]) == pytest.approx(0.875)


def test_premeasure_weight_flat_and_squeezed():
    # the oracle's single-excitation weight of Bob's region-I pair before
    # the measurement is the closed form sech^6 r
    _, measured = dense_protocol(FLAT, DualRailQubit(1.0, 0.0), 1)
    assert measured == pytest.approx(1.0, abs=1e-12)
    assert fidelity_analytic(FLAT) == 1.0

    params = SqueezeParams.from_tanh(0.5)
    _, measured = dense_protocol(params, DualRailQubit(S, S), 25)
    assert fidelity_analytic(params) == pytest.approx(27.0 / 64.0, abs=1e-12)
    assert measured == pytest.approx(fidelity_analytic(params), rel=1e-12, abs=0.0)
