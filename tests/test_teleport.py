"""Teleportation protocol: Bell machinery, corrections, fidelity law."""

import math

import numpy as np
import pytest

from horizon_teleport import fock, teleport
from horizon_teleport.channel import SqueezeParams, squeeze_param
from horizon_teleport.fock import ModeLayout, basis_state, project, reduced_density, tensor
from horizon_teleport.teleport import (
    ALICE_ANCILLA,
    DEGENERATE_PROBABILITY,
    OUTCOME_LABELS,
    DualRailQubit,
    ProtocolConfig,
    average_fidelity,
    bell_basis,
    bell_resource,
    correction,
    fidelity_analytic,
    premeasure_weight,
    resource_layout,
    run_protocol,
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


# ---------------------------------------------------------------- inputs


def test_dual_rail_qubit_validation_and_state():
    with pytest.raises(ValueError):
        DualRailQubit(1.0, 1.0)
    qubit = DualRailQubit(0.6, 0.8j, mode_pair=("L", "R"))
    state = qubit.state()
    assert state.layout.modes == ("L", "R")
    assert state.amplitudes[state.layout.flat_index((1, 0))] == 0.6
    assert state.amplitudes[state.layout.flat_index((0, 1))] == 0.8j


def test_protocol_config_validation():
    qubit = DualRailQubit(1.0, 0.0)
    params = SqueezeParams.from_tanh(0.5)
    for bad_eps in (0.0, -1e-3, 0.2):
        with pytest.raises(ValueError):
            ProtocolConfig(params=params, input=qubit, epsilon_trunc=bad_eps)
    with pytest.raises(ValueError):
        ProtocolConfig(params=params, input=qubit, n_max_bob=0)
    with pytest.raises(ValueError):
        ProtocolConfig(
            params=params, input=DualRailQubit(1.0, 0.0, mode_pair=ALICE_ANCILLA)
        )

    derived = ProtocolConfig(params=params, input=qubit, epsilon_trunc=1e-10)
    assert derived.bob_cutoff() == 19
    explicit = ProtocolConfig(params=params, input=qubit, n_max_bob=7)
    assert explicit.bob_cutoff() == 7


# ---------------------------------------------------------------- Bell machinery


def test_bell_basis_orthonormal_in_the_two_photon_sector():
    basis = bell_basis()
    assert list(basis) == list(OUTCOME_LABELS)
    vectors = list(basis.values())
    gram = np.array(
        [[fock.inner(u, v) for v in vectors] for u in vectors]
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
    marginal = fock.reduced_density(flat_state, ALICE_ANCILLA)
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


def test_bell_resource_budget():
    params = SqueezeParams.from_tanh(0.9)
    with pytest.raises(teleport.channel.TruncationBudgetExceeded):
        bell_resource(params, resource_layout(2), 2, epsilon_trunc=1e-8)


def test_correction_restores_the_conditional_amplitudes():
    alpha, beta = 0.6, 0.8j
    layout = ModeLayout.uniform(("R1", "R2"), 1)

    for label, conditional in CONDITIONAL_TABLE.items():
        x, y = conditional(alpha, beta)
        state = x * basis_state(layout, (1, 0)) + y * basis_state(layout, (0, 1))
        fixed = correction(label) @ state.amplitudes
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
            u = correction(label, cutoff)
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(dim), atol=1e-14, err_msg=label
            )
            # signed permutation: one entry of modulus 1 per column
            np.testing.assert_allclose(np.abs(u).sum(axis=0), 1.0, atol=1e-14)

    swap = correction("01", 2)
    layout = ModeLayout.uniform(("R1", "R2"), 2)
    assert swap[layout.flat_index((1, 2)), layout.flat_index((2, 1))] == 1.0

    with pytest.raises(ValueError):
        correction("02")


def test_fidelity_analytic_examples():
    assert fidelity_analytic(FLAT) == 1.0
    assert fidelity_analytic(SqueezeParams.from_tanh(0.5)) == pytest.approx(
        27.0 / 64.0, abs=1e-9
    )
    values = [
        fidelity_analytic(SqueezeParams.from_r(r)) for r in np.linspace(0.0, 5.0, 21)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10  # large squeezing wipes the fidelity out


# ---------------------------------------------------------------- protocol runs


def test_flat_space_protocol_is_exact():
    for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (S, S * 1j)):
        outcomes = run_protocol(
            ProtocolConfig(params=FLAT, input=DualRailQubit(alpha, beta), n_max_bob=1)
        )
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
    full = tensor(qubit.state(), resource)
    basis = bell_basis(("X1", "X2") + ALICE_ANCILLA)

    for label, conditional in CONDITIONAL_TABLE.items():
        x, y = conditional(alpha, beta)
        prob, state = project(full, [basis[label]])
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert state.layout.modes == ("B1I", "B1II", "B2I", "B2II")
        got_x = state.amplitudes[state.layout.flat_index((1, 0, 0, 0))]
        got_y = state.amplitudes[state.layout.flat_index((0, 0, 1, 0))]
        assert got_x == pytest.approx(x, abs=1e-12)
        assert got_y == pytest.approx(y, abs=1e-12)


def test_moderate_squeezing_matches_the_closed_form():
    params = SqueezeParams.from_tanh(0.5)
    outcomes = run_protocol(
        ProtocolConfig(params=params, input=DualRailQubit(S, S), n_max_bob=25)
    )
    for o in outcomes:
        assert o.fidelity == pytest.approx(27.0 / 64.0, abs=1e-6)


def test_unit_radius_point_matches_the_closed_form():
    params = squeeze_param(0.5, 1.0)
    config = ProtocolConfig(params=params, input=DualRailQubit(1.0, 0.0))
    outcomes = run_protocol(config)
    expected = (1.0 - math.exp(-2.0 * math.pi)) ** 3
    assert average_fidelity(outcomes) == pytest.approx(expected, abs=1e-6)


def test_outcomes_are_equivalent_after_correction():
    params = SqueezeParams.from_tanh(0.5)
    outcomes = run_protocol(
        ProtocolConfig(params=params, input=make_qubit(0.3 + 0.4j, 0.5 - 0.7j), n_max_bob=19)
    )
    fidelities = [o.fidelity for o in outcomes]
    assert max(fidelities) - min(fidelities) <= 1e-8
    probabilities = [o.probability for o in outcomes]
    assert max(probabilities) - min(probabilities) <= 1e-8


def test_fidelity_is_input_independent():
    params = SqueezeParams.from_tanh(0.3)
    rng = np.random.default_rng(7)
    values = []
    for _ in range(50):
        raw = rng.normal(size=4)
        qubit = make_qubit(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
        outcomes = run_protocol(
            ProtocolConfig(params=params, input=qubit, n_max_bob=11)
        )
        values.append(average_fidelity(outcomes))
    assert max(values) - min(values) <= 1e-6


def _eight_mode_protocol(config):
    """The protocol on the full eight-mode input-resource state: project
    each Bell outcome, apply the correction matrix to the region-I axes,
    reduce to region I and read <phi| rho_I |phi>."""
    qubit, n_max = config.input, config.bob_cutoff()
    d = n_max + 1
    full = tensor(qubit.state(), bell_resource(config.params, resource_layout(n_max), n_max))
    basis = bell_basis(qubit.mode_pair + ALICE_ANCILLA)
    pair = ModeLayout.uniform(("B1I", "B2I"), n_max)
    phi = qubit.alpha * basis_state(pair, (1, 0)) + qubit.beta * basis_state(pair, (0, 1))
    outcomes = []
    for label in OUTCOME_LABELS:
        probability, conditional = project(full, [basis[label]])
        u = correction(label, n_max).reshape(d, d, d, d)
        # (out1, out2) x (B1II, B2II), back to (B1I, B1II, B2I, B2II)
        corrected = np.tensordot(u, conditional.as_tensor(), axes=([2, 3], [0, 2]))
        corrected = fock.FockVector(conditional.layout, corrected.transpose(0, 2, 1, 3).reshape(-1))
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
        config = ProtocolConfig(
            params=params,
            input=make_qubit(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]),
            n_max_bob=n_max,
        )
        for outcome, (label, probability, fidelity, flags) in zip(
            run_protocol(config), _eight_mode_protocol(config)
        ):
            assert outcome.label == label
            assert outcome.flags == flags
            assert outcome.probability == pytest.approx(probability, abs=1e-12)
            assert outcome.fidelity == pytest.approx(fidelity, abs=1e-12)


def test_truncation_error_is_nonincreasing_in_the_cutoff():
    for t in (0.1, 0.3, 0.5, 0.7):
        params = SqueezeParams.from_tanh(t)
        target = fidelity_analytic(params)
        errors = []
        for n_max in (5, 10, 15, 20, 25, 30):
            outcomes = run_protocol(
                ProtocolConfig(params=params, input=DualRailQubit(S, S), n_max_bob=n_max)
            )
            errors.append(abs(average_fidelity(outcomes) - target))
        for previous, current in zip(errors, errors[1:]):
            assert current <= previous + 1e-12, (t, errors)


def test_probabilities_complete_up_to_truncation_loss():
    from horizon_teleport.channel import one_tail, zero_tail

    params = SqueezeParams.from_tanh(0.5)
    for n_max in (6, 12):
        outcomes = run_protocol(
            ProtocolConfig(params=params, input=DualRailQubit(0.6, 0.8), n_max_bob=n_max)
        )
        loss = 1.0 - (1.0 - zero_tail(params, n_max)) * (1.0 - one_tail(params, n_max))
        total = sum(o.probability for o in outcomes)
        assert total + loss == pytest.approx(1.0, abs=1e-10)


def test_reported_values_stay_in_bounds():
    for t, n_max in ((0.3, 8), (0.7, 12)):
        params = SqueezeParams.from_tanh(t)
        outcomes = run_protocol(
            ProtocolConfig(params=params, input=DualRailQubit(1.0, 0.0), n_max_bob=n_max)
        )
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

    with pytest.raises(ValueError):
        average_fidelity([outcome])


def test_average_fidelity_weights_by_probability():
    a = teleport.TeleportOutcome("00", 0.2, 0.5)
    b = teleport.TeleportOutcome("01", 0.6, 1.0)
    degenerate = teleport._degenerate_outcome("10", 0.0)
    assert average_fidelity([a, b, degenerate]) == pytest.approx(0.875)


def test_premeasure_weight_flat_and_squeezed():
    measured, claimed = premeasure_weight(
        ProtocolConfig(params=FLAT, input=DualRailQubit(1.0, 0.0), n_max_bob=1)
    )
    assert measured == pytest.approx(1.0, abs=1e-12)
    assert claimed == 1.0

    config = ProtocolConfig(
        params=SqueezeParams.from_tanh(0.5), input=DualRailQubit(S, S), n_max_bob=25
    )
    measured, claimed = premeasure_weight(config)
    assert claimed == pytest.approx(27.0 / 64.0, abs=1e-12)
    assert 0.0 <= measured <= 1.0
    # diagnostic comparison only; equality is deliberately not asserted
    print(f"single-excitation weight: measured={measured!r} claimed={claimed!r}")
