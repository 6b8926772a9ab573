"""Teleportation protocol: Bell machinery, corrections, fidelity law."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horizon_teleport import channel, fock, teleport
from horizon_teleport.channel import SqueezeParams, required_cutoff
from horizon_teleport.teleport import (
    BELL_TABLE,
    DEGENERATE_PROBABILITY,
    OUTCOME_LABELS,
    DualRailQubit,
    fidelity_analytic,
    run_protocol,
)
from oracles import (
    LAW_RTOL,
    bell_basis,
    bell_resource,
    conditional_state,
    correct,
    dense_protocol,
    finite_cutoff_law,
    input_state,
    law_deviation,
    premeasure_weight,
)

S = 1.0 / math.sqrt(2.0)
FLAT = SqueezeParams(100.0, 100.0)  # exponential underflow: exactly r = 0

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
    # a NaN norm compares false both ways, so it must not pass as normalized
    for alpha, beta in ((math.nan, 0.0), (1.0, complex(0.0, math.nan))):
        with pytest.raises(ValueError, match="not normalized"):
            DualRailQubit(alpha, beta)
    state = input_state(DualRailQubit(0.6, 0.8j))  # axes (X1, X2)
    np.testing.assert_array_equal(state, [[0, 0.8j], [0.6, 0]])


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
    assert channel._tails(params, n_max - 1)[1] <= epsilon
    assert channel._tails(params, n_max)[2] <= epsilon < channel._tails(params, n_max - 1)[2]
    run = run_protocol(params, DualRailQubit(1.0, 0.0), n_max)
    assert 1.0 - sum(o.probability for o in run.outcomes) == run.loss <= epsilon


# ---------------------------------------------------------------- Bell machinery


def test_bell_basis_orthonormal_in_the_two_photon_sector():
    basis = bell_basis()
    assert list(basis) == list(OUTCOME_LABELS)
    vectors = np.array([state.reshape(-1) for state in basis.values()])
    np.testing.assert_allclose(vectors @ vectors.T.conj(), np.eye(4), atol=1e-14)
    for state in basis.values():
        for occupations in zip(*np.nonzero(state)):
            # one photon per dual-rail pair: (X1, X2) and (A1, A2)
            assert sum(occupations[:2]) == sum(occupations[2:]) == 1


def test_bell_table_matches_the_fock_space_bell_states():
    # the package's logical 2x2 measurement against the oracle's four-mode
    # Fock-space one: same Born weight, same ancilla amplitudes
    qubits = [DualRailQubit(1.0, 0.0), DualRailQubit(0.0, 1.0), DualRailQubit(0.6, 0.8j)]
    qubits += [_seeded_qubit(seed) for seed in range(5)]
    basis = bell_basis()
    for qubit in qubits:
        for label, bell in zip(OUTCOME_LABELS, BELL_TABLE, strict=True):
            weight, ancilla = fock.project(bell, np.array([qubit.alpha, qubit.beta]))
            # <input|bell> on the ancilla modes (A1, A2), |0L> = |1,0>, as
            # project takes it; Bob's branches are weighted by its conjugate
            v = np.tensordot(input_state(qubit).conj(), basis[label], axes=([0, 1], [0, 1]))
            fock_weight = float(np.vdot(v, v).real)
            assert weight == pytest.approx(0.5, abs=1e-15), label
            assert weight == pytest.approx(fock_weight, abs=1e-15), label
            expected = np.array([v[1, 0], v[0, 1]]) / math.sqrt(fock_weight)
            np.testing.assert_allclose(ancilla, expected, rtol=0, atol=1e-15, err_msg=label)


def test_bell_resource_flat_limit_is_the_bell_state():
    # axes (A1, A2, B1I, B1II, B2I, B2II)
    state = bell_resource(FLAT, 1)
    expected = np.zeros((2,) * 6)
    expected[1, 0, 1, 0, 0, 0] = expected[0, 1, 0, 0, 1, 0] = S
    np.testing.assert_allclose(state, expected, atol=1e-15)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_bell_resource_norm_and_alice_marginal():
    params = SqueezeParams.from_tanh(0.5)
    assert np.linalg.norm(bell_resource(params, 30)) == pytest.approx(1.0, abs=1e-8)

    ancilla = bell_resource(FLAT, 1).reshape(4, -1)  # (A1, A2) against Bob
    marginal = ancilla @ ancilla.conj().T
    np.testing.assert_allclose(marginal, np.diag([0, 0.5, 0.5, 0]), atol=1e-14)


def test_bell_resource_peak_memory_stays_within_twice_the_result():
    params = SqueezeParams.from_tanh(0.7)
    tracemalloc.start()
    try:
        state = bell_resource(params, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state.nbytes, peak / state.nbytes


def test_correction_restores_the_conditional_amplitudes():
    # x |1,0> + y |0,1> on Bob's region-I rails, region II empty, axes
    # (B1I, B1II, B2I, B2II) at cutoff 1
    alpha, beta = 0.6, 0.8j
    expected = np.zeros((2,) * 4, dtype=complex)
    expected[1, 0, 0, 0], expected[0, 0, 1, 0] = alpha, beta

    for label, conditional in CONDITIONAL_TABLE.items():
        state = np.zeros((2,) * 4, dtype=complex)
        state[1, 0, 0, 0], state[0, 0, 1, 0] = conditional(alpha, beta)
        np.testing.assert_allclose(correct(label, state), expected, atol=1e-14, err_msg=label)


@pytest.mark.parametrize("n_max", [1, 3])
@pytest.mark.parametrize("label", OUTCOME_LABELS)
def test_the_correction_is_a_signed_permutation_on_region_i(label, n_max):
    # the matrix of correct on (B1I, B1II, B2I, B2II): unitary, one entry
    # of modulus 1 per column, and each ket keeps its region-II occupations
    # while its region-I occupations swap rails on the bit-flip outcomes
    shape = (n_max + 1,) * 4
    kets = np.eye(math.prod(shape)).reshape((-1,) + shape)
    u = np.array([correct(label, ket).reshape(-1) for ket in kets]).T
    np.testing.assert_array_equal(u.T @ u, np.eye(len(kets)))
    np.testing.assert_array_equal(np.abs(u).sum(axis=0), 1.0)
    for (b1, b1ii, b2, b2ii), column in zip(np.ndindex(shape), u.T):
        image = np.unravel_index(np.flatnonzero(column)[0], shape)
        region_i = (b2, b1) if label[1] == "1" else (b1, b2)
        assert image == (region_i[0], b1ii, region_i[1], b2ii), (label, b1, b1ii, b2, b2ii)


@pytest.mark.parametrize("tanh_r", [0.0, 0.3, 0.6])
def test_bobs_region_i_state_is_the_even_mixture_of_the_two_thermal_branches(tanh_r):
    # tracing the ancilla and region II out of the resource leaves each
    # rail thermal, x = tanh^2 r: the vacuum rail holds n photons with
    # weight (1 - x) x^n, the photon rail with (1 - x)^2 n x^(n-1), one
    # branch each way round, each truncated at the cutoff
    n_max = 6
    resource = bell_resource(SqueezeParams.from_tanh(tanh_r), n_max)
    rho = np.einsum("abikjl,abmknl->ijmn", resource, resource.conj())  # (B1I, B2I) twice
    x, n = tanh_r**2, np.arange(n_max + 1)
    vacuum = (1 - x) * x**n
    photon = (1 - x) ** 2 * n * x ** np.maximum(n - 1, 0)
    weights = 0.5 * (np.multiply.outer(photon, vacuum) + np.multiply.outer(vacuum, photon))
    expected = np.zeros(rho.shape)
    i, j = np.indices(weights.shape)
    expected[i, j, i, j] = weights
    # each squeezed amplitude carries up to 2e-15 of rounding (1e-15 at
    # r = 0, where eigh returns 1 - 1e-15 for the vacuum), and a weight
    # is half the square of a product of two of them
    np.testing.assert_allclose(rho, expected, rtol=0.0, atol=4e-15)


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
            assert o.flags == ""
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("label", OUTCOME_LABELS)
def test_conditional_amplitudes_match_the_outcome_table(label):
    # project the flat-limit pre-correction state by hand: each outcome's
    # conditional region-I amplitudes must follow the (x, y) table
    alpha, beta = 0.6, 0.8
    qubit = DualRailQubit(alpha, beta)
    x, y = CONDITIONAL_TABLE[label](alpha, beta)
    state = conditional_state(bell_basis()[label], qubit, bell_resource(FLAT, 1))  # (B1I, B1II, B2I, B2II)
    prob = float(np.vdot(state, state).real)
    assert prob == pytest.approx(0.25, abs=1e-12)
    state /= math.sqrt(prob)
    assert state[1, 0, 0, 0] == pytest.approx(x, abs=1e-12)
    assert state[0, 0, 1, 0] == pytest.approx(y, abs=1e-12)


def test_moderate_squeezing_matches_the_closed_form():
    params = SqueezeParams.from_tanh(0.5)
    outcomes = run_protocol(params, DualRailQubit(S, S), 25).outcomes
    for o in outcomes:
        assert o.fidelity == pytest.approx(27.0 / 64.0, abs=1e-6)


def test_flat_space_limit_recovers_exact_teleportation():
    params = SqueezeParams(10.0, 10.0)  # huge M*Omega: r < 1e-100 but nonzero
    assert 0.0 < params.r_squeeze < 1e-100
    outcomes = run_protocol(params, DualRailQubit(0.6, 0.8j), required_cutoff(params, 1e-10)).outcomes
    for outcome in outcomes:
        assert outcome.probability == pytest.approx(0.25, abs=1e-10)
        assert outcome.fidelity == pytest.approx(1.0, abs=1e-10)


def test_strong_squeezing_matches_the_analytic_law():
    # beyond the reach of a dense Fock simulation: cutoffs 125, 1312,
    # 131850 and 1318555 (tanh r 0.9 to 0.99999), whose values
    # test_required_cutoff_known_values holds to a 60-digit search.  F falls
    # to about 8e-15, where the absolute gate says nothing, so the outcome
    # probabilities and F (1 - loss) are held to the closed forms as well.
    rng = np.random.default_rng(20261018)
    for t in (0.9, 0.99, 0.9999, 0.99999):
        params = SqueezeParams.from_tanh(t)
        expected = (1.0 - t * t) ** 3
        n_max = required_cutoff(params, 1e-10, hard_cap=10**7)
        kept = 1.0 - channel._tails(params, n_max)[2]
        for _ in range(3):
            raw = rng.normal(size=4)
            raw /= math.sqrt(float(np.sum(raw**2)))
            qubit = DualRailQubit(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
            for outcome in run_protocol(params, qubit, n_max).outcomes:
                assert abs(outcome.fidelity - expected) <= 1e-6, (t, outcome.label)
                assert outcome.probability == pytest.approx(kept / 4, abs=1e-13), t
                assert outcome.fidelity * kept == pytest.approx(
                    fidelity_analytic(params), rel=1e-12, abs=0.0
                ), (t, outcome.label)


def test_unit_radius_point_matches_the_closed_form():
    params = SqueezeParams(0.5, 1.0)
    run = run_protocol(params, DualRailQubit(1.0, 0.0), required_cutoff(params, 1e-10))
    expected = (1.0 - math.exp(-2.0 * math.pi)) ** 3
    assert run.fidelity == pytest.approx(expected, abs=1e-6)


def test_outcomes_are_equivalent_after_correction():
    params = SqueezeParams.from_tanh(0.5)
    run = run_protocol(params, make_qubit(0.3 + 0.4j, 0.5 - 0.7j), 19)
    fidelities = [o.fidelity for o in run.outcomes]
    assert max(fidelities) - min(fidelities) <= 1e-8
    probabilities = [o.probability for o in run.outcomes]
    assert max(probabilities) - min(probabilities) <= 1e-8
    # the average is the probability-weighted mean of the outcomes and the
    # loss 1 - their total, both added in turn, to the last bit
    retained = weighted = 0.0
    for o in run.outcomes:
        retained += o.probability
        weighted += o.probability * o.fidelity
    assert run.fidelity == weighted / retained
    assert run.loss == 1.0 - retained


def _assert_the_routes_agree(tanh_r, n_max, inputs, blocks=(channel._BLOCK,)):
    """The sector route against the dense oracle, built once per input and
    held against a sector run that sums Bob's norms in blocks of each of
    ``blocks`` levels."""
    params = SqueezeParams.from_tanh(tanh_r)
    resource = bell_resource(params, n_max)
    # Bob's single-excitation weight before the measurement is sech^6 r
    # at every cutoff: it sits on region-II occupation 0 of both rails
    assert premeasure_weight(resource) == pytest.approx(fidelity_analytic(params), rel=1e-12, abs=0.0), n_max
    for k in range(inputs):
        qubit = _seeded_qubit(100 * n_max + int(10 * tanh_r) + 10000 * k)
        dense = dense_protocol(resource, qubit)
        for block in blocks:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(channel, "_BLOCK", block)
                outcomes = run_protocol(params, qubit, n_max).outcomes
            for outcome, (label, probability, fidelity) in zip(outcomes, dense, strict=True):
                assert (outcome.label, outcome.flags) == (label, ""), (n_max, block)
                assert outcome.probability == pytest.approx(probability, abs=1e-12), (n_max, block)
                assert outcome.fidelity == pytest.approx(fidelity, abs=1e-12), (n_max, block)


@pytest.mark.parametrize("tanh_r", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("n_max", [1, 2, 3, 5, 7, 12])
def test_sector_route_matches_the_dense_oracle(n_max, tanh_r):
    _assert_the_routes_agree(tanh_r, n_max, inputs=3)


def test_sector_route_matches_the_dense_oracle_at_every_cutoff_to_40():
    # in blocks of 1 and 3 levels as well as the real _BLOCK, so a block
    # that drops, repeats or zeroes a level at its ends misses the oracle
    # at cutoffs far below the real block; _LEVELS and _ROOTS are sliced by
    # the block's size, so a smaller block reads them as the real one does
    for n_max in range(1, 41):
        _assert_the_routes_agree(0.7, n_max, inputs=1, blocks=(1, 3, channel._BLOCK))


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


# M Omega = 1e-7, tanh r = 1 - 6.3e-7: cutoffs in the millions keep most of
# Bob's state, so every level of every block carries weight
DIVERGENT = SqueezeParams(1e-3, 1e-4)


def _traced_peak(n_max):
    qubit = _seeded_qubit(5)
    # the first run in a process builds channel's tables of levels and
    # roots, 128 KB kept for the process, not for the run: build them first
    run_protocol(SqueezeParams.from_tanh(0.5), qubit, 1)
    tracemalloc.start()
    try:
        run_protocol(DIVERGENT, qubit, n_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_runs_peak_memory_is_one_block_whatever_the_cutoff():
    # 10**5 levels peak at about 197 KB in blocks of 2**13 levels; the
    # cutoff and the bound are numbers, not multiples of the block, so a
    # block grown past the size at which OpenBLAS splits a dot over its
    # threads fails here too, on a host with one CPU (2**22 levels peaked
    # at 2.4 MB)
    assert _traced_peak(10**5) <= 256 * 1024
    # one block against three blocks and 7 levels, within one block's array
    # of doubles: a run that held Bob's whole vectors would peak three times
    # higher, and one that kept the last block while building the next, two
    # arrays higher
    one_block = _traced_peak(channel._BLOCK - 1)
    assert abs(_traced_peak(3 * channel._BLOCK + 7) - one_block) <= 8 * channel._BLOCK, one_block


# the block size's own boundaries, and those of 2**22, where blocks sat
# before they were cut below the size at which OpenBLAS splits a dot over
# its threads: still block boundaries, now hundreds of blocks in
@pytest.mark.parametrize(
    "n_max",
    [channel._BLOCK - 1, channel._BLOCK, 5 * 10**6, 3 * channel._BLOCK + 7, 2**22 - 1, 2**22, 3 * 2**22 + 7],
)
def test_runs_across_block_boundaries_follow_the_finite_cutoff_law(n_max):
    probability, fidelity = finite_cutoff_law(DIVERGENT.decay, n_max)
    for o in run_protocol(DIVERGENT, _seeded_qubit(5), n_max).outcomes:
        assert law_deviation(o.probability, probability) <= LAW_RTOL, o.label
        assert law_deviation(o.fidelity, fidelity) <= LAW_RTOL, o.label


def test_a_cutoff_above_the_limit_is_refused_before_any_work(monkeypatch):
    # a cutoff at the limit runs; a limit of 12 levels stands in for 2**27,
    # whose run would take most of a second
    with monkeypatch.context() as patch:
        patch.setattr(channel, "CUTOFF_LIMIT", 12)
        assert len(run_protocol(SqueezeParams.from_tanh(0.5), DualRailQubit(1.0, 0.0), 12).outcomes) == 4
        with pytest.raises(ValueError, match="cutoff 13 is above the limit of 12 levels"):
            run_protocol(SqueezeParams.from_tanh(0.5), DualRailQubit(1.0, 0.0), 13)

    def summed(*args):
        raise AssertionError("Bob's norms were summed")

    monkeypatch.setattr(channel, "_schmidt_norms", summed)
    for n_max in (channel.CUTOFF_LIMIT + 1, 10**12):
        with pytest.raises(ValueError, match=f"cutoff {n_max} is above the limit of {channel.CUTOFF_LIMIT}"):
            run_protocol(SqueezeParams.from_tanh(0.5), DualRailQubit(1.0, 0.0), n_max)


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


def _bloch_design(qubits):
    """One row per qubit: the nine functions that span the quadratics in
    its Bloch vector (x, y, z) on the sphere, where z^2 = 1 - x^2 - y^2."""
    rows = []
    for qubit in qubits:
        coherence = qubit.alpha.conjugate() * qubit.beta
        x, y = 2.0 * coherence.real, 2.0 * coherence.imag
        z = abs(qubit.alpha) ** 2 - abs(qubit.beta) ** 2
        rows.append([1.0, x, y, z, x * y, y * z, z * x, x * x, y * y])
    return np.array(rows)


@pytest.mark.parametrize("tanh_r, n_max", [(0.0, 1), (0.3, 11), (0.7, 7)])
@pytest.mark.parametrize("route", ["sector", "dense"])
def test_nine_inputs_certify_that_no_outcome_depends_on_the_input(route, tanh_r, n_max):
    # each outcome's p is affine in the input's Bloch vector and p F is a
    # quadratic in it, so both lie in the nine-function span of
    # _bloch_design; nine inputs whose design has full rank fix every
    # coefficient, and when all but the constant vanish, p and F are the
    # same for every input on the sphere (flat, truncated by 3e-11, and
    # with 3.4% of Bob's weight above the cutoff at tanh r 0.7, n_max 7)
    params = SqueezeParams.from_tanh(tanh_r)
    paulis = [(1.0, 0.0), (0.0, 1.0), (S, S), (S, -S), (S, 1j * S), (S, -1j * S)]
    qubits = [DualRailQubit(*amplitudes) for amplitudes in paulis]
    qubits += [_seeded_qubit(seed) for seed in (1, 2, 3)]
    design = _bloch_design(qubits)
    assert np.linalg.matrix_rank(design) == 9

    if route == "sector":
        runs = [[(o.probability, o.fidelity) for o in run_protocol(params, q, n_max).outcomes] for q in qubits]
    else:
        resource = bell_resource(params, n_max)
        runs = [[(p, f) for _, p, f in dense_protocol(resource, q)] for q in qubits]
    values = np.array([[v for p, f in run for v in (p, p * f)] for run in runs])
    coefficients = np.linalg.solve(design, values)
    # rounding: the inverse design's rows sum to at most 19 in modulus, so
    # values good to a few ulps of 0.25 leave about 1e-15 (1.4e-15 measured)
    assert np.max(np.abs(coefficients[1:])) <= 1e-14, coefficients[1:]


def test_probabilities_complete_up_to_truncation_loss():
    params = SqueezeParams.from_tanh(0.5)
    for n_max in (6, 12):
        outcomes = run_protocol(params, DualRailQubit(0.6, 0.8), n_max).outcomes
        zero_tail, one_tail, _ = channel._tails(params, n_max)
        loss = 1.0 - (1.0 - zero_tail) * (1.0 - one_tail)
        total = sum(o.probability for o in outcomes)
        assert total + loss == pytest.approx(1.0, abs=1e-10)


# squeezing drawn two ways: tanh r up to 1 - 1e-7 through from_tanh, and
# (M, Omega) log-uniform over [1e-2, 1e2]^2 (M Omega >= 1e-4, tanh r <=
# 0.99938), whose tanh r carries the rounding of a generic exp(-2 pi M Omega)
_SQUEEZINGS = st.one_of(
    st.floats(0.0, 1.0 - 1e-7).map(SqueezeParams.from_tanh),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda exponents: SqueezeParams(10.0 ** exponents[0], 10.0 ** exponents[1])
    ),
)


@settings(deadline=None, max_examples=200)
@given(params=_SQUEEZINGS, n_max=st.integers(1, 10**5), seed=st.integers(0, 2**32 - 1))
@example(params=SqueezeParams.from_tanh(1.0 - 1e-7), n_max=10**5, seed=0)
@example(params=SqueezeParams.from_tanh(1.0 - 1e-7), n_max=1, seed=0)
@example(params=SqueezeParams.from_tanh(0.0), n_max=1, seed=0)
@example(params=SqueezeParams(0.01, 0.01), n_max=2000, seed=0)
@example(params=SqueezeParams(10.0, 10.0), n_max=1, seed=0)  # 0 < r < 1e-100
@example(params=SqueezeParams.from_tanh(0.99999), n_max=1318555, seed=0)  # its 1e-10 cutoff
def test_every_outcome_follows_the_finite_cutoff_law(params, n_max, seed):
    # p = K / 4 and F = (1 - x)^3 / K exactly, for any input; a run raises
    # where the law puts p below DEGENERATE_PROBABILITY
    probability, fidelity = finite_cutoff_law(params.decay, n_max)
    # off the rounding edge of the refusal
    assume(law_deviation(DEGENERATE_PROBABILITY, probability) > 1e-9)
    qubit = _seeded_qubit(seed)
    if probability < DEGENERATE_PROBABILITY:
        with pytest.raises(ValueError, match="degenerate"):
            run_protocol(params, qubit, n_max)
        return
    for o in run_protocol(params, qubit, n_max).outcomes:
        assert o.flags == ""
        assert law_deviation(o.probability, probability) <= LAW_RTOL, o.label
        assert law_deviation(o.fidelity, fidelity) <= LAW_RTOL, o.label


def _run_or_refusal(params, qubit, n_max):
    try:
        return repr(run_protocol(params, qubit, n_max))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_a_qubit_reused_across_runs_reports_what_a_fresh_one_does():
    # a qubit keeps Alice's measurement from its first run; every later run
    # on other squeezing and cutoffs must print as a run on a new, equal qubit
    rng = np.random.default_rng(23)
    qubit = _seeded_qubit(23)
    refusals = 0
    for _ in range(200):
        # 1 - tanh r log-uniform over [1e-7, 1]: the cutoffs keep all to none
        params = SqueezeParams.from_tanh(1.0 - 10.0 ** -float(rng.uniform(0.0, 7.0)))
        n_max = int(rng.integers(1, 3000))
        reused = _run_or_refusal(params, qubit, n_max)
        fresh = _run_or_refusal(params, DualRailQubit(qubit.alpha, qubit.beta), n_max)
        assert reused == fresh
        refusals += reused.startswith("ValueError")
    assert 0 < refusals < 200


def test_generic_point_keeps_the_predicted_weight():
    # a generic (M, Omega) from the default surface at the cutoff that
    # required_cutoff picks for 1e-10: powers of the rounded tanh r drift
    # by about 611246 ulps there and lose 4.5e-12 more than the tail
    params = SqueezeParams(channel.radius_to_mass(1e-4), 0.068664884500430012)
    n_max = 611246
    assert required_cutoff(params, 1e-10, hard_cap=10**6) == n_max
    expected = (1.0 - channel._tails(params, n_max)[2]) / 4
    for o in run_protocol(params, DualRailQubit(S, S), n_max).outcomes:
        assert o.probability == pytest.approx(expected, rel=1e-13, abs=0.0), o.label


def test_reported_values_stay_in_bounds():
    for t, n_max in ((0.3, 8), (0.7, 12)):
        params = SqueezeParams.from_tanh(t)
        outcomes = run_protocol(params, DualRailQubit(1.0, 0.0), n_max).outcomes
        for o in outcomes:
            assert 0.0 <= o.probability <= 1.0
            assert 0.0 <= o.fidelity <= 1.0 + 1e-12


def test_a_run_reports_python_floats():
    # not numpy scalars, which are float subclasses, so the type is compared
    qubit = make_qubit(0.3 + 0.4j, 0.5 - 0.7j)
    for params, n_max in ((FLAT, 1), (SqueezeParams(0.5, 1.0), 9), (SqueezeParams.from_tanh(0.7), 37)):
        run = run_protocol(params, qubit, n_max)
        values = [run.fidelity, run.loss]
        values += [value for o in run.outcomes for value in (o.probability, o.fidelity)]
        assert {type(value) for value in values} == {float}


# ---------------------------------------------------------------- diagnostics


def test_a_run_that_truncates_almost_all_of_bobs_state_raises():
    # M Omega = 1e-7: cutoff 5 retains 1.8e-16 of Bob's state, so each
    # outcome falls below DEGENERATE_PROBABILITY and no average is returned
    assert DEGENERATE_PROBABILITY == 1e-14
    with pytest.raises(ValueError, match="retain probability .* cutoff truncates"):
        run_protocol(SqueezeParams(1e-3, 1e-4), make_qubit(0.6, 0.8j), 5)


def test_a_run_raises_only_below_the_degenerate_probability(monkeypatch):
    # tanh r 0.7, cutoff 5: every outcome carries 0.2218169964690618, so a
    # threshold there is met, not undercut, and the run returns; one float
    # above it, every outcome falls below it and the run raises
    params, qubit = SqueezeParams.from_tanh(0.7), DualRailQubit(0.6, 0.8j)
    least = min(o.probability for o in run_protocol(params, qubit, 5).outcomes)
    assert least == 0.2218169964690618
    monkeypatch.setattr(teleport, "DEGENERATE_PROBABILITY", least)
    assert run_protocol(params, qubit, 5).outcomes[0].probability == least
    monkeypatch.setattr(teleport, "DEGENERATE_PROBABILITY", math.nextafter(least, math.inf))
    with pytest.raises(ValueError, match="degenerate"):
        run_protocol(params, qubit, 5)


def test_premeasure_weight_flat_and_squeezed():
    # the oracle's single-excitation weight of Bob's region-I pair before
    # the measurement is the closed form sech^6 r
    measured = premeasure_weight(bell_resource(FLAT, 1))
    assert measured == pytest.approx(1.0, abs=1e-12)
    assert fidelity_analytic(FLAT) == 1.0

    params = SqueezeParams.from_tanh(0.5)
    measured = premeasure_weight(bell_resource(params, 25))
    assert fidelity_analytic(params) == pytest.approx(27.0 / 64.0, abs=1e-12)
    assert measured == pytest.approx(fidelity_analytic(params), rel=1e-12, abs=0.0)
