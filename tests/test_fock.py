"""The dense oracle's truncated Fock toolkit: basis ordering, measurement,
ladder algebra, products and traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DensityOperator,
    FockVector,
    ModeLayout,
    annihilate,
    basis_state,
    create,
    inner,
    partial_trace,
    project,
    reduced_density,
    tensor,
    vacuum,
)


def random_state(layout, seed, normalize=False):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    if normalize:
        amps = amps / np.linalg.norm(amps)
    return FockVector(layout, amps)


# ---------------------------------------------------------------- layout


def test_flat_index_order_is_frozen_last_mode_fastest():
    # golden ordering check: serialized output depends on this enumeration
    layout = ModeLayout(("m1", "m2"), (1, 2))
    assert layout.dims == (2, 3)
    assert layout.dim == 6
    assert layout.flat_index((0, 0)) == 0
    assert layout.flat_index((0, 1)) == 1
    assert layout.flat_index((1, 0)) == 3
    assert layout.flat_index((1, 2)) == 5
    state = basis_state(layout, (1, 2))
    assert state.amplitudes[5] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        ModeLayout(("a",), (0,))
    with pytest.raises(ValueError):
        ModeLayout(("a", "b"), (1,))
    layout = ModeLayout(("a", "b"), (1, 2))
    with pytest.raises(ValueError):
        layout.flat_index((2, 0))
    with pytest.raises(ValueError):
        layout.flat_index((0,))
    with pytest.raises(KeyError):
        layout.index("c")
    assert layout.subset(("b", "a")).cutoffs == (2, 1)


def test_empty_layout_is_the_scalar_edge_case():
    empty = ModeLayout((), ())
    assert empty.dim == 1
    assert vacuum(empty).amplitudes[0] == 1.0


def test_per_mode_cutoffs():
    layout = ModeLayout(("alice", "bob"), (1, 7))
    assert layout.dim == 2 * 8
    assert layout.flat_index((1, 7)) == 15


# ---------------------------------------------------------------- vacuum


def test_vacuum_amplitudes():
    one = ModeLayout(("m",), (2,))
    np.testing.assert_array_equal(vacuum(one).amplitudes, [1, 0, 0])

    two = ModeLayout.uniform(("a", "b"), 1)
    state = vacuum(two)
    assert state.amplitudes[two.flat_index((0, 0))] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1

    for layout in (one, two, ModeLayout(("x", "y", "z"), (1, 3, 2))):
        v = vacuum(layout)
        assert inner(v, v) == 1.0
        assert v.is_normalized()


# ---------------------------------------------------------------- ladders


def test_create_ladder_action():
    layout = ModeLayout(("m",), (3,))
    up, lost = create(vacuum(layout), "m")
    np.testing.assert_allclose(up.amplitudes, [0, 1, 0, 0])
    assert lost == 0.0

    up2, lost = create(basis_state(layout, (1,)), "m")
    np.testing.assert_allclose(up2.amplitudes, [0, 0, math.sqrt(2), 0])
    assert lost == 0.0


def test_create_clips_at_cutoff_and_reports_weight():
    layout = ModeLayout(("m",), (2,))
    top = 0.5j * basis_state(layout, (2,))
    clipped, lost = create(top, "m")
    np.testing.assert_array_equal(clipped.amplitudes, [0, 0, 0])
    # the discarded weight is the occupation weight, not the raised one
    assert lost == pytest.approx(0.25, abs=1e-15)


def test_annihilate_ladder_action():
    layout = ModeLayout(("m",), (2,))
    down = annihilate(basis_state(layout, (1,)), "m")
    np.testing.assert_allclose(down.amplitudes, [1, 0, 0])

    zero = annihilate(vacuum(layout), "m")
    np.testing.assert_array_equal(zero.amplitudes, [0, 0, 0])

    up, _ = create(vacuum(layout), "m")
    roundtrip = annihilate(up, "m")
    np.testing.assert_allclose(roundtrip.amplitudes, vacuum(layout).amplitudes)


def test_ladder_matrix_elements_are_exact():
    layout = ModeLayout(("m",), (6,))
    for n in range(6):
        ket = basis_state(layout, (n,))
        up, _ = create(ket, "m")
        assert inner(basis_state(layout, (n + 1,)), up) == pytest.approx(
            math.sqrt(n + 1), abs=1e-15
        )
    for n in range(1, 7):
        ket = basis_state(layout, (n,))
        down = annihilate(ket, "m")
        assert inner(basis_state(layout, (n - 1,)), down) == pytest.approx(
            math.sqrt(n), abs=1e-15
        )


def test_ladder_acts_on_named_mode_only():
    layout = ModeLayout(("a", "b"), (2, 2))
    state = basis_state(layout, (1, 2))
    up, _ = create(state, "a")
    assert up.amplitudes[layout.flat_index((2, 2))] == pytest.approx(math.sqrt(2))
    down = annihilate(state, "b")
    assert down.amplitudes[layout.flat_index((1, 1))] == pytest.approx(math.sqrt(2))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-1, 1), min_size=5, max_size=5))
def test_commutator_identity_below_the_cutoff(values):
    # (a a+ - a+ a) acts as identity on support n <= n_max - 1
    layout = ModeLayout(("m",), (5,))
    amps = np.zeros(6, dtype=np.complex128)
    amps[:5] = values
    psi = FockVector(layout, amps)
    up, _ = create(psi, "m")
    down_up = annihilate(up, "m")
    down = annihilate(psi, "m")
    up_down, _ = create(down, "m")
    np.testing.assert_allclose(
        down_up.amplitudes - up_down.amplitudes, psi.amplitudes, atol=1e-12
    )


# ---------------------------------------------------------------- tensor / inner


def test_tensor_composition():
    a = ModeLayout(("a",), (1,))
    b = ModeLayout(("b",), (1,))
    product = tensor(vacuum(a), basis_state(b, (1,)))
    assert product.layout.modes == ("a", "b")
    assert product.amplitudes[product.layout.flat_index((0, 1))] == 1.0

    with pytest.raises(ValueError):
        tensor(vacuum(a), vacuum(a))


def test_tensor_with_vacuum_only_reindexes():
    layout = ModeLayout(("a",), (2,))
    psi = random_state(layout, seed=3)
    out = tensor(psi, vacuum(ModeLayout(("b",), (1,))))
    # occupations (n, 0) carry the original amplitudes, (n, 1) are empty
    np.testing.assert_allclose(out.as_tensor()[:, 0], psi.amplitudes)
    np.testing.assert_array_equal(out.as_tensor()[:, 1], 0)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    st.lists(st.floats(-2, 2), min_size=6, max_size=6),
)
def test_tensor_norms_multiply(left, right):
    a = FockVector(ModeLayout(("a", "b"), (1, 1)), np.array(left, dtype=complex))
    b = FockVector(ModeLayout(("c",), (5,)), np.array(right, dtype=complex))
    assert tensor(a, b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


def test_inner_product():
    layout = ModeLayout(("m",), (1,))
    zero, one = vacuum(layout), basis_state(layout, (1,))
    assert inner(zero, zero) == 1.0
    assert inner(zero, one) == 0.0

    psi = random_state(layout, seed=11)
    overlap = inner(psi, psi)
    assert overlap.imag == pytest.approx(0.0, abs=1e-15)
    assert overlap.real == pytest.approx(psi.norm() ** 2, rel=1e-12)
    # conjugate-linear in the first argument
    assert inner(1j * zero, one + 1j * zero) == pytest.approx(-1j * 1j)

    with pytest.raises(ValueError):
        inner(zero, vacuum(ModeLayout(("other",), (1,))))


# ---------------------------------------------------------------- project


def test_project_collapses_measured_modes():
    layout = ModeLayout.uniform(("m1", "m2"), 1)
    state = basis_state(layout, (0, 1))
    sub = ModeLayout(("m1",), (1,))

    prob, conditional = project(state, vacuum(sub))
    assert prob == pytest.approx(1.0, abs=1e-15)
    assert conditional.layout.modes == ("m2",)
    np.testing.assert_allclose(conditional.amplitudes, [0, 1])

    prob, flagged = project(state, basis_state(sub, (1,)))
    assert prob == 0.0
    assert "zero-probability" in flagged.flags
    np.testing.assert_array_equal(flagged.amplitudes, 0)


def test_project_born_rule_gives_half():
    layout = ModeLayout.uniform(("m1", "m2"), 1)
    s = 1.0 / math.sqrt(2.0)
    pair_plus = s * (basis_state(layout, (0, 0)) + basis_state(layout, (1, 1)))

    # measuring both modes of |0,0> against the entangled pair state
    prob, scalar = project(vacuum(layout), pair_plus)
    assert prob == pytest.approx(0.5, abs=1e-15)
    assert scalar.layout.mode_count == 0
    assert abs(scalar.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    # measuring one mode of the pair state against a balanced superposition
    sub = ModeLayout(("m1",), (1,))
    plus = s * (vacuum(sub) + basis_state(sub, (1,)))
    prob, conditional = project(pair_plus, plus)
    assert prob == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(conditional.amplitudes, [s, s], atol=1e-12)


def test_project_outcome_probabilities_sum_to_squared_norm():
    layout = ModeLayout.uniform(("m1", "m2"), 1)
    psi = random_state(layout, seed=5)  # deliberately unnormalized
    sub = ModeLayout(("m1",), (1,))

    total = sum(
        project(psi, basis_state(sub, (n,)))[0] for n in range(2)
    )
    assert total == pytest.approx(psi.norm() ** 2, abs=1e-10)

    full_basis = [basis_state(layout, (i, j)) for i in range(2) for j in range(2)]
    total = sum(project(psi, b)[0] for b in full_basis)
    assert total == pytest.approx(psi.norm() ** 2, abs=1e-10)


def test_project_rejects_non_orthonormal_basis():
    layout = ModeLayout.uniform(("m1", "m2"), 1)
    sub = ModeLayout(("m1",), (1,))
    skew = 0.5 * (vacuum(sub) + basis_state(sub, (1,)))  # norm 1/sqrt(2)
    with pytest.raises(ValueError):
        project(vacuum(layout), skew)


def test_project_rejects_cutoff_mismatch():
    layout = ModeLayout(("m1", "m2"), (1, 1))
    wrong = ModeLayout(("m1",), (2,))
    with pytest.raises(ValueError):
        project(vacuum(layout), vacuum(wrong))


# ---------------------------------------------------------------- traces


def outer(state):
    return DensityOperator(
        state.layout,
        np.outer(state.amplitudes, state.amplitudes.conj()),
        trace_expected=state.norm() ** 2,
    )


def test_partial_trace_basics():
    layout = ModeLayout.uniform(("m1", "m2"), 1)
    rho = outer(vacuum(layout))
    kept = partial_trace(rho, ("m1",))
    np.testing.assert_allclose(kept.matrix, [[1, 0], [0, 0]], atol=1e-15)

    s = 1.0 / math.sqrt(2.0)
    pair = s * (basis_state(layout, (0, 0)) + basis_state(layout, (1, 1)))
    half = partial_trace(outer(pair), ("m2",))
    np.testing.assert_allclose(half.matrix, [[0.5, 0], [0, 0.5]], atol=1e-15)


def test_partial_trace_preserves_trace_and_hermiticity():
    layout = ModeLayout(("a", "b", "c"), (1, 2, 1))
    psi = random_state(layout, seed=17)
    rho = outer(psi)
    for keep in (("a",), ("b",), ("a", "c"), ("c", "b")):
        red = partial_trace(rho, keep)
        assert red.trace() == pytest.approx(rho.trace(), abs=1e-12)
        assert np.max(np.abs(red.matrix - red.matrix.conj().T)) <= 1e-12
        assert red.layout.modes == keep

    identity = partial_trace(rho, ("a", "b", "c"))
    np.testing.assert_allclose(identity.matrix, rho.matrix, atol=1e-14)

    scalar = partial_trace(rho, ())
    assert scalar.matrix.shape == (1, 1)
    assert scalar.matrix[0, 0].real == pytest.approx(rho.trace(), abs=1e-12)


def test_partial_trace_recovers_product_factors():
    a = random_state(ModeLayout(("a",), (2,)), seed=1, normalize=True)
    b = random_state(ModeLayout(("b",), (3,)), seed=2, normalize=True)
    rho = outer(tensor(a, b))
    np.testing.assert_allclose(
        partial_trace(rho, ("a",)).matrix, outer(a).matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(rho, ("b",)).matrix, outer(b).matrix, atol=1e-12
    )


def test_reduced_density_matches_partial_trace():
    layout = ModeLayout(("a", "b", "c"), (1, 2, 2))
    psi = random_state(layout, seed=23)
    direct = reduced_density(psi, ("c", "a"))
    via_trace = partial_trace(outer(psi), ("c", "a"))
    np.testing.assert_allclose(direct.matrix, via_trace.matrix, atol=1e-12)
    assert direct.layout.modes == ("c", "a")


# ---------------------------------------------------------------- validation


def test_density_operator_validate():
    layout = ModeLayout(("m",), (1,))
    good = DensityOperator(layout, np.diag([0.5, 0.5]).astype(complex))
    good.validate()

    lopsided = DensityOperator(layout, np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        lopsided.validate()

    off_trace = DensityOperator(layout, np.diag([0.5, 0.4]).astype(complex))
    with pytest.raises(ValueError):
        off_trace.validate()

    indefinite = DensityOperator(layout, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        indefinite.validate()


def test_vector_flags_and_normalization():
    layout = ModeLayout(("m",), (1,))
    half = 0.5 * vacuum(layout)
    assert not half.is_normalized()
    assert half.norm() == pytest.approx(0.5)
    assert vacuum(layout).is_normalized()
