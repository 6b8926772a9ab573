"""Dense reference routes for checking the sector-sparse protocol.

The package runs the protocol on Bob's sectors and builds no dense state of
his modes.  This module keeps the dense Fock-space route as an independent
check on it:

- the Fock toolkit: pure states on named modes with per-mode cutoffs
  (``ModeLayout``, ``FockVector``, ``basis_state``), projective measurement
  of a mode subset (``project``), ``DensityOperator``, ``vacuum``, the
  ladder operators ``create`` and ``annihilate``, ``tensor``, ``inner``,
  ``partial_trace`` and ``reduced_density``;
- Alice's side in Fock space: the input qubit on ``INPUT_MODES``
  (``input_state``) and the four Bell states on ``INPUT_MODES +
  ALICE_ANCILLA`` (``bell_basis``), built from ``basis_state`` and not from
  the package's logical ``BELL_TABLE``;
- the channel embeddings on a named (region I, region II) mode pair:
  ``RegionPair``, ``embed_zero``, ``embed_one``, ``embed_dual_rail`` and
  the thermal reduced state ``thermal_reduced``;
- the six-mode shared resource, ``resource_layout`` and ``bell_resource``;
- ``dense_protocol``, the protocol run on that resource, and
  ``correction_matrix``, Bob's correction as a matrix on his region-I pair;
- ``finite_cutoff_law``, every outcome's probability and fidelity at a
  cutoff in closed form, in 60-digit decimal arithmetic.

``dense_protocol`` works per Bell outcome: it projects the resource onto
the ancilla vector that the Bell state leaves after contraction with the
input qubit, corrects Bob's four-mode tensor by swapping the B1I and B2I
axes and signing B2I by (-1)^n, and reads
F = sum_{m1,m2} |conj(alpha) psi[1,m1,0,m2] + conj(beta) psi[0,m1,1,m2]|^2.
Its correction is written here on the tensor axes, and ``correction_matrix``
on the basis indices, both independently of ``teleport.run_protocol``,
which reads only the region-II vacuum entry of each corrected branch.
Memory is O(n_max^4).

Basis ordering is row-major with the LAST listed mode varying fastest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from horizon_teleport.channel import (
    SqueezeParams,
    _schmidt_coefficients,
    dual_rail_tail,
    one_tail,
    zero_tail,
)
from horizon_teleport.teleport import (
    DEGENERATE_PROBABILITY,
    OUTCOME_LABELS,
    DualRailQubit,
)


# ---------------------------------------------------------------- Fock toolkit

# numerical slack of every check on a norm, a trace, Hermiticity or positivity
TOLERANCE = 1e-10


@dataclass(frozen=True)
class ModeLayout:
    """Ordered, named, truncated bosonic modes.

    Parameters
    ----------
    modes:
        Unique mode labels. Their order fixes the basis enumeration.
    cutoffs:
        Inclusive maximum occupation per mode (cutoff n allows occupations
        0..n, so the mode contributes a factor n+1 to the dimension).

    The empty layout (no modes, dimension 1) is allowed as the scalar edge
    case left behind when every mode has been measured or traced out.
    """

    modes: tuple[str, ...]
    cutoffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "cutoffs", tuple(int(c) for c in self.cutoffs))
        if len(self.modes) != len(self.cutoffs):
            raise ValueError("one cutoff per mode required")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"duplicate mode labels in {self.modes}")
        if any(c < 1 for c in self.cutoffs):
            raise ValueError("cutoffs must be >= 1")

    @classmethod
    def uniform(cls, modes: tuple[str, ...] | list[str], cutoff: int) -> "ModeLayout":
        """Layout with the same cutoff on every mode."""
        modes = tuple(modes)
        return cls(modes, (int(cutoff),) * len(modes))

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-mode basis sizes (cutoff + 1 each)."""
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dim(self) -> int:
        """Total basis dimension, the product of the per-mode sizes."""
        out = 1
        for d in self.dims:
            out *= d
        return out

    def index(self, mode: str) -> int:
        """Position of a mode label in the layout."""
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"mode {mode!r} not in layout {self.modes}") from None

    def flat_index(self, occupations: tuple[int, ...] | list[int]) -> int:
        """Flat basis index of a multi-index (last mode fastest)."""
        occ = tuple(int(n) for n in occupations)
        if len(occ) != self.mode_count:
            raise ValueError("one occupation per mode required")
        for n, c, m in zip(occ, self.cutoffs, self.modes):
            if not 0 <= n <= c:
                raise ValueError(f"occupation {n} outside [0, {c}] for mode {m!r}")
        flat = 0
        for n, d in zip(occ, self.dims):
            flat = flat * d + n
        return flat

    def subset(self, modes: tuple[str, ...] | list[str]) -> "ModeLayout":
        """Sub-layout over the given modes, in the given order."""
        modes = tuple(modes)
        return ModeLayout(modes, tuple(self.cutoffs[self.index(m)] for m in modes))


def _frozen_array(values, shape_len: int) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.ndim != shape_len:
        raise ValueError(f"expected a {shape_len}-d array, got shape {arr.shape}")
    # freeze in place; constructors own the arrays handed to them
    try:
        arr.setflags(write=False)
    except ValueError:
        pass
    return arr


@dataclass(frozen=True)
class FockVector:
    """Pure state: one complex amplitude per multi-index of ``layout``.

    ``flags`` carries non-fatal conditions attached by operations (for
    example ``"zero-probability"`` on the conditional state of an outcome
    that cannot occur).
    """

    layout: ModeLayout
    amplitudes: np.ndarray
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        arr = _frozen_array(self.amplitudes, 1)
        if arr.size != self.layout.dim:
            raise ValueError(
                f"amplitude count {arr.size} != layout dimension {self.layout.dim}"
            )
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "flags", tuple(self.flags))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= TOLERANCE

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per mode (read-only view)."""
        return self.amplitudes.reshape(self.layout.dims)

    def __add__(self, other: "FockVector") -> "FockVector":
        _require_same_layout(self.layout, other.layout)
        return FockVector(self.layout, self.amplitudes + other.amplitudes)

    def __sub__(self, other: "FockVector") -> "FockVector":
        _require_same_layout(self.layout, other.layout)
        return FockVector(self.layout, self.amplitudes - other.amplitudes)

    def __mul__(self, scalar: complex) -> "FockVector":
        return FockVector(self.layout, self.amplitudes * complex(scalar))

    __rmul__ = __mul__


def _require_same_layout(a: ModeLayout, b: ModeLayout) -> None:
    if a != b:
        raise ValueError(f"layout mismatch: {a} vs {b}")


def basis_state(layout: ModeLayout, occupations: tuple[int, ...] | list[int]) -> FockVector:
    """Number state |n_1, ..., n_k> with the given occupations."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.flat_index(occupations)] = 1.0
    return FockVector(layout, amps)


def _split_axes(layout: ModeLayout, chosen: tuple[str, ...]) -> tuple[list[int], list[int]]:
    """Axis positions of the chosen modes (in chosen order) and the rest."""
    chosen_pos = [layout.index(m) for m in chosen]
    rest_pos = [i for i in range(layout.mode_count) if i not in set(chosen_pos)]
    return chosen_pos, rest_pos


def project(state: FockVector, vector: FockVector) -> tuple[float, FockVector]:
    """Measure a mode subset of ``state`` against a unit vector on those modes.

    Returns the Born probability |<vector|psi>|^2 and the conditional state
    on the remaining modes, renormalized, with the measured modes collapsed
    out.  A zero-probability outcome returns a zero vector flagged
    "zero-probability" rather than dividing by zero.
    """
    measured = vector.layout
    for m in measured.modes:
        if state.layout.cutoffs[state.layout.index(m)] != measured.cutoffs[measured.index(m)]:
            raise ValueError(f"cutoff mismatch on measured mode {m!r}")
    norm_dev = abs(float(np.vdot(vector.amplitudes, vector.amplitudes).real) - 1.0)
    if norm_dev > TOLERANCE:
        raise ValueError(f"measurement vector not normalized: deviation {norm_dev:.3e}")

    measured_pos, rest_pos = _split_axes(state.layout, measured.modes)
    rest_layout = state.layout.subset(
        tuple(state.layout.modes[i] for i in rest_pos)
    )
    tens = state.as_tensor().transpose(measured_pos + rest_pos)
    coeff = vector.amplitudes.conj() @ tens.reshape(measured.dim, rest_layout.dim)

    probability = float(np.vdot(coeff, coeff).real)
    if probability == 0.0:
        zero = np.zeros(rest_layout.dim, dtype=np.complex128)
        return 0.0, FockVector(rest_layout, zero, flags=("zero-probability",))
    conditional = coeff / math.sqrt(probability)
    return probability, FockVector(rest_layout, np.ascontiguousarray(conditional))



@dataclass(frozen=True)
class DensityOperator:
    """Mixed state over ``layout``: a square matrix in the truncated basis.

    ``trace_expected`` is the trace the matrix is supposed to carry (1 for a
    normalized state, the squared norm for an unnormalized reduction);
    ``validate`` checks the matrix against it.
    """

    layout: ModeLayout
    matrix: np.ndarray
    trace_expected: float = 1.0
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        mat = _frozen_array(self.matrix, 2)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "flags", tuple(self.flags))

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def validate(self) -> None:
        """Raise ValueError unless Hermitian, on-trace, and PSD, each
        within ``TOLERANCE``."""
        herm_dev = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm_dev > TOLERANCE:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(self.matrix)) - self.trace_expected)
        if trace_dev > TOLERANCE:
            raise ValueError(
                f"trace off declared value {self.trace_expected!r} by {trace_dev:.3e}"
            )
        lowest = float(np.linalg.eigvalsh(self.matrix)[0])
        if lowest < -TOLERANCE:
            raise ValueError(f"negative eigenvalue {lowest:.3e}")


def vacuum(layout: ModeLayout) -> FockVector:
    """All modes empty: amplitude 1 on the all-zeros multi-index."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[0] = 1.0
    return FockVector(layout, amps)


def _mode_axis_split(state: FockVector, mode: str) -> tuple[np.ndarray, int]:
    """Amplitudes as (left, mode_dim, right) with the target mode isolated."""
    k = state.layout.index(mode)
    dims = state.layout.dims
    left = 1
    for d in dims[:k]:
        left *= d
    right = 1
    for d in dims[k + 1:]:
        right *= d
    return state.amplitudes.reshape(left, dims[k], right), k


def create(state: FockVector, mode: str) -> tuple[FockVector, float]:
    """Ladder raise a†|n> = sqrt(n+1) |n+1> on one mode.

    Amplitude at the cutoff cannot be raised inside the truncated space; it
    is dropped and its prior squared magnitude is returned as the discarded
    weight, so callers can account the truncation against their own budget.
    """
    t, k = _mode_axis_split(state, mode)
    d = t.shape[1]
    out = np.zeros_like(t)
    factors = np.sqrt(np.arange(1, d, dtype=np.float64))
    out[:, 1:, :] = t[:, :-1, :] * factors[None, :, None]
    # weight measured before the ladder factor: the clipped component itself
    discarded = float(np.sum(np.abs(t[:, -1, :]) ** 2))
    return FockVector(state.layout, out.reshape(-1)), discarded


def annihilate(state: FockVector, mode: str) -> FockVector:
    """Ladder lower a|n> = sqrt(n) |n-1> on one mode.

    The vacuum component maps to zero exactly; nothing leaves the truncated
    space, so unlike ``create`` there is no discarded weight to return.
    """
    t, k = _mode_axis_split(state, mode)
    d = t.shape[1]
    out = np.zeros_like(t)
    factors = np.sqrt(np.arange(1, d, dtype=np.float64))
    out[:, :-1, :] = t[:, 1:, :] * factors[None, :, None]
    return FockVector(state.layout, out.reshape(-1))


def tensor(a: FockVector, b: FockVector) -> FockVector:
    """Product state on the concatenated layout; norms multiply."""
    overlap = set(a.layout.modes) & set(b.layout.modes)
    if overlap:
        raise ValueError(f"duplicate mode labels in tensor product: {sorted(overlap)}")
    layout = ModeLayout(
        a.layout.modes + b.layout.modes, a.layout.cutoffs + b.layout.cutoffs
    )
    amps = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return FockVector(layout, amps)


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _require_same_layout(a.layout, b.layout)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def partial_trace(rho: DensityOperator, keep: tuple[str, ...] | list[str]) -> DensityOperator:
    """Trace out every mode not in ``keep`` (given order kept).

    An empty ``keep`` reduces to the scalar trace, returned as a 1x1
    operator on the empty layout.
    """
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate modes in keep set")
    layout = rho.layout
    keep_set = set(keep)
    for m in keep:
        layout.index(m)  # raises on unknown label

    n = layout.mode_count
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValueError("too many modes for the einsum contraction")
    row = list(letters[:n])
    col = []
    next_free = n
    for i, m in enumerate(layout.modes):
        if m in keep_set:
            col.append(letters[next_free])
            next_free += 1
        else:
            col.append(row[i])  # shared letter: summed over, i.e. traced
    keep_pos = [layout.index(m) for m in keep]
    out_sub = "".join(row[i] for i in keep_pos) + "".join(col[i] for i in keep_pos)
    spec = "".join(row) + "".join(col) + "->" + out_sub

    dims = layout.dims
    reduced = np.einsum(spec, rho.matrix.reshape(dims + dims))
    sub = layout.subset(keep)
    return DensityOperator(
        sub,
        np.ascontiguousarray(reduced.reshape(sub.dim, sub.dim)),
        trace_expected=rho.trace_expected,
        flags=rho.flags,
    )


def reduced_density(state: FockVector, keep: tuple[str, ...] | list[str]) -> DensityOperator:
    """Density operator of a pure state reduced to ``keep``.

    Computed as M M† from the (kept, rest) amplitude matrix, never forming
    the full |psi><psi|; this is the only viable route at protocol-size
    dimensions.  Trace equals the squared norm of the input.
    """
    keep = tuple(keep)
    keep_pos, rest_pos = _split_axes(state.layout, keep)
    # reorder so the kept axes lead, then flatten to a (kept, rest) matrix
    perm = keep_pos + rest_pos
    sub = state.layout.subset(keep)
    rest_dim = state.layout.dim // sub.dim
    mat = np.ascontiguousarray(state.as_tensor().transpose(perm)).reshape(
        sub.dim, rest_dim
    )
    rho = mat @ mat.conj().T
    return DensityOperator(
        sub, rho, trace_expected=float(np.vdot(state.amplitudes, state.amplitudes).real)
    )


# ---------------------------------------------------------------- Bell measurement

INPUT_MODES = ("X1", "X2")
ALICE_ANCILLA = ("A1", "A2")


def input_state(qubit) -> FockVector:
    """The qubit alpha |1,0> + beta |0,1> as a Fock vector on
    ``INPUT_MODES`` at cutoff 1."""
    layout = ModeLayout.uniform(INPUT_MODES, 1)
    return qubit.alpha * basis_state(layout, (1, 0)) + qubit.beta * basis_state(layout, (0, 1))


def bell_basis() -> dict[str, FockVector]:
    """The four dual-rail Bell states on Alice's four modes, the input
    qubit's ``INPUT_MODES`` and her half of the pair, ``ALICE_ANCILLA``.

    Outcome labels are assigned so that projecting the full protocol state
    yields Bob's conditional logical amplitudes (alpha, beta), (beta,
    alpha), (alpha, -beta), (-beta, alpha) for 00, 01, 10, 11.
    """
    layout = ModeLayout.uniform(INPUT_MODES + ALICE_ANCILLA, 1)
    zz = basis_state(layout, (1, 0, 1, 0))  # |0L 0L>
    oo = basis_state(layout, (0, 1, 0, 1))  # |1L 1L>
    zo = basis_state(layout, (1, 0, 0, 1))  # |0L 1L>
    oz = basis_state(layout, (0, 1, 1, 0))  # |1L 0L>
    s = 1.0 / math.sqrt(2.0)
    return {
        "00": s * (zz + oo),
        "01": s * (zo + oz),
        "10": s * (zz - oo),
        "11": s * (zo - oz),
    }


# ---------------------------------------------------------------- channel embeddings


@dataclass(frozen=True)
class RegionPair:
    """Mode labels for one field mode split across the horizon."""

    region_I_mode: str
    region_II_mode: str

    def __post_init__(self) -> None:
        if self.region_I_mode == self.region_II_mode:
            raise ValueError("region I and region II labels must differ")

    @property
    def modes(self) -> tuple[str, str]:
        return (self.region_I_mode, self.region_II_mode)


def _pair_layout(pair: RegionPair, n_max: int) -> ModeLayout:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return ModeLayout.uniform(pair.modes, n_max)


def embed_zero(
    params: SqueezeParams, pair: RegionPair, n_max: int
) -> tuple[FockVector, float]:
    """Horizon image of the Minkowski vacuum: a two-mode squeezed state.

    Returns the truncated sum over tanh^n r / cosh r |n>_I |n>_II together
    with the exact tail weight lost to the cutoff.  No renormalization is
    applied.
    """
    layout = _pair_layout(pair, n_max)
    tail = zero_tail(params, n_max)
    coeff, _ = _schmidt_coefficients(params, n_max, 0, n_max + 1)
    n = np.arange(n_max + 1)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[n * (n_max + 1) + n] = coeff  # diagonal kets |n, n>
    return FockVector(layout, amps), tail


def embed_one(
    params: SqueezeParams, pair: RegionPair, n_max: int
) -> tuple[FockVector, float]:
    """Horizon image of the one-photon state.

    The state sum_n tanh^n r sqrt(n+1) / cosh^2 r |n+1>_I |n>_II is the
    normalized result of the region-I squeezed creation operator acting on
    the vacuum embedding, which keeps it orthogonal to ``embed_zero``.  The
    sum stops at n = n_max - 1 so region I never exceeds the cutoff; the
    exact tail weight is returned alongside.
    """
    layout = _pair_layout(pair, n_max)
    tail = one_tail(params, n_max)
    _, coeff = _schmidt_coefficients(params, n_max, 0, n_max + 1)
    n = np.arange(n_max)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[(n + 1) * (n_max + 1) + n] = coeff[:n_max]  # kets |n+1, n>
    return FockVector(layout, amps), tail


def embed_dual_rail(
    qubit,
    params: SqueezeParams,
    pairs: tuple[RegionPair, RegionPair],
    n_max: int,
) -> tuple[FockVector, float]:
    """Horizon image of a dual-rail qubit alpha |1,0> + beta |0,1>.

    The logical one-photon occupation of each rail is pushed through the
    channel: alpha (one on rail 1)(zero on rail 2) + beta (zero)(one).
    ``qubit`` is anything with ``alpha`` and ``beta`` attributes (see
    teleport.DualRailQubit).  Mode order of the result is
    (rail1 I, rail1 II, rail2 I, rail2 II).  Linear in (alpha, beta);
    returns the combined tail weight ``dual_rail_tail``.
    """
    alpha, beta = complex(qubit.alpha), complex(qubit.beta)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > TOLERANCE:
        raise ValueError("dual-rail qubit must be normalized")
    pair1, pair2 = pairs
    one_1, _ = embed_one(params, pair1, n_max)
    zero_2, _ = embed_zero(params, pair2, n_max)
    zero_1, _ = embed_zero(params, pair1, n_max)
    one_2, _ = embed_one(params, pair2, n_max)
    vec = alpha * tensor(one_1, zero_2) + beta * tensor(zero_1, one_2)
    return vec, dual_rail_tail(params, n_max)


def thermal_reduced(params: SqueezeParams, n_max: int) -> DensityOperator:
    """Region-I reduction of the embedded vacuum: a thermal state on the
    one mode "I" at cutoff ``n_max``.

    Diagonal occupation weights tanh^(2n) r / cosh^2 r; the mean photon
    number tends to sinh^2 r as the cutoff grows.  The declared trace is
    the truncated sum 1 - tail, mirroring the unrenormalized embedding.
    """
    tail = zero_tail(params, n_max)
    layout = ModeLayout(("I",), (n_max,))
    n = np.arange(n_max + 1)
    weights = params.tanh_r ** (2 * n) * params.sech2_r
    return DensityOperator(
        layout, np.diag(weights.astype(np.complex128)), trace_expected=1.0 - tail
    )


# ---------------------------------------------------------------- shared resource

BOB_PAIRS = (RegionPair("B1I", "B1II"), RegionPair("B2I", "B2II"))


def resource_layout(n_max: int) -> ModeLayout:
    """Standard six-mode layout of the shared resource: Alice's ancilla
    pair at cutoff 1, then Bob's two (region I, region II) pairs."""
    bob_modes = tuple(m for pair in BOB_PAIRS for m in pair.modes)
    return ModeLayout(ALICE_ANCILLA + bob_modes, (1, 1) + (n_max,) * 4)


def bell_resource(params: SqueezeParams, n_max: int) -> FockVector:
    """The shared entangled resource, Bob's half pushed through the channel.

    (|1,0>_A embed_dual_rail(|0L>) + |0,1>_A embed_dual_rail(|1L>)) / sqrt(2)

    on ``resource_layout(n_max)``: Alice's ancilla at cutoff 1, then Bob's
    rails ``BOB_PAIRS`` at cutoff ``n_max``.  At r = 0 this is the flat
    dual-rail Bell state with region II in vacuum.

    The state is dense, 4 (n_max + 1)^4 amplitudes.
    """
    # each branch goes straight into its ancilla slice, |1,0>_A then |0,1>_A,
    # and is dropped before the next is built: the peak stays below twice
    # the result
    amplitudes = np.zeros((2, 2) + (n_max + 1,) * 4, dtype=np.complex128)
    for ancilla, logical in (((1, 0), (1.0, 0.0)), ((0, 1), (0.0, 1.0))):
        branch, _ = embed_dual_rail(DualRailQubit(*logical), params, BOB_PAIRS, n_max)
        amplitudes[ancilla] = branch.as_tensor()
        del branch
    amplitudes *= 1.0 / math.sqrt(2.0)
    return FockVector(resource_layout(n_max), amplitudes.reshape(-1))


# ---------------------------------------------------------------- dense protocol


def _dense_correct(label, psi):
    """The correction on Bob's tensor, axes (B1I, B1II, B2I, B2II)."""
    if label in ("01", "11"):
        psi = np.swapaxes(psi, 0, 2)
    if label in ("10", "11"):
        parity = np.where(np.arange(psi.shape[2]) % 2 == 0, 1.0, -1.0)
        psi = psi * parity[None, None, :, None]
    return psi


def correction_matrix(label: str, cutoff: int = 1) -> np.ndarray:
    """Bob's correction unitary for a Bell outcome on his region-I pair.

    00: identity.  01: swap of the two rails (dual-rail bit flip).  10: a
    pi phase per photon on the second rail (dual-rail phase flip).  11:
    swap, then the phase.  Each maps the outcome's conditional logical
    amplitudes back to (alpha, beta).  The matrix acts on the pair's joint
    basis at the given cutoff, second mode fastest.
    """
    if label not in OUTCOME_LABELS:
        raise ValueError(f"unknown outcome label {label!r}")
    layout = ModeLayout.uniform(("R1", "R2"), cutoff)
    matrix = np.zeros((layout.dim, layout.dim), dtype=np.complex128)
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1):
            out = (n2, n1) if label in ("01", "11") else (n1, n2)
            phase = (-1) ** out[1] if label in ("10", "11") else 1
            matrix[layout.flat_index(out), layout.flat_index((n1, n2))] = phase
    return matrix


def dense_protocol(params, qubit, n_max):
    """(outcomes, premeasure weight) of a run of ``qubit`` at cutoff
    ``n_max`` on the dense resource.

    Outcomes are (label, probability, fidelity, flags) in label order; the
    premeasure weight is the region-I weight of span{|1,0>, |0,1>}, read
    as the squared norm of the resource entries with those occupations.
    """
    resource = bell_resource(params, n_max)
    basis = bell_basis()
    qubit_state = input_state(qubit)

    outcomes = []
    for label in OUTCOME_LABELS:
        weight, ancilla = project(basis[label], qubit_state)
        conditional_probability, bob = project(resource, ancilla)
        probability = weight * conditional_probability
        if probability < DEGENERATE_PROBABILITY:
            outcomes.append((label, probability, float("nan"), ("degenerate",)))
            continue
        psi = _dense_correct(label, bob.as_tensor())
        overlap = (
            qubit.alpha.conjugate() * psi[1, :, 0, :]
            + qubit.beta.conjugate() * psi[0, :, 1, :]
        )
        outcomes.append((label, probability, float(np.vdot(overlap, overlap).real), ()))

    # axes: A1, A2, B1I, B1II, B2I, B2II
    tens = resource.as_tensor()
    weight = float(np.vdot(tens[:, :, 1, :, 0, :], tens[:, :, 1, :, 0, :]).real)
    weight += float(np.vdot(tens[:, :, 0, :, 1, :], tens[:, :, 0, :, 1, :]).real)
    return outcomes, weight


# ---------------------------------------------------------------- finite-cutoff law

# relative deviation a run may show from the law: the worst of 33000
# seeded runs (tanh r up to 1 - 1e-7, n_max 1 to 10^5, random inputs) was
# 3.7e-15 in p and 3.2e-15 in F, about 17 machine epsilons
LAW_RTOL = 32 * sys.float_info.epsilon


def finite_cutoff_law(decay: float, n_max: int) -> tuple[Decimal, Decimal]:
    """(probability, fidelity) of every outcome of a run at cutoff ``n_max``.

    With x = tanh^2 r = exp(-2 decay), Bob's vacuum rail keeps 1 - x^(n+1)
    of its weight and his photon rail 1 - x^n (1 + n (1 - x)); their
    product K is the weight a branch retains.  Every outcome has p = K / 4
    and F = (1 - x)^3 / K, whatever the input.  Evaluated from the exact
    value of the float ``decay`` with 60 significant digits, so the result
    is exact to far below a double's ulp.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = (-2 * Decimal(decay)).exp()
        n = n_max
        kept = (1 - x ** (n + 1)) * (1 - x**n * (1 + n * (1 - x)))
        return kept / 4, (1 - x) ** 3 / kept


def law_deviation(value: float, exact: Decimal) -> float:
    """Relative deviation of a computed ``value`` from the ``exact`` law."""
    return float(abs((Decimal(value) - exact) / exact))
