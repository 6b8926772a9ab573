"""Truncated multimode bosonic Fock-space algebra.

States live on an ordered list of named modes, each truncated at its own
maximum occupation number.  Everything is stored dense: a pure state is one
complex amplitude per multi-index, a mixed state is a square matrix over the
same basis.  All values are immutable after construction and every operation
is a pure function of its inputs, so they can be shared freely across
threads.

Basis ordering is row-major with the LAST listed mode varying fastest.  This
order is frozen: serialized outputs and golden files depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeLayout",
    "FockVector",
    "DensityOperator",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "vacuum",
    "basis_state",
    "create",
    "annihilate",
    "tensor",
    "inner",
    "project",
    "partial_trace",
    "reduced_density",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack for state validation, configurable per call site.

    norm   -- unit-norm / trace / orthonormality deviations
    herm   -- allowed max-entry deviation of a matrix from its adjoint
    psd    -- allowed magnitude of negative density-operator eigenvalues
    """

    norm: float = 1e-10
    herm: float = 1e-10
    psd: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()


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

    def is_normalized(self, tolerances: Tolerances = DEFAULT_TOLERANCES) -> bool:
        return abs(self.norm() - 1.0) <= tolerances.norm

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

    def validate(
        self,
        tolerances: Tolerances = DEFAULT_TOLERANCES,
        check_psd: bool = True,
    ) -> None:
        """Raise ValueError unless Hermitian, on-trace, and (optionally) PSD.

        The PSD check diagonalizes the matrix, which is cubic in the
        dimension; switch it off for large operators on hot paths.
        """
        herm_dev = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm_dev > tolerances.herm:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(self.matrix)) - self.trace_expected)
        if trace_dev > tolerances.norm:
            raise ValueError(
                f"trace off declared value {self.trace_expected!r} by {trace_dev:.3e}"
            )
        if check_psd:
            lowest = float(np.linalg.eigvalsh(self.matrix)[0])
            if lowest < -tolerances.psd:
                raise ValueError(f"negative eigenvalue {lowest:.3e}")


def _require_same_layout(a: ModeLayout, b: ModeLayout) -> None:
    if a != b:
        raise ValueError(f"layout mismatch: {a} vs {b}")


def vacuum(layout: ModeLayout) -> FockVector:
    """All modes empty: amplitude 1 on the all-zeros multi-index."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[0] = 1.0
    return FockVector(layout, amps)


def basis_state(layout: ModeLayout, occupations: tuple[int, ...] | list[int]) -> FockVector:
    """Number state |n_1, ..., n_k> with the given occupations."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.flat_index(occupations)] = 1.0
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


def annihilate(state: FockVector, mode: str) -> tuple[FockVector, float]:
    """Ladder lower a|n> = sqrt(n) |n-1> on one mode.

    The vacuum component maps to zero exactly; nothing leaves the truncated
    space, so the reported discarded weight is always 0.0 (kept in the
    return shape for symmetry with ``create``).
    """
    t, k = _mode_axis_split(state, mode)
    d = t.shape[1]
    out = np.zeros_like(t)
    factors = np.sqrt(np.arange(1, d, dtype=np.float64))
    out[:, :-1, :] = t[:, 1:, :] * factors[None, :, None]
    return FockVector(state.layout, out.reshape(-1)), 0.0


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


def _split_axes(layout: ModeLayout, chosen: tuple[str, ...]) -> tuple[list[int], list[int]]:
    """Axis positions of the chosen modes (in chosen order) and the rest."""
    chosen_pos = [layout.index(m) for m in chosen]
    rest_pos = [i for i in range(layout.mode_count) if i not in set(chosen_pos)]
    return chosen_pos, rest_pos


def project(
    state: FockVector,
    subspace_basis: list[FockVector],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[float, FockVector]:
    """Measure a mode subset against an orthonormal subspace basis.

    Returns the Born probability ||P psi||^2 and the conditional state on
    the remaining modes, renormalized, with the measured modes collapsed
    out.  A zero-probability outcome returns a zero vector flagged
    "zero-probability" rather than dividing by zero.

    With more than one basis vector the projected remainder is only a valid
    pure state when the projection has rank 1; a higher rank raises, since
    the mixed remainder cannot be represented by a FockVector.
    """
    if not subspace_basis:
        raise ValueError("empty subspace basis")
    measured = subspace_basis[0].layout
    for b in subspace_basis[1:]:
        _require_same_layout(measured, b.layout)
    for m in measured.modes:
        if state.layout.cutoffs[state.layout.index(m)] != measured.cutoffs[measured.index(m)]:
            raise ValueError(f"cutoff mismatch on measured mode {m!r}")

    basis = np.stack([b.amplitudes for b in subspace_basis])
    gram = basis.conj() @ basis.T
    gram_dev = float(np.max(np.abs(gram - np.eye(len(subspace_basis)))))
    if gram_dev > tolerances.norm:
        raise ValueError(f"subspace basis not orthonormal: Gram deviation {gram_dev:.3e}")

    measured_pos, rest_pos = _split_axes(state.layout, measured.modes)
    rest_layout = state.layout.subset(
        tuple(state.layout.modes[i] for i in rest_pos)
    )
    tens = state.as_tensor().transpose(measured_pos + rest_pos)
    coeff = basis.conj() @ tens.reshape(measured.dim, rest_layout.dim)

    probability = float(np.vdot(coeff, coeff).real)
    if probability == 0.0:
        zero = np.zeros(rest_layout.dim, dtype=np.complex128)
        return 0.0, FockVector(rest_layout, zero, flags=("zero-probability",))

    if len(subspace_basis) == 1:
        conditional = coeff[0] / math.sqrt(probability)
    else:
        # rank-1 check on the k x k Gram of outcome coefficients: a higher
        # rank means the measured modes stay entangled with the remainder
        small = coeff @ coeff.conj().T
        eigvals, eigvecs = np.linalg.eigh(small)
        if eigvals[-2] > tolerances.norm * eigvals[-1]:
            raise ValueError(
                "projection leaves a mixed remainder (rank > 1); "
                "project one basis vector at a time instead"
            )
        conditional = eigvecs[:, -1].conj() @ coeff
        conditional = conditional / np.linalg.norm(conditional)
    return probability, FockVector(rest_layout, np.ascontiguousarray(conditional))


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
