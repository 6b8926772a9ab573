"""Truncated multimode bosonic Fock-space states, for Alice's Bell measurement.

States live on an ordered list of named modes, each truncated at its own
maximum occupation number.  A pure state is one complex amplitude per
multi-index, so its size is the product of the per-mode dimensions.  The
protocol in ``teleport`` uses this layer only for Alice's Bell measurement,
on four modes at cutoff 1; Bob's squeezed modes are held in sector form
there.  The dense toolkit that builds Bob's modes as Fock states (ladder
operators, tensor products, density operators, partial traces) is the
reference the tests check the protocol against, and lives with them in
``tests/oracles.py``.  All values are immutable after construction and every
operation is a pure function of its inputs, so they can be shared freely
across threads.

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
    "TOLERANCE",
    "basis_state",
    "project",
]

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
