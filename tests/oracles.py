"""Dense reference for the sector-sparse protocol, sharing no numbers with it.

The package runs the protocol on Bob's Schmidt vectors, read from closed
forms for the channel images of |0> and |1>.  This module runs it again
from the physics, with nothing from the package but ``SqueezeParams``,
read for r alone, and the outcome labels:

- ``squeeze`` applies the two-mode squeezer S(r) = exp(r (a+ b+ - a b)),
  a on region I and b on region II, to |d, 0>; ``squeezed`` gives a rail's
  amplitudes up to a cutoff and the weight above it (Alsing & Milburn, PRL
  91, 180404 (2003); Weedbrook et al., RMP 84, 621 (2012), sec. III);
- ``input_state`` and ``bell_basis``: Alice's input qubit on (X1, X2) and
  her four dual-rail Bell states on (X1, X2, A1, A2), arrays with one axis
  per mode at cutoff 1, built from occupations;
- ``bell_resource``: the shared resource as one (2, 2, d, d, d, d) array on
  (A1, A2, B1I, B1II, B2I, B2II), d = n_max + 1, and ``premeasure_weight``,
  its region-I weight on {|1,0>, |0,1>};
- ``conditional_state``, what Alice's Bell measurement leaves Bob,
  ``correct``, his correction, and ``dense_protocol``, the run on the
  resource;
- ``finite_cutoff_law``, every outcome's probability and fidelity at a
  cutoff in closed form, in 60-digit decimal arithmetic.

Memory is O(n_max^4): 16 * 4 (n_max + 1)^4 bytes for the resource.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext

import numpy as np

from horizon_teleport.channel import SqueezeParams
from horizon_teleport.teleport import OUTCOME_LABELS

# ---------------------------------------------------------------- the squeezer


def squeeze(r: float, d: int, size: int) -> np.ndarray:
    """S(r)|d, 0> on the kets |m + d, m>, m = 0..size - 1.

    S conserves n_I - n_II = d, and on that sector its generator G = a+ b+
    - a b is real, antisymmetric and tridiagonal, with G[m + 1, m] =
    sqrt((m + 1) (m + 1 + d)).  So iG is Hermitian and exp(rG) e_0 =
    exp(-i r iG) e_0.  With P = diag(i^m), iG = P T P^-1 for the real
    symmetric T with the same off-diagonal, so ``eigh`` runs on T in real
    arithmetic, T = V diag(l) V^T, and the state is P V exp(-i r l) V^T e_0,
    real up to rounding.  The generator is cut at ``size`` levels;
    ``working_size`` picks one far enough above the levels read that the
    cut moves none of them.
    """
    m = np.arange(1.0, size)
    coupling = np.sqrt(m * (m + d))
    levels, vectors = np.linalg.eigh(np.diag(coupling, -1) + np.diag(coupling, 1))
    state = vectors @ (np.exp(-1j * r * levels) * vectors[0])
    return (np.resize([1, 1j, -1, -1j], size) * state).real  # P, exactly


def working_size(r: float, n_max: int) -> int:
    """Levels to keep for amplitudes up to ``n_max``: 20 more, then as many
    as make x^k = exp(-92), x = tanh^2 r, so the levels at the cut carry
    about 1e-20 of the amplitude at n_max."""
    x = math.tanh(r) ** 2
    return n_max + 20 + (math.ceil(92 / -math.log(x)) if x else 0)


# amplitudes by (r, d), at the largest working size asked for so far
_SQUEEZED: dict[tuple[float, int], np.ndarray] = {}


def squeezed(r: float, d: int, n_max: int) -> tuple[np.ndarray, float]:
    """(amplitudes, tail) of S(r)|d, 0> at cutoff ``n_max`` on both modes:
    the amplitudes of |m + d, m> for m = 0..n_max - d, and the squared norm
    of the rest.  Cached by (r, d); a larger working size than the one
    asked for moves no amplitude, so any cached one serves."""
    size = working_size(r, n_max)
    amplitudes = _SQUEEZED.get((r, d), ())
    if len(amplitudes) < size:  # at least doubled, so a rising cutoff rebuilds rarely
        amplitudes = _SQUEEZED[r, d] = squeeze(r, d, max(size, 2 * len(amplitudes)))
    kept = n_max + 1 - d
    return amplitudes[:kept], float(amplitudes[kept:] @ amplitudes[kept:])


# ---------------------------------------------------------------- Alice's side


def input_state(qubit) -> np.ndarray:
    """alpha |1,0> + beta |0,1> on (X1, X2); ``qubit`` is anything with
    ``alpha`` and ``beta``."""
    state = np.zeros((2, 2), dtype=np.complex128)
    state[1, 0], state[0, 1] = qubit.alpha, qubit.beta
    return state


def bell_basis() -> dict[str, np.ndarray]:
    """The four dual-rail Bell states on (X1, X2, A1, A2), |0L> = |1,0> and
    |1L> = |0,1> on each pair, labelled so that Bob is left the logical
    amplitudes (alpha, beta), (beta, alpha), (alpha, -beta), (-beta, alpha)
    for 00, 01, 10, 11."""

    def ket(*occupations):
        state = np.zeros((2, 2, 2, 2))
        state[occupations] = 1.0
        return state

    zz, oo = ket(1, 0, 1, 0), ket(0, 1, 0, 1)  # |0L 0L>, |1L 1L>
    zo, oz = ket(1, 0, 0, 1), ket(0, 1, 1, 0)  # |0L 1L>, |1L 0L>
    s = 1.0 / math.sqrt(2.0)
    states = (s * (zz + oo), s * (zo + oz), s * (zz - oo), s * (zo - oz))
    return dict(zip(OUTCOME_LABELS, states, strict=True))


# ---------------------------------------------------------------- the resource


def _rail(r: float, d: int, n_max: int) -> np.ndarray:
    """S(r)|d, 0> at cutoff ``n_max``, axes (region I, region II)."""
    amplitudes, _ = squeezed(r, d, n_max)
    rail = np.zeros((n_max + 1, n_max + 1))
    m = np.arange(len(amplitudes))
    rail[m + d, m] = amplitudes
    return rail


def bell_resource(params: SqueezeParams, n_max: int) -> np.ndarray:
    """(|1,0>_A |0L>_B + |0,1>_A |1L>_B) / sqrt(2), with Bob's logical
    states pushed through the channel: |0L> puts S(r)|1,0> on rail 1 and
    S(r)|0,0> on rail 2, |1L> the reverse.  Axes (A1, A2, B1I, B1II, B2I,
    B2II), cutoff 1 on the ancilla and ``n_max`` on Bob's modes."""
    r = params.r_squeeze
    photon, vacuum = _rail(r, 1, n_max), _rail(r, 0, n_max)
    resource = np.zeros((2, 2) + photon.shape * 2, dtype=np.complex128)
    resource[1, 0] = np.multiply.outer(photon, vacuum) / math.sqrt(2.0)
    resource[0, 1] = np.multiply.outer(vacuum, photon) / math.sqrt(2.0)
    return resource


def premeasure_weight(resource: np.ndarray) -> float:
    """The weight of Bob's region-I pair on |1,0> and |0,1>, summed over
    the ancilla and region II."""
    one_zero, zero_one = resource[:, :, 1, :, 0, :], resource[:, :, 0, :, 1, :]
    return float(np.vdot(one_zero, one_zero).real + np.vdot(zero_one, zero_one).real)


# ---------------------------------------------------------------- the protocol


def correct(label: str, psi: np.ndarray) -> np.ndarray:
    """Bob's correction on his region-I rails, axes (B1I, B1II, B2I, B2II):
    outcomes x1 swap the rails (bit flip), then outcomes 1x put (-1)^n on
    rail 2 (phase flip)."""
    if label[1] == "1":
        psi = psi.swapaxes(0, 2)
    if label[0] == "1":
        psi = psi * (-1.0) ** np.arange(psi.shape[2])[:, None]
    return psi


def conditional_state(bell: np.ndarray, qubit, resource: np.ndarray) -> np.ndarray:
    """Bob's state, axes (B1I, B1II, B2I, B2II), once Alice projects her
    input pair and ancilla onto ``bell``; unnormalised, so its squared norm
    is the outcome's probability."""
    ancilla = np.tensordot(bell.conj(), input_state(qubit), axes=([0, 1], [0, 1]))
    return np.tensordot(ancilla, resource, axes=2)


def dense_protocol(resource: np.ndarray, qubit) -> list[tuple[str, float, float]]:
    """(label, probability, fidelity) of each Bell outcome of a run of
    ``qubit`` on ``resource``, in label order: with psi the corrected
    conditional state, the fidelity with region II traced out is
    <phi| rho_I |phi> =
    sum_{m1,m2} |conj(alpha) psi[1,m1,0,m2] + conj(beta) psi[0,m1,1,m2]|^2
    over the probability.
    """
    outcomes = []
    for label, bell in bell_basis().items():
        bob = conditional_state(bell, qubit, resource)
        probability = float(np.vdot(bob, bob).real)
        psi = correct(label, bob)
        overlap = np.conj(qubit.alpha) * psi[1, :, 0, :] + np.conj(qubit.beta) * psi[0, :, 1, :]
        outcomes.append((label, probability, float(np.vdot(overlap, overlap).real) / probability))
    return outcomes


# ---------------------------------------------------------------- finite-cutoff law

# relative deviation a run may show from the law: the worst of 33000
# seeded runs (tanh r up to 1 - 1e-7, n_max 1 to 10^5, random inputs) was
# 3.7e-15 in p and 3.2e-15 in F, about 17 machine epsilons
LAW_RTOL = 32 * sys.float_info.epsilon

# pi to 60 significant digits, for closed forms in decimal arithmetic
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


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
