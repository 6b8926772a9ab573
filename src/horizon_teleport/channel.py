"""The Schwarzschild horizon as a bosonic channel.

A static observer hovering outside the horizon of a black hole of mass M
sees the Minkowski vacuum of a field mode of frequency Omega as a two-mode
squeezed state entangling the exterior (region I) with the causally hidden
interior (region II).  The squeezing strength follows

    tanh r = exp(-2 pi M Omega),    cosh r = (1 - exp(-4 pi M Omega))^(-1/2)

in Planck units (the two formulas are consistent: 1 - tanh^2 = cosh^-2).
``exponent_scale`` multiplies the exponent 2 pi M Omega so alternative
temperature conventions can be explored without code change; the default
1.0 is the formula above.

This module maps (M, Omega) to squeezing parameters and embeds the
single-mode vacuum and one-photon states into truncated region-I/region-II
Fock space, with exact closed-form accounting of the truncated tail weight.
The embeddings are supported on |m, m> and |m+1, m>; their amplitudes by
region-II occupation m (``_schmidt_coefficients``) are all that the
protocol in ``teleport`` reads, while ``embed_zero`` and ``embed_one``
spread them over the dense pair space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import DEFAULT_TOLERANCES, DensityOperator, FockVector, ModeLayout, tensor

__all__ = [
    "SqueezeParams",
    "RegionPair",
    "DivergentSqueezing",
    "TruncationBudgetExceeded",
    "CutoffInfeasible",
    "squeeze_param",
    "radius_to_mass",
    "embed_zero",
    "embed_one",
    "embed_dual_rail",
    "thermal_reduced",
    "required_cutoff",
]


class DivergentSqueezing(Exception):
    """The squeezing parameter diverges: M*Omega is nonpositive or so small
    that exp(-2 pi M Omega) rounds to 1 in double precision."""

    def __init__(self, product: float):
        self.product = float(product)
        super().__init__(
            f"squeezing diverges for M*Omega = {self.product!r}; "
            "exp(-2*pi*M*Omega) is not strictly below 1"
        )


class TruncationBudgetExceeded(Exception):
    """The truncated tail weight is larger than the caller's budget."""

    def __init__(self, tail: float, budget: float):
        self.tail = float(tail)
        self.budget = float(budget)
        super().__init__(f"truncation tail {tail:.3e} exceeds budget {budget:.3e}")


class CutoffInfeasible(Exception):
    """No cutoff at or below the hard cap meets the requested tail budget."""

    def __init__(self, r_squeeze: float, epsilon: float, hard_cap: int):
        self.r_squeeze = float(r_squeeze)
        self.epsilon = float(epsilon)
        self.hard_cap = int(hard_cap)
        super().__init__(
            f"no cutoff <= {hard_cap} reaches tail budget {epsilon:.3e} "
            f"at r = {r_squeeze!r}"
        )


@dataclass(frozen=True)
class SqueezeParams:
    """Channel strength derived from black-hole mass and mode frequency.

    All quantities are dimensionless Planck-unit numbers.  ``r_squeeze`` is
    computed at construction; ``DivergentSqueezing`` is raised when it does
    not exist as a finite double.
    """

    mass: float
    frequency: float
    exponent_scale: float = 1.0
    r_squeeze: float = field(init=False)

    def __post_init__(self) -> None:
        product = self.mass * self.frequency
        if not (product > 0.0) or not (self.exponent_scale > 0.0):
            raise DivergentSqueezing(product)
        t = math.exp(-2.0 * math.pi * product * self.exponent_scale)
        if t >= 1.0:
            raise DivergentSqueezing(product)
        object.__setattr__(self, "r_squeeze", math.atanh(t))

    @property
    def tanh_r(self) -> float:
        # the defining map, not a tanh(artanh(...)) round trip
        return math.exp(-2.0 * math.pi * self.mass * self.frequency * self.exponent_scale)

    @property
    def sech2_r(self) -> float:
        """1 - tanh^2 r = 1 / cosh^2 r, computed as -expm1(-4 pi M Omega s)
        so it keeps full relative precision as tanh r approaches 1."""
        return -math.expm1(
            -4.0 * math.pi * self.mass * self.frequency * self.exponent_scale
        )

    @property
    def cosh_r(self) -> float:
        return 1.0 / math.sqrt(self.sech2_r)

    @property
    def sinh_r(self) -> float:
        return self.tanh_r * self.cosh_r

    @classmethod
    def from_tanh(cls, tanh_r: float, exponent_scale: float = 1.0) -> "SqueezeParams":
        """Parameters with unit mass chosen to hit the requested tanh r.

        tanh r = 0 (flat space) is synthesized with a frequency large
        enough that the exponential underflows to exactly 0.0.
        """
        if not 0.0 <= tanh_r < 1.0:
            raise ValueError(f"tanh r must lie in [0, 1), got {tanh_r!r}")
        if tanh_r == 0.0:
            return cls(mass=1.0, frequency=1e4, exponent_scale=exponent_scale)
        frequency = -math.log(tanh_r) / (2.0 * math.pi * exponent_scale)
        return cls(mass=1.0, frequency=frequency, exponent_scale=exponent_scale)

    @classmethod
    def from_r(cls, r_squeeze: float, exponent_scale: float = 1.0) -> "SqueezeParams":
        """Parameters with unit mass realizing the given squeezing r >= 0."""
        if r_squeeze < 0.0:
            raise ValueError(f"r must be nonnegative, got {r_squeeze!r}")
        return cls.from_tanh(math.tanh(r_squeeze), exponent_scale=exponent_scale)


def squeeze_param(
    mass: float, frequency: float, exponent_scale: float = 1.0
) -> SqueezeParams:
    """Map (M, Omega) to the channel squeezing r = artanh(e^(-2 pi M Omega))."""
    return SqueezeParams(mass=mass, frequency=frequency, exponent_scale=exponent_scale)


def radius_to_mass(horizon_radius: float) -> float:
    """Black-hole mass from the horizon radius r+ = 2M (Planck units)."""
    if not horizon_radius > 0.0:
        raise ValueError(f"horizon radius must be positive, got {horizon_radius!r}")
    return horizon_radius / 2.0


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


def _schmidt_coefficients(
    params: SqueezeParams, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of the vacuum and one-photon embeddings by region-II
    occupation m = 0..n_max.

    The vacuum embedding puts tanh^m r / cosh r on |m, m>_(I, II) and the
    one-photon embedding tanh^m r sqrt(m+1) / cosh^2 r on |m+1, m>; the
    latter is 0 at m = n_max, where region I would exceed the cutoff.
    """
    m = np.arange(n_max + 1)
    powers = params.tanh_r ** m
    zero = powers / params.cosh_r
    one = powers * np.sqrt(m + 1.0) * params.sech2_r
    one[n_max] = 0.0
    return zero, one


def zero_tail(params: SqueezeParams, n_max: int) -> float:
    """Exact tail weight of the vacuum embedding above cutoff n_max."""
    return params.tanh_r ** (2 * (n_max + 1))


def one_tail(params: SqueezeParams, n_max: int) -> float:
    """Exact tail weight of the one-photon embedding above cutoff n_max.

    Closed form of (1-x)^2 * sum_{n >= n_max} (n+1) x^n with x = tanh^2 r.
    """
    x = params.tanh_r**2
    return x**n_max * (1.0 + n_max * (1.0 - x))


def dual_rail_tail(params: SqueezeParams, n_max: int) -> float:
    """Tail weight lost by a dual-rail embedding, one rail carrying the
    photon and the other the vacuum: 1 - (1 - zero_tail)(1 - one_tail)."""
    return 1.0 - (1.0 - zero_tail(params, n_max)) * (1.0 - one_tail(params, n_max))


def embed_zero(
    params: SqueezeParams,
    pair: RegionPair,
    n_max: int,
    epsilon_trunc: float | None = None,
) -> tuple[FockVector, float]:
    """Horizon image of the Minkowski vacuum: a two-mode squeezed state.

    Returns the truncated sum over tanh^n r / cosh r |n>_I |n>_II together
    with the exact tail weight lost to the cutoff.  No renormalization is
    applied; the tail is the caller's error budget, and exceeding
    ``epsilon_trunc`` (when given) raises ``TruncationBudgetExceeded``.
    """
    layout = _pair_layout(pair, n_max)
    tail = zero_tail(params, n_max)
    if epsilon_trunc is not None and tail > epsilon_trunc:
        raise TruncationBudgetExceeded(tail, epsilon_trunc)
    coeff, _ = _schmidt_coefficients(params, n_max)
    n = np.arange(n_max + 1)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[n * (n_max + 1) + n] = coeff  # diagonal kets |n, n>
    return FockVector(layout, amps), tail


def embed_one(
    params: SqueezeParams,
    pair: RegionPair,
    n_max: int,
    epsilon_trunc: float | None = None,
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
    if epsilon_trunc is not None and tail > epsilon_trunc:
        raise TruncationBudgetExceeded(tail, epsilon_trunc)
    _, coeff = _schmidt_coefficients(params, n_max)
    n = np.arange(n_max)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[(n + 1) * (n_max + 1) + n] = coeff[:n_max]  # kets |n+1, n>
    return FockVector(layout, amps), tail


def embed_dual_rail(
    qubit,
    params: SqueezeParams,
    pairs: tuple[RegionPair, RegionPair],
    n_max: int,
    epsilon_trunc: float | None = None,
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
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > DEFAULT_TOLERANCES.norm:
        raise ValueError("dual-rail qubit must be normalized")
    pair1, pair2 = pairs
    one_1, _ = embed_one(params, pair1, n_max)
    zero_2, _ = embed_zero(params, pair2, n_max)
    zero_1, _ = embed_zero(params, pair1, n_max)
    one_2, _ = embed_one(params, pair2, n_max)
    loss = dual_rail_tail(params, n_max)
    if epsilon_trunc is not None and loss > epsilon_trunc:
        raise TruncationBudgetExceeded(loss, epsilon_trunc)
    vec = alpha * tensor(one_1, zero_2) + beta * tensor(zero_1, one_2)
    return vec, loss


def thermal_reduced(
    params: SqueezeParams,
    n_max: int,
    mode: str = "I",
    epsilon_trunc: float | None = None,
) -> DensityOperator:
    """Region-I reduction of the embedded vacuum: a thermal state.

    Diagonal occupation weights tanh^(2n) r / cosh^2 r; the mean photon
    number tends to sinh^2 r as the cutoff grows.  The declared trace is
    the truncated sum 1 - tail, mirroring the unrenormalized embedding.
    """
    tail = zero_tail(params, n_max)
    if epsilon_trunc is not None and tail > epsilon_trunc:
        raise TruncationBudgetExceeded(tail, epsilon_trunc)
    layout = ModeLayout((mode,), (n_max,))
    n = np.arange(n_max + 1)
    weights = params.tanh_r ** (2 * n) * params.sech2_r
    return DensityOperator(
        layout, np.diag(weights.astype(np.complex128)), trace_expected=1.0 - tail
    )


def required_cutoff(
    params: SqueezeParams, epsilon: float, hard_cap: int = 100000
) -> int:
    """Smallest cutoff whose one-photon tail weight is within ``epsilon``.

    The one-photon embedding dominates the vacuum tail, so its budget
    covers both.  Monotone nonincreasing in epsilon.  Raises
    ``CutoffInfeasible`` when even ``hard_cap`` cannot meet the budget.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if hard_cap < 1:
        raise ValueError(f"hard cap must be >= 1, got {hard_cap}")

    def tail(n: int) -> float:
        return one_tail(params, n)

    if tail(1) <= epsilon:
        return 1
    if tail(hard_cap) > epsilon:
        raise CutoffInfeasible(params.r_squeeze, epsilon, hard_cap)
    lo, hi = 1, 2
    while tail(hi) > epsilon:  # bracket by doubling, then bisect
        lo, hi = hi, min(2 * hi, hard_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) > epsilon:
            lo = mid
        else:
            hi = mid
    return hi
