"""The Schwarzschild horizon as a bosonic channel.

A static observer hovering outside the horizon of a black hole of mass M
sees the Minkowski vacuum of a field mode of frequency Omega as a two-mode
squeezed state entangling the exterior (region I) with the causally hidden
interior (region II).  The squeezing strength follows

    tanh r = exp(-2 pi M Omega),    cosh r = (1 - exp(-4 pi M Omega))^(-1/2)

in Planck units (the two formulas are consistent: 1 - tanh^2 = cosh^-2).
This is the package's convention since its first version, a Boltzmann
factor at T = 1/(4 pi M).  One line, ``SqueezeParams.decay`` = 2 pi M Omega,
holds it, and every formula here, ``r_squeeze`` included, reads that
exponent.

This module maps (M, Omega) to squeezing parameters, gives the channel
images of the single-mode vacuum and one-photon states in Schmidt form,
accounts exactly for the tail weight a Fock cutoff drops, and owns the
truncation budget: ``check_budget`` holds a budget epsilon to (0,
EPSILON_MAX] and a cutoff cap to at least 1 (CUTOFF_CAP by default), and
``required_cutoff`` picks the cutoff whose dual-rail tail, the loss a
protocol run reports, is within epsilon.  The images are supported on
|m, m> and |m+1, m> (region I, region II); their amplitudes by region-II
occupation m (``_schmidt_coefficients``) are all that the protocol in
``teleport`` reads.  The dense embeddings that spread them over the
truncated pair space (``embed_zero``, ``embed_one``, ``embed_dual_rail``,
``thermal_reduced``) are test references and live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SqueezeParams",
    "DivergentSqueezing",
    "CutoffInfeasible",
    "squeeze_param",
    "radius_to_mass",
    "required_cutoff",
    "check_budget",
    "EPSILON_DEFAULT",
    "EPSILON_MAX",
    "CUTOFF_CAP",
]

# the truncation budget: epsilon lies in (0, EPSILON_MAX], EPSILON_DEFAULT
# unless a caller gives one, and no cutoff above the cap is chosen; 10^5
# levels hold about 6.4 MB of Bob's state
EPSILON_DEFAULT = 1e-10
EPSILON_MAX = 0.1
CUTOFF_CAP = 100000


class DivergentSqueezing(Exception):
    """The squeezing parameter diverges: M*Omega is nonpositive or so small
    that exp(-2 pi M Omega) rounds to 1 in double precision."""

    def __init__(self, product: float):
        self.product = float(product)
        super().__init__(
            f"squeezing diverges for M*Omega = {self.product!r}; "
            "exp(-2*pi*M*Omega) is not strictly below 1"
        )


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
    r_squeeze: float = field(init=False)

    def __post_init__(self) -> None:
        t = self.tanh_r
        if not t < 1.0:
            raise DivergentSqueezing(self.mass * self.frequency)
        # artanh t = ln((1 + t) / (1 - t)) / 2 with 1 - t = -expm1(-decay)
        r = 0.5 * math.log1p(2.0 * t / -math.expm1(-self.decay))
        object.__setattr__(self, "r_squeeze", r)

    @property
    def decay(self) -> float:
        """-ln tanh r = 2 pi M Omega: the horizon law, stated here only.

        Every formula reads tanh^n r as exp(-decay n), not as a power of
        the rounded tanh r, which drifts by about n ulps."""
        return 2.0 * math.pi * self.mass * self.frequency

    @property
    def tanh_r(self) -> float:
        return math.exp(-self.decay)

    @property
    def sech2_r(self) -> float:
        """1 - tanh^2 r = 1 / cosh^2 r, computed as -expm1(-2 decay) so it
        keeps full relative precision as tanh r approaches 1."""
        return -math.expm1(-2.0 * self.decay)

    @property
    def cosh_r(self) -> float:
        return 1.0 / math.sqrt(self.sech2_r)

    @classmethod
    def from_tanh(cls, tanh_r: float) -> "SqueezeParams":
        """Parameters with unit mass chosen to hit the requested tanh r.

        tanh r = 0 (flat space) is synthesized with a frequency large
        enough that the exponential underflows to exactly 0.0.
        """
        if not 0.0 <= tanh_r < 1.0:
            raise ValueError(f"tanh r must lie in [0, 1), got {tanh_r!r}")
        if tanh_r == 0.0:
            return cls(mass=1.0, frequency=1e4)
        frequency = -math.log(tanh_r) / (2.0 * math.pi)  # the inverse of decay
        return cls(mass=1.0, frequency=frequency)


def squeeze_param(mass: float, frequency: float) -> SqueezeParams:
    """Map (M, Omega) to the channel squeezing r = artanh(e^(-2 pi M Omega))."""
    return SqueezeParams(mass=mass, frequency=frequency)


def radius_to_mass(horizon_radius: float) -> float:
    """Black-hole mass from the horizon radius r+ = 2M (Planck units)."""
    if not horizon_radius > 0.0:
        raise ValueError(f"horizon radius must be positive, got {horizon_radius!r}")
    return horizon_radius / 2.0


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
    powers = np.exp(-params.decay * m)
    zero = powers / params.cosh_r
    one = powers * np.sqrt(m + 1.0) * params.sech2_r
    one[n_max] = 0.0
    return zero, one


def _tails(params: SqueezeParams):
    """Vacuum, one-photon and dual-rail tail weights as one function of the
    cutoff n: with x = tanh^2 r, x^(n+1), x^n (1 + n (1 - x)) and 1 - (1 -
    zero)(1 - one).  x^n is read as exp(-2 decay n), and the last is summed
    as zero + one (1 - zero), which does not round to 0 below 1e-16."""
    decay, sech2 = 2.0 * params.decay, params.sech2_r

    def tails(n: int) -> tuple[float, float, float]:
        zero = math.exp(-decay * (n + 1))
        one = math.exp(-decay * n) * (1.0 + n * sech2)
        return zero, one, zero + one * (1.0 - zero)

    return tails


def zero_tail(params: SqueezeParams, n_max: int) -> float:
    """Exact tail weight of the vacuum embedding above cutoff n_max."""
    return _tails(params)(n_max)[0]


def one_tail(params: SqueezeParams, n_max: int) -> float:
    """Exact tail weight of the one-photon embedding above cutoff n_max:
    (1-x)^2 * sum_{n >= n_max} (n+1) x^n with x = tanh^2 r."""
    return _tails(params)(n_max)[1]


def dual_rail_tail(params: SqueezeParams, n_max: int) -> float:
    """Tail weight lost by a dual-rail embedding, one rail carrying the
    photon and the other the vacuum: the truncation loss, 1 - sum of
    outcome probabilities, of a protocol run at cutoff n_max."""
    return _tails(params)(n_max)[2]


def check_budget(epsilon: float, hard_cap: int) -> None:
    """Raise ``ValueError`` unless 0 < epsilon <= EPSILON_MAX and the
    cutoff cap is at least 1."""
    if not 0.0 < epsilon <= EPSILON_MAX:
        raise ValueError(f"epsilon must lie in (0, {EPSILON_MAX}], got {epsilon!r}")
    if hard_cap < 1:
        raise ValueError(f"cutoff cap must be >= 1, got {hard_cap}")


def required_cutoff(
    params: SqueezeParams, epsilon: float, hard_cap: int = CUTOFF_CAP
) -> int:
    """Smallest cutoff whose dual-rail tail weight is within ``epsilon``.

    The dual-rail tail is what a protocol run at that cutoff loses, so the
    truncation loss it reports, 1 - sum of outcome probabilities, stays
    within ``epsilon`` up to rounding.  Monotone nonincreasing in epsilon.
    Raises ``ValueError`` for a budget that ``check_budget`` refuses and
    ``CutoffInfeasible`` when even ``hard_cap`` cannot meet it.
    """
    check_budget(epsilon, hard_cap)

    tails = _tails(params)  # reads params once, not at every step below
    if tails(hard_cap)[2] > epsilon:
        raise CutoffInfeasible(params.r_squeeze, epsilon, hard_cap)
    lo, hi = 0, 1  # cutoff 0 drops the whole photon rail: tail 1 > epsilon
    while tails(hi)[2] > epsilon:  # bracket by doubling, then bisect
        lo, hi = hi, min(2 * hi, hard_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tails(mid)[2] > epsilon:
            lo = mid
        else:
            hi = mid
    return hi
