"""The Schwarzschild horizon as a bosonic channel.

A static observer hovering outside the horizon of a black hole of mass M
sees the Minkowski vacuum of a field mode of frequency Omega as a two-mode
squeezed state entangling the exterior (region I) with the causally hidden
interior (region II).  The squeezing strength follows

    tanh r = exp(-2 pi M Omega),    cosh r = (1 - exp(-4 pi M Omega))^(-1/2)

in Planck units (the two formulas are consistent: 1 - tanh^2 = cosh^-2).
This is the package's convention since its first version, a Boltzmann
factor at T = 1/(4 pi M).  One line holds it: ``SqueezeParams`` sets its
field ``decay`` = 2 pi M Omega once, at construction, and every formula
here, ``sech2_r`` and ``r_squeeze`` included, reads that exponent.

This module maps (M, Omega) to squeezing parameters, gives the channel
images of the single-mode vacuum and one-photon states in Schmidt form,
accounts exactly for the tail weight a Fock cutoff drops, and owns the
truncation budget: ``check_budget`` holds a budget epsilon to (0,
EPSILON_MAX] and a cutoff cap to [1, CUTOFF_LIMIT] (CUTOFF_CAP by default),
and ``required_cutoff`` picks the cutoff whose dual-rail tail, the loss a
protocol run reports, is within epsilon.  The images are supported on
|m, m> and |m+1, m> (region I, region II); the protocol in ``teleport``
reads only the squared norms of their amplitudes by region-II occupation m
and the amplitudes at m = 0 (``_schmidt_norms``), the one part of the
module that uses numpy.  It imports numpy when a run calls it, so the
closed forms and the cutoff search run without it.  The tests hold these
amplitudes and tails to an independent reference in ``tests/oracles.py``,
the squeezer exp(r (a+ b+ - a b)) applied to |0, 0> and |1, 0>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

# numpy is imported inside the functions that use it; annotations name it np

__all__ = [
    "SqueezeParams",
    "DivergentSqueezing",
    "CutoffInfeasible",
    "radius_to_mass",
    "required_cutoff",
    "check_budget",
    "EPSILON_DEFAULT",
    "EPSILON_MAX",
    "CUTOFF_CAP",
    "CUTOFF_LIMIT",
]

# the truncation budget: epsilon lies in (0, EPSILON_MAX], EPSILON_DEFAULT
# unless a caller gives one, and no cutoff above the cap is chosen
EPSILON_DEFAULT = 1e-10
EPSILON_MAX = 0.1
CUTOFF_CAP = 100000

# the largest cutoff a run takes, under 1 s: it sums Bob's norms in blocks
# of _BLOCK levels, so its memory, 200 KB at most, does not grow with n_max.
# OpenBLAS splits a dot of more than 10000 elements over its threads, which
# moves the last digits of the sum with the thread count; a block stays
# below that, so the output does not depend on the BLAS thread count
CUTOFF_LIMIT = 2**27
_BLOCK = 2**13


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

    All quantities are dimensionless Planck-unit numbers, computed once at
    construction: ``decay`` = -ln tanh r = 2 pi M Omega, the horizon law
    and the only place it is stated; ``sech2_r`` = 1 - tanh^2 r = 1 /
    cosh^2 r, as -expm1(-2 decay) so it keeps full relative precision as
    tanh r approaches 1; and ``r_squeeze``.  Every formula reads tanh^n r
    as exp(-decay n), not as a power of the rounded tanh r, which drifts by
    about n ulps.  ``DivergentSqueezing`` is raised when r does not exist
    as a finite double.
    """

    mass: float
    frequency: float
    decay: float = field(init=False)
    sech2_r: float = field(init=False)
    r_squeeze: float = field(init=False)

    def __post_init__(self) -> None:
        decay = 2.0 * math.pi * self.mass * self.frequency
        t = math.exp(-decay)  # tanh r
        if not t < 1.0:
            raise DivergentSqueezing(self.mass * self.frequency)
        # artanh t = ln((1 + t) / (1 - t)) / 2 with 1 - t = -expm1(-decay)
        r = 0.5 * math.log1p(2.0 * t / -math.expm1(-decay))
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "sech2_r", -math.expm1(-2.0 * decay))
        object.__setattr__(self, "r_squeeze", r)

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


def radius_to_mass(horizon_radius: float) -> float:
    """Black-hole mass from the horizon radius r+ = 2M (Planck units)."""
    if not horizon_radius > 0.0:
        raise ValueError(f"horizon radius must be positive, got {horizon_radius!r}")
    return horizon_radius / 2.0


@functools.cache
def _tables(block: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's levels m = 0..block - 1 as doubles, and sqrt(m + 1), the
    photon rail's factor on the first block: read-only, built by the first
    run and kept for the process, one pair per block size, so a smaller
    ``_BLOCK`` reads tables of its own size.  Two threads that build them
    at once compute the same arrays, so either copy serves."""
    import numpy as np

    levels = np.arange(float(block))
    roots = np.sqrt(levels + 1.0)
    levels.setflags(write=False)
    roots.setflags(write=False)
    return levels, roots


def _schmidt_coefficients(
    params: SqueezeParams, n_max: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of the vacuum and one-photon embeddings at cutoff n_max
    by region-II occupation m = start..stop - 1, at most ``_BLOCK`` levels.

    The vacuum embedding puts tanh^m r / cosh r on |m, m>_(I, II) and the
    one-photon embedding tanh^m r sqrt(m+1) / cosh^2 r on |m+1, m>; the
    latter is 0 at m = n_max, where region I would exceed the cutoff.
    """
    import numpy as np

    # the levels m come from the read-only table of levels, plus start, and
    # the first block, the only one most runs have, reads sqrt(m+1) from
    # the table of roots; each amplitude is still exp(-decay m) of its own
    # level.  Three arrays, the powers, the vacuum rail and the photon rail
    # (a later block builds its levels in the last and takes their roots in
    # place)
    levels, roots = _tables(_BLOCK)
    size = stop - start
    m = levels[:size] + start if start else levels[:size]
    # exp(-x) underflows to 0.0 for every x above 745, so capping the decay
    # at 1e3 changes no amplitude and keeps decay * m finite: an infinite
    # decay (2 pi M Omega overflowed) would make tanh^0 r exp(-inf * 0) = NaN
    powers = m * -min(params.decay, 1e3)
    np.exp(powers, out=powers)
    # divided by cosh r: a multiply by sqrt(sech2_r) would round apart
    zero = powers / (1.0 / math.sqrt(params.sech2_r))
    if start:
        m += 1.0
        one = np.sqrt(m, out=m)
        one *= powers
    else:
        one = roots[:size] * powers
    one *= params.sech2_r
    one[n_max - start :] = 0.0  # level n_max, if this range reaches it
    return zero, one


def _schmidt_norms(params: SqueezeParams, n_max: int) -> tuple[float, float]:
    """(norm, vacuum) of Bob's state at cutoff ``n_max``: the squared norm
    of either branch, the product of his rails' squared norms, and the
    product of their amplitudes at region-II vacuum.  Summed over blocks of
    ``_BLOCK`` levels in order, so a run holds one block, about 200 KB."""
    zero_sq = one_sq = 0.0
    for start in range(0, n_max + 1, _BLOCK):
        zero, one = _schmidt_coefficients(params, n_max, start, min(start + _BLOCK, n_max + 1))
        if not start:
            vacuum = one.item(0) * zero.item(0)
        zero_sq += float(zero.dot(zero))
        one_sq += float(one.dot(one))
        del zero, one  # before the next block is built
    return one_sq * zero_sq, vacuum


def _tails(params: SqueezeParams, n: int) -> tuple[float, float, float]:
    """Vacuum, one-photon and dual-rail tail weights at cutoff n: with x =
    tanh^2 r, x^(n+1), x^n (1 + n (1 - x)) and 1 - (1 - zero)(1 - one), the
    last being what a protocol run at cutoff n loses.  x^n is read as
    exp(-2 decay n), and the last is summed as zero + one (1 - zero), which
    does not round to 0 below 1e-16."""
    decay = 2.0 * params.decay
    zero = math.exp(-decay * (n + 1))
    one = math.exp(-decay * n) * (1.0 + n * params.sech2_r)
    return zero, one, zero + one * (1.0 - zero)


def check_budget(epsilon: float, hard_cap: int) -> None:
    """Raise ``ValueError`` unless 0 < epsilon <= EPSILON_MAX and the
    cutoff cap lies in [1, CUTOFF_LIMIT]: a cap above the limit would let a
    sweep pick a cutoff that ``run_protocol`` refuses, mid-sweep."""
    if not 0.0 < epsilon <= EPSILON_MAX:
        raise ValueError(f"epsilon must lie in (0, {EPSILON_MAX}], got {epsilon!r}")
    if hard_cap < 1:
        raise ValueError(f"cutoff cap must be >= 1, got {hard_cap}")
    if hard_cap > CUTOFF_LIMIT:
        raise ValueError(f"cutoff cap {hard_cap} is above the limit of {CUTOFF_LIMIT} levels")


def _cutoff_estimate(params: SqueezeParams, epsilon: float) -> float:
    """The real cutoff n at which the dual-rail tail of ``_tails`` falls to
    ``epsilon``, by Newton's method in y = 2 decay n.

    With x = tanh^2 r, x^n = exp(-y) and k = 1 + n (1 - x), the tail is
    zero + one (1 - zero) = exp(-y) g with g = x + k - x k exp(-y), so the
    root solves ln g - y = ln epsilon, at y >= ln(1 / epsilon) as g >= 1.
    The start is that root with the last term of g dropped and k read at
    y = ln(1 / epsilon).  ln g - y is concave and falling in y, so every
    step after the first comes down to the root from above and exp(-y)
    stays below 0.1.  The steps stop once one moves y by less than a
    quarter level."""
    decay, sech2 = 2.0 * params.decay, params.sech2_r
    x, slope = 1.0 - sech2, sech2 / decay  # k = 1 + slope y
    budget = -math.log(epsilon)
    y = budget + math.log(1.0 + x + slope * budget)
    for attempt in range(8):  # one to four steps reach it; eight bound the loop
        t = math.exp(-y)
        k = 1.0 + slope * y
        g = x + k - x * k * t
        step = (math.log(g) - y + budget) / ((slope - x * slope * t + x * k * t) / g - 1.0)
        y -= step
        if abs(step) < 0.25 * decay:
            break
    return y / decay


def required_cutoff(
    params: SqueezeParams, epsilon: float, hard_cap: int = CUTOFF_CAP
) -> int:
    """Smallest cutoff whose dual-rail tail weight is within ``epsilon``.

    The dual-rail tail is what a protocol run at that cutoff loses, so the
    truncation loss it reports, 1 - sum of outcome probabilities, stays
    within ``epsilon`` up to rounding.  Monotone nonincreasing in epsilon.
    Raises ``ValueError`` for a budget that ``check_budget`` refuses and
    ``CutoffInfeasible`` when even ``hard_cap`` cannot meet it.

    The search estimates the cutoff, then checks the estimate with the
    tail itself.  ``_cutoff_estimate`` solves for the real n at which the
    tail falls to ``epsilon``, and its ceiling, held to [1, hard_cap], is
    nearly always the answer.  From there the search gallops up, or down,
    by steps of 1, 2, 4, ... until the tail crosses ``epsilon``, and then
    bisects the last step.  So it returns the cutoff that a doubling and
    bisection from 1 returns, wherever the computed tail falls as the
    cutoff grows, but in two evaluations of the tail where the estimate is
    right, and one where the cap is too low.
    """
    check_budget(epsilon, hard_cap)

    n = min(max(math.ceil(_cutoff_estimate(params, epsilon)), 1), hard_cap)
    if _tails(params, n)[2] > epsilon:  # gallop up to a cutoff that meets the budget
        lo, step = n, 1
        while True:
            if lo == hard_cap:
                raise CutoffInfeasible(params.r_squeeze, epsilon, hard_cap)
            hi = min(lo + step, hard_cap)
            if _tails(params, hi)[2] <= epsilon:
                break
            lo, step = hi, 2 * step
    else:  # gallop down to one that misses it: cutoff 0 (tail 1) always does
        hi, step = n, 1
        while True:
            lo = max(hi - step, 0)
            if not lo or _tails(params, lo)[2] > epsilon:
                break
            hi, step = lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tails(params, mid)[2] > epsilon:
            lo = mid
        else:
            hi = mid
    return hi
