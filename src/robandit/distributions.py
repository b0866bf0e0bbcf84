"""Closed-form reward distributions with exact cdfs, quantiles and robust moments.

Every distribution exposes a right-continuous ``cdf``, left/right quantiles
(``inf{x : F(x) >= p}`` and ``inf{x : F(x) > p}``), a seeded vectorized
sampler, and robust moments: the median, the median absolute deviation (MAD)
and the MAD of the absolute deviations themselves (a second-order spread).
Quantiles and robust moments use closed forms where the variant admits them
and bracketed bisection (driven to float adjacency, well below 1e-12 absolute
error) otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    NonUniqueMedianError,
    ParameterOutOfRangeError,
    ZeroMADError,
)

__all__ = [
    "AdversaryModel",
    "Distribution",
    "Uniform",
    "Gaussian",
    "Cauchy",
    "Bernoulli",
    "SmoothedBernoulli",
    "Dirac",
    "Mixture",
    "Affine",
    "RobustMoments",
    "FamilyParams",
    "robust_moments",
    "abs_deviation_of",
    "in_quantile_family",
    "in_mad_family",
    "median_shift_bound",
    "contamination_bias",
    "eps_ceiling",
]

# Uniqueness of a quantile is decided by comparing the left and right
# quantiles after bisection to float adjacency; genuinely flat cdf segments
# are orders of magnitude wider than this.
_UNIQUE_TOL = 1e-10

_GAUSSIAN_MAD = float(ndtri(0.75))  # MAD of the standard normal


class AdversaryModel(enum.Enum):
    """How much the contamination process may adapt to the clean rewards."""

    OBLIVIOUS = "oblivious"
    PRESCIENT = "prescient"
    MALICIOUS = "malicious"


def _as_float_or_array(x):
    arr = np.asarray(x, dtype=float)
    return arr if arr.ndim else float(arr)


class Distribution:
    """Base class; subclasses are frozen dataclasses and safe to share."""

    # -- generic machinery -------------------------------------------------

    def cdf(self, x):
        raise NotImplementedError

    def atom_mass(self, x):
        """Probability mass at exactly ``x`` (zero for continuous variants)."""
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        return out if arr.ndim else 0.0

    def cdf_left(self, x):
        """P(X < x), the left limit of the cdf."""
        return _as_float_or_array(np.asarray(self.cdf(x)) - np.asarray(self.atom_mass(x)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def quantile_left(self, p: float) -> float:
        _check_prob_open(p)
        return _bisect_quantile(self, p, strict=False)

    def quantile_right(self, p: float) -> float:
        _check_prob_open(p)
        return _bisect_quantile(self, p, strict=True)


def _check_prob_open(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ParameterOutOfRangeError(f"quantile level must lie in (0, 1), got {p}")


def _bisect_quantile(dist: Distribution, p: float, strict: bool) -> float:
    """Smallest float x with F(x) >= p (or > p when strict), by pure bisection."""
    if strict:
        pred = lambda x: dist.cdf(x) > p
    else:
        pred = lambda x: dist.cdf(x) >= p
    lo, hi = -1.0, 1.0
    step = 1.0
    while not pred(hi):
        hi += step
        step *= 2.0
    step = 1.0
    while pred(lo):
        lo -= step
        step *= 2.0
    # Invariant: pred(lo) is False, pred(hi) is True. Bisect to adjacency.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ParameterOutOfRangeError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, size=n)

    def quantile_left(self, p):
        _check_prob_open(p)
        return self.lo + p * (self.hi - self.lo)

    quantile_right = quantile_left


@dataclass(frozen=True)
class Gaussian(Distribution):
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterOutOfRangeError(f"gaussian needs sigma > 0, got {self.sigma}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = ndtr((x - self.mu) / self.sigma)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return rng.normal(self.mu, self.sigma, size=n)

    def quantile_left(self, p):
        _check_prob_open(p)
        return self.mu + self.sigma * float(ndtri(p))

    quantile_right = quantile_left


@dataclass(frozen=True)
class Cauchy(Distribution):
    x0: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ParameterOutOfRangeError(f"cauchy needs scale > 0, got {self.scale}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 + np.arctan((x - self.x0) / self.scale) / math.pi
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return self.x0 + self.scale * rng.standard_cauchy(size=n)

    def quantile_left(self, p):
        _check_prob_open(p)
        return self.x0 + self.scale * math.tan(math.pi * (p - 0.5))

    quantile_right = quantile_left


@dataclass(frozen=True)
class Bernoulli(Distribution):
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ParameterOutOfRangeError(f"bernoulli needs p in [0, 1], got {self.p}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, 0.0, np.where(x < 1.0, 1.0 - self.p, 1.0))
        return out if out.ndim else float(out)

    def atom_mass(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x == 0.0, 1.0 - self.p, np.where(x == 1.0, self.p, 0.0))
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return (rng.random(n) < self.p).astype(float)

    def quantile_left(self, p):
        _check_prob_open(p)
        return 0.0 if p <= 1.0 - self.p else 1.0

    def quantile_right(self, p):
        _check_prob_open(p)
        return 0.0 if p < 1.0 - self.p else 1.0


@dataclass(frozen=True)
class SmoothedBernoulli(Distribution):
    """Equal-weight mixture of Bernoulli(p) and Uniform(0, 1).

    Implemented directly because its cdf, (1-p)/2 + x/2 on [0, 1), and its
    unique median p admit exact arithmetic.
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ParameterOutOfRangeError(f"smoothed bernoulli needs p in [0, 1], got {self.p}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, 0.0, np.where(x < 1.0, 0.5 * (1.0 - self.p) + 0.5 * x, 1.0))
        return out if out.ndim else float(out)

    def atom_mass(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x == 0.0, 0.5 * (1.0 - self.p), np.where(x == 1.0, 0.5 * self.p, 0.0))
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        # one call: the first n uniforms pick the component, the next n the value
        u = rng.random(2 * n)
        return np.where(u[:n] < 0.5, u[n:] < self.p, u[n:])

    def quantile_left(self, p):
        _check_prob_open(p)
        if p <= 0.5 * (1.0 - self.p):
            return 0.0
        if p <= 1.0 - 0.5 * self.p:
            return 2.0 * p - (1.0 - self.p)
        return 1.0

    def quantile_right(self, p):
        _check_prob_open(p)
        if p < 0.5 * (1.0 - self.p):
            return 0.0
        if p < 1.0 - 0.5 * self.p:
            return 2.0 * p - (1.0 - self.p)
        return 1.0


@dataclass(frozen=True)
class Dirac(Distribution):
    x: float

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= self.x, 1.0, 0.0)
        return out if out.ndim else float(out)

    def atom_mass(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t == self.x, 1.0, 0.0)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return np.full(n, float(self.x))

    def quantile_left(self, p):
        _check_prob_open(p)
        return float(self.x)

    quantile_right = quantile_left


@dataclass(frozen=True)
class Mixture(Distribution):
    weights: tuple[float, ...]
    components: tuple[Distribution, ...]

    def __init__(self, weights, components):
        weights = tuple(float(w) for w in weights)
        components = tuple(components)
        if len(weights) != len(components) or not components:
            raise ParameterOutOfRangeError("mixture needs matching, nonempty weights/components")
        if any(w < 0 for w in weights):
            raise ParameterOutOfRangeError("mixture weights must be nonnegative")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ParameterOutOfRangeError(f"mixture weights must sum to 1, got {math.fsum(weights)}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * np.asarray(c.cdf(x)) for w, c in zip(self.weights, self.components))
        return out if np.ndim(out) else float(out)

    def atom_mass(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * np.asarray(c.atom_mass(x)) for w, c in zip(self.weights, self.components))
        return out if np.ndim(out) else float(out)

    def sample(self, n, rng):
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, rng.random(n), side="right")
        idx = np.minimum(idx, len(self.components) - 1)
        out = np.empty(n, dtype=float)
        for j, comp in enumerate(self.components):
            mask = idx == j
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(count, rng)
        return out


@dataclass(frozen=True)
class Affine(Distribution):
    """The law of scale * X + shift for X drawn from ``base``; scale != 0."""

    base: Distribution
    scale: float
    shift: float = 0.0

    def __post_init__(self):
        if self.scale == 0:
            raise ParameterOutOfRangeError("affine transform needs scale != 0")

    def _pullback(self, x):
        return (np.asarray(x, dtype=float) - self.shift) / self.scale

    def cdf(self, x):
        t = self._pullback(x)
        if self.scale > 0:
            out = np.asarray(self.base.cdf(t))
        else:
            out = 1.0 - np.asarray(self.base.cdf_left(t))
        return out if out.ndim else float(out)

    def atom_mass(self, x):
        out = np.asarray(self.base.atom_mass(self._pullback(x)))
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return self.scale * self.base.sample(n, rng) + self.shift

    def quantile_left(self, p):
        _check_prob_open(p)
        if self.scale > 0:
            return self.scale * self.base.quantile_left(p) + self.shift
        return self.scale * self.base.quantile_right(1.0 - p) + self.shift

    def quantile_right(self, p):
        _check_prob_open(p)
        if self.scale > 0:
            return self.scale * self.base.quantile_right(p) + self.shift
        return self.scale * self.base.quantile_left(1.0 - p) + self.shift


@dataclass(frozen=True)
class _AbsDeviation(Distribution):
    """Law of |X - center| for X drawn from ``base``. Internal helper."""

    base: Distribution
    center: float

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        up = np.asarray(self.base.cdf(self.center + r))
        down = np.asarray(self.base.cdf_left(self.center - r))
        out = np.where(r < 0.0, 0.0, up - down)
        return out if out.ndim else float(out)

    def atom_mass(self, r):
        r = np.asarray(r, dtype=float)
        above = np.asarray(self.base.atom_mass(self.center + r))
        below = np.asarray(self.base.atom_mass(self.center - r))
        out = np.where(r < 0.0, 0.0, np.where(r == 0.0, above, above + below))
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return np.abs(self.base.sample(n, rng) - self.center)


def abs_deviation_of(dist: Distribution, center: float) -> Distribution:
    """Distribution of |X - center|; used by the MAD machinery and tests."""
    return _AbsDeviation(dist, float(center))


@dataclass(frozen=True)
class RobustMoments:
    """Median, MAD and second-order MAD, with uniqueness flags.

    ``mad2`` is the median of | |X - median| - mad |. Non-unique values are
    reported as nan with their flag cleared rather than collapsed to an
    endpoint.
    """

    median: float
    mad: float
    mad2: float
    median_unique: bool
    mad_unique: bool
    mad2_unique: bool


def _median_pair(dist: Distribution) -> tuple[float, float]:
    return dist.quantile_left(0.5), dist.quantile_right(0.5)


def _is_unique(lo: float, hi: float) -> bool:
    return abs(hi - lo) <= _UNIQUE_TOL * max(1.0, abs(lo), abs(hi))


def robust_moments(dist: Distribution, force_numeric: bool = False) -> RobustMoments:
    """Compute robust moments, preferring closed forms unless ``force_numeric``."""
    if not force_numeric:
        if isinstance(dist, Uniform):
            width = dist.hi - dist.lo
            return RobustMoments(dist.lo + width / 2, width / 4, width / 8, True, True, True)
        if isinstance(dist, Cauchy):
            return RobustMoments(
                dist.x0, dist.scale, dist.scale * (math.sqrt(3.0) - 1.0), True, True, True
            )
        if isinstance(dist, Dirac):
            return RobustMoments(float(dist.x), 0.0, 0.0, True, True, True)
        if isinstance(dist, Gaussian):
            mad = dist.sigma * _GAUSSIAN_MAD
            numeric = robust_moments(dist, force_numeric=True)
            return RobustMoments(dist.mu, mad, numeric.mad2, True, True, True)

    med_lo, med_hi = _median_pair(dist)
    median_unique = _is_unique(med_lo, med_hi)
    if not median_unique:
        return RobustMoments(
            0.5 * (med_lo + med_hi), math.nan, math.nan, False, False, False
        )
    median = med_lo

    dev = _AbsDeviation(dist, median)
    mad_lo, mad_hi = _median_pair(dev)
    mad_unique = _is_unique(mad_lo, mad_hi)
    if not mad_unique:
        return RobustMoments(median, 0.5 * (mad_lo + mad_hi), math.nan, True, False, False)
    mad = mad_lo

    dev2 = _AbsDeviation(dev, mad)
    mad2_lo, mad2_hi = _median_pair(dev2)
    mad2_unique = _is_unique(mad2_lo, mad2_hi)
    mad2 = mad2_lo if mad2_unique else 0.5 * (mad2_lo + mad2_hi)
    return RobustMoments(median, mad, mad2 if mad2_unique else math.nan, True, True, mad2_unique)


@dataclass(frozen=True)
class FamilyParams:
    """Regularity parameters shared by estimators and bandit algorithms.

    t_bar        half-width of the cdf-control neighborhood around level 1/2
    slope_bound  the cdf must rise at least |dx| / (slope_bound * mad) there
    mad_bound    uniform upper bound on the MAD across arms
    mad_ratio    mad <= mad_ratio * mad2 must hold for MAD estimation
    """

    t_bar: float
    slope_bound: float
    mad_bound: float
    mad_ratio: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.t_bar < 0.5:
            raise ParameterOutOfRangeError(f"t_bar must lie in (0, 1/2), got {self.t_bar}")
        if not self.slope_bound > 0:
            raise ParameterOutOfRangeError(f"slope_bound must be positive, got {self.slope_bound}")
        if not self.mad_bound > 0:
            raise ParameterOutOfRangeError(f"mad_bound must be positive, got {self.mad_bound}")
        if self.mad_ratio < 0:
            raise ParameterOutOfRangeError(f"mad_ratio must be nonnegative, got {self.mad_ratio}")


def eps_ceiling(t_bar: float) -> float:
    """Largest contamination level controllable with neighborhood half-width t_bar."""
    return 2.0 * t_bar / (1.0 + 2.0 * t_bar)


def _slope_check(dist: Distribution, lo: float, hi: float, inv_slope: float, grid: int) -> bool:
    """Grid check that F climbs at least |dx| / inv_slope between adjacent points.

    Adjacent-pair increments telescope, so this implies the condition for
    every pair on the grid. A necessary-condition check, not a proof.
    """
    xs = np.linspace(lo, hi, grid + 1)
    fs = np.asarray(dist.cdf(xs), dtype=float)
    need = np.diff(xs) / inv_slope
    slack = 1e-12 + 1e-9 * need
    return bool(np.all(np.diff(fs) + slack >= need))


def _require_unique_median_and_mad(dist: Distribution) -> RobustMoments:
    moments = robust_moments(dist)
    if not moments.median_unique:
        raise NonUniqueMedianError("distribution has a non-unique median")
    if not moments.mad_unique:
        raise NonUniqueMedianError("distribution has a non-unique MAD")
    if moments.mad == 0.0:
        raise ZeroMADError("distribution has zero MAD")
    return moments


def in_quantile_family(
    dist: Distribution, t_bar: float, slope_bound: float, grid: int = 10_000
) -> bool:
    """Grid test of the linear-growth condition on the central quantile window."""
    if not 0.0 < t_bar < 0.5:
        raise ParameterOutOfRangeError(f"t_bar must lie in (0, 1/2), got {t_bar}")
    if not slope_bound > 0:
        raise ParameterOutOfRangeError(f"slope_bound must be positive, got {slope_bound}")
    moments = _require_unique_median_and_mad(dist)
    lo = dist.quantile_left(0.5 - t_bar)
    hi = dist.quantile_right(0.5 + t_bar)
    return _slope_check(dist, lo, hi, slope_bound * moments.mad, grid)


def in_mad_family(dist: Distribution, params: FamilyParams, grid: int = 10_000) -> bool:
    """Grid test of the MAD-estimation family: slope condition on the widened
    window, MAD below the bound, and MAD controlled by the second-order MAD."""
    moments = _require_unique_median_and_mad(dist)
    if not moments.mad2_unique:
        raise NonUniqueMADError("distribution has a non-unique second-order MAD")
    lo = min(dist.quantile_left(0.5 - params.t_bar), moments.median - 2.0 * moments.mad)
    hi = max(dist.quantile_right(0.5 + params.t_bar), moments.median + 2.0 * moments.mad)
    if not _slope_check(dist, lo, hi, params.slope_bound * moments.mad, grid):
        return False
    tol = 1e-9
    if moments.mad > params.mad_bound * (1.0 + tol):
        return False
    return moments.mad <= params.mad_ratio * moments.mad2 * (1.0 + tol)


def median_shift_bound(dist: Distribution, eps: float) -> float:
    """Widest median displacement achievable by mixing in an eps fraction of
    arbitrary mass, maximized over the median set when it is not a point."""
    if not 0.0 < eps < 0.5:
        raise ParameterOutOfRangeError(f"contamination level must lie in (0, 1/2), got {eps}")
    hi_level = 1.0 / (2.0 * (1.0 - eps))
    lo_level = (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps))
    med_lo, med_hi = _median_pair(dist)
    up = dist.quantile_right(hi_level) - med_lo
    down = med_hi - dist.quantile_left(lo_level)
    return max(up, down)


def contamination_bias(
    eps: float, slope_bound: float, mad: float, model: AdversaryModel
) -> float:
    """Unavoidable median-estimation bias for a family member at level eps."""
    if not 0.0 <= eps < 0.5:
        raise ParameterOutOfRangeError(f"contamination level must lie in [0, 1/2), got {eps}")
    if slope_bound < 0 or mad < 0:
        raise ParameterOutOfRangeError("slope_bound and mad must be nonnegative")
    if model is AdversaryModel.MALICIOUS:
        return slope_bound * mad * eps
    return slope_bound * mad * eps / (2.0 * (1.0 - eps))
