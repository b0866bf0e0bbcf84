"""Closed-form reward distributions with exact cdfs, quantiles and robust moments.

Every distribution exposes a right-continuous ``cdf``, left/right quantiles
(``inf{x : F(x) >= p}`` and ``inf{x : F(x) > p}``), a seeded vectorized
sampler, and robust moments: the median, the median absolute deviation (MAD)
and the MAD of the absolute deviations themselves (a second-order spread).
Quantiles and robust moments use closed forms where the variant admits them
and a bracketed k-section search otherwise. Each step evaluates the cdf once,
vectorized, on the 63 evenly spaced points that bisection could visit in its
next six halvings, then follows bisection's own path through them, until the
bracket ends are adjacent floats. It evaluates the cdf at the points bisection
would and makes the same decisions, so it returns the float that bisection
driven to adjacency does, even where rounding makes the cdf wobble; for a cdf
monotone in floating point that is the smallest x with F(x) >= p (or > p).
It takes a sixth of the Python-level steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonUniqueMADError,
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
# quantiles after the search to float adjacency; genuinely flat cdf segments
# are orders of magnitude wider than this.
_UNIQUE_TOL = 1e-10

# Halvings per step of the quantile search: one cdf call on the 2**6 - 1 = 63
# evenly spaced points of the bisection tree below the bracket.
_SECTION_DEPTH = 6

_GAUSSIAN_MAD = 0.6744897501960817  # MAD of the standard normal: float(ndtri(0.75))


def _special():
    # Only Gaussian arms need scipy, and importing it with the package would
    # nearly triple robandit's import time, so it is loaded on first use.
    import scipy.special

    return scipy.special


# glibc serves each allocation above its mmap threshold (128 KB at start) with
# fresh pages, and raises the threshold to the size of the largest such block
# freed, up to 32 MB. An estimate allocates its batch anew at every replication
# (the benchmark's bulk-estimate draws n = 19,087 values, about 153 KB); below
# the threshold the batch reuses heap pages instead of faulting new ones in.
# On a 2-core machine, two sets of 6 alternating benchmark pairs without this
# block put bulk-estimate wall time up 17% and 24% (worse in every pair);
# lifted-race, whose median windows stay small, moved by 1-3%, near its noise.
# Freeing one untouched 4 MB block raises the threshold once and keeps no memory.
np.empty(1 << 19)


class AdversaryModel(enum.Enum):
    """How much the contamination process may adapt to the clean rewards."""

    OBLIVIOUS = "oblivious"
    PRESCIENT = "prescient"
    MALICIOUS = "malicious"


class Distribution:
    """Base class; subclasses are frozen dataclasses and safe to share.

    A law states only its math on float arrays: ``_cdf``, ``_atom_mass`` if it
    has atoms, and ``_quantile_left``/``_quantile_right`` if it has closed
    forms (the k-section search otherwise). A law with a closed-form upper
    tail also states ``_upper_quantile_left``/``_upper_quantile_right``, its
    quantiles at level 1 - p computed from p, which keep a small p that
    ``1.0 - p`` rounds away. The public methods take a scalar
    or an array, return a float for a scalar and reject a quantile level
    outside (0, 1), once for every law.
    """

    def cdf(self, x):
        return _on_floats(self._cdf, x)

    def atom_mass(self, x):
        """Probability mass at exactly ``x`` (zero for continuous variants)."""
        return _on_floats(self._atom_mass, x)

    def cdf_left(self, x):
        """P(X < x), the left limit of the cdf."""
        return _on_floats(self._cdf_left, x)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def quantile_left(self, p: float) -> float:
        return _at_open_level(self._quantile_left, p)

    def quantile_right(self, p: float) -> float:
        return _at_open_level(self._quantile_right, p)

    def _cdf(self, x):
        raise NotImplementedError

    def _atom_mass(self, x):
        return np.zeros_like(x)

    def _cdf_left(self, x):
        return self._cdf(x) - self._atom_mass(x)

    def _quantile_left(self, p):
        return _search_quantile(self, p, strict=False)

    def _quantile_right(self, p):
        return _search_quantile(self, p, strict=True)

    def _upper_quantile_left(self, p):
        return self._quantile_left(1.0 - p)

    def _upper_quantile_right(self, p):
        return self._quantile_right(1.0 - p)


def _on_floats(law_math, x):
    """``law_math`` on ``x`` as a float array: a float for a scalar."""
    out = law_math(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _at_open_level(quantile, p: float) -> float:
    """``quantile(p)`` for a level p in (0, 1); any other level is rejected."""
    if not 0.0 < p < 1.0:
        raise ParameterOutOfRangeError(f"quantile level must lie in (0, 1), got {p}")
    return quantile(p)


def _search_quantile(dist: Distribution, p: float, strict: bool) -> float:
    """Smallest float x with F(x) >= p (or > p when strict), as bisection to
    float adjacency finds it, _SECTION_DEPTH halvings per vectorized cdf call."""
    if strict:
        pred = lambda x: dist.cdf(x) > p
    else:
        pred = lambda x: dist.cdf(x) >= p
    # Rounding can keep a cdf (a mixture whose weights sum to 1 - 2**-53 in
    # floating point, say) from ever crossing a level within an ulp of 0 or 1:
    # the bracket then grows to an infinite end.
    unreached = f"the cdf never crosses level {p} in floating point"
    lo, hi = -1.0, 1.0
    step = 1.0
    while not pred(hi):
        if hi == math.inf:
            raise ParameterOutOfRangeError(unreached)
        hi += step
        step *= 2.0
    step = 1.0
    while pred(lo):
        if lo == -math.inf:
            raise ParameterOutOfRangeError(unreached)
        lo -= step
        step *= 2.0
    # Invariant: pred(lo) is False, pred(hi) is True. Each step evaluates, in
    # one cdf call, every midpoint bisection could visit in its next
    # _SECTION_DEPTH halvings, then follows bisection's own path through them.
    while True:
        edges = [lo, hi]
        for _ in range(_SECTION_DEPTH):
            split = [lo]
            for a, b in zip(edges, edges[1:]):
                split += (0.5 * (a + b), b)
            edges = split
        holds = [False, *pred(np.array(edges[1:-1])).tolist(), True]
        i, j = 0, len(edges) - 1
        while j - i > 1:
            m = (i + j) // 2
            if not (edges[i] < edges[m] < edges[j]):
                return edges[j]
            if holds[m]:
                j = m
            else:
                i = m
        lo, hi = edges[i], edges[j]


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ParameterOutOfRangeError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, size=n)

    def _quantile_left(self, p):
        return self.lo + p * (self.hi - self.lo)

    def _upper_quantile_left(self, p):
        return self.hi - p * (self.hi - self.lo)

    _quantile_right = _quantile_left
    _upper_quantile_right = _upper_quantile_left


@dataclass(frozen=True)
class Gaussian(Distribution):
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterOutOfRangeError(f"gaussian needs sigma > 0, got {self.sigma}")

    def _cdf(self, x):
        return _special().ndtr((x - self.mu) / self.sigma)

    def sample(self, n, rng):
        return rng.normal(self.mu, self.sigma, size=n)

    def _quantile_left(self, p):
        return self.mu + self.sigma * float(_special().ndtri(p))

    def _upper_quantile_left(self, p):
        return self.mu - self.sigma * float(_special().ndtri(p))

    _quantile_right = _quantile_left
    _upper_quantile_right = _upper_quantile_left


def _tan_from_median(p: float) -> float:
    """tan(pi * (p - 1/2)). Near 0 or 1, tan amplifies the rounding of its
    argument (and below 1/4 ``p - 0.5`` rounds p too), so off [1/4, 3/4] this
    is the cotangent of the exact tail mass, p or 1 - p."""
    if p < 0.25:
        return -1.0 / math.tan(math.pi * p)
    if p > 0.75:
        return 1.0 / math.tan(math.pi * (1.0 - p))
    return math.tan(math.pi * (p - 0.5))


@dataclass(frozen=True)
class Cauchy(Distribution):
    x0: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ParameterOutOfRangeError(f"cauchy needs scale > 0, got {self.scale}")

    def _cdf(self, x):
        return 0.5 + np.arctan((x - self.x0) / self.scale) / math.pi

    def sample(self, n, rng):
        return self.x0 + self.scale * rng.standard_cauchy(size=n)

    def _quantile_left(self, p):
        return self.x0 + self.scale * _tan_from_median(p)

    def _upper_quantile_left(self, p):
        return self.x0 - self.scale * _tan_from_median(p)

    _quantile_right = _quantile_left
    _upper_quantile_right = _upper_quantile_left


@dataclass(frozen=True)
class Bernoulli(Distribution):
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ParameterOutOfRangeError(f"bernoulli needs p in [0, 1], got {self.p}")

    def _cdf(self, x):
        return np.where(x < 0.0, 0.0, np.where(x < 1.0, 1.0 - self.p, 1.0))

    def _atom_mass(self, x):
        return np.where(x == 0.0, 1.0 - self.p, np.where(x == 1.0, self.p, 0.0))

    def sample(self, n, rng):
        return (rng.random(n) < self.p).astype(float)

    def _quantile_left(self, p):
        return 0.0 if p <= 1.0 - self.p else 1.0

    def _quantile_right(self, p):
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

    def _cdf(self, x):
        return np.where(x < 0.0, 0.0, np.where(x < 1.0, 0.5 * (1.0 - self.p) + 0.5 * x, 1.0))

    def _atom_mass(self, x):
        return np.where(x == 0.0, 0.5 * (1.0 - self.p), np.where(x == 1.0, 0.5 * self.p, 0.0))

    def sample(self, n, rng):
        # one call: the first n uniforms pick the component, the next n the value
        u = rng.random(2 * n)
        return np.where(u[:n] < 0.5, u[n:] < self.p, u[n:])

    def _quantile_left(self, p):
        if p <= 0.5 * (1.0 - self.p):
            return 0.0
        if p <= 1.0 - 0.5 * self.p:
            return 2.0 * p - (1.0 - self.p)
        return 1.0

    def _quantile_right(self, p):
        if p < 0.5 * (1.0 - self.p):
            return 0.0
        if p < 1.0 - 0.5 * self.p:
            return 2.0 * p - (1.0 - self.p)
        return 1.0


@dataclass(frozen=True)
class Dirac(Distribution):
    x: float

    def _cdf(self, t):
        return np.where(t >= self.x, 1.0, 0.0)

    def _atom_mass(self, t):
        return np.where(t == self.x, 1.0, 0.0)

    def sample(self, n, rng):
        return np.full(n, float(self.x))

    def _quantile_left(self, p):
        return float(self.x)

    _quantile_right = _upper_quantile_left = _upper_quantile_right = _quantile_left


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

    def _cdf(self, x):
        return sum(w * c._cdf(x) for w, c in zip(self.weights, self.components))

    def _atom_mass(self, x):
        return sum(w * c._atom_mass(x) for w, c in zip(self.weights, self.components))

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

    def _cdf(self, x):
        t = (x - self.shift) / self.scale
        if self.scale > 0:
            return self.base._cdf(t)
        return 1.0 - self.base._cdf_left(t)

    def _atom_mass(self, x):
        return self.base._atom_mass((x - self.shift) / self.scale)

    def sample(self, n, rng):
        return self.scale * self.base.sample(n, rng) + self.shift

    # A negative scale reads the base at level 1 - p, which a closed-form base
    # computes from p: 1.0 - p loses a small p, and is 1.0 for p <= 2**-54.
    def _quantile_left(self, p):
        if self.scale > 0:
            return self.scale * self.base._quantile_left(p) + self.shift
        return self.scale * self.base._upper_quantile_right(p) + self.shift

    def _quantile_right(self, p):
        if self.scale > 0:
            return self.scale * self.base._quantile_right(p) + self.shift
        return self.scale * self.base._upper_quantile_left(p) + self.shift


@dataclass(frozen=True)
class _AbsDeviation(Distribution):
    """Law of |X - center| for X drawn from ``base``. Internal helper."""

    base: Distribution
    center: float

    def _cdf(self, r):
        up = self.base._cdf(self.center + r)
        down = self.base._cdf_left(self.center - r)
        return np.where(r < 0.0, 0.0, up - down)

    def _atom_mass(self, r):
        above = self.base._atom_mass(self.center + r)
        below = self.base._atom_mass(self.center - r)
        return np.where(r < 0.0, 0.0, np.where(r == 0.0, above, above + below))

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


def _median_mad(dist: Distribution, force_numeric: bool = False):
    """``(median, mad, median_unique, mad_unique)``: the first two steps of
    ``robust_moments``, for callers that need no second-order MAD."""
    if not force_numeric:
        if isinstance(dist, Uniform):
            width = dist.hi - dist.lo
            return dist.lo + width / 2, width / 4, True, True
        if isinstance(dist, Cauchy):
            return dist.x0, dist.scale, True, True
        if isinstance(dist, Dirac):
            return float(dist.x), 0.0, True, True
        if isinstance(dist, Gaussian):
            return dist.mu, dist.sigma * _GAUSSIAN_MAD, True, True

    med_lo, med_hi = _median_pair(dist)
    if not _is_unique(med_lo, med_hi):
        return 0.5 * (med_lo + med_hi), math.nan, False, False
    mad_lo, mad_hi = _median_pair(_AbsDeviation(dist, med_lo))
    if not _is_unique(mad_lo, mad_hi):
        return med_lo, 0.5 * (mad_lo + mad_hi), True, False
    return med_lo, mad_lo, True, True


def robust_moments(dist: Distribution, force_numeric: bool = False) -> RobustMoments:
    """Compute robust moments, preferring closed forms unless ``force_numeric``."""
    median, mad, median_unique, mad_unique = _median_mad(dist, force_numeric)
    if not force_numeric:
        if isinstance(dist, Uniform):
            return RobustMoments(median, mad, (dist.hi - dist.lo) / 8, True, True, True)
        if isinstance(dist, Cauchy):
            return RobustMoments(median, mad, dist.scale * (math.sqrt(3.0) - 1.0), True, True, True)
        if isinstance(dist, Dirac):
            return RobustMoments(median, mad, 0.0, True, True, True)
    if not mad_unique:
        return RobustMoments(median, mad, math.nan, median_unique, False, False)

    dev2 = _AbsDeviation(_AbsDeviation(dist, median), mad)
    mad2_lo, mad2_hi = _median_pair(dev2)
    mad2_unique = _is_unique(mad2_lo, mad2_hi)
    return RobustMoments(median, mad, mad2_lo if mad2_unique else math.nan, True, True, mad2_unique)


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
        for name in ("slope_bound", "mad_bound", "mad_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterOutOfRangeError(f"{name} must be finite, got {getattr(self, name)}")
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
    fs = dist.cdf(xs)
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


def _median_levels(eps: float, model: AdversaryModel) -> tuple[float, float]:
    """Levels (lo, hi) of the clean quantiles that bound where an eps adversary can put the
    median: 1/2 -+ eps if malicious, else (1 - 2 eps) / (2 (1 - eps)) and 1 / (2 (1 - eps))."""
    if model is AdversaryModel.MALICIOUS:
        return 0.5 - eps, 0.5 + eps
    return (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps)), 1.0 / (2.0 * (1.0 - eps))


def median_shift_bound(dist: Distribution, eps: float) -> float:
    """Widest median displacement achievable by mixing in an eps fraction of
    arbitrary mass, maximized over the median set when it is not a point."""
    if not 0.0 < eps < 0.5:
        raise ParameterOutOfRangeError(f"contamination level must lie in (0, 1/2), got {eps}")
    lo_level, hi_level = _median_levels(eps, AdversaryModel.OBLIVIOUS)
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
