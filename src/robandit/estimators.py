"""Empirical median/MAD and their contaminated-sample confidence machinery.

Sample-size formulas and confidence half-widths follow the concentration
bounds for robust-moment estimation under contamination: the reported
interval around an estimate is [estimate +- (bias + half_width)], where the
bias term is the unavoidable displacement an adversary at the configured
contamination bound can force, and the half-width shrinks at the usual
sqrt(log(1/delta) / n) rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import AdversaryModel, FamilyParams, contamination_bias
from .errors import (
    EmptyInputError,
    InfeasibleRegimeError,
    ParameterOutOfRangeError,
    RobanditError,
    TooFewSamplesError,
)

__all__ = [
    "empirical_median",
    "empirical_mad",
    "EstimationParams",
    "RobustEstimateReport",
    "sample_size_median",
    "sample_size_mad",
    "estimate_median_ci",
    "estimate_mad_ci",
]


def _middle(a: np.ndarray) -> float:
    """Middle order statistic of ``a``, which it partitions in place; the
    average of the middle two for even lengths."""
    mid = a.size // 2
    if a.size % 2:
        a.partition(mid)
        return float(a[mid])
    a.partition((mid - 1, mid))
    return float(0.5 * (a[mid - 1] + a[mid]))


def empirical_median(xs) -> float:
    """Middle order statistic; the average of the middle two for even lengths."""
    a = np.array(xs, dtype=float)
    if a.size == 0:
        raise EmptyInputError("empirical median needs at least one sample")
    return _middle(a)


def _empirical_median_mad(xs) -> tuple[float, float]:
    """The empirical median and MAD of ``xs``, both selected from one private
    copy: partitioned for the median, then overwritten with the absolute
    deviations and partitioned again."""
    a = np.array(xs, dtype=float)
    if a.size == 0:
        raise EmptyInputError("empirical MAD needs at least one sample")
    med = _middle(a)
    np.subtract(a, med, out=a)
    np.abs(a, out=a)
    return med, _middle(a)


def empirical_mad(xs) -> float:
    """Empirical median of absolute deviations from the empirical median."""
    return _empirical_median_mad(xs)[1]


@dataclass(frozen=True)
class EstimationParams:
    """Known contamination bound, family parameters and adversary model."""

    eps0: float
    family: FamilyParams
    model: AdversaryModel

    def __post_init__(self):
        if not 0.0 <= self.eps0 < 0.5:
            raise ParameterOutOfRangeError(f"eps0 must lie in [0, 1/2), got {self.eps0}", "eps0")

    def effective_eps(self) -> float:
        """Quantile-level offset the adversary can force at the configured bound."""
        if self.model is AdversaryModel.MALICIOUS:
            return self.eps0
        return self.eps0 / (2.0 * (1.0 - self.eps0))

    def median_margin(self) -> float:
        margin = self.family.t_bar - self.effective_eps()
        if margin <= 0.0:
            raise InfeasibleRegimeError(
                f"eps0={self.eps0} leaves no quantile margin below t_bar={self.family.t_bar} "
                f"under the {self.model.value} model; median estimation is impossible"
            )
        return margin

    def mad_margin(self) -> float:
        cap = min(self.family.t_bar, 1.0 / self.family.slope_bound)
        margin = cap - self.effective_eps()
        if margin <= 0.0:
            raise InfeasibleRegimeError(
                f"eps0={self.eps0} leaves no quantile margin below "
                f"min(t_bar, 1/slope_bound)={cap} under the {self.model.value} model; "
                "MAD estimation is impossible"
            )
        return margin


@dataclass(frozen=True)
class RobustEstimateReport:
    """Point estimate with its unavoidable bias and confidence half-width."""

    statistic: str
    estimate: float
    bias: float
    half_width: float
    n: int
    model: AdversaryModel

    def interval(self) -> tuple[float, float]:
        radius = self.bias + self.half_width
        return self.estimate - radius, self.estimate + radius


# The most values an estimate batch or a race warm-up may draw per arm:
# 2**27 float64 values fill 1 GiB.
_MAX_DRAWS = 2**27


def _past_cap(count: float, error_level: float | None = None) -> RobanditError:
    """The error for ``count`` samples per arm, past ``_MAX_DRAWS``: at the
    error level that asks for them, if given, else at the quantile margin."""
    subject = "the quantile margin" if error_level is None else f"error level {error_level}"
    message = (
        f"{subject} asks for more samples per arm than the {_MAX_DRAWS} an arm may draw "
        f"({count:.4g})"
    )
    if error_level is None:
        return InfeasibleRegimeError(message)
    return ParameterOutOfRangeError(message, "error_level")


def _delta_log(ratio: float, delta: float) -> float:
    """``log(ratio)`` for a ratio that grows as 1 / delta: one past the floats
    is delta's to answer for, not the count or bound that takes the log."""
    if ratio == math.inf:
        raise ParameterOutOfRangeError(f"delta={delta} is too small: log(c/delta) overflows", "delta")
    return math.log(ratio)


@dataclass(frozen=True)
class _Bound:
    """One statistic's concentration bound; the median and MAD differ only here.

    With log_term = log(numerator / delta), from floor_scale * log_term samples
    on the estimate lies within bias * contamination_bias + width * slope_bound
    * mad * sqrt(2 log_term / n) of the truth."""

    statistic: str
    margin: Callable[[EstimationParams], float]
    numerators: tuple[float, float]  # oblivious or prescient, malicious
    width: Callable[[float], float]  # of mad_ratio
    bias: Callable[[float], float]  # of mad_ratio
    estimator: Callable[[np.ndarray], float]

    def floor_scale(self, params: EstimationParams) -> float:
        try:
            return 2.0 * self.margin(params) ** -2
        except OverflowError:
            raise _past_cap(math.inf) from None

    def log_term(self, delta: float, params: EstimationParams) -> float:
        return _delta_log(self.numerators[params.model is AdversaryModel.MALICIOUS] / delta, delta)

    def sample_size(self, error_level: float, delta: float, params: EstimationParams) -> int:
        if not 0.0 < error_level < math.inf:
            raise ParameterOutOfRangeError(
                f"error level must be positive and finite, got {error_level}", "error_level"
            )
        if not 0.0 < delta < 1.0:
            raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {delta}", "delta")
        floor_scale = self.floor_scale(params)
        family = params.family
        scale = self.width(family.mad_ratio) * family.slope_bound * family.mad_bound
        try:
            spread = 2.0 * (scale / error_level) ** 2
        except OverflowError:
            spread = math.inf
        count = max(spread, floor_scale) * self.log_term(delta, params)
        if count > _MAX_DRAWS:
            raise _past_cap(count, None if spread <= floor_scale else error_level)
        return math.ceil(count)

    def estimate_ci(
        self, xs, delta: float, params: EstimationParams, mad_used: float
    ) -> RobustEstimateReport:
        if not 0.0 < delta < 1.0:
            raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {delta}")
        a = np.asarray(xs, dtype=float)
        n = a.size
        log_term = self.log_term(delta, params)
        floor = self.floor_scale(params) * log_term
        if n < floor:
            raise TooFewSamplesError(f"need at least {math.ceil(floor)} samples, got {n}")
        family = params.family
        bias = self.bias(family.mad_ratio) * contamination_bias(
            params.eps0, family.slope_bound, mad_used, params.model
        )
        width = self.width(family.mad_ratio) * family.slope_bound
        half_width = width * mad_used * math.sqrt(2.0 * log_term / n)
        return RobustEstimateReport(
            self.statistic, self.estimator(a), bias, half_width, int(n), params.model
        )


_BOUNDS = {
    "median": _Bound(
        "median", EstimationParams.median_margin, (2.0, 3.0), lambda r: 1.0, lambda r: 1.0,
        empirical_median,
    ),
    "mad": _Bound(
        "mad", EstimationParams.mad_margin, (4.0, 6.0), lambda r: 4.0 * r,
        lambda r: 1.0 + 2.0 * r, empirical_mad,
    ),
}


def sample_size_median(error_level: float, delta: float, params: EstimationParams) -> int:
    """Samples sufficient to estimate a median to bias + error_level at level delta."""
    return _BOUNDS["median"].sample_size(error_level, delta, params)


def sample_size_mad(error_level: float, delta: float, params: EstimationParams) -> int:
    """Samples sufficient to estimate a MAD to its bias + error_level at level delta."""
    return _BOUNDS["mad"].sample_size(error_level, delta, params)


def estimate_median_ci(
    xs, delta: float, params: EstimationParams, mad_used: float
) -> RobustEstimateReport:
    """Empirical median with its contamination bias and confidence half-width.

    ``mad_used`` is the MAD value the caller wants the widths expressed with:
    the true MAD in simulations, the uniform bound inside algorithms.
    """
    return _BOUNDS["median"].estimate_ci(xs, delta, params, mad_used)


def estimate_mad_ci(
    xs, delta: float, params: EstimationParams, mad_used: float
) -> RobustEstimateReport:
    """Empirical MAD; the bias is inflated by one plus twice the MAD ratio."""
    return _BOUNDS["mad"].estimate_ci(xs, delta, params, mad_used)
