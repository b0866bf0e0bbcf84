"""Post-selection quality guarantees for the chosen arm.

For distributions whose cdf grows at least linearly around the median, the
lower tail is controlled by the median and MAD: the probability of exceeding
``median - t * slope_bound * mad`` is at least 1/2 + t. Plugging in the
estimates produced by the uniform-exploration run (no extra samples) and
discounting for estimation error and contamination bias yields a certified
threshold/probability pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterOutOfRangeError
from .estimators import _BOUNDS

__all__ = ["QualityGuarantee", "lower_tail_bound", "quantile_guarantee"]


def lower_tail_bound(
    median: float, mad: float, slope_bound: float, t: float, t_bar: float | None = None
) -> float:
    """Threshold below the median that is exceeded with probability >= 1/2 + t."""
    if t < 0.0:
        raise ParameterOutOfRangeError(f"t must be nonnegative, got {t}")
    if t_bar is not None and t > t_bar:
        raise ParameterOutOfRangeError(f"t={t} exceeds the family half-width t_bar={t_bar}")
    if t >= 0.5:
        raise ParameterOutOfRangeError(f"t must stay below 1/2, got {t}")
    return median - t * slope_bound * mad


@dataclass(frozen=True)
class QualityGuarantee:
    """Certified pair: a fresh draw exceeds ``threshold`` with probability at
    least ``probability_floor``. Floors clamp at zero; ``vacuous`` flags that."""

    t: float
    threshold: float
    probability_floor: float
    vacuous: bool


def quantile_guarantee(
    median_hat: float,
    mad_hat: float,
    t: float,
    alpha: float,
    bias_bound: float,
    slope_bound: float,
    mad_ratio: float,
    delta: float,
    k: int,
    t_bar: float | None = None,
) -> QualityGuarantee:
    """Quality guarantee from the selected arm's own estimates.

    ``median_hat`` and ``mad_hat`` are the empirical median and MAD of the
    pulls the selection run already took from the chosen arm; ``bias_bound``
    is the model-specific contamination bias evaluated at the uniform MAD
    bound. The estimation-error discounts absorb the accuracy level alpha of
    the run and the bias, leaving a guarantee that holds with the run's own
    confidence budget (failure share 3 delta / k).
    """
    clean = lower_tail_bound(median_hat, mad_hat, slope_bound, t, t_bar)
    if k < 1:
        raise ParameterOutOfRangeError("k must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {delta}")
    if alpha < 0 or bias_bound < 0:
        raise ParameterOutOfRangeError("alpha and bias_bound must be nonnegative")
    discount = (0.5 + 2.0 * mad_ratio * t * slope_bound) * alpha
    discount += (1.0 + _BOUNDS["mad"].bias(mad_ratio) * slope_bound * t) * bias_bound
    floor = 0.5 + t - 3.0 * delta / k
    clamped = min(max(floor, 0.0), 1.0)
    return QualityGuarantee(
        t=t,
        threshold=clean - discount,
        probability_floor=clamped,
        vacuous=floor <= 0.0,
    )
