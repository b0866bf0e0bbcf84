"""robandit: contaminated bandits with robust median/MAD estimation.

Pulls from an arm return the true reward except with some probability, when
an adversary substitutes an arbitrary value. The toolkit provides the
distribution kernel, contamination engines for three adversary strengths,
concentration-backed median/MAD estimators, best-arm identification
algorithms with effective-gap guarantees, post-selection quality bounds,
hard-instance constructions with a sample-complexity lower bound, and a
reproducible experiment harness.
"""

from .bandit import (
    AlgoConfig,
    BanditInstance,
    BanditRunResult,
    EffectiveGapReport,
    RunningMedian,
    effective_gaps,
    elimination_round_delta,
    run_contaminated_successive_elimination,
    run_simple,
    run_successive_elimination,
    simple_exploration_estimates,
    warmup_pulls,
)
from .contamination import (
    AtomTriggeredCoupling,
    BatchDraw,
    BelowMedianCoupling,
    ContaminatedArm,
    EmpiricalQuantileShift,
    FixedContamination,
    MarginalReport,
    ShiftMedianDown,
    ShiftMedianUp,
    UniformTailShift,
    contaminated_cdf,
    draw_batch,
    ks_distance,
    malicious_median_attack,
    median_sandwich_bounds,
    verify_marginals,
)
from .distributions import (
    AdversaryModel,
    Affine,
    Bernoulli,
    Cauchy,
    Dirac,
    Distribution,
    FamilyParams,
    Gaussian,
    Mixture,
    RobustMoments,
    SmoothedBernoulli,
    Uniform,
    abs_deviation_of,
    contamination_bias,
    eps_ceiling,
    in_mad_family,
    in_quantile_family,
    median_shift_bound,
    robust_moments,
)
from .errors import (
    EmptyInputError,
    IncompatibleStrategyError,
    InfeasibleRegimeError,
    LiftingError,
    NonUniqueMADError,
    NonUniqueMedianError,
    ParameterOutOfRangeError,
    RobanditError,
    TooFewSamplesError,
    ZeroMADError,
)
from .estimators import (
    EstimationParams,
    RobustEstimateReport,
    empirical_mad,
    empirical_median,
    estimate_mad_ci,
    estimate_median_ci,
    sample_size_mad,
    sample_size_median,
)
from .lower_bounds import (
    LiftedInstance,
    kl_quadratic_constant,
    kl_smoothed_bernoulli,
    lifted_effective_gaps,
    lower_bound_samples,
    malicious_lifting,
    oblivious_lifting,
)
from .quality import QualityGuarantee, lower_tail_bound, quantile_guarantee
from .harness.runner import HardnessReport, hardness_probe

__version__ = "0.1.0"
