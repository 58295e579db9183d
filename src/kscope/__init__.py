"""Generalized K-function estimation and asymptotic goodness-of-fit tests.

Edge-corrected empirical estimators of the generalized (gauge-body)
K-function of stationary point processes, simulators for Poisson and
cluster models, one- and two-sample test statistics with closed-form
limit laws, and a reproducible parallel Monte-Carlo harness.
"""

from .geometry import (
    BodyShape,
    Box,
    Disk,
    ObservationWindow,
    StructuringBody,
    body_from_config,
    body_to_config,
    body_volume,
    circumradius,
    gauge_norm,
    unit_ball_volume,
    window_from_config,
)
from .pattern import PointPattern, load_pattern, save_pattern
from .simulate import (
    KFunction,
    MaternClusterModel,
    PoissonModel,
    SeedSpec,
    ThomasModel,
    k_function,
    k_function_from_table,
    model_from_config,
    model_to_config,
    simulate,
    theoretical_sigma2,
    theoretical_tau2,
)
from .estimate import (
    EstimatorKind,
    KEstimate,
    KernelKind,
    ScaledDelta,
    k_hat,
    lambda2_hat,
    lambda_hat,
    restrict_pattern,
    scaled_delta,
    sigma2_hat,
)
from .gof import (
    DegeneratePatternError,
    IntegralWeight,
    NonpositiveVarianceError,
    SupWeight,
    TestKind,
    TestReport,
    chi2_statistic,
    cvm_statistic,
    ks_statistic,
    limit_constant,
    normal_cdf,
    normal_quantile,
    one_sample_reports,
    p_value,
    two_sample_cvm,
    two_sample_ks,
    two_sample_reports,
)
from .mcharness import StudyConfig, StudyReport, run_study

__version__ = "0.1.0"
