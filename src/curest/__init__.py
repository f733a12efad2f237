"""Cure-fraction estimation from current-status data.

Each record is an inspection time and the indicator of whether the event had
already happened; a cured subject never shows the event.  The package fits
the shape-constrained MLE of the event-time CDF, traces the tail-average
estimators of the event fraction, selects variance/bias cut-offs, and checks
the limiting laws of the studentized statistics by replication.
"""

from .asymptotics import (
    CutoffRule,
    McConfig,
    McResult,
    ThinningConfig,
    ThinningStats,
    ZStatPair,
    half_normal_cdf,
    ks_distance,
    run_mc,
    std_normal_cdf,
    thinning_check,
    z_stats,
)
from .estimators import (
    CureEstimate,
    CutoffChoice,
    CvCurve,
    EstimatorTrace,
    PlugIns,
    choice_at_index,
    cv_m1_curve,
    cv_m2_curve,
    estimate_cure,
    plug_ins,
    select_cutoff,
    theoretical_cutoff_exponential,
    theoretical_mn,
    trace,
)
from .model import (
    CsvFormatError,
    CurrentStatusSample,
    DistSpec,
    Exponential,
    MixtureSpec,
    SortedSample,
    TabulatedQuantile,
    read_csv,
    simulate,
    sort_with_concomitants,
    write_csv,
)
from .npmle import (
    CureArgmaxInterval,
    NpmleFit,
    inconsistency_probe,
    log_lik,
    npmle_cure_argmax_interval,
    npmle_pava,
    profile_cure_loglik,
)

__version__ = "0.1.0"

__all__ = [
    "CsvFormatError",
    "CureArgmaxInterval",
    "CureEstimate",
    "CurrentStatusSample",
    "CutoffChoice",
    "CutoffRule",
    "CvCurve",
    "DistSpec",
    "EstimatorTrace",
    "Exponential",
    "McConfig",
    "McResult",
    "MixtureSpec",
    "NpmleFit",
    "PlugIns",
    "SortedSample",
    "TabulatedQuantile",
    "ThinningConfig",
    "ThinningStats",
    "ZStatPair",
    "choice_at_index",
    "cv_m1_curve",
    "cv_m2_curve",
    "estimate_cure",
    "half_normal_cdf",
    "inconsistency_probe",
    "ks_distance",
    "log_lik",
    "npmle_cure_argmax_interval",
    "npmle_pava",
    "plug_ins",
    "profile_cure_loglik",
    "read_csv",
    "run_mc",
    "select_cutoff",
    "simulate",
    "sort_with_concomitants",
    "std_normal_cdf",
    "theoretical_cutoff_exponential",
    "theoretical_mn",
    "thinning_check",
    "trace",
    "write_csv",
    "z_stats",
]
