"""Tail-average cure estimators and cut-off selection.

For a threshold x, the tail average ``p1(x)`` is the fraction of indicators
equal to 1 among records inspected at or after x; it estimates the event
fraction ``1 - p`` once x is large enough that almost every uncured subject
inspected there has already had its event.  Its running maximum over
thresholds from the left, ``p2(x)``, is never smaller.  Without tied
inspection times, p2 at the largest one equals the shape-constrained MLE's
last fitted value; with ties the two can differ, because ``npmle_pava``
fits tied records one by one in their stored order while p2 pools each tie
group.  Cure estimates are one minus these quantities at a chosen cut-off.

Choosing the cut-off trades variance (small tails) against bias (early
thresholds see uncured subjects whose events have not happened yet).  Two
data-driven objectives are provided, plus the closed-form minimizer of the
theoretical mean-squared-error profile for fully exponential designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SortedSample, _check_count


@dataclass(frozen=True)
class EstimatorTrace:
    """Tail averages per distinct threshold.

    ``index`` is the 1-based position (in the sorted sample) opening each
    tie group, so with continuous data it is simply 1..n.  ``tail_count`` is
    the number of records at or above the group's threshold.
    """

    n: int
    index: np.ndarray
    y: np.ndarray
    tail_count: np.ndarray
    p1: np.ndarray
    p2: np.ndarray


@dataclass(frozen=True)
class PlugIns:
    """Sample functionals feeding the CV objectives.

    ``alpha_hat = delta_bar / (p2_bar - delta_bar)`` estimates the tail
    exponent in the proportional-tails relation between event and inspection
    laws; it is NaN (invalid) when ``p2_bar <= delta_bar``.
    """

    delta_bar: float
    p2_bar: float
    alpha_hat: float

    @property
    def valid(self) -> bool:
        return math.isfinite(self.alpha_hat)


@dataclass(frozen=True)
class CvCurve:
    """A variance-plus-squared-bias objective evaluated at each threshold of
    ``trace``, the trace it was built from."""

    flavor: str
    trace: EstimatorTrace
    variance: np.ndarray
    bias_sq: np.ndarray
    objective: np.ndarray
    plug_ins: PlugIns


@dataclass(frozen=True)
class CutoffChoice:
    """A resolved cut-off: 1-based index, its threshold, and the guard that
    was in force when it was chosen."""

    method: str
    index: int
    threshold: float
    guard: int = 1


@dataclass(frozen=True)
class CureEstimate:
    """Cure-fraction estimates at a cut-off: 1 - p1 and 1 - p2 there."""

    p_hat1: float
    p_hat2: float
    index: int
    threshold: float
    tail_count: int


def _tail_means(ss: SortedSample, opens: np.ndarray) -> np.ndarray:
    """Mean of the indicators from each sorted position in ``opens`` to the
    end: one backward integer cumulative sum divided by the tail counts."""
    suffix = np.cumsum(ss.delta[::-1].astype(np.int64))[::-1]
    return suffix[opens] / (ss.n - opens)


def trace(ss: SortedSample) -> EstimatorTrace:
    """Tail mean of the indicators at each distinct threshold, plus its
    running maximum over thresholds from the left.

    One backward cumulative sum serves every threshold; tie groups share a
    single entry evaluated at the group's threshold, so tied records never
    straddle a cut-off.
    """
    starts = ss.group_start
    p1 = _tail_means(ss, starts)
    return EstimatorTrace(
        n=ss.n,
        index=starts + 1,
        y=ss.y[starts],
        tail_count=(ss.n - starts).astype(np.int64),
        p1=p1,
        p2=np.maximum.accumulate(p1),
    )


def _entry_for_index(tr: EstimatorTrace, index: int) -> int:
    if not 1 <= index <= tr.n:
        raise ValueError(f"index must lie in 1..{tr.n}, got {index}")
    return int(np.searchsorted(tr.index, index, side="right")) - 1


def estimate_cure(tr: EstimatorTrace, choice: CutoffChoice) -> CureEstimate:
    """Cure estimates 1 - p1 and 1 - p2 at the chosen cut-off.

    An index landing inside a tie run resolves to the run's threshold (tied
    inspection times cannot straddle a cut-off), and the estimate is refused
    when the tail there is thinner than the choice's guard.
    """
    entry = _entry_for_index(tr, choice.index)
    m = int(tr.tail_count[entry])
    if m < choice.guard:
        raise ValueError(
            f"tail count {m} at index {int(tr.index[entry])} is below the guard minimum {choice.guard}"
        )
    return CureEstimate(
        p_hat1=1.0 - float(tr.p1[entry]),
        p_hat2=1.0 - float(tr.p2[entry]),
        index=int(tr.index[entry]),
        threshold=float(tr.y[entry]),
        tail_count=m,
    )


def choice_at_index(
    tr: EstimatorTrace, index: int, method: str = "fixed-index", guard: int = 1
) -> CutoffChoice:
    """CutoffChoice at a 1-based sorted-sample position, resolved to the
    threshold of the tie group containing it."""
    _check_count("index", index, 1)
    _check_count("guard", guard, 1)
    entry = _entry_for_index(tr, index)
    return CutoffChoice(
        method=method,
        index=int(tr.index[entry]),
        threshold=float(tr.y[entry]),
        guard=guard,
    )


def plug_ins(tr: EstimatorTrace) -> PlugIns:
    """Overall indicator mean, the per-record mean of the running-max tail
    average, and the tail-exponent estimate they induce.

    The first group's tail is the whole sample, so the overall mean is
    ``p1[0]``; each group's p2 counts once per record in the group.
    """
    sizes = -np.diff(np.append(tr.tail_count, 0))
    delta_bar = float(tr.p1[0])
    p2_bar = float(np.sum(tr.p2 * sizes) / tr.n)
    gap = p2_bar - delta_bar
    alpha_hat = delta_bar / gap if gap > 0 else math.nan
    return PlugIns(delta_bar=delta_bar, p2_bar=p2_bar, alpha_hat=alpha_hat)


def _variance_term(tr: EstimatorTrace, variance_stat: str) -> np.ndarray:
    if variance_stat == "p1":
        v = tr.p1
    elif variance_stat == "p2":
        v = tr.p2
    else:
        raise ValueError(f"variance_stat must be 'p1' or 'p2', got {variance_stat!r}")
    return v * (1.0 - v) / tr.tail_count


def _cv_curve(
    flavor: str, tr: EstimatorTrace, pi: PlugIns, variance_stat: str, bias_sq: np.ndarray
) -> CvCurve:
    variance = _variance_term(tr, variance_stat)
    return CvCurve(flavor, tr, variance, bias_sq, variance + bias_sq, pi)


def cv_m1_curve(ss: SortedSample, variance_stat: str = "p1") -> CvCurve:
    """Estimated MSE profile with a parametric tail-decay bias term.

    Variance: v(1-v)/tail with v the tail average (or its running maximum
    when ``variance_stat='p2'``).  Bias squared: (p2_bar - delta_bar)^2 times
    the empirical tail fraction raised to 2*alpha_hat.  Requires a valid
    alpha_hat; without one use cv_m2_curve, which needs no tail exponent.
    """
    tr = trace(ss)
    pi = plug_ins(tr)
    if not pi.valid:
        raise ValueError(
            "alpha_hat is undefined (p2_bar <= delta_bar); "
            "the m2 objective does not need it"
        )
    gap = pi.p2_bar - pi.delta_bar
    return _cv_curve(
        "m1", tr, pi, variance_stat, gap * gap * (tr.tail_count / tr.n) ** (2.0 * pi.alpha_hat)
    )


def cv_m2_curve(ss: SortedSample, variance_stat: str = "p1") -> CvCurve:
    """Estimated MSE profile with the rank-based bias term (p2 - p2_bar)^2.

    Needs no tail-exponent estimate, so it stays defined when alpha_hat is
    invalid.
    """
    tr = trace(ss)
    pi = plug_ins(tr)
    centered = tr.p2 - pi.p2_bar
    return _cv_curve("m2", tr, pi, variance_stat, centered * centered)


def select_cutoff(curve: CvCurve, guard: int = 5) -> CutoffChoice:
    """Guarded argmin of the objective.

    Two kinds of candidate are excluded before taking the argmin, both
    symptoms of the same degeneracy: when every indicator in the tail is
    identical the plug-in variance v(1-v)/m is exactly zero and the
    objective collapses to a spurious near-zero minimum.

    - entries with tail count below ``guard`` (a tail of one record is
      always degenerate, and very short tails nearly so);
    - entries whose variance term is exactly zero (an all-ones run at the
      top can push the degeneracy past any fixed tail-count guard).

    Ties resolve to the smallest index.
    """
    _check_count("guard", guard, 1)
    tr = curve.trace
    ok = tr.tail_count >= guard
    if not np.any(ok):
        raise ValueError(f"no thresholds have tail count >= {guard}")
    usable = ok & (curve.variance > 0.0)
    if not np.any(usable):
        raise ValueError(
            "every guarded threshold has a degenerate (zero) variance estimate; "
            "the objective cannot rank cut-offs on this sample"
        )
    candidates = np.flatnonzero(usable)
    best = candidates[int(np.argmin(curve.objective[candidates]))]
    return CutoffChoice(
        method=f"cv-{curve.flavor}",
        index=int(tr.index[best]),
        threshold=float(tr.y[best]),
        guard=guard,
    )


def theoretical_mn(x, n: int, p: float, event_rate: float, inspect_rate: float):
    """Theoretical MSE profile of the tail average for exponential designs:
    p(1-p)/n * exp(mu x) + ((1-p) mu / (lam + mu))^2 * exp(-2 lam x)
    with lam the event rate and mu the inspection rate."""
    _check_count("n", n, 1)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if not all(math.isfinite(r) and r > 0 for r in (event_rate, inspect_rate)):
        raise ValueError("rates must be positive and finite")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    lam, mu = event_rate, inspect_rate
    variance = p * (1.0 - p) / n * np.exp(mu * x)
    bias = (1.0 - p) * mu / (lam + mu) * np.exp(-lam * x)
    out = variance + bias * bias
    return float(out) if out.ndim == 0 else out


def theoretical_cutoff_exponential(
    n: int, p: float, event_rate: float, inspect_rate: float
) -> float:
    """Argmin of theoretical_mn in closed form.

    Setting the derivative to zero balances mu times the variance term
    against 2 lam times the squared bias, giving
    x_n = log(2 lam (1-p) mu n / (p (lam+mu)^2)) / (mu + 2 lam),
    clamped to 0 when the log argument is <= 1 (variance already dominates
    at the origin).  The expected tail count there grows like
    n^(2 lam / (mu + 2 lam)).
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    _check_count("n", n, 1)
    if not all(math.isfinite(r) and r > 0 for r in (event_rate, inspect_rate)):
        raise ValueError("rates must be positive and finite")
    lam, mu = event_rate, inspect_rate
    arg = 2.0 * lam * (1.0 - p) * mu * n / (p * (lam + mu) ** 2)
    if arg <= 1.0:
        return 0.0
    return math.log(arg) / (mu + 2.0 * lam)
