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
from dataclasses import InitVar, dataclass, field

import numpy as np

from .model import SortedSample, _check_count, _check_real, _check_type, _freeze


@dataclass(frozen=True)
class EstimatorTrace:
    """Tail averages per distinct threshold of one ``SortedSample``.

    ``index`` is the 1-based position (in the sorted sample) opening each
    tie group, so with continuous data it is simply 1..n.  ``tail_count`` is
    the number of records at or above the group's threshold.  ``p1`` is the
    tail mean of the indicators there, all from one backward cumulative sum;
    tied records share one entry, so they never straddle a cut-off.  ``p2``
    is the running maximum of ``p1`` from the left.  ``trace`` builds one per
    sample and shares it with every caller, so its arrays are read-only.
    """

    sample: InitVar[SortedSample]
    n: int = field(init=False)
    index: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    tail_count: np.ndarray = field(init=False)
    p1: np.ndarray = field(init=False)
    p2: np.ndarray = field(init=False)

    def __post_init__(self, sample: SortedSample) -> None:
        _check_type("EstimatorTrace", sample, SortedSample)
        n, starts = sample.n, sample.group_start
        # The tail means at each group's start: running sums of the
        # indicators read from the end, over the counts 1..n.  The sums are
        # whole numbers, exact in float64, so each mean is the same double
        # as an integer sum over an integer count.
        means = sample.delta[::-1].astype(np.float64)
        means.cumsum(out=means)
        means /= np.arange(1.0, n + 1.0)
        p1 = means[n - 1 - starts]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index", _freeze(starts + 1))
        object.__setattr__(self, "y", _freeze(sample.y[starts]))
        tail_count = (n - starts).astype(np.int64, copy=False)
        object.__setattr__(self, "tail_count", _freeze(tail_count))
        object.__setattr__(self, "p1", _freeze(p1))
        object.__setattr__(self, "p2", _freeze(np.maximum.accumulate(p1)))


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


@dataclass(frozen=True)
class CutoffChoice:
    """A resolved cut-off: 1-based index, its threshold, and the guard that
    was in force when it was chosen."""

    method: str
    index: int
    threshold: float
    guard: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _check_count("index", self.index, 1))
        object.__setattr__(self, "guard", _check_count("guard", self.guard, 1))
        threshold = _check_real("threshold", self.threshold, "nonnegative")
        object.__setattr__(self, "threshold", threshold)


@dataclass(frozen=True)
class CureEstimate:
    """Cure-fraction estimates at a cut-off: 1 - p1 and 1 - p2 there."""

    p_hat1: float
    p_hat2: float
    index: int
    threshold: float
    tail_count: int


def trace(ss: SortedSample) -> EstimatorTrace:
    """The sample's ``EstimatorTrace``, built once: it is kept on the frozen
    sample, as ``functools.cached_property`` keeps a value, and later calls
    return that same read-only object."""
    kept = ss.__dict__.get("_trace")
    if kept is None:
        kept = ss.__dict__["_trace"] = EstimatorTrace(ss)
    return kept


def _entry_for_index(tr: EstimatorTrace, index: int) -> int:
    if not 1 <= index <= tr.n:
        raise ValueError(f"index must lie in 1..{tr.n}, got {index}")
    return int(tr.index.searchsorted(index, side="right")) - 1


def estimate_cure(tr: EstimatorTrace, choice: CutoffChoice) -> CureEstimate:
    """Cure estimates 1 - p1 and 1 - p2 at the chosen cut-off.

    An index landing inside a tie run resolves to the run's threshold (tied
    inspection times cannot straddle a cut-off).  The estimate is refused
    when the choice's threshold is not that one, since the two fields then
    name no single cut-off, and when the tail there is thinner than the
    choice's guard.
    """
    entry = _entry_for_index(tr, choice.index)
    if choice.threshold != tr.y[entry]:
        raise ValueError(
            f"threshold {choice.threshold!r} is not {float(tr.y[entry])!r}, "
            f"the threshold at index {choice.index}"
        )
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
    entry = _entry_for_index(tr, _check_count("index", index, 1))
    return CutoffChoice(method, tr.index[entry], tr.y[entry], guard)


def plug_ins(tr: EstimatorTrace) -> PlugIns:
    """Overall indicator mean, the per-record mean of the running-max tail
    average, and the tail-exponent estimate they induce.

    The first group's tail is the whole sample, so the overall mean is
    ``p1[0]``; each group's p2 counts once per record in the group.  Like
    the trace, the plug-ins are computed once and kept on the frozen trace.
    """
    kept = tr.__dict__.get("_plug_ins")
    if kept is not None:
        return kept
    # Group sizes: each tail count less the next one, the last group's its own.
    sizes = tr.tail_count.copy()
    sizes[:-1] -= tr.tail_count[1:]
    delta_bar = float(tr.p1[0])
    p2_bar = float((tr.p2 * sizes).sum() / tr.n)
    gap = p2_bar - delta_bar
    alpha_hat = delta_bar / gap if gap > 0 else math.nan
    pi = PlugIns(delta_bar=delta_bar, p2_bar=p2_bar, alpha_hat=alpha_hat)
    tr.__dict__["_plug_ins"] = pi
    return pi


# The trace fields the CV variance term may be taken from.
_VARIANCE_STATS = ("p1", "p2")


def _cv_curve(
    flavor: str, tr: EstimatorTrace, variance_stat: str, bias_sq: np.ndarray
) -> CvCurve:
    if variance_stat not in _VARIANCE_STATS:
        raise ValueError(f"variance_stat must be one of {_VARIANCE_STATS}, got {variance_stat!r}")
    v = getattr(tr, variance_stat)
    variance = v * (1.0 - v) / tr.tail_count
    return CvCurve(flavor, tr, variance, bias_sq, variance + bias_sq)


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
        "m1", tr, variance_stat, gap * gap * (tr.tail_count / tr.n) ** (2.0 * pi.alpha_hat)
    )


def cv_m2_curve(ss: SortedSample, variance_stat: str = "p1") -> CvCurve:
    """Estimated MSE profile with the rank-based bias term (p2 - p2_bar)^2.

    Needs no tail-exponent estimate, so it stays defined when alpha_hat is
    invalid.
    """
    tr = trace(ss)
    pi = plug_ins(tr)
    centered = tr.p2 - pi.p2_bar
    return _cv_curve("m2", tr, variance_stat, centered * centered)


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

    Tail counts fall strictly along a trace, so the guarded entries are a
    prefix of it.  Ties resolve to the smallest index.
    """
    guard = _check_count("guard", guard, 1)
    tr = curve.trace
    k = int(np.count_nonzero(tr.tail_count >= guard))
    if k == 0:
        raise ValueError(f"no thresholds have tail count >= {guard}")
    candidates = (curve.variance[:k] > 0.0).nonzero()[0]
    if candidates.size == 0:
        raise ValueError(
            "every guarded threshold has a degenerate (zero) variance estimate; "
            "the objective cannot rank cut-offs on this sample"
        )
    best = candidates[curve.objective[candidates].argmin()]
    return CutoffChoice(f"cv-{curve.flavor}", tr.index[best], tr.y[best], guard)


def theoretical_mn(x, n: int, p: float, event_rate: float, inspect_rate: float):
    """Theoretical MSE profile of the tail average for exponential designs:
    p(1-p)/n * exp(mu x) + ((1-p) mu / (lam + mu))^2 * exp(-2 lam x)
    with lam the event rate and mu the inspection rate."""
    n, p = _check_count("n", n, 1), _check_real("cure fraction p", p, "unit")
    lam = _check_real("event rate", event_rate, "positive")
    mu = _check_real("inspection rate", inspect_rate, "positive")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x < math.inf)):  # NaN fails this form too
        raise ValueError("x must be nonnegative and finite")
    variance = p * (1.0 - p) / n * np.exp(mu * x)
    bias = (1.0 - p) * mu / (lam + mu) * np.exp(-lam * x)
    out = variance + bias * bias
    return float(out) if out.ndim == 0 else out


# Within these magnitudes of the rates, p and n every term of the closed
# form below is a normal float: nothing overflows, underflows or rounds to 0.
_PLAIN_LO, _PLAIN_HI = 2.0**-150, 2.0**150


def theoretical_cutoff_exponential(
    n: int, p: float, event_rate: float, inspect_rate: float
) -> float:
    """Argmin of theoretical_mn in closed form.

    Setting the derivative to zero balances mu times the variance term
    against 2 lam times the squared bias, giving
    x_n = log(2 lam (1-p) mu n / (p (lam+mu)^2)) / (mu + 2 lam),
    clamped to 0 when the log argument is <= 1 (variance already dominates
    at the origin).  The expected tail count there grows like
    n^(2 lam / (mu + 2 lam)).  Beyond ordinary magnitudes the same formula
    is taken in logs, and a cut-off past the largest float is refused.
    """
    p, n = _check_real("cure fraction p", p, "inner"), _check_count("n", n, 1)
    lam = _check_real("event rate", event_rate, "positive")
    mu = _check_real("inspection rate", inspect_rate, "positive")
    if all(_PLAIN_LO < v < _PLAIN_HI for v in (lam, mu, p, n)):
        arg = 2.0 * lam * (1.0 - p) * mu * n / (p * (lam + mu) ** 2)
        if arg <= 1.0:
            return 0.0
        return math.log(arg) / (mu + 2.0 * lam)
    # lam mu / (lam + mu)^2 = r / (1 + r)^2 with r = small / big <= 1.
    small, big = sorted((lam, mu))
    log_arg = (
        math.log(2.0) + math.log(n) + math.log1p(-p) - math.log(p)
        + math.log(small) - math.log(big) - 2.0 * math.log1p(small / big)
    )
    if log_arg <= 0.0:
        return 0.0
    # mu + 2 lam = big * d with d in [1, 3]: dividing by d first leaves one
    # rounding that overflows only when the cut-off itself does.
    x = log_arg / (mu / big + 2.0 * (lam / big)) / big
    if math.isinf(x):
        raise ValueError("the optimal cut-off for these rates exceeds the largest float")
    return x
