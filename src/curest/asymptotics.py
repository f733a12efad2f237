"""Monte Carlo verification of the limit behavior of the tail estimators.

Centered at the true event fraction and scaled by the realized tail count,
the tail average is asymptotically standard normal whenever the expected
tail count grows without bound, while its running maximum converges to the
half-normal law (the absolute value of a standard normal).  This module
computes those studentized statistics per sample, replicates them, and
measures the distance to the reference laws; it also checks the Poisson
split of the tail by indicator value that underlies those limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import erf

from ._parallel import replicate
from .estimators import _tail_means, theoretical_cutoff_exponential
from .model import Exponential, MixtureSpec, SortedSample, _check_count, sort_with_concomitants

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ZStatPair:
    """Studentized tail statistics at one cut-off for one sample."""

    z1: float
    z2: float
    tail_count: int
    cutoff: float
    studentization: str


@dataclass(frozen=True)
class NormingConstants:
    """Affine constants for the largest inspection time of an exponential
    design: with rate mu, n * P(Y > a x + b) = exp(-x) exactly, so the
    expected tail count at the standardized threshold x is exp(-x)."""

    a: float
    b: float

    def standardized(self, threshold: float) -> float:
        return (threshold - self.b) / self.a

    def mean_count(self, x: float) -> float:
        return math.exp(-x)


def gumbel_norming_exponential(n: int, rate: float) -> NormingConstants:
    _check_count("n", n, 1)
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError("rate must be positive and finite")
    return NormingConstants(a=1.0 / rate, b=math.log(n) / rate)


def std_normal_cdf(x):
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + erf(x / _SQRT2))
    return float(out) if out.ndim == 0 else out


def half_normal_cdf(x):
    """CDF of |Z| for standard normal Z: 2 Phi(x) - 1 on x >= 0, else 0."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0.0, 0.0, 2.0 * std_normal_cdf(np.maximum(x, 0.0)) - 1.0)
    return float(out) if out.ndim == 0 else out


_REFERENCES = {"std-normal": std_normal_cdf, "half-normal": half_normal_cdf}


def ks_distance(samples, reference: str) -> float:
    """Exact sup distance between the empirical CDF and a reference law.

    Both one-sided gaps are checked at every jump of the empirical CDF, so
    the sup over the whole line is attained.  Mass below the half-normal
    support (negative samples) counts at full weight; nothing is clamped.
    """
    if reference not in _REFERENCES:
        raise ValueError(f"reference must be one of {sorted(_REFERENCES)}, got {reference!r}")
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    ref = np.asarray(_REFERENCES[reference](x), dtype=float)
    m = x.size
    steps = np.arange(1, m + 1) / m
    upper = np.max(steps - ref)
    lower = np.max(ref - (steps - 1.0 / m))
    return float(max(upper, lower))


def z_stats(
    ss: SortedSample, x_n: float, p_true: float, studentization: str = "known-p"
) -> ZStatPair:
    """Centered, scaled tail statistics at threshold ``x_n``.

    z1 uses the tail average, z2 its running maximum over thresholds up to
    ``x_n``; both center at ``1 - p_true`` and scale by the square root of
    the realized tail count.  ``studentization='known-p'`` divides by
    sqrt(p_true (1 - p_true)); ``'plug-in'`` replaces p_true by 1 - p2 in
    the denominator only, which can degenerate to zero and then yields a
    non-finite statistic rather than an exception.
    """
    if studentization not in ("known-p", "plug-in"):
        raise ValueError(f"studentization must be 'known-p' or 'plug-in', got {studentization!r}")
    if not (0.0 < p_true < 1.0):
        raise ValueError(f"p_true must lie strictly inside (0, 1), got {p_true!r}")
    x_n = float(x_n)
    if not math.isfinite(x_n) or x_n < 0:
        raise ValueError("cut-off must be finite and nonnegative")
    i = ss.tail_start(x_n)
    # Position i opens tie group g and the tail is the m = n - i records
    # from there on.  p1 and its running maximum p2 are read off the tail
    # means at the group openings up to g.
    m = ss.n - i
    starts = ss.group_start
    g = int(np.searchsorted(starts, i, side="left"))
    means = _tail_means(ss, starts[: g + 1])
    p1 = float(means[-1])
    p2 = float(means.max())
    if studentization == "known-p":
        scale = math.sqrt(p_true * (1.0 - p_true))
    else:
        plug = 1.0 - p2
        scale = math.sqrt(plug * (1.0 - plug))
    root_m = math.sqrt(m)

    def _scaled(num: float) -> float:
        if scale > 0.0:
            return num / scale
        return math.copysign(math.inf, num) if num != 0.0 else math.nan

    center = 1.0 - p_true
    return ZStatPair(
        z1=_scaled(root_m * (p1 - center)),
        z2=_scaled(root_m * (p2 - center)),
        tail_count=m,
        cutoff=x_n,
        studentization=studentization,
    )


@dataclass(frozen=True)
class CutoffRule:
    """How each replication picks its threshold.

    kinds:
      fixed-x        constant threshold ``x``
      optimal        closed-form argmin of the theoretical MSE profile
                     (requires exponential event and inspection laws)
      undersmoothed  inspection quantile 1 - 1/sqrt(n); expected tail ~ sqrt(n)
      fixed-tail     threshold at the order statistic keeping ``tail`` records

    A rule refuses a field its kind does not use, so a value given for it
    is never silently dropped.
    """

    kind: str
    x: float | None = None
    tail: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed-x", "optimal", "undersmoothed", "fixed-tail"):
            raise ValueError(f"unknown cut-off kind {self.kind!r}")
        uses = {"fixed-x": "x", "fixed-tail": "tail"}.get(self.kind)
        for name in ("x", "tail"):
            if name != uses and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} rule takes no {name}")
        if self.kind == "fixed-x":
            if self.x is None or not math.isfinite(self.x) or self.x < 0:
                raise ValueError("fixed-x rule needs a finite nonnegative x")
        if self.kind == "fixed-tail":
            _check_count("fixed-tail rule's tail", self.tail, 1)

    def resolve(self, spec: MixtureSpec, ss: SortedSample) -> float:
        n = ss.n
        if self.kind == "fixed-x":
            return float(self.x)
        if self.kind == "optimal":
            if not (
                isinstance(spec.event, Exponential)
                and isinstance(spec.inspection, Exponential)
            ):
                raise ValueError("optimal cut-off needs exponential event and inspection laws")
            return theoretical_cutoff_exponential(
                n, spec.p, spec.event.rate, spec.inspection.rate
            )
        if self.kind == "undersmoothed":
            return float(spec.inspection.quantile(1.0 - 1.0 / math.sqrt(n)))
        m = min(self.tail, n)
        return float(ss.y[n - m])


@dataclass(frozen=True)
class McConfig:
    """Replicated-run description; replication k uses seed ``seed + k``."""

    spec: MixtureSpec
    n: int
    reps: int
    seed: int
    cutoff: CutoffRule
    studentization: str = "known-p"

    def __post_init__(self) -> None:
        _check_count("n", self.n, 1)
        _check_count("reps", self.reps, 1)
        _check_count("seed", self.seed, 0)
        if not (0.0 < self.spec.p < 1.0):
            raise ValueError("Monte Carlo centering needs 0 < p < 1")
        if self.studentization not in ("known-p", "plug-in"):
            raise ValueError("studentization must be 'known-p' or 'plug-in'")


@dataclass(frozen=True)
class McResult:
    """Retained per-replication statistics plus their summaries.

    retained + skipped = reps; a replication is skipped only when its
    threshold exceeds the largest inspection time.  Summary moments and KS
    distances are computed over the finite retained values (plug-in
    studentization can produce non-finite statistics; ``nonfinite`` counts
    them).
    """

    config: McConfig
    rep_index: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    skipped: int
    nonfinite: int
    mean_z1: float
    sd_z1: float
    mean_z2: float
    sd_z2: float
    ks_normal: float
    ks_half_normal: float

    @property
    def retained(self) -> int:
        return self.rep_index.size


def _mc_stat(config: McConfig, sample) -> tuple[float, float] | None:
    """(z1, z2) of one sample, or None when its threshold exceeds the
    largest inspection time."""
    ss = sort_with_concomitants(sample)
    x = config.cutoff.resolve(config.spec, ss)
    if x > ss.y[-1]:
        return None
    zz = z_stats(ss, x, p_true=config.spec.p, studentization=config.studentization)
    return zz.z1, zz.z2


def _moments(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return math.nan, math.nan
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if values.size > 1 else math.nan
    return mean, sd


def run_mc(config: McConfig, workers: int = 1) -> McResult:
    """Replicate the studentized tail statistics and summarize them.

    The result is identical for any worker count (see ``replicate``).
    """
    stats = replicate(
        partial(_mc_stat, config), config.spec, config.n, config.reps, config.seed, workers
    )
    kept = [k for k, zz in enumerate(stats) if zz is not None]
    rep_index = np.asarray(kept, dtype=np.int64)
    z1 = np.asarray([stats[k][0] for k in kept], dtype=float)
    z2 = np.asarray([stats[k][1] for k in kept], dtype=float)
    skipped = config.reps - len(kept)
    finite = np.isfinite(z1) & np.isfinite(z2)
    nonfinite = int(z1.size - np.count_nonzero(finite))
    f1, f2 = z1[finite], z2[finite]
    mean_z1, sd_z1 = _moments(f1)
    mean_z2, sd_z2 = _moments(f2)
    ks_normal = ks_distance(f1, "std-normal") if f1.size else math.nan
    ks_half_normal = ks_distance(f2, "half-normal") if f2.size else math.nan
    return McResult(
        config=config,
        rep_index=rep_index,
        z1=z1,
        z2=z2,
        skipped=skipped,
        nonfinite=nonfinite,
        mean_z1=mean_z1,
        sd_z1=sd_z1,
        mean_z2=mean_z2,
        sd_z2=sd_z2,
        ks_normal=ks_normal,
        ks_half_normal=ks_half_normal,
    )


@dataclass(frozen=True)
class ThinningConfig:
    """Replicated thinning-check description; replication k uses seed
    ``seed + k``.  Sensible expected tail sizes satisfy 5 <= target << n."""

    spec: MixtureSpec
    n: int
    target_means: tuple
    reps: int
    seed: int

    def __post_init__(self) -> None:
        _check_count("n", self.n, 1)
        _check_count("reps", self.reps, 1)
        _check_count("seed", self.seed, 0)
        targets = np.asarray(self.target_means, dtype=float)
        if targets.ndim != 1 or targets.size == 0:
            raise ValueError("target_means must be a nonempty 1-d sequence")
        if np.any(~np.isfinite(targets)) or np.any(targets <= 0) or np.any(targets > self.n):
            raise ValueError("each target mean must satisfy 0 < target <= n")
        object.__setattr__(self, "target_means", tuple(targets.tolist()))


@dataclass(frozen=True)
class ThinningStats:
    """Tail counts split by indicator value at one or more thresholds.

    ``n1[r, k]`` and ``n0[r, k]`` are the numbers of tail records of
    replication r at threshold k with indicator 1 and 0; in the sparse-tail
    limit they behave like independent Poisson counts with means
    (1 - p) * target and p * target.
    """

    n: int
    reps: int
    target_mean: np.ndarray
    threshold: np.ndarray
    n1: np.ndarray
    n0: np.ndarray
    mean_n1: np.ndarray
    mean_n0: np.ndarray
    var_over_mean_n1: np.ndarray
    var_over_mean_n0: np.ndarray
    corr: np.ndarray


def _tail_split(thresholds: np.ndarray, sample) -> np.ndarray:
    """Tail records with indicator 1 (row 0) and 0 (row 1) at each threshold."""
    in_tail = sample.y >= thresholds[:, None]
    ones = np.count_nonzero(in_tail & (sample.delta == 1), axis=1)
    return np.stack([ones, np.count_nonzero(in_tail, axis=1) - ones]).astype(np.int64)


def _ratio(var: np.ndarray, mean: np.ndarray) -> np.ndarray:
    return np.where(mean > 0, var / np.where(mean > 0, mean, 1.0), np.nan)


def thinning_check(config: ThinningConfig, workers: int = 1) -> ThinningStats:
    """Split the tail count by indicator value at thresholds calibrated to
    the requested expected tail sizes.

    Threshold k is the inspection quantile 1 - target/n, so the expected
    tail count there is exactly ``target`` (continuous inspection law).  The
    result is identical for any worker count (see ``replicate``).
    """
    n, reps = config.n, config.reps
    targets = np.asarray(config.target_means, dtype=float)
    thresholds = np.asarray(config.spec.inspection.quantile(1.0 - targets / n), dtype=float)
    rows = replicate(
        partial(_tail_split, thresholds), config.spec, n, reps, config.seed, workers
    )
    n1, n0 = np.stack(rows, axis=1)
    mean_n1 = n1.mean(axis=0)
    mean_n0 = n0.mean(axis=0)
    var_n1 = n1.var(axis=0, ddof=1) if reps > 1 else np.full(targets.size, np.nan)
    var_n0 = n0.var(axis=0, ddof=1) if reps > 1 else np.full(targets.size, np.nan)
    corr = np.empty(targets.size)
    for k in range(targets.size):
        s1 = float(np.std(n1[:, k]))
        s0 = float(np.std(n0[:, k]))
        if reps > 1 and s1 > 0 and s0 > 0:
            corr[k] = float(np.corrcoef(n1[:, k], n0[:, k])[0, 1])
        else:
            corr[k] = math.nan
    return ThinningStats(
        n=n,
        reps=reps,
        target_mean=targets,
        threshold=thresholds,
        n1=n1,
        n0=n0,
        mean_n1=mean_n1,
        mean_n0=mean_n0,
        var_over_mean_n1=_ratio(var_n1, mean_n1),
        var_over_mean_n0=_ratio(var_n0, mean_n0),
        corr=corr,
    )
