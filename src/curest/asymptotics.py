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

from . import _band
from ._parallel import replicate_seeds
from .estimators import theoretical_cutoff_exponential
from .model import (
    Exponential,
    MixtureSpec,
    SortedSample,
    _check_choice,
    _check_count,
    _check_real,
    _check_reals,
    _check_type,
    _Draws,
    _sort_records,
    _tail_start,
)

_SQRT2 = math.sqrt(2.0)
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class ZStatPair:
    """Studentized tail statistics at one cut-off for one sample."""

    z1: float
    z2: float
    tail_count: int


def std_normal_cdf(x):
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + _erf(x / _SQRT2))
    return float(out) if out.ndim == 0 else out


def half_normal_cdf(x):
    """CDF of |Z| for standard normal Z: 2 Phi(x) - 1 on x >= 0, else 0."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0.0, 0.0, 2.0 * std_normal_cdf(x) - 1.0)
    return float(out) if out.ndim == 0 else out


_REFERENCES = {"std-normal": std_normal_cdf, "half-normal": half_normal_cdf}
_STUDENTIZATIONS = ("known-p", "plug-in")


def ks_distance(samples, reference: str) -> float:
    """Exact sup distance between the empirical CDF of ``samples``, a
    nonempty 1-d sequence of finite reals, and a reference law.

    Both one-sided gaps are checked at every jump of the empirical CDF, so
    the sup over the whole line is attained.  Mass below the half-normal
    support (negative samples) counts at full weight; nothing is clamped.
    """
    cdf = _REFERENCES[_check_choice("reference", reference, tuple(_REFERENCES))]
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be a nonempty 1-d sequence")
    if x.size == 0:
        raise ValueError("need at least one sample")
    x = np.sort(x)
    _check_reals("samples", x, "finite")
    ref = np.asarray(cdf(x), dtype=float)
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
    non-finite statistic rather than an exception.  p1 and p2 are the
    same doubles as the sample's ``trace`` holds at the cut-off, read off
    the positions of the ones by ``_tail_pair``, called exactly as
    ``run_mc``'s workspace calls it, without building the trace.
    """
    studentization = _check_choice("studentization", studentization, _STUDENTIZATIONS)
    p_true = _check_real("p_true", p_true, "inner")
    i = ss.tail_start(_check_real("cut-off", x_n, "nonnegative"))
    n, starts = ss.n, ss.group_start
    p1, p2 = _tail_pair(ss.delta.nonzero()[0], n, i, None if starts.size == n else starts, 0)
    z1, z2 = _z_pair(p1, p2, n - i, p_true, studentization)
    return ZStatPair(z1=z1, z2=z2, tail_count=n - i)


def _tail_pair(
    ones: np.ndarray,
    n: int,
    i: int,
    starts: np.ndarray | None,
    beyond: int,
) -> tuple[float, float]:
    """(p1, p2) at the tail that opens at position ``i``, a tie-group
    opening, of ``n`` sorted records whose ones sit at the ascending
    positions ``ones``; ``starts`` holds the tie-group openings, or is None
    when the records are untied.  ``beyond`` counts the ones above the
    records the caller holds, past i: 0 unless it holds only the bottom of
    the records.  It allocates only the counts and means it divides, one
    per one below i.

    Of the k ones, j lie below i, so p1 = (k - j) / (n - i).  p2 is the
    largest tail mean at an opening up to i.  An opening whose group holds
    no one has a mean no larger than the next opening's, which keeps its
    ones in a smaller tail, so p2 is the larger of p1 and, over the ones
    below i, the mean (k - r) / (n - g) at the opening g of the group of
    the one of 0-based rank r.  The first one of a group gives that group's
    mean and the later ones no more, so the order of records inside a tie
    group does not matter.  Each term is a whole number over a whole
    number, both exact in float64, so the max is the same double as
    ``trace`` gives.
    """
    k = ones.size + beyond
    j = int(ones.searchsorted(i))
    p1 = (k - j) / (n - i)
    if j == 0:
        return p1, p1
    below = ones[:j]
    if starts is not None:
        below = starts[starts.searchsorted(below, "right") - 1]
    means = np.arange(k, k - j, -1.0)
    means /= n - below
    return p1, max(p1, float(means.max()))


def _z_pair(
    p1: float, p2: float, m: int, p_true: float, studentization: str
) -> tuple[float, float]:
    """(z1, z2) from the tail average p1, its running maximum p2 and the
    tail count m (see ``z_stats``)."""
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
    return _scaled(root_m * (p1 - center)), _scaled(root_m * (p2 - center))


_CUTOFF_KINDS = ("optimal", "undersmoothed", "fixed-x", "fixed-tail")


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
    is never silently dropped.  Only ``fixed-tail`` reads the sample; the
    other kinds are set by the design and n alone, so ``McConfig`` resolves
    them once, at construction, and a run reads that one value.
    """

    kind: str
    x: float | None = None
    tail: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _check_choice("cut-off kind", self.kind, _CUTOFF_KINDS))
        uses = {"fixed-x": "x", "fixed-tail": "tail"}.get(self.kind)
        for name in ("x", "tail"):
            if name != uses and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} rule takes no {name}")
        if self.kind == "fixed-x":
            # A missing x is a ValueError, which the CLI reports as a usage
            # error; math.isfinite(None) would raise a TypeError.
            if self.x is None:
                raise ValueError("fixed-x rule needs a finite nonnegative x")
            object.__setattr__(self, "x", _check_real("fixed-x rule's x", self.x, "nonnegative"))
        if self.kind == "fixed-tail":
            object.__setattr__(self, "tail", _check_count("fixed-tail rule's tail", self.tail, 1))

    def resolve(self, spec: MixtureSpec, ss: SortedSample) -> float:
        return self._threshold(spec, ss.n, ss.y)

    def _threshold(self, spec: MixtureSpec, n: int, y: np.ndarray | None) -> float:
        """The threshold for a sample of ``n`` records; only ``fixed-tail``
        reads their sorted inspection times ``y``."""
        if self.kind == "fixed-x":
            return self.x
        if self.kind == "optimal":
            if not all(isinstance(law, Exponential) for law in (spec.event, spec.inspection)):
                raise ValueError("optimal cut-off needs exponential event and inspection laws")
            return theoretical_cutoff_exponential(n, spec.p, spec.event.rate, spec.inspection.rate)
        if self.kind == "undersmoothed":
            return spec.inspection.quantile(1.0 - 1.0 / math.sqrt(n))
        m = min(self.tail, n)
        return float(y[n - m])


@dataclass(frozen=True)
class McConfig:
    """Replicated-run description; replication k uses seed ``seed + k``.

    A cut-off that the design and n set (every kind but ``fixed-tail``) is
    resolved and checked here, once, so a design it refuses is refused
    before any replication runs, and the replications read the kept value.
    """

    spec: MixtureSpec
    n: int
    reps: int
    seed: int
    cutoff: CutoffRule
    studentization: str = "known-p"

    def __post_init__(self) -> None:
        _check_type("McConfig", self.spec, MixtureSpec)
        _check_type("McConfig", self.cutoff, CutoffRule)
        object.__setattr__(self, "n", _check_count("n", self.n, 1))
        object.__setattr__(self, "reps", _check_count("reps", self.reps, 1))
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))
        _check_real("cure fraction p", self.spec.p, "inner")
        studentization = _check_choice("studentization", self.studentization, _STUDENTIZATIONS)
        object.__setattr__(self, "studentization", studentization)
        rule, x_n = self.cutoff, None
        if rule.kind != "fixed-tail":
            x_n = _check_real("cut-off", rule._threshold(self.spec, self.n, None), "nonnegative")
        object.__setattr__(self, "_x_n", x_n)


@dataclass(frozen=True)
class McResult:
    """Retained per-replication statistics plus their summaries.

    retained + skipped = reps; a replication is skipped only when its
    threshold exceeds the largest inspection time.  Summary moments and KS
    distances are computed over the finite retained values (plug-in
    studentization can produce non-finite statistics; ``nonfinite`` counts
    them).
    """

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


class _McSpan(_Draws):
    """The replications of one span of ``run_mc``, drawn in one workspace.

    The workspace is the draw's alone, allocated once per span and reused
    by every replication: the ``(2, n)`` block, the indicators and the
    scratch; that is 2.25 doubles per record.  A replication runs four
    kernels on them: draw, band, sort and tail.  Once the indicators are
    drawn, row 0's event times are free, and ``_sort_records`` sorts the
    records there, with the indicators in their own bytes and the
    tie-group marks in the scratch.  A replication allocates the positions
    of its ones, and ``_tail_pair`` arrays as long as the count of ones
    below the cut-off; on the band path it also allocates a few arrays as
    long as the band or the count of buckets.  It takes the steps of
    ``simulate``, ``SortedSample``, ``CutoffRule.resolve`` and ``z_stats``
    on kernels called exactly as that chain calls them, so its (z1, z2) are
    the same doubles.  It reads the threshold that ``McConfig`` resolved and
    checked, and reads one off the sorted times only for ``fixed-tail``.

    At large n it sorts only the band of the records that can set p2
    (``_band.gather``, whose docstring holds the proof): the band's times
    and indicators are gathered to the front of row 0 and of their own
    bytes, and sorted there.  The records above the band are only counted,
    and p2 is the larger of the band's p2 and the floor that the count
    proves.  There n counts the records from the band's start, so the tail
    is empty, and the replication skipped, only when the band reaches the
    top and no record reaches the cut-off.
    """

    def __init__(self, config: McConfig) -> None:
        super().__init__(config.spec, config.n)
        self.config = config
        self.buckets = _band.buckets(config.spec.inspection, config.n)

    def __call__(self, seed: int) -> tuple[float, float] | None:
        config, opens, bits = self.config, self.scratch, self.delta
        y = self.draw(seed)
        ys = self.u[0]
        x, n, beyond, floor = config._x_n, config.n, 0, 0.0
        if self.buckets is not None:
            band = _band.gather(y, bits, ys, opens, x, config.cutoff.tail, *self.buckets)
            if band is None:
                return None
            # The band's times start row 0, and its indicators their own bytes.
            size, n, beyond, floor = band
            y = ys = ys[:size]
            bits, opens = bits[:size], opens[:size]
        untied = _sort_records(y, bits, ys, bits, opens)
        if x is None:
            x = config.cutoff._threshold(config.spec, n, ys)
        i = _tail_start(ys, x)
        if i == n:
            return None
        starts = None if untied else opens.nonzero()[0]
        p1, p2 = _tail_pair(bits.nonzero()[0], n, i, starts, beyond)
        return _z_pair(p1, max(p2, floor), n - i, config.spec.p, config.studentization)


def _moments(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return math.nan, math.nan
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if values.size > 1 else math.nan
    return mean, sd


def run_mc(config: McConfig, workers: int = 1) -> McResult:
    """Replicate the studentized tail statistics and summarize them.

    Each span of replications reuses one workspace (see ``_McSpan``), and
    the result is identical for any worker count (see ``replicate_seeds``).
    """
    stats = replicate_seeds(partial(_McSpan, config), config.reps, config.seed, workers)
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
        _check_type("ThinningConfig", self.spec, MixtureSpec)
        object.__setattr__(self, "n", _check_count("n", self.n, 1))
        object.__setattr__(self, "reps", _check_count("reps", self.reps, 1))
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))
        # An object array keeps each entry as given, so a bool or a string
        # reaches the check rather than numpy's cast to float.
        targets = np.asarray(self.target_means, dtype=object)
        if targets.ndim != 1 or targets.size == 0:
            raise ValueError("target_means must be a nonempty 1-d sequence")
        targets = tuple(_check_real("target mean", t, "positive") for t in targets)
        if any(t > self.n for t in targets):
            raise ValueError("each target mean must satisfy 0 < target <= n")
        object.__setattr__(self, "target_means", targets)


@dataclass(frozen=True)
class ThinningStats:
    """Tail counts split by indicator value at one or more thresholds.

    ``n1[r, k]`` and ``n0[r, k]`` are the numbers of tail records of
    replication r at threshold k with indicator 1 and 0; in the sparse-tail
    limit they behave like independent Poisson counts with means
    (1 - p) * target and p * target.
    """

    target_mean: np.ndarray
    threshold: np.ndarray
    n1: np.ndarray
    n0: np.ndarray
    mean_n1: np.ndarray
    mean_n0: np.ndarray
    var_over_mean_n1: np.ndarray
    var_over_mean_n0: np.ndarray
    corr: np.ndarray


class _ThinningSpan(_Draws):
    """The replications of one span of ``thinning_check``: the tail records
    with indicator 1 (row 0) and 0 (row 1) at each threshold, counted with
    the draw's scratch as the tail mask."""

    def __init__(self, spec: MixtureSpec, n: int, thresholds: np.ndarray) -> None:
        super().__init__(spec, n)
        self.thresholds = thresholds.tolist()

    def __call__(self, seed: int) -> np.ndarray:
        y, mask = self.draw(seed), self.scratch
        counts = np.empty((2, len(self.thresholds)), dtype=np.int64)
        for k, x in enumerate(self.thresholds):
            np.greater_equal(y, x, out=mask)
            tail = np.count_nonzero(mask)
            np.logical_and(mask, self.delta, out=mask)
            ones = np.count_nonzero(mask)
            counts[:, k] = ones, tail - ones
        return counts


def thinning_check(config: ThinningConfig, workers: int = 1) -> ThinningStats:
    """Split the tail count by indicator value at thresholds calibrated to
    the requested expected tail sizes.

    Threshold k is the inspection quantile 1 - target/n, so the expected
    tail count there is exactly ``target`` (continuous inspection law).
    Each span of replications reuses one workspace (see ``_ThinningSpan``),
    and the result is identical for any worker count (see
    ``replicate_seeds``).
    """
    n, reps = config.n, config.reps
    targets = np.asarray(config.target_means, dtype=float)
    thresholds = np.asarray(config.spec.inspection.quantile(1.0 - targets / n), dtype=float)
    per_span = partial(_ThinningSpan, config.spec, n, thresholds)
    rows = replicate_seeds(per_span, reps, config.seed, workers)
    cells = np.stack(rows, axis=1)  # (2, reps, targets): n1, then n0
    n1, n0 = cells
    mean = cells.mean(axis=1)
    var = cells.var(axis=1, ddof=1) if reps > 1 else np.full(mean.shape, np.nan)
    var_over_mean = np.where(mean > 0, var / np.where(mean > 0, mean, 1.0), np.nan)
    corr = np.empty(targets.size)
    for k in range(targets.size):
        # A column's variance is 0 exactly when it is constant, and NaN
        # with one replication; either leaves the correlation undefined.
        if var[0, k] > 0 and var[1, k] > 0:
            corr[k] = float(np.corrcoef(n1[:, k], n0[:, k])[0, 1])
        else:
            corr[k] = math.nan
    return ThinningStats(
        target_mean=targets,
        threshold=thresholds,
        n1=n1,
        n0=n0,
        mean_n1=mean[0],
        mean_n0=mean[1],
        var_over_mean_n1=var_over_mean[0],
        var_over_mean_n0=var_over_mean[1],
        corr=corr,
    )
