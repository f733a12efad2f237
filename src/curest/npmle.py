"""Shape-constrained MLE of the event-time CDF from current-status data.

With indicators ordered by inspection time, the Bernoulli log likelihood
``sum(d_i log F_i + (1 - d_i) log(1 - F_i))`` is maximized over nondecreasing
vectors by pooling adjacent violators; the fitted value at position i also
equals the max-min of window means ``max_{h<=i} min_{k>=i} mean(d[h..k])``.
The pooled pass is implemented here; the tests check it against a literal
cubic max-min evaluation.

The fit is also the backbone of the profile likelihood in the cure fraction:
capping the fitted CDF at ``1 - p`` and rescoring gives the constrained
maximum for that ``p``, which is flat on an interval, so the likelihood alone
cannot pick a unique cure estimate.  ``inconsistency_probe`` measures how
often the fitted CDF reaches 1 at the largest inspection time, the event that
collapses that interval to the single point 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import replicate_seeds
from .model import MixtureSpec, _check_count, _check_real, _check_reals, _check_type, _Draws, _indicators


@dataclass(frozen=True)
class NpmleFit:
    """Fitted nondecreasing CDF values at the sorted inspection times."""

    fhat: np.ndarray


@dataclass(frozen=True)
class CureArgmaxInterval:
    """Closed interval of cure values attaining the profile maximum."""

    lo: float
    hi: float


def npmle_pava(deltas) -> NpmleFit:
    """Pool adjacent violators in one left-to-right pass, linear time.

    Blocks carry integer (sum, count) pairs.  The open top block lives in
    two locals, the closed blocks below it on two lists, and their means
    rise strictly from bottom to top.  A zero joins the top block, which
    then pools with the closed blocks below while the one under it has a
    mean >= its own; the comparison is done in exact integer arithmetic.
    A one joins the top block only when that block is all ones, since a
    mean of 1 pools with nothing else; otherwise the top block is closed
    and a new block of that one opens.  These are the blocks a pass that
    pushes every record as its own block and pools it at once would form,
    and each fitted value is the single division sum/count.
    """
    d = _indicators(deltas)
    sums: list[int] = []
    counts: list[int] = []
    s = c = 0
    for v in d.tolist():
        if not v:
            c += 1
            while sums and sums[-1] * c >= s * counts[-1]:
                s += sums.pop()
                c += counts.pop()
        elif s == c:
            s += 1
            c += 1
        else:
            sums.append(s)
            counts.append(c)
            s = c = 1
    sums.append(s)
    counts.append(c)
    return NpmleFit(fhat=np.repeat(np.divide(sums, counts), counts))


def log_lik(f, deltas) -> float:
    """Bernoulli log likelihood of the indicator sequence under CDF values ``f``.

    Conventions: a zero-probability factor that is never hit contributes 0
    (0*log 0 = 0), while an indicator contradicting a degenerate value
    (delta=1 at f=0, or delta=0 at f=1) makes the whole sum -inf.  ``f`` must
    be nondecreasing within [0, 1]; anything else is a contract violation,
    not a -inf case.
    """
    d = _indicators(deltas)
    f = np.asarray(f, dtype=float)
    if f.shape != d.shape:
        raise ValueError("f and deltas must have equal length")
    _check_reals("f values", f, "unit")
    if np.any(np.diff(f) < 0.0):
        raise ValueError("f must be nondecreasing")
    event = f[d == 1]
    censored = f[d == 0]
    if np.any(event == 0.0) or np.any(censored == 1.0):
        return -math.inf
    return float(np.sum(np.log(event)) + np.sum(np.log1p(-censored)))


def profile_cure_loglik(fit: NpmleFit, deltas, p: float) -> float:
    """Constrained maximum log likelihood when the CDF may total at most 1 - p.

    Capping the unconstrained fit at 1 - p is exactly the constrained
    maximizer, so this evaluates the profile in the cure fraction without
    re-optimizing.  Nonincreasing in p.
    """
    p = _check_real("cure fraction p", p, "unit")
    return log_lik(np.minimum(fit.fhat, 1.0 - p), deltas)


def npmle_cure_argmax_interval(fit: NpmleFit) -> CureArgmaxInterval:
    """Cure values attaining the profile maximum: the interval [0, 1 - fhat[-1]].

    Degenerate at {0} exactly when the fitted CDF reaches 1, i.e. when the
    indicator at the largest inspection time is 1.
    """
    return CureArgmaxInterval(lo=0.0, hi=1.0 - float(fit.fhat[-1]))


class _ProbeSpan(_Draws):
    """The replications of one span of ``inconsistency_probe``: the
    indicator of the last record after the stable sort by inspection time,
    which is the last record holding the largest ``y``."""

    def __call__(self, seed: int) -> int:
        y = self.draw(seed)
        return int(self.delta[y.size - 1 - int(np.argmax(y[::-1]))])


def inconsistency_probe(
    spec: MixtureSpec, n: int, reps: int, seed: int, workers: int = 1
) -> float:
    """Monte Carlo frequency of samples whose fitted CDF reaches 1.

    That event is exactly {indicator at the largest inspection time is 1};
    when it happens the flat argmax interval for the cure fraction collapses
    to {0}, so this frequency measures how often the plain profile argmax is
    useless.  Replication k uses seed ``seed + k``; each span of
    replications reuses one workspace (see ``replicate_seeds``).
    """
    _check_type("inconsistency_probe", spec, MixtureSpec)
    n, seed = _check_count("n", n, 1), _check_count("seed", seed, 0)
    reps = _check_count("reps", reps, 1)
    return sum(replicate_seeds(partial(_ProbeSpan, spec, n), reps, seed, workers)) / reps
