"""Independent numeric oracles used by the test suite.

Everything here recomputes expected values by a route different from the
package code: adaptive quadrature for moments, golden-section search for
argmins, an exact dynamic program (plus a brute enumerator) for
grid-constrained likelihood maxima, the literal max-min formula and a
record-by-record pooled pass for the shape-constrained fit, the studentized
tail statistics from their literal definitions on the sorted records, the
guarded cut-off argmin by full-length masks, the closed-form frequency of the
probe's saturation event, the closed-form chances of the thinning check's two
tail cells, and boundary-crossing dynamic programs for the running maximum of
a Bernoulli walk's means, with one chance for every step or one per step.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from curest import CutoffChoice
from curest.model import _check_count
from curest.npmle import NpmleFit, _as_indicator


def maxmin_brute(deltas) -> NpmleFit:
    """Literal max-min evaluation, cubic time; the reference oracle.

    Window means are formed as integer sum over integer count, the same
    single float division the pooled pass performs, so the two routes agree
    bit for bit, not just within rounding.
    """
    d = _as_indicator(deltas)
    n = d.size
    prefix = np.concatenate(([0], np.cumsum(d)))
    fhat = np.empty(n)
    for i in range(n):
        best = -math.inf
        for h in range(i + 1):
            worst = math.inf
            for k in range(i, n):
                mean = (prefix[k + 1] - prefix[h]) / (k - h + 1)
                if mean < worst:
                    worst = mean
            if worst > best:
                best = worst
        fhat[i] = best
    return NpmleFit(fhat=fhat)


def pava_by_record(deltas) -> NpmleFit:
    """Pool adjacent violators record by record, the reference pass.

    Every record is pushed as its own (value, 1) block, then pooled with the
    blocks below while the one under it has a mean >= its own, by the same
    exact integer test and the same single division sum/count as
    ``npmle_pava``, which forms these blocks without the push and pop.
    """
    d = _as_indicator(deltas)
    sums: list[int] = []
    counts: list[int] = []
    for v in d.tolist():
        s, c = v, 1
        while sums and sums[-1] * c >= s * counts[-1]:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    return NpmleFit(fhat=np.repeat(np.divide(sums, counts), counts))


def z_stats_by_definition(ss, x_n: float, p_true: float, studentization: str):
    """(z1, z2, tail count) at cut-off ``x_n`` from the sorted records
    themselves: p1 is the tail's integer count of ones over its count, and
    p2 the largest such mean over the distinct thresholds up to the
    cut-off's own, the smallest inspection time at or above ``x_n``; both
    are then centered and scaled as ``z_stats`` documents."""
    y, ones = ss.y, ss.delta.astype(np.int64)

    def tail_mean(t):
        tail = y >= t
        return int(ones[tail].sum()) / int(np.count_nonzero(tail))

    cut = y[y >= x_n].min()
    m = int(np.count_nonzero(y >= cut))
    p1 = tail_mean(cut)
    p2 = max(tail_mean(t) for t in np.unique(y[y <= cut]))
    if studentization == "known-p":
        scale = math.sqrt(p_true * (1.0 - p_true))
    else:
        plug = 1.0 - p2
        scale = math.sqrt(plug * (1.0 - plug))
    center = 1.0 - p_true

    def scaled(num):
        if scale > 0.0:
            return num / scale
        return math.copysign(math.inf, num) if num != 0.0 else math.nan

    root_m = math.sqrt(m)
    return scaled(root_m * (p1 - center)), scaled(root_m * (p2 - center)), m


def select_cutoff_reference(curve, guard: int = 5) -> CutoffChoice:
    """Guarded argmin by full-length masks: an entry is a candidate when its
    tail count reaches ``guard`` and its variance term is positive; assumes
    nothing about the order of the tail counts."""
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


def event_indicator_mean(p: float, event_rate: float, inspect_rate: float) -> float:
    """E[indicator] = (1-p) * integral of F dG by adaptive quadrature."""
    lam, mu = event_rate, inspect_rate
    val, err = quad(lambda y: (1.0 - math.exp(-lam * y)) * mu * math.exp(-mu * y),
                    0.0, np.inf)
    assert err < 1e-10
    return (1.0 - p) * val


def top_order_statistic_cdf_mean(n: int, event_rate: float, inspect_rate: float) -> float:
    """E[F(max of n inspection draws)] by quadrature.

    Substituting t = G(y) maps the max density to n t^(n-1) on (0, 1) and
    the event CDF to 1 - (1-t)^(lam/mu), so the infinite-range integral
    becomes a finite Beta-type one that quadrature nails.
    """
    ratio = event_rate / inspect_rate
    val, err = quad(lambda t: (1.0 - (1.0 - t) ** ratio) * n * t ** (n - 1), 0.0, 1.0)
    assert err < 1e-9
    return val


def saturation_probability(n: int, p: float, event_rate: float, inspect_rate: float) -> float:
    """P(indicator at the largest of n inspection times is 1) for untied data
    with F = Exp(a) and G = Exp(b): (1 - p) E[F(Y_(n))] =
    (1 - p)(1 - Gamma(n+1) Gamma(1 + a/b) / Gamma(n+1 + a/b)).

    With t = G(Y_(n)), which has density n t^(n-1), e^(-a Y_(n)) is
    (1 - t)^(a/b), and its mean is n B(n, 1 + a/b): the Beta integral in
    closed form, where ``top_order_statistic_cdf_mean`` takes it by
    quadrature.  The gamma ratio is taken in logs."""
    r = event_rate / inspect_rate
    log_ratio = math.lgamma(n + 1) + math.lgamma(1.0 + r) - math.lgamma(n + 1 + r)
    return (1.0 - p) * -math.expm1(log_ratio)


def thinning_cell_probabilities(x: float, p: float, event_rate: float, inspect_rate: float):
    """(q1, q0): the chances that one record lies in the tail y >= x with
    indicator 1 and with indicator 0, for F = Exp(a) and G = Exp(b).

    q1 = (1 - p) P(Y >= x, T <= Y) = (1 - p)(e^(-bx) - b/(a+b) e^(-(a+b)x)),
    the integral of (1 - e^(-ay)) b e^(-by) over y >= x, and q0 is the rest
    of the tail chance e^(-bx)."""
    a, b = event_rate, inspect_rate
    tail = math.exp(-b * x)
    q1 = (1.0 - p) * (tail - b / (a + b) * math.exp(-(a + b) * x))
    return q1, tail - q1


def running_mean_max_cdf(points, n: int, m: int, q: float, strict: bool = False) -> np.ndarray:
    """P(max over k = m..n of S_k / k <= c) for each rational c in
    ``points``, where S_k counts the ones among k iid Bernoulli(q)
    indicators; with ``strict``, P(max < c).  At n = m it is the
    Binomial(m, q) CDF of m c.

    This is the law of the running-maximum tail average p2 at a tail of m
    records when the indicators are iid and independent of the untied
    inspection times, read from the top: S_k is the number of ones among
    the k largest times.  A forward dynamic program over k carries the law
    of S_k on the paths that have stayed at or under the boundary so far
    and zeroes the states above it (Noe 1972; Durbin 1973).  The boundary
    S_k <= c k is the integer bound floor(a k / b) for c = a / b, and
    S_k < c k is ceil(a k / b) - 1, so no state is kept or dropped by a
    rounding.  The states of all points advance together."""
    fracs = [Fraction(c) for c in points]
    a = np.array([f.numerator for f in fracs], dtype=np.int64)[:, None]
    b = np.array([f.denominator for f in fracs], dtype=np.int64)[:, None]
    states = np.arange(n + 1)

    def bound(k):
        return (a * k - 1) // b if strict else (a * k) // b

    law = np.zeros((len(fracs), n + 1))
    law[:, : m + 1] = [math.comb(m, s) * q**s * (1.0 - q) ** (m - s) for s in range(m + 1)]
    law[:, : m + 1] *= states[: m + 1] <= bound(m)
    for k in range(m + 1, n + 1):
        # Only states 0..k can be reached after k steps.
        law[:, 1 : k + 1] = law[:, 1 : k + 1] * (1.0 - q) + law[:, :k] * q
        law[:, 0] *= 1.0 - q
        law[:, : k + 1] *= states[: k + 1] <= bound(k)
    return law.sum(axis=1)


def conditional_running_mean_max_cdf(points, q, opens, start, strict: bool = False) -> np.ndarray:
    """P(p2 <= c) for each row r, with c the rational ``points[r]``, when
    the indicators of row r's n sorted records are independent with chances
    ``q[r]`` (Poisson-binomial); with ``strict``, P(p2 < c).  p2 is the
    largest tail mean at an opening up to the cut-off's: the openings are
    the positions g marked in ``opens[r]`` with g <= ``start[r]``.

    This is the law of run_mc's p2 given the inspection times y, with
    q_i = (1 - p) F(y_i).  As in ``running_mean_max_cdf``, a forward
    dynamic program reads the records from the top, carries the law of the
    count S_k of ones among the k largest, and zeroes the states above the
    integer boundary, here only at k = n - g for an opening g up to the
    cut-off's, so a tie group is checked once, with all its records in.
    The rows advance together."""
    fracs = [Fraction(c) for c in points]
    a = np.array([f.numerator for f in fracs], dtype=np.int64)
    b = np.array([f.denominator for f in fracs], dtype=np.int64)
    rows, n = q.shape
    states = np.arange(n + 1)[:, None]
    checked = opens & (np.arange(n) <= np.asarray(start)[:, None])
    # law[s, r]: the chance of row r's paths at s ones that stayed under
    # the boundary so far.
    law = np.zeros((n + 1, rows))
    law[0] = 1.0
    for k in range(1, n + 1):
        qk = q[:, n - k]
        up = law[:k] * qk
        law[:k] *= 1.0 - qk
        law[1 : k + 1] += up
        # The largest state kept: the boundary's where it is checked.
        bound = (a * k - 1) // b if strict else (a * k) // b
        law[: k + 1] *= states[: k + 1] <= np.where(checked[:, n - k], bound, k)
    return law.sum(axis=0)


def mse_profile_by_quadrature(x: float, n: int, p: float,
                              event_rate: float, inspect_rate: float) -> float:
    """Variance + squared-bias profile from its defining integrals."""
    lam, mu = event_rate, inspect_rate
    gbar = math.exp(-mu * x)
    tail_int, err = quad(lambda y: math.exp(-lam * y) * mu * math.exp(-mu * y),
                         x, np.inf, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    bias = (1.0 - p) * tail_int / gbar
    return p * (1.0 - p) / (n * gbar) + bias * bias


def golden_argmin(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section argmin of a scalar function on [lo, hi]."""
    res = minimize_scalar(fn, bracket=(lo, 0.5 * (lo + hi), hi),
                          method="golden", options={"xtol": tol})
    return float(res.x)


def golden_argmin_hp(fn, lo, hi, tol: float = 1e-12) -> float:
    """Golden-section argmin in 50-digit arithmetic.

    Double precision limits any argmin search to about sqrt(eps) * |x|
    because the objective is flat to within rounding noise near the minimum;
    evaluating fn on mpmath floats removes that floor, so comparisons at
    1e-8 test the value under study rather than the arithmetic.
    """
    with mpmath.workdps(50):
        invphi = (mpmath.sqrt(5) - 1) / 2
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = fn(c), fn(d)
        while b - a > tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fn(d)
        return float((a + b) / 2)


def optimal_cutoff_hp(n: int, p: float, event_rate: float, inspect_rate: float):
    """The closed-form optimal cut-off, log(arg) / (mu + 2 lam) clamped at 0
    with arg = 2 lam (1 - p) mu n / (p (lam + mu)^2), in 60-digit arithmetic,
    where no rate overflows or underflows; returned as an mpmath float, so a
    value past the largest double stays visible."""
    with mpmath.workdps(60):
        lam, mu, p = mpmath.mpf(event_rate), mpmath.mpf(inspect_rate), mpmath.mpf(p)
        arg = 2 * lam * (1 - p) * mu * n / (p * (lam + mu) ** 2)
        return mpmath.log(arg) / (mu + 2 * lam) if arg > 1 else mpmath.mpf(0)


def _term(delta: int, v: float) -> float:
    # 0*log 0 = 0 convention; impossible configurations go to -inf
    if delta == 1:
        return math.log(v) if v > 0.0 else -math.inf
    return math.log1p(-v) if v < 1.0 else -math.inf


def grid_loglik_max_dp(deltas, cap: float, step: float = 0.02) -> float:
    """Exact max of the monotone-vector log likelihood over a value grid.

    Dynamic program over positions: best(i, k) = term(i, grid[k]) plus the
    best over grid indices <= k at position i-1.  Returns the same maximum a
    full enumeration of monotone grid vectors would.
    """
    grid = [round(j * step, 10) for j in range(int(round(1.0 / step)) + 1)]
    grid = [v for v in grid if v <= cap + 1e-12]
    if not grid:
        grid = [0.0]
    best = [_term(deltas[0], v) for v in grid]
    for d in deltas[1:]:
        prefix = -math.inf
        nxt = []
        for k, v in enumerate(grid):
            prefix = max(prefix, best[k])
            nxt.append(_term(d, v) + prefix)
        best = nxt
    return max(best)


def grid_loglik_max_brute(deltas, cap: float, step: float) -> float:
    """Brute enumeration of all monotone grid vectors; cross-checks the DP."""
    grid = [round(j * step, 10) for j in range(int(round(1.0 / step)) + 1)]
    grid = [v for v in grid if v <= cap + 1e-12]
    best = -math.inf
    for combo in itertools.combinations_with_replacement(grid, len(deltas)):
        best = max(best, sum(_term(d, v) for d, v in zip(deltas, combo)))
    return best


def random_feasible_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random nondecreasing vector in [0,1]; occasionally hits 0/1 exactly."""
    vals = np.sort(rng.uniform(0.0, 1.0, size=n))
    if rng.uniform() < 0.2:
        k = rng.integers(0, n + 1)
        vals[:k] = 0.0
    if rng.uniform() < 0.2:
        k = rng.integers(0, n + 1)
        if k > 0:
            vals[-k:] = 1.0
    return vals
