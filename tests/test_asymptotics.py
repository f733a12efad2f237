"""Studentized tail statistics, reference CDFs, replicated checks."""

import concurrent.futures
import itertools
import math
import statistics
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from curest import (
    CurrentStatusSample,
    CutoffChoice,
    Exponential,
    McConfig,
    MixtureSpec,
    TabulatedQuantile,
    half_normal_cdf,
    ks_distance,
    run_mc,
    simulate,
    sort_with_concomitants,
    std_normal_cdf,
    ThinningConfig,
    choice_at_index,
    cv_m2_curve,
    inconsistency_probe,
    npmle_pava,
    profile_cure_loglik,
    select_cutoff,
    theoretical_cutoff_exponential,
    theoretical_mn,
    thinning_check,
    trace,
    z_stats,
)
from curest.asymptotics import CutoffRule, _McSpan, _tail_pair
from curest.model import _Draws

from oracles import running_mean_max_cdf, thinning_cell_probabilities


def sorted_toy(deltas, ys=None):
    deltas = np.asarray(deltas)
    if ys is None:
        ys = np.arange(1.0, deltas.size + 1.0)
    return sort_with_concomitants(CurrentStatusSample(delta=deltas, y=np.asarray(ys)))


def test_z_stats_balanced_tail_is_zero():
    zz = z_stats(sorted_toy([1, 0, 1, 0]), 0.5, p_true=0.5)
    assert zz.z1 == 0.0 and zz.z2 == 0.0
    assert zz.tail_count == 4


def test_z_stats_hand_value():
    zz = z_stats(sorted_toy([1, 1, 0]), 0.5, p_true=0.3)
    expect = math.sqrt(3) * (2 / 3 - 0.7) / math.sqrt(0.21)
    assert zz.z1 == pytest.approx(expect, abs=1e-12)
    assert zz.z1 == pytest.approx(-0.1259881576697424, abs=1e-12)
    assert zz.z2 == zz.z1  # running max equals the tail average here


def test_z_stats_threshold_inclusive():
    zz = z_stats(sorted_toy([1, 0, 1]), 2.0, p_true=0.3)
    assert zz.tail_count == 2  # records with y >= 2 stay in the tail


def test_z2_dominates_z1():
    rng = np.random.default_rng(123)
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    for seed in range(15):
        ss = sort_with_concomitants(simulate(spec, 120, seed=seed))
        x = float(rng.uniform(0.0, ss.y[-1]))
        zz = z_stats(ss, x, p_true=0.3)
        assert zz.z2 >= zz.z1


def test_z_stats_plug_in_degenerate_scale():
    zz = z_stats(sorted_toy([1, 1, 1]), 0.5, p_true=0.3, studentization="plug-in")
    assert zz.z1 == math.inf and zz.z2 == math.inf


def test_z_stats_error_cases():
    ss = sorted_toy([1, 0, 1])
    with pytest.raises(ValueError, match="tail is empty"):
        z_stats(ss, 99.0, p_true=0.3)
    with pytest.raises(ValueError):
        z_stats(ss, 1.0, p_true=0.0)
    with pytest.raises(ValueError):
        z_stats(ss, 1.0, p_true=0.3, studentization="other")
    with pytest.raises(ValueError):
        z_stats(ss, -1.0, p_true=0.3)


def tail_pair(deltas, i, starts=None):
    ones = np.flatnonzero(deltas)
    return _tail_pair(ones, len(deltas), i, None if starts is None else np.asarray(starts))


def test_tail_pair_hand_cases():
    assert tail_pair([0, 0, 0], 1) == (0.0, 0.0)
    assert tail_pair([1, 1, 1], 1) == (1.0, 1.0)
    # No one lies below the cut-off; the zero before it is no maximum.
    assert tail_pair([0, 1, 0, 1], 1) == (2 / 3, 2 / 3)
    assert tail_pair([1, 0, 1], 0) == (2 / 3, 2 / 3)
    assert tail_pair([1], 0) == (1.0, 1.0)
    assert tail_pair([0], 0) == (0.0, 0.0)
    # p1 is larger than every mean below the cut-off.
    assert tail_pair([1, 0, 0, 1, 1], 3) == (1.0, 1.0)
    # The tie group at 1..3 holds zeros and ones and the maximum 2/5, in
    # whatever order its records come; without the group lookup the ones
    # would give 2/4 or 2/3.
    for group in ([0, 1, 1], [1, 0, 1], [1, 1, 0]):
        assert tail_pair([0, *group, 0, 0], 5, [0, 1, 4, 5]) == (0.0, 2 / 5)


def test_reference_cdfs():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert half_normal_cdf(0.0) == 0.0
    assert half_normal_cdf(-1.0) == 0.0
    for x in np.linspace(0.0, 5.0, 41):
        assert abs(half_normal_cdf(x) - (2.0 * std_normal_cdf(x) - 1.0)) <= 1e-12


def test_std_normal_cdf_against_high_precision():
    x = np.linspace(-8.0, 8.0, 2001)
    got = std_normal_cdf(x)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.ncdf(v)) for v in x])
    assert np.max(np.abs(got - want)) <= 4.5e-16


def test_half_normal_moments_by_quadrature():
    density = lambda x: 2.0 * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    mean, err = quad(lambda x: x * density(x), 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    second, err = quad(lambda x: x * x * density(x), 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-9
    assert mean == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-10)
    assert mean == pytest.approx(0.79788, abs=5e-6)
    assert second - mean * mean == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-9)
    assert second - mean * mean == pytest.approx(0.36338, abs=5e-6)


def test_ks_single_sample_at_median():
    assert ks_distance([0.0], "std-normal") == pytest.approx(0.5, abs=1e-12)


def test_ks_extreme_mass():
    assert ks_distance([-10.0, -10.0, -10.0], "std-normal") >= 0.999
    # negative values sit below the half-normal support and count fully
    assert ks_distance([-1.0], "half-normal") == pytest.approx(1.0, abs=1e-12)


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_distance([], "std-normal")
    with pytest.raises(ValueError):
        ks_distance([0.1, math.nan], "std-normal")
    with pytest.raises(ValueError):
        ks_distance([0.1], "uniform")


def test_ks_critical_value_battery():
    # exact null probability P(D_2000 <= 1.63/sqrt(2000)) is 0.9904, so at
    # least 99% of seeded draws from the reference itself should pass
    crit = 1.63 / math.sqrt(2000)
    rng = np.random.default_rng(20260814)
    below_normal = 0
    below_half = 0
    runs = 400
    for _ in range(runs):
        below_normal += ks_distance(rng.standard_normal(2000), "std-normal") <= crit
        below_half += ks_distance(np.abs(rng.standard_normal(2000)), "half-normal") <= crit
    assert below_normal >= 396
    assert below_half >= 396


def test_run_mc_single_replication_matches_z_stats():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    cfg = McConfig(spec=spec, n=200, reps=1, seed=17, cutoff=CutoffRule(kind="fixed-x", x=1.0))
    res = run_mc(cfg)
    ss = sort_with_concomitants(simulate(spec, 200, seed=17))
    zz = z_stats(ss, 1.0, p_true=0.3)
    assert res.retained == 1 and res.skipped == 0
    assert res.z1[0] == zz.z1 and res.z2[0] == zz.z2


def test_run_mc_counts_and_moments():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    cfg = McConfig(
        spec=spec, n=150, reps=40, seed=60, cutoff=CutoffRule(kind="fixed-tail", tail=12)
    )
    res = run_mc(cfg)
    assert res.retained + res.skipped == cfg.reps
    assert res.skipped == 0  # a fixed-tail rule always leaves a nonempty tail
    assert res.mean_z1 == pytest.approx(float(np.mean(res.z1)), abs=1e-12)
    assert res.sd_z1 == pytest.approx(float(np.std(res.z1, ddof=1)), abs=1e-12)


def test_run_mc_skips_unreachable_threshold():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    cfg = McConfig(
        spec=spec, n=30, reps=5, seed=2, cutoff=CutoffRule(kind="fixed-x", x=1e6)
    )
    res = run_mc(cfg)
    assert res.retained == 0 and res.skipped == 5
    assert math.isnan(res.mean_z1) and math.isnan(res.ks_normal)


def test_run_mc_worker_count_is_invisible():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    cfg = McConfig(
        spec=spec, n=300, reps=37, seed=5, cutoff=CutoffRule(kind="fixed-tail", tail=12)
    )
    r1 = run_mc(cfg, workers=1)
    r2 = run_mc(cfg, workers=3)
    assert np.array_equal(r1.z1, r2.z1) and np.array_equal(r1.z2, r2.z2)
    assert r1.skipped == r2.skipped and np.array_equal(r1.rep_index, r2.rep_index)


@pytest.mark.parametrize("workers", [0, -3, 2.7])
def test_run_mc_refuses_a_worker_count_that_is_not_a_positive_integer(workers):
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    cfg = McConfig(spec=spec, n=30, reps=3, seed=0, cutoff=CutoffRule(kind="fixed-tail", tail=5))
    with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
        run_mc(cfg, workers=workers)


def test_cutoff_rule_validation_and_resolution():
    with pytest.raises(ValueError):
        CutoffRule(kind="nope")
    with pytest.raises(ValueError):
        CutoffRule(kind="fixed-x")
    with pytest.raises(ValueError):
        CutoffRule(kind="fixed-tail", tail=0)
    for kind, fields, unused in [
        ("optimal", {"x": 1.0}, "x"),
        ("optimal", {"tail": 3}, "tail"),
        ("undersmoothed", {"x": 1.0}, "x"),
        ("fixed-x", {"x": 1.0, "tail": 3}, "tail"),
        ("fixed-tail", {"x": 1.0, "tail": 3}, "x"),
    ]:
        with pytest.raises(ValueError, match=f"{kind} rule takes no {unused}"):
            CutoffRule(kind=kind, **fields)
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    ss = sort_with_concomitants(simulate(spec, 100, seed=1))
    under = CutoffRule(kind="undersmoothed").resolve(spec, ss)
    assert under == pytest.approx(spec.inspection.quantile(1.0 - 0.1), rel=1e-12)
    tail_rule = CutoffRule(kind="fixed-tail", tail=10)
    assert tail_rule.resolve(spec, ss) == ss.y[90]
    clamped = CutoffRule(kind="fixed-tail", tail=1000)
    assert clamped.resolve(spec, ss) == ss.y[0]
    mixed = MixtureSpec(
        p=0.3, event=TabulatedQuantile.point_mass(1.0), inspection=Exponential(1.0)
    )
    with pytest.raises(ValueError):
        CutoffRule(kind="optimal").resolve(mixed, ss)


def test_mc_config_validation():
    spec = MixtureSpec(p=0.0, event=Exponential(2.0), inspection=Exponential(1.0))
    with pytest.raises(ValueError):
        McConfig(spec=spec, n=10, reps=5, seed=0, cutoff=CutoffRule(kind="fixed-x", x=1.0))
    # The optimal cut-off depends on the design alone, so it is refused here.
    mixed = MixtureSpec(
        p=0.3, event=TabulatedQuantile.point_mass(1.0), inspection=Exponential(1.0)
    )
    with pytest.raises(ValueError, match="optimal cut-off needs exponential"):
        McConfig(spec=mixed, n=10, reps=5, seed=0, cutoff=CutoffRule(kind="optimal"))


def test_mc_config_refuses_an_unknown_studentization():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    with pytest.raises(ValueError, match="studentization must be 'known-p' or 'plug-in'"):
        McConfig(spec, 10, 5, 0, CutoffRule(kind="fixed-x", x=1.0), studentization="t")


class _InlinePool:
    """A ``ProcessPoolExecutor`` stand-in running each span in this process,
    so a patched method is seen by every span."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "rule, resolutions",
    [
        (CutoffRule("fixed-x", x=0.5), 1),
        (CutoffRule("optimal"), 1),
        (CutoffRule("undersmoothed"), 1),
        (CutoffRule("fixed-tail", tail=7), 11),
    ],
)
def test_a_run_resolves_a_cutoff_set_by_the_design_once(monkeypatch, rule, resolutions, workers):
    # 11 replications: one span for one worker, 11 spans for three.
    calls = []
    threshold = CutoffRule._threshold

    def counted(self, *args):
        calls.append(self.kind)
        return threshold(self, *args)

    monkeypatch.setattr(CutoffRule, "_threshold", counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    res = run_mc(McConfig(spec, 100, 11, 3, rule), workers=workers)
    assert res.retained + res.skipped == 11
    assert calls == [rule.kind] * resolutions


def test_a_negative_inspection_table_is_refused_at_the_first_draw():
    # The undersmoothed cut-off of this table is negative, but the draw's
    # check of the inspection times comes first, as in the public chain.
    spec = MixtureSpec(0.3, Exponential(2.0), TabulatedQuantile((0.0, 1.0), (-2.0, -1.0)))
    config = McConfig(spec, 50, 3, 0, CutoffRule("undersmoothed"))
    with pytest.raises(ValueError, match="inspection times must be finite and nonnegative"):
        run_mc(config)


def _mc_config(**change):
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    params = dict(spec=spec, n=100, reps=5, seed=0, cutoff=CutoffRule(kind="fixed-x", x=1.0))
    return McConfig(**{**params, **change})


def _thinning_config(**change):
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    params = dict(spec=spec, n=100, target_means=[10.0], reps=5, seed=0)
    return ThinningConfig(**{**params, **change})


@pytest.mark.parametrize(
    "build, name, value",
    [
        (lambda **kw: CutoffRule(kind="fixed-tail", **kw), "tail", 2.5),
        (lambda **kw: CutoffRule(kind="fixed-tail", **kw), "tail", 2.0),
        (lambda **kw: CutoffRule(kind="fixed-tail", **kw), "tail", math.nan),
        (_mc_config, "n", math.nan),
        (_mc_config, "n", 100.0),
        (_mc_config, "reps", 2.5),
        (_mc_config, "seed", -1),
        (_mc_config, "seed", 0.5),
        (_thinning_config, "n", math.nan),
        (_thinning_config, "reps", 2.5),
        (_thinning_config, "seed", -1),
    ],
)
def test_integer_parameters_refuse_other_values(build, name, value):
    # A float is never read as an integer, not even a whole one, and a
    # count or seed below its least value is refused too.
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer of at least"):
        build(**{name: value})


_SPEC = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))


def _sorted_draw():
    return sort_with_concomitants(simulate(_SPEC, 50, 0))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: simulate(_SPEC, True, 0), "n"),
        (lambda: simulate(_SPEC, 10, True), "seed"),
        (lambda: _mc_config(n=True), "n"),
        (lambda: _mc_config(reps=True), "reps"),
        (lambda: _mc_config(seed=False), "seed"),
        (lambda: _thinning_config(reps=True), "reps"),
        (lambda: _thinning_config(seed=False), "seed"),
        (lambda: CutoffRule("fixed-tail", tail=True), "tail"),
        (lambda: CutoffChoice("x", True, 1.0), "index"),
        (lambda: CutoffChoice("x", 1, 1.0, True), "guard"),
        (lambda: select_cutoff(cv_m2_curve(_sorted_draw()), guard=True), "guard"),
        (lambda: choice_at_index(trace(_sorted_draw()), True), "index"),
        (lambda: inconsistency_probe(_SPEC, True, 3, 0), "n"),
        (lambda: inconsistency_probe(_SPEC, 10, 3, False), "seed"),
        (lambda: run_mc(_mc_config(), workers=True), "workers"),
    ],
)
def test_a_bool_is_not_a_count(call, name):
    # bool is a subclass of int, so True would otherwise be read as 1.
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer of at least \d+, got (True|False)$"):
        call()


@pytest.mark.parametrize(
    "build, field, value",
    [
        (_mc_config, "spec", None),
        (_mc_config, "spec", (0.3,)),
        (_mc_config, "cutoff", "optimal"),
        (_thinning_config, "spec", (0.3,)),
    ],
)
def test_configs_refuse_a_spec_or_cutoff_of_another_type(build, field, value):
    wanted = "MixtureSpec" if field == "spec" else "CutoffRule"
    shown = type(value).__name__
    with pytest.raises(TypeError, match=rf"Config needs a {wanted}, got {shown}$"):
        build(**{field: value})


@pytest.mark.parametrize(
    "call, owner, shown",
    [
        (lambda: simulate((0.3,), 10, 0), "simulate", "tuple"),
        (lambda: inconsistency_probe(None, 10, 3, 0), "inconsistency_probe", "NoneType"),
    ],
)
def test_simulate_and_the_probe_refuse_a_spec_of_another_type(call, owner, shown):
    with pytest.raises(TypeError, match=rf"^{owner} needs a MixtureSpec, got {shown}$"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: CutoffRule("fixed-x", x=True), "fixed-x rule's x"),
        (lambda: MixtureSpec(True, Exponential(2.0), Exponential(1.0)), "cure fraction p"),
        (lambda: Exponential(True), "rate"),
        (lambda: z_stats(_sorted_draw(), True, 0.3), "cut-off"),
        pytest.param(lambda: theoretical_mn(0.5, 100, True, 2.0, 1.0), "p", id="mn-p"),
        pytest.param(
            lambda: theoretical_mn(0.5, 100, 0.3, True, 1.0), "event rate", id="mn-event-rate"
        ),
        pytest.param(
            lambda: theoretical_mn(0.5, 100, 0.3, 2.0, True),
            "inspection rate",
            id="mn-inspection-rate",
        ),
        pytest.param(
            lambda: theoretical_cutoff_exponential(100, 0.3, True, 1.0),
            "event rate",
            id="cutoff-event-rate",
        ),
        pytest.param(
            lambda: theoretical_cutoff_exponential(100, 0.3, 2.0, True),
            "inspection rate",
            id="cutoff-inspection-rate",
        ),
        pytest.param(
            lambda: profile_cure_loglik(npmle_pava([0, 1, 1]), [0, 1, 1], True), "p", id="profile-p"
        ),
        pytest.param(lambda: CutoffChoice("x", 1, True), "threshold", id="choice-threshold"),
        pytest.param(
            lambda: ThinningConfig(_SPEC, 100, (True, 5), 3, 0), "target mean", id="thinning-target"
        ),
        pytest.param(lambda: TabulatedQuantile((0.0, True), (1.0, 2.0)), "probs", id="table-prob"),
        pytest.param(
            lambda: TabulatedQuantile((0.0, 1.0), (1.0, True)), "values", id="table-value"
        ),
        pytest.param(lambda: z_stats(_sorted_draw(), 0.5, True), "p_true", id="z-stats-p-true"),
    ],
)
def test_a_bool_is_not_a_real_number(call, name):
    # bool is a subclass of int, so True would otherwise be read as 1.0.
    with pytest.raises(ValueError, match=rf"^{name} must be a real number, got True$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Exponential("2"), id="rate"),
        pytest.param(lambda: MixtureSpec("0.3", Exponential(2.0), Exponential(1.0)), id="p"),
        pytest.param(lambda: CutoffRule("fixed-x", x="0.3"), id="fixed-x"),
        pytest.param(lambda: CutoffChoice("x", 1, "0.3"), id="choice-threshold"),
        pytest.param(
            lambda: profile_cure_loglik(npmle_pava([0, 1, 1]), [0, 1, 1], "0.3"), id="profile-p"
        ),
        pytest.param(lambda: theoretical_mn(0.5, 100, "0.3", 2.0, 1.0), id="mn-p"),
        pytest.param(lambda: theoretical_mn(0.5, 100, 0.3, "2", 1.0), id="mn-event-rate"),
        pytest.param(lambda: theoretical_mn(0.5, 100, 0.3, 2.0, "1"), id="mn-inspection-rate"),
        pytest.param(lambda: theoretical_cutoff_exponential(100, "0.3", 2.0, 1.0), id="cutoff-p"),
        pytest.param(
            lambda: theoretical_cutoff_exponential(100, 0.3, "2", 1.0), id="cutoff-event-rate"
        ),
        pytest.param(
            lambda: theoretical_cutoff_exponential(100, 0.3, 2.0, "1"), id="cutoff-inspection-rate"
        ),
        pytest.param(lambda: z_stats(_sorted_draw(), "0.5", 0.3), id="z-stats-cut-off"),
        pytest.param(lambda: z_stats(_sorted_draw(), 0.5, "0.3"), id="z-stats-p-true"),
        pytest.param(lambda: ThinningConfig(_SPEC, 100, ("10",), 3, 0), id="thinning-target"),
        pytest.param(lambda: TabulatedQuantile(("0", "1"), (1.0, 2.0)), id="table-prob"),
        pytest.param(lambda: TabulatedQuantile((0.0, 1.0), ("1", "2")), id="table-value"),
    ],
)
def test_a_string_is_not_a_real_number(call):
    # float("0.3") would read the string as a number; math.isfinite refuses it.
    with pytest.raises(TypeError, match="must be real number, not str"):
        call()


# The edges of the five ranges of a real parameter, by test id.
_EDGES = {
    "0": 0.0,
    "-0.0": -0.0,
    "1": 1.0,
    "inf": math.inf,
    "-inf": -math.inf,
    "nan": math.nan,
    "5e-324": 5e-324,
}


@pytest.mark.parametrize(
    "build, name, words, accepted",
    [
        pytest.param(
            TabulatedQuantile.point_mass,
            "values",
            "be finite",
            {"0", "-0.0", "1", "5e-324"},
            id="finite",
        ),
        pytest.param(
            lambda v: CutoffChoice("x", 1, v),
            "threshold",
            "be finite and nonnegative",
            {"0", "-0.0", "1", "5e-324"},
            id="nonnegative",
        ),
        pytest.param(Exponential, "rate", "be positive and finite", {"1", "5e-324"}, id="positive"),
        pytest.param(
            lambda v: MixtureSpec(v, Exponential(2.0), Exponential(1.0)),
            "cure fraction p",
            r"lie in \[0, 1\]",
            {"0", "-0.0", "1", "5e-324"},
            id="unit",
        ),
        pytest.param(
            lambda v: theoretical_cutoff_exponential(100, v, 2.0, 1.0),
            "p",
            r"lie strictly inside \(0, 1\)",
            {"5e-324"},
            id="inner",
        ),
    ],
)
@pytest.mark.parametrize("edge", list(_EDGES))
def test_each_range_takes_its_edges_as_documented(build, name, words, accepted, edge):
    # Every range is finite; zero's sign does not matter, and the smallest
    # subnormal is positive and inside (0, 1).
    value = _EDGES[edge]
    if edge in accepted:
        build(value)
    else:
        with pytest.raises(ValueError, match=rf"^{name} must {words}, got {value!r}$"):
            build(value)


def _array_bytes(workspace) -> int:
    """Bytes of the workspace's array attributes, each buffer counted once
    however many of them view it."""
    roots = {}
    for value in vars(workspace).values():
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            roots[id(value)] = value.nbytes
    return sum(roots.values())


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_replication_workspaces_hold_what_their_docstrings_say(n):
    # Two rows of doubles and two boolean rows per draw; run_mc adds the
    # counts n, n - 1, ..., 1 and sorts its keys in the draw's rows.
    assert _array_bytes(_Draws(_SPEC, n)) == 16 * n + 2 * n
    mc = _McSpan(_mc_config(n=n, cutoff=CutoffRule("fixed-tail", tail=1)))
    assert _array_bytes(mc) <= 26 * n
    assert not hasattr(mc, "key")


def test_ks_against_normal_improves_with_sample_size():
    # undersmoothed cut-off, known-p scaling: the normal approximation for
    # the tail-average statistic should not degrade as n grows
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    ks = []
    for n in (1000, 10_000, 100_000):
        cfg = McConfig(
            spec=spec, n=n, reps=2000, seed=77_000, cutoff=CutoffRule(kind="undersmoothed")
        )
        res = run_mc(cfg)
        assert res.skipped == 0
        ks.append(res.ks_normal)
    for earlier, later in zip(ks, ks[1:]):
        assert later <= earlier + 0.01


def test_thinning_split_is_exact():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    stats = thinning_check(ThinningConfig(spec, 400, [10.0, 30.0], reps=25, seed=90))
    for r in range(25):
        sample = simulate(spec, 400, seed=90 + r)
        for k, x in enumerate(stats.threshold):
            in_tail = sample.y >= x
            assert stats.n1[r, k] + stats.n0[r, k] == int(np.count_nonzero(in_tail))
            assert stats.n1[r, k] == int(np.count_nonzero(sample.delta[in_tail]))


def test_thinning_no_cure_limit():
    spec = MixtureSpec(p=0.0, event=Exponential(2.0), inspection=Exponential(1.0))
    stats = thinning_check(ThinningConfig(spec, 1000, [20.0], reps=400, seed=7))
    assert float(stats.mean_n0[0]) / 20.0 <= 0.02


def test_thinning_validation():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    with pytest.raises(ValueError):
        ThinningConfig(spec, 100, [], reps=5, seed=0)
    with pytest.raises(ValueError):
        ThinningConfig(spec, 100, [500.0], reps=5, seed=0)
    with pytest.raises(ValueError):
        ThinningConfig(spec, 100, [10.0], reps=0, seed=0)


THINNING_REPS = 4000


@pytest.mark.parametrize("workers", [1, 2])
def test_thinning_counts_match_their_closed_form_law(workers):
    # Each replication's counts (n1, n0) are two cells of a multinomial with
    # n trials and the closed-form cell chances, so each mean over the
    # replications is held to |z| <= 4 on its binomial standard error.
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    n = 2000
    config = ThinningConfig(spec, n, [5.0, 40.0], THINNING_REPS, seed=9000 + 100 * workers)
    stats = thinning_check(config, workers=workers)
    for k, x in enumerate(stats.threshold):
        cells = thinning_cell_probabilities(float(x), 0.3, 2.0, 1.0)
        for name, mean, q in zip(("n1", "n0"), (stats.mean_n1[k], stats.mean_n0[k]), cells):
            z = (mean - n * q) / math.sqrt(n * q * (1.0 - q) / THINNING_REPS)
            assert abs(z) <= 4.0, f"x={x:.4f} {name}: mean {mean:.4f}, exact {n * q:.4f}, z {z:+.2f}"


def test_thinning_cell_probabilities_agree_with_quadrature():
    for x in (0.0, 0.5, 3.0):
        q1, q0 = thinning_cell_probabilities(x, 0.3, 2.0, 1.0)
        ones, _ = quad(lambda y: (1.0 - math.exp(-2.0 * y)) * math.exp(-y), x, np.inf)
        assert q1 == pytest.approx(0.7 * ones, rel=1e-9)
        assert q1 + q0 == pytest.approx(math.exp(-x), rel=1e-12)


def test_thinning_worker_count_is_invisible():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    config = ThinningConfig(spec, 500, [10.0, 25.0], 40, seed=11)
    t1 = thinning_check(config, workers=1)
    t2 = thinning_check(config, workers=3)
    assert np.array_equal(t1.n1, t2.n1) and np.array_equal(t1.n0, t2.n0)


def _same_or_both_nan(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=1e-12)


_EXP = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
_ALL_EVENTS = MixtureSpec(p=0.0, event=TabulatedQuantile.point_mass(0.0), inspection=Exponential(1.0))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "spec, n, targets, reps",
    [
        (_EXP, 300, (5.0, 40.0, 300.0), 1),
        (_EXP, 300, (5.0, 40.0, 300.0), 2),
        (_EXP, 300, (5.0, 40.0, 300.0), 300),
        # Every indicator is 1: n0 is constant at 0, and at target n the
        # whole sample is the tail, so n1 is constant at n.
        (_ALL_EVENTS, 50, (5.0, 50.0), 40),
    ],
    ids=["one-rep", "two-reps", "300-reps", "all-events"],
)
def test_thinning_summaries_match_the_statistics_module(spec, n, targets, reps, workers):
    # Per target: each count's mean and its variance over mean, and the
    # correlation of the two counts, from the integer columns.  A variance
    # needs two replications and a ratio a positive mean, and a correlation
    # needs two replications and no constant column; each is NaN otherwise.
    stats = thinning_check(ThinningConfig(spec, n, targets, reps, seed=4100), workers=workers)
    for k in range(len(targets)):
        n1, n0 = stats.n1[:, k].tolist(), stats.n0[:, k].tolist()
        for col, mean, ratio in (
            (n1, stats.mean_n1[k], stats.var_over_mean_n1[k]),
            (n0, stats.mean_n0[k], stats.var_over_mean_n0[k]),
        ):
            want_mean = statistics.fmean(col)
            usable = reps > 1 and want_mean > 0
            want_ratio = statistics.variance(col) / want_mean if usable else math.nan
            assert _same_or_both_nan(float(mean), want_mean)
            assert _same_or_both_nan(float(ratio), want_ratio)
        try:
            want_corr = statistics.correlation(n1, n0)
        except statistics.StatisticsError:  # fewer than two points, or a constant column
            want_corr = math.nan
        assert _same_or_both_nan(float(stats.corr[k]), want_corr)


def test_running_mean_max_cdf_agrees_with_enumeration():
    # Every sequence of 11 indicators, weighted by its chance: the largest
    # mean of its first k entries over k = 3..11, at and just below every
    # value it can take and outside them.
    n, m, q = 11, 3, 0.7
    law = Counter()
    for bits in itertools.product((0, 1), repeat=n):
        top = max(Fraction(sum(bits[:k]), k) for k in range(m, n + 1))
        law[top] += q ** sum(bits) * (1.0 - q) ** (n - sum(bits))
    points = sorted({Fraction(s, k) for k in range(m, n + 1) for s in range(k + 1)})
    points += [Fraction(-1, 7), Fraction(9, 8)]
    at = [sum(w for v, w in law.items() if v <= c) for c in points]
    below = [sum(w for v, w in law.items() if v < c) for c in points]
    assert running_mean_max_cdf(points, n, m, q) == pytest.approx(at, abs=1e-14)
    assert running_mean_max_cdf(points, n, m, q, strict=True) == pytest.approx(below, abs=1e-14)
    # With one tail only, the running maximum is the tail mean: a binomial.
    binomial = np.cumsum([math.comb(8, s) * q**s * (1.0 - q) ** (8 - s) for s in range(9)])
    atoms = [Fraction(s, 8) for s in range(9)]
    assert running_mean_max_cdf(atoms, 8, 8, q) == pytest.approx(binomial, abs=1e-14)


def _ks_discrete(values, cdf) -> float:
    """Sup distance between the ECDF of the rationals ``values`` and a law
    with ``cdf(atoms, strict)``, P(X <= c) or P(X < c) at each atom.  Both
    are steps between the observed values, so the sup is at one of them or
    just below it."""
    tally = Counter(values)
    atoms = sorted(tally)
    at = np.cumsum([tally[a] for a in atoms]) / len(values)
    below = np.concatenate(([0.0], at[:-1]))
    return max(
        float(np.abs(at - cdf(atoms, False)).max()),
        float(np.abs(below - cdf(atoms, True)).max()),
    )


EXACT_REPS = 8000
EXACT_KS_BOUND = 1.95 / math.sqrt(EXACT_REPS)  # 99.9 % point of the KS law


@pytest.mark.parametrize("workers", [1, 2])
def test_run_mc_draws_the_exact_finite_n_law_of_a_point_mass_event(workers):
    # Every uncured subject has its event at time 0, so delta is iid
    # Bernoulli(1 - p), independent of the untied inspection times.  With a
    # tail of m = 25 of n = 400 records, read from the top, p1 is S_25 / 25
    # with S_25 ~ Binomial(25, 1 - p), and p2 is the largest S_k / k over
    # k = 25..n, whose law ``running_mean_max_cdf`` computes.  The seeds and
    # the bound were fixed before any run.
    n, m, p = 400, 25, 0.3
    spec = MixtureSpec(p=p, event=TabulatedQuantile.point_mass(0.0), inspection=Exponential(1.0))
    config = McConfig(spec, n, EXACT_REPS, 31_000 + 8_000 * workers, CutoffRule("fixed-tail", tail=m))
    res = run_mc(config, workers=workers)
    assert res.retained == EXACT_REPS and res.nonfinite == 0
    assert np.all(res.z2 >= res.z1)
    # Known-p scaling inverted: a mean of at most n indicators is the
    # nearest fraction with a denominator of at most n, since two such
    # fractions lie at least 1 / n^2 apart.
    step = math.sqrt(p * (1.0 - p) / m)
    p1 = [Fraction(1.0 - p + z * step).limit_denominator(n) for z in res.z1.tolist()]
    p2 = [Fraction(1.0 - p + z * step).limit_denominator(n) for z in res.z2.tolist()]
    assert all((v * m).denominator == 1 for v in p1)
    pmf = [math.comb(m, s) * (1.0 - p) ** s * p ** (m - s) for s in range(m + 1)]

    def binomial_cdf(atoms, strict):
        return np.array([math.fsum(pmf[: int(a * m) + (not strict)]) for a in atoms])

    def running_max_cdf(atoms, strict):
        return running_mean_max_cdf(atoms, n, m, 1.0 - p, strict=strict)

    gaps = _ks_discrete(p1, binomial_cdf), _ks_discrete(p2, running_max_cdf)
    assert max(gaps) <= EXACT_KS_BOUND, f"KS gaps z1 {gaps[0]:.4f}, z2 {gaps[1]:.4f}"
