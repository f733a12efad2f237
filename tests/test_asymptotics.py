"""Studentized tail statistics, reference CDFs, replicated checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from curest import (
    CurrentStatusSample,
    Exponential,
    McConfig,
    MixtureSpec,
    TabulatedQuantile,
    gumbel_norming_exponential,
    half_normal_cdf,
    ks_distance,
    run_mc,
    simulate,
    sort_with_concomitants,
    std_normal_cdf,
    ThinningConfig,
    thinning_check,
    z_stats,
)
from curest.asymptotics import CutoffRule


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


def test_reference_cdfs():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert half_normal_cdf(0.0) == 0.0
    assert half_normal_cdf(-1.0) == 0.0
    for x in np.linspace(0.0, 5.0, 41):
        assert abs(half_normal_cdf(x) - (2.0 * std_normal_cdf(x) - 1.0)) <= 1e-12


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


def test_gumbel_norming_identity():
    for n in (10, 100, 5000):
        for mu in (0.5, 1.0, 2.0):
            nc = gumbel_norming_exponential(n, mu)
            assert nc.a == pytest.approx(1.0 / mu, abs=1e-15)
            assert nc.b == pytest.approx(math.log(n) / mu, abs=1e-12)
            for x in np.linspace(-2.0, 4.0, 13):
                lhs = n * math.exp(-mu * (nc.a * x + nc.b))
                assert lhs == pytest.approx(math.exp(-x), rel=1e-12)
    assert gumbel_norming_exponential(100, 1.0).b == pytest.approx(
        4.605170185988092, abs=1e-12
    )


def test_gumbel_standardized_cutoff_mean_count():
    n, mu = 10_000, 1.0
    nc = gumbel_norming_exponential(n, mu)
    x_std = nc.standardized(math.log(n) / (2.0 * mu))
    assert x_std == pytest.approx(-math.log(n) / 2.0, rel=1e-12)
    assert nc.mean_count(x_std) == pytest.approx(math.sqrt(n), rel=1e-12)


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


def test_thinning_worker_count_is_invisible():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    config = ThinningConfig(spec, 500, [10.0, 25.0], 40, seed=11)
    t1 = thinning_check(config, workers=1)
    t2 = thinning_check(config, workers=3)
    assert np.array_equal(t1.n1, t2.n1) and np.array_equal(t1.n0, t2.n0)
