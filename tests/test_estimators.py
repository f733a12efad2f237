"""Tail averages, plug-ins, CV objectives, and the closed-form cut-off."""

import math

import numpy as np
import pytest

from curest import (
    CurrentStatusSample,
    CutoffChoice,
    CvCurve,
    EstimatorTrace,
    Exponential,
    MixtureSpec,
    PlugIns,
    choice_at_index,
    cv_m1_curve,
    cv_m2_curve,
    estimate_cure,
    gumbel_norming_exponential,
    npmle_pava,
    plug_ins,
    select_cutoff,
    simulate,
    sort_with_concomitants,
    theoretical_cutoff_exponential,
    theoretical_mn,
    trace,
)

from oracles import event_indicator_mean, golden_argmin, mse_profile_by_quadrature


def sorted_toy(deltas, ys=None):
    deltas = np.asarray(deltas)
    if ys is None:
        ys = np.arange(1.0, deltas.size + 1.0)
    return sort_with_concomitants(CurrentStatusSample(delta=deltas, y=np.asarray(ys)))


def test_trace_hand_values():
    tr = trace(sorted_toy([1, 0, 1]))
    assert np.allclose(tr.p1, [2 / 3, 0.5, 1.0], atol=1e-15)
    assert np.allclose(tr.p2, [2 / 3, 2 / 3, 1.0], atol=1e-15)
    assert np.array_equal(tr.index, [1, 2, 3])
    assert np.array_equal(tr.tail_count, [3, 2, 1])


def test_trace_all_zero_indicators():
    tr = trace(sorted_toy([0, 0, 0, 0]))
    assert np.all(tr.p1 == 0.0) and np.all(tr.p2 == 0.0)


def test_trace_first_entry_is_overall_mean():
    rng = np.random.default_rng(15)
    for _ in range(10):
        deltas = rng.integers(0, 2, size=30)
        tr = trace(sorted_toy(deltas))
        assert tr.p1[0] == pytest.approx(float(np.mean(deltas)), abs=1e-15)


def test_trace_merges_tie_groups():
    tr = trace(sorted_toy([1, 0, 1, 1], ys=[1.0, 2.0, 2.0, 3.0]))
    assert np.array_equal(tr.index, [1, 2, 4])
    assert np.array_equal(tr.tail_count, [4, 3, 1])
    assert np.array_equal(tr.y, [1.0, 2.0, 3.0])


def test_trace_running_max_dominates_and_matches_fit_terminal():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    for seed in range(10):
        sample = simulate(spec, 150, seed=seed)
        ss = sort_with_concomitants(sample)
        tr = trace(ss)
        assert np.all(tr.p2 >= tr.p1)
        assert np.all(np.diff(tr.p2) >= 0.0)
        # terminal running max is the shape-constrained fit's last value
        assert tr.p2[-1] == npmle_pava(ss.delta).fhat[-1]


def test_rank_invariance_of_trace_and_m2():
    deltas = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1])
    ys = np.linspace(0.3, 4.0, 10)
    ss = sorted_toy(deltas, ys)
    ss_t = sorted_toy(deltas, np.exp(ys))  # strictly increasing transform
    tr, tr_t = trace(ss), trace(ss_t)
    assert np.array_equal(tr.p1, tr_t.p1) and np.array_equal(tr.p2, tr_t.p2)
    assert np.array_equal(tr.index, tr_t.index)
    m2, m2_t = cv_m2_curve(ss), cv_m2_curve(ss_t)
    assert np.array_equal(m2.objective, m2_t.objective)
    assert select_cutoff(m2).index == select_cutoff(m2_t).index
    e = estimate_cure(tr, choice_at_index(tr, 4))
    e_t = estimate_cure(tr_t, choice_at_index(tr_t, 4))
    assert e.p_hat1 == e_t.p_hat1 and e.p_hat2 == e_t.p_hat2


def test_estimate_hand_values():
    tr = trace(sorted_toy([1, 0, 1]))
    est = estimate_cure(tr, choice_at_index(tr, 2))
    assert est.p_hat1 == pytest.approx(0.5, abs=1e-15)
    assert est.p_hat2 == pytest.approx(1 / 3, abs=1e-15)
    assert est.tail_count == 2 and est.index == 2


def test_estimate_all_ones_gives_zero():
    tr = trace(sorted_toy([1, 1, 1, 1]))
    for i in (1, 2, 3, 4):
        est = estimate_cure(tr, choice_at_index(tr, i))
        assert est.p_hat1 == 0.0 and est.p_hat2 == 0.0


def test_estimate_guard_violation():
    tr = trace(sorted_toy([1, 0, 1]))
    with pytest.raises(ValueError, match="guard"):
        estimate_cure(tr, choice_at_index(tr, 3, guard=2))
    with pytest.raises(ValueError):
        choice_at_index(tr, 4)
    with pytest.raises(ValueError):
        choice_at_index(tr, 0)


def test_choice_at_index_refuses_fractional_index_and_guard():
    tr = trace(sorted_toy([1, 0, 1]))
    with pytest.raises(ValueError, match="index must be an integer of at least 1"):
        choice_at_index(tr, 2.5)
    with pytest.raises(ValueError, match="guard must be an integer of at least 1"):
        choice_at_index(tr, 2, guard=2.5)


def test_estimate_ordering_property():
    rng = np.random.default_rng(31)
    for _ in range(20):
        deltas = rng.integers(0, 2, size=25)
        tr = trace(sorted_toy(deltas))
        i = int(rng.integers(1, 26))
        est = estimate_cure(tr, choice_at_index(tr, i))
        assert 0.0 <= est.p_hat2 <= est.p_hat1 <= 1.0


def test_plug_ins_hand_values():
    pi = plug_ins(trace(sorted_toy([1, 0, 1])))
    assert pi.delta_bar == pytest.approx(2 / 3, abs=1e-15)
    assert pi.p2_bar == pytest.approx(7 / 9, abs=1e-15)
    assert pi.alpha_hat == pytest.approx(6.0, abs=1e-12)
    assert pi.valid


def test_plug_ins_degenerate():
    pi = plug_ins(trace(sorted_toy([0, 0, 0])))
    assert pi.delta_bar == 0.0 and pi.p2_bar == 0.0
    assert not pi.valid and math.isnan(pi.alpha_hat)


def test_plug_ins_tie_groups_weighted_by_size():
    # tied records each contribute their group's p2 value once
    tr = trace(sorted_toy([1, 0, 1, 1], ys=[1.0, 2.0, 2.0, 3.0]))
    pi = plug_ins(tr)
    expect = (tr.p2[0] * 1 + tr.p2[1] * 2 + tr.p2[2] * 1) / 4
    assert pi.p2_bar == pytest.approx(float(expect), abs=1e-15)


def test_plug_ins_from_trace_equal_record_level_formulas_bitwise():
    # reference: the overall mean over records, and p2 weighted by group
    # sizes taken from the opening indices
    rng = np.random.default_rng(11)
    for k in range(300):
        n = int(rng.integers(1, 60))
        ys = rng.integers(0, 8, n).astype(float) if k % 2 else rng.random(n)
        ss = sorted_toy(rng.integers(0, 2, n), ys=ys)
        tr = trace(ss)
        pi = plug_ins(tr)
        sizes = np.diff(np.append(tr.index - 1, ss.n))
        assert pi.delta_bar == float(np.mean(ss.delta))
        assert pi.p2_bar == float(np.sum(tr.p2 * sizes) / ss.n)


def test_population_tail_exponent_identity():
    # with event rate 2 and inspection rate 1 the population version of
    # alpha_hat is exactly the rate ratio
    p = 0.3
    q = event_indicator_mean(p, 2.0, 1.0)
    assert abs(q - 0.4667) <= 5e-5
    assert abs((1.0 - q) - p - 0.2333) <= 5e-5
    assert q / ((1.0 - q) - p) == pytest.approx(2.0, abs=1e-9)


def test_m1_hand_values_at_full_sample_threshold():
    ss = sorted_toy([1, 0, 1])
    curve = cv_m1_curve(ss)
    assert curve.variance[0] == pytest.approx((2 / 3) * (1 / 3) / 3, abs=1e-15)
    assert curve.bias_sq[0] == pytest.approx((7 / 9 - 2 / 3) ** 2, abs=1e-15)
    assert np.array_equal(curve.objective, curve.variance + curve.bias_sq)


def test_m1_requires_valid_alpha():
    with pytest.raises(ValueError, match="m2"):
        cv_m1_curve(sorted_toy([0, 0, 0]))


def test_m1_variance_stat_flag():
    ss = sorted_toy([1, 0, 1])
    tr = trace(ss)
    c1 = cv_m1_curve(ss, variance_stat="p1")
    c2 = cv_m1_curve(ss, variance_stat="p2")
    assert np.allclose(c1.variance, tr.p1 * (1 - tr.p1) / tr.tail_count, atol=1e-15)
    assert np.allclose(c2.variance, tr.p2 * (1 - tr.p2) / tr.tail_count, atol=1e-15)
    with pytest.raises(ValueError):
        cv_m1_curve(ss, variance_stat="p3")


def test_m1_variance_vanishes_where_tail_average_degenerates():
    # all-ones suffix drives the tail average to exactly 1 there
    curve = cv_m1_curve(sorted_toy([1, 0, 0, 1, 1, 1]))
    assert curve.variance[-1] == 0.0 and curve.variance[-2] == 0.0
    assert np.all(curve.variance >= 0.0) and np.all(curve.bias_sq >= 0.0)


def test_m2_hand_values():
    curve = cv_m2_curve(sorted_toy([1, 0, 1]))
    assert curve.variance[1] == pytest.approx(0.125, abs=1e-15)
    assert curve.bias_sq[1] == pytest.approx((2 / 3 - 7 / 9) ** 2, abs=1e-15)
    assert curve.objective[1] == pytest.approx(0.125 + (2 / 3 - 7 / 9) ** 2, abs=1e-15)


def test_m2_bias_is_squared_centering():
    rng = np.random.default_rng(5)
    deltas = rng.integers(0, 2, size=40)
    ss = sorted_toy(deltas)
    curve = cv_m2_curve(ss)
    tr = trace(ss)
    pi = plug_ins(tr)
    assert np.allclose(curve.bias_sq, (tr.p2 - pi.p2_bar) ** 2, atol=1e-15)


def make_curve(tail_count, variance, bias_sq):
    tail_count = np.asarray(tail_count)
    variance = np.asarray(variance, dtype=float)
    bias_sq = np.asarray(bias_sq, dtype=float)
    n = int(tail_count[0])
    index = n + 1 - tail_count
    p1 = np.full(index.size, 0.5)
    tr = EstimatorTrace(
        n=n, index=index, y=np.arange(1.0, index.size + 1.0), tail_count=tail_count, p1=p1, p2=p1
    )
    return CvCurve(
        flavor="m2",
        trace=tr,
        variance=variance,
        bias_sq=bias_sq,
        objective=variance + bias_sq,
        plug_ins=PlugIns(delta_bar=0.5, p2_bar=0.7, alpha_hat=2.0),
    )


def test_select_convex_curve_interior_argmin():
    idx = np.arange(1.0, 21.0)
    curve = make_curve(
        tail_count=np.arange(20, 0, -1),
        variance=0.01 * np.ones(20),
        bias_sq=(idx - 12.0) ** 2 / 100.0,
    )
    assert select_cutoff(curve, guard=5).index == 12


def test_select_guard_excludes_extreme_minimum():
    variance = np.full(10, 0.05)
    variance[-1] = 0.0  # degenerate single-record tail
    bias = np.full(10, 0.02)
    bias[4] = 0.0  # interior local (and guarded global) minimum
    curve = make_curve(np.arange(10, 0, -1), variance, bias)
    pick = select_cutoff(curve, guard=5)
    assert pick.index == 5
    tr = curve.trace
    assert int(tr.tail_count[np.flatnonzero(tr.index == pick.index)[0]]) >= 5


def test_select_tie_breaks_toward_smaller_index():
    curve = make_curve(np.arange(12, 0, -1), np.full(12, 0.01), np.zeros(12))
    assert select_cutoff(curve, guard=1).index == 1


def test_select_skips_zero_variance_candidates():
    # an exact-zero variance entry has a spuriously tiny objective; the
    # selector must ignore it even when its tail passes the guard
    variance = np.full(12, 0.03)
    variance[6] = 0.0  # tail count 6 there, so the tail guard alone keeps it
    bias = np.full(12, 0.01)
    bias[6] = 1e-9
    bias[3] = 0.0
    curve = make_curve(np.arange(12, 0, -1), variance, bias)
    assert select_cutoff(curve, guard=5).index == 4


def test_select_error_cases():
    curve = make_curve(np.arange(4, 0, -1), np.full(4, 0.01), np.zeros(4))
    with pytest.raises(ValueError):
        select_cutoff(curve, guard=5)  # nothing passes the tail guard
    with pytest.raises(ValueError):
        select_cutoff(curve, guard=0)
    with pytest.raises(ValueError, match="guard must be an integer of at least 1"):
        select_cutoff(curve, guard=2.5)
    degenerate = make_curve(np.arange(8, 0, -1), np.zeros(8), np.full(8, 0.01))
    with pytest.raises(ValueError, match="degenerate"):
        select_cutoff(degenerate, guard=5)


def test_theoretical_mn_hand_values():
    val0 = theoretical_mn(0.0, n=100, p=0.3, event_rate=2.0, inspect_rate=1.0)
    assert val0 == pytest.approx(0.21 / 100 + (0.7 / 3) ** 2, abs=1e-15)
    assert val0 == pytest.approx(0.056544, abs=5e-7)
    val = theoretical_mn(0.92832, n=100, p=0.3, event_rate=2.0, inspect_rate=1.0)
    assert val == pytest.approx(0.0066421, abs=5e-7)


def test_theoretical_mn_matches_quadrature_definition():
    for x in np.linspace(0.0, 3.0, 16):
        closed = theoretical_mn(x, n=250, p=0.4, event_rate=1.5, inspect_rate=0.8)
        direct = mse_profile_by_quadrature(float(x), 250, 0.4, 1.5, 0.8)
        assert closed == pytest.approx(direct, abs=1e-10)


def test_theoretical_mn_diverges():
    lo = theoretical_mn(5.0, n=100, p=0.3, event_rate=2.0, inspect_rate=1.0)
    hi = theoretical_mn(25.0, n=100, p=0.3, event_rate=2.0, inspect_rate=1.0)
    assert hi > lo > 0.0


def test_theoretical_mn_rejects_bad_inputs():
    with pytest.raises(ValueError):
        theoretical_mn(-0.5, n=100, p=0.3, event_rate=2.0, inspect_rate=1.0)
    with pytest.raises(ValueError):
        theoretical_mn(0.5, n=100, p=1.3, event_rate=2.0, inspect_rate=1.0)
    with pytest.raises(ValueError):
        theoretical_mn(0.5, n=100, p=0.3, event_rate=0.0, inspect_rate=1.0)


def test_cutoff_closed_form_matches_golden_section():
    x = theoretical_cutoff_exponential(100, 0.3, 2.0, 1.0)
    assert x == pytest.approx(0.9283075660317932, abs=1e-9)
    oracle = golden_argmin(
        lambda t: theoretical_mn(t, n=100, p=0.3, event_rate=2.0, inspect_rate=1.0),
        0.0,
        5.0,
    )
    assert abs(x - oracle) <= 1e-8


def test_cutoff_first_order_balance():
    lam, mu, p, n = 2.0, 1.0, 0.3, 100
    x = theoretical_cutoff_exponential(n, p, lam, mu)
    var_term = p * (1.0 - p) / n * math.exp(mu * x)
    bias_sq = ((1.0 - p) * mu / (lam + mu)) ** 2 * math.exp(-2.0 * lam * x)
    assert abs(mu * var_term - 2.0 * lam * bias_sq) <= 1e-9


def test_cutoff_tail_growth_rate():
    lam, mu, p = 2.0, 1.0, 0.3
    ratios = []
    for n in (100, 1000, 10_000):
        x = theoretical_cutoff_exponential(n, p, lam, mu)
        ratios.append(n * math.exp(-mu * x) / n ** (2.0 * lam / (mu + 2.0 * lam)))
    assert max(ratios) - min(ratios) <= 1e-6


def test_cutoff_clamps_to_zero():
    assert theoretical_cutoff_exponential(1, 0.5, 1.0, 1.0) == 0.0


def test_cutoff_rejects_boundary_p():
    with pytest.raises(ValueError):
        theoretical_cutoff_exponential(100, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_cutoff_exponential(100, 1.0, 2.0, 1.0)


def test_estimate_at_fixed_choice_object():
    tr = trace(sorted_toy([1, 0, 1, 0, 1]))
    choice = CutoffChoice(method="fixed-index", index=3, threshold=3.0, guard=1)
    est = estimate_cure(tr, choice)
    assert est.index == 3 and est.tail_count == 3


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda r: theoretical_mn(0.5, n=100, p=0.3, event_rate=r, inspect_rate=1.0),
        lambda r: theoretical_mn(0.5, n=100, p=0.3, event_rate=2.0, inspect_rate=r),
        lambda r: theoretical_cutoff_exponential(100, 0.3, r, 1.0),
        lambda r: theoretical_cutoff_exponential(100, 0.3, 2.0, r),
        lambda r: gumbel_norming_exponential(100, r),
    ],
    ids=["mn-event", "mn-inspect", "cutoff-event", "cutoff-inspect", "gumbel"],
)
def test_exponential_closed_forms_reject_bad_rates(call, rate):
    with pytest.raises(ValueError, match="rate"):
        call(rate)


@pytest.mark.parametrize("n", [0, 2.5, 100.0, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: theoretical_mn(1.0, n=n, p=0.3, event_rate=2.0, inspect_rate=1.0),
        lambda n: theoretical_cutoff_exponential(n, 0.3, 2.0, 1.0),
        lambda n: gumbel_norming_exponential(n, 1.0),
    ],
    ids=["mn", "cutoff", "gumbel"],
)
def test_exponential_closed_forms_refuse_a_count_that_is_not_an_integer(call, n):
    with pytest.raises(ValueError, match="n must be an integer of at least 1"):
        call(n)
