"""Max-min fit, likelihood conventions, profile in the cure fraction."""

import itertools
import math

import numpy as np
import pytest

from curest import (
    CurrentStatusSample,
    Exponential,
    MixtureSpec,
    SortedSample,
    inconsistency_probe,
    log_lik,
    npmle_cure_argmax_interval,
    npmle_pava,
    profile_cure_loglik,
    trace,
)

from oracles import (
    grid_loglik_max_brute,
    grid_loglik_max_dp,
    maxmin_brute,
    random_feasible_vector,
    saturation_probability,
    top_order_statistic_cdf_mean,
)


def test_brute_hand_values():
    assert np.array_equal(maxmin_brute([1, 1, 1]).fhat, [1.0, 1.0, 1.0])
    assert np.array_equal(maxmin_brute([1, 0]).fhat, [0.5, 0.5])
    assert np.array_equal(maxmin_brute([1, 0, 1]).fhat, [0.5, 0.5, 1.0])


def test_pava_hand_values():
    assert np.array_equal(npmle_pava([0, 1]).fhat, [0.0, 1.0])
    assert np.array_equal(npmle_pava([1, 0, 1]).fhat, maxmin_brute([1, 0, 1]).fhat)


def test_pava_equals_brute_exhaustively_small_n():
    # bitwise equality; both routes divide integer sums by integer counts
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n):
            assert np.array_equal(npmle_pava(bits).fhat, maxmin_brute(bits).fhat), bits


def test_fit_is_monotone_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        fhat = npmle_pava(rng.integers(0, 2, size=n)).fhat
        assert np.all(fhat >= 0.0) and np.all(fhat <= 1.0)
        assert np.all(np.diff(fhat) >= 0.0)


def test_terminal_value_is_one_iff_last_indicator_is_one():
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            fhat = npmle_pava(bits).fhat
            assert (fhat[-1] == 1.0) == (bits[-1] == 1)


def test_rejects_bad_indicators():
    with pytest.raises(ValueError):
        npmle_pava([])
    with pytest.raises(ValueError):
        npmle_pava([0, 2])
    for call in (
        npmle_pava,
        lambda d: log_lik([0.5, 0.5], d),
        lambda d: profile_cure_loglik(npmle_pava([0, 1]), d, 0.3),
    ):
        # An integer cast alone would read 0.5 as 0 and fit [0, 1].
        with pytest.raises(ValueError, match="0 or 1"):
            call([0.5, 1.0])


# One-byte integers other than 0 or 1; a negative int8 reads as at least 128
# when its byte is read as unsigned.
_BAD_BYTES = [
    pytest.param(np.int8, value, id=f"int8-{value}") for value in (-128, -1, 2, 127)
] + [pytest.param(np.uint8, value, id=f"uint8-{value}") for value in (2, 255)]


@pytest.mark.parametrize("dtype, bad", _BAD_BYTES)
def test_one_byte_indicators_other_than_0_or_1_are_refused(dtype, bad):
    delta = np.array([0, 1, bad, 1], dtype=dtype)
    for call in (
        lambda d: CurrentStatusSample(delta=d, y=np.array([1.0, 2.0, 3.0, 4.0])),
        npmle_pava,
        lambda d: log_lik([0.25, 0.5, 0.5, 0.75], d),
    ):
        with pytest.raises(ValueError, match="^delta entries must be 0 or 1$"):
            call(delta)


def test_one_byte_and_boolean_indicators_fit_as_int64():
    rng = np.random.default_rng(26)
    for n in (1, 2, 7, 100, 1000):
        bits = (rng.random(n) < 0.5).astype(np.int64)
        want = npmle_pava(bits).fhat.tobytes()
        for dtype in (np.int8, np.uint8, bool):
            assert npmle_pava(bits.astype(dtype)).fhat.tobytes() == want, (n, dtype)
            # All zeros and all ones pass the check too.
            for bit in (0, 1):
                fit = npmle_pava(np.full(n, bit, dtype=dtype))
                assert fit.fhat.tolist() == [float(bit)] * n, (n, dtype, bit)


def test_log_lik_hand_values():
    assert log_lik([1.0, 1.0], [1, 1]) == 0.0
    val = log_lik([0.5, 0.5, 1.0], [1, 0, 1])
    assert abs(val - (-1.3862943611198906)) <= 1e-15
    assert log_lik([0.0, 1.0], [0, 1]) == 0.0  # 0*log 0 convention both ends


def test_log_lik_impossible_configurations():
    assert log_lik([0.0, 0.0], [0, 1]) == -math.inf
    assert log_lik([1.0, 1.0], [0, 0]) == -math.inf


def test_log_lik_rejects_bad_vectors():
    with pytest.raises(ValueError):
        log_lik([0.6, 0.4], [1, 1])  # not monotone
    with pytest.raises(ValueError):
        log_lik([-0.1, 0.5], [1, 1])
    with pytest.raises(ValueError):
        log_lik([0.5, math.nan], [0, 1])  # NaN compares false both ways
    with pytest.raises(ValueError):
        log_lik([0.1, 0.5, 0.9], [1, 1])  # shape mismatch


def test_fit_maximizes_likelihood_over_random_feasible_vectors():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        deltas = rng.integers(0, 2, size=20)
        fit = npmle_pava(deltas)
        best = log_lik(fit.fhat, deltas)
        for _ in range(200):
            f = random_feasible_vector(rng, 20)
            assert best >= log_lik(f, deltas)


def test_profile_hand_value_and_grid_oracle():
    deltas = [1, 0, 1]
    fit = npmle_pava(deltas)
    val = profile_cure_loglik(fit, deltas, 0.4)
    expect = math.log(0.5) + math.log(0.5) + math.log(0.6)
    assert abs(val - expect) <= 1e-12
    assert abs(val - (-1.8971199848858813)) <= 1e-12
    # independent grid maximizer of the capped-vector likelihood
    grid_max = grid_loglik_max_dp(deltas, cap=0.6, step=0.02)
    assert val >= grid_max - 1e-12
    assert val <= grid_max + 0.05


def test_grid_dp_matches_brute_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(6):
        deltas = list(rng.integers(0, 2, size=3))
        for cap in (1.0, 0.5):
            dp = grid_loglik_max_dp(deltas, cap=cap, step=0.1)
            brute = grid_loglik_max_brute(deltas, cap=cap, step=0.1)
            assert dp == pytest.approx(brute, abs=1e-12)


def test_profile_boundaries():
    deltas = [1, 0, 1]
    fit = npmle_pava(deltas)
    assert profile_cure_loglik(fit, deltas, 0.0) == log_lik(fit.fhat, deltas)
    assert profile_cure_loglik(fit, deltas, 1.0) == -math.inf
    with pytest.raises(ValueError):
        profile_cure_loglik(fit, deltas, 1.2)


def test_profile_nonincreasing_in_p():
    rng = np.random.default_rng(3)
    for _ in range(10):
        deltas = rng.integers(0, 2, size=25)
        fit = npmle_pava(deltas)
        vals = [profile_cure_loglik(fit, deltas, p) for p in np.linspace(0.0, 1.0, 101)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_argmax_interval_hand_values():
    assert npmle_cure_argmax_interval(npmle_pava([1, 0, 1])).hi == 0.0
    assert npmle_cure_argmax_interval(npmle_pava([1, 0])).hi == 0.5
    assert npmle_cure_argmax_interval(npmle_pava([0, 0, 0])).hi == 1.0


def test_profile_flat_on_interval_then_strictly_smaller():
    rng = np.random.default_rng(44)
    for _ in range(25):
        deltas = rng.integers(0, 2, size=15)
        fit = npmle_pava(deltas)
        hi = npmle_cure_argmax_interval(fit).hi
        top = profile_cure_loglik(fit, deltas, 0.0)
        assert profile_cure_loglik(fit, deltas, 0.5 * hi) == top
        assert profile_cure_loglik(fit, deltas, hi) == top
        if hi < 0.95:
            beyond = profile_cure_loglik(fit, deltas, hi + 0.05)
            if math.isfinite(beyond):
                assert beyond < top


def test_tied_thresholds_pooled_fit_beats_grid_oracle():
    # tied inspection times force one shared CDF value per distinct y; the
    # pooled max-min over tie groups must beat any tie-constant grid vector
    delta = np.array([0, 1, 1, 0, 1, 1])
    y = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
    ss = SortedSample(CurrentStatusSample(delta=delta, y=y))
    pooled = np.array([0.5, 0.5, 2 / 3, 2 / 3, 2 / 3, 1.0])  # group max-min by hand
    lik_pooled = log_lik(pooled, ss.delta)
    assert abs(lik_pooled - (-3.295836866004329)) <= 1e-12

    def weighted_term(ones, zeros, v):
        t = 0.0
        if ones:
            t += ones * (math.log(v) if v > 0.0 else -math.inf)
        if zeros:
            t += zeros * (math.log1p(-v) if v < 1.0 else -math.inf)
        return t

    groups = [(2, 1), (3, 2), (1, 1)]  # (count, ones) per distinct y
    grid = [j * 0.02 for j in range(51)]
    best = [weighted_term(groups[0][1], groups[0][0] - groups[0][1], v) for v in grid]
    for count, ones in groups[1:]:
        prefix = -math.inf
        nxt = []
        for k, v in enumerate(grid):
            prefix = max(prefix, best[k])
            nxt.append(weighted_term(ones, count - ones, v) + prefix)
        best = nxt
    grid_max = max(best)
    assert lik_pooled >= grid_max
    assert lik_pooled <= grid_max + 0.05
    # the trace terminal running max agrees with the pooled terminal value
    assert trace(ss).p2[-1] == pooled[-1]


def test_inconsistency_probe_degenerate_and_quantitative():
    cured = MixtureSpec(p=1.0, event=Exponential(2.0), inspection=Exponential(1.0))
    assert inconsistency_probe(cured, 20, 50, seed=0) == 0.0

    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    closed = 0.7 * (1.0 - 2.0 / 132.0)
    oracle = 0.7 * top_order_statistic_cdf_mean(10, 2.0, 1.0)
    assert abs(closed - oracle) <= 1e-9
    freq = inconsistency_probe(spec, 10, 2000, seed=9100)
    assert abs(freq - closed) <= 0.02


PROBE_REPS = 4000


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 5, 50])
def test_inconsistency_probe_matches_its_closed_form_law(n, workers):
    # The probe counts Bernoulli events of probability q, the closed form,
    # so its frequency is a binomial proportion, held to |z| <= 4 on the
    # binomial standard error.
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    q = saturation_probability(n, 0.3, 2.0, 1.0)
    freq = inconsistency_probe(spec, n, PROBE_REPS, seed=8000 + 100 * workers + n, workers=workers)
    z = (freq - q) / math.sqrt(q * (1.0 - q) / PROBE_REPS)
    assert abs(z) <= 4.0, f"n={n}: frequency {freq:.4f}, exact {q:.4f}, z {z:+.2f}"


def test_saturation_probability_agrees_with_quadrature_and_its_limits():
    # The hand value of test_inconsistency_probe_degenerate_and_quantitative.
    closed = 0.7 * (1.0 - 2.0 / 132.0)
    assert saturation_probability(10, 0.3, 2.0, 1.0) == pytest.approx(closed, rel=1e-12)
    for n in (1, 5, 50):
        assert saturation_probability(n, 0.3, 2.0, 1.0) == pytest.approx(
            0.7 * top_order_statistic_cdf_mean(n, 2.0, 1.0), rel=1e-9
        )
    # With one record the event is delta = 1: (1 - p) a / (a + b).
    assert saturation_probability(1, 0.3, 2.0, 1.0) == pytest.approx(0.7 * 2.0 / 3.0, rel=1e-12)
    # It rises towards 1 - p, the inconsistency: the fit saturates ever more often.
    assert saturation_probability(10**6, 0.3, 2.0, 1.0) == pytest.approx(0.7, abs=1e-9)


def test_inconsistency_probe_worker_count_is_invisible():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    assert inconsistency_probe(spec, 50, 60, seed=3, workers=1) == inconsistency_probe(
        spec, 50, 60, seed=3, workers=2
    )


def test_inconsistency_probe_returns_a_float_for_numpy_reps():
    # reps is kept as the int its checker returns, so the frequency is the
    # float that Python reps give, not a numpy scalar.
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    result = inconsistency_probe(spec, 50, np.int64(60), 3)
    assert type(result) is float
    assert result == inconsistency_probe(spec, 50, 60, 3)


def test_inconsistency_probe_refuses_fractional_reps():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    with pytest.raises(ValueError, match="reps must be an integer of at least 1"):
        inconsistency_probe(spec, 20, 2.5, 0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "n, seed, message",
    [
        (0, 0, "n must be an integer of at least 1, got 0"),
        (2.5, 0, "n must be an integer of at least 1, got 2.5"),
        (-1, 0, "n must be an integer of at least 1, got -1"),
        (20, -1, "seed must be an integer of at least 0, got -1"),
        (20, 1.5, "seed must be an integer of at least 0, got 1.5"),
    ],
    ids=["n=0", "n=2.5", "n=-1", "seed=-1", "seed=1.5"],
)
def test_inconsistency_probe_refuses_bad_sizes_and_seeds(n, seed, message, workers):
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    with pytest.raises(ValueError) as info:
        inconsistency_probe(spec, n, 5, seed, workers=workers)
    assert str(info.value) == message


@pytest.mark.xfail(
    strict=True,
    reason="npmle_pava fits records one by one, so the order of records inside "
    "a tie group moves the fit; the tail averages pool each group",
)
def test_npmle_does_not_depend_on_record_order_within_ties():
    y = [1.0, 2.0, 2.0]
    his = [
        npmle_cure_argmax_interval(
            npmle_pava(SortedSample(CurrentStatusSample(delta=delta, y=y)).delta)
        ).hi
        for delta in ([1, 0, 1], [1, 1, 0])
    ]
    assert his[0] == his[1]  # measured: 0.0 and 1/3
