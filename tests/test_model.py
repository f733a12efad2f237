"""Distribution specs, mixture sampling, sorting, CSV round trips, and the
checkers of arrays of reals and of choice parameters."""

import math
import re

import numpy as np
import pytest

from curest import (
    CsvFormatError,
    CurrentStatusSample,
    CutoffRule,
    Exponential,
    McConfig,
    MixtureSpec,
    SortedSample,
    TabulatedQuantile,
    cv_m1_curve,
    cv_m2_curve,
    ks_distance,
    log_lik,
    npmle_pava,
    read_csv,
    simulate,
    theoretical_mn,
    write_csv,
    z_stats,
)
from curest import model

from oracles import event_indicator_mean


def test_exponential_round_trip():
    dist = Exponential(2.0)
    for u in np.linspace(0.001, 0.999, 57):
        assert abs(dist.cdf(dist.quantile(u)) - u) <= 1e-12
    for t in np.linspace(0.0, 8.0, 33):
        u = dist.cdf(t)
        # recovering t from a rounded u is limited by dq/du = 1/((1-u) rate)
        tol = max(1e-12, 2.0 * np.finfo(float).eps / max(1.0 - u, 1e-300) / dist.rate)
        assert abs(dist.quantile(u) - t) <= tol


def test_exponential_cdf_shape():
    dist = Exponential(1.5)
    assert dist.cdf(0.0) == 0.0
    ts = np.linspace(0.0, 10.0, 101)
    vals = dist.cdf(ts)
    assert np.all(np.diff(vals) >= 0)
    assert dist.cdf(50.0) > 1.0 - 1e-12


def test_exponential_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Exponential(-1.0)


@pytest.mark.parametrize(
    "dist", [Exponential(2.0), TabulatedQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 3.0))]
)
@pytest.mark.parametrize("u", [math.nan, -0.1, 1.1, [0.5, math.nan], [0.2, 1.5]])
def test_quantile_refuses_arguments_outside_the_unit_interval(dist, u):
    with pytest.raises(ValueError, match=r"quantile argument must lie in \[0, 1\]"):
        dist.quantile(u)


@pytest.mark.parametrize(
    "dist", [Exponential(2.0), TabulatedQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 3.0))]
)
def test_quantile_leaves_its_argument_as_it_was(dist):
    u = np.array([0.0, 0.25, 0.5, 0.999, 1.0])
    kept = u.copy()
    out = dist.quantile(u)
    assert u.tobytes() == kept.tobytes()
    assert out is not u and not np.shares_memory(out, u)
    frozen = kept.copy()
    frozen.setflags(write=False)
    assert dist.quantile(frozen).tobytes() == out.tobytes()


@pytest.mark.parametrize(
    "dist", [Exponential(2.0), TabulatedQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 3.0))]
)
def test_quantile_of_a_scalar_is_a_float_and_of_nothing_is_empty(dist):
    for u in (0.3, np.float64(0.3), np.array(0.3)):
        q = dist.quantile(u)
        assert type(q) is float
        assert q == dist.quantile(np.array([0.3]))[0]
    for empty in ([], np.empty(0), np.empty((0, 3))):
        out = dist.quantile(empty)
        assert isinstance(out, np.ndarray) and out.size == 0
        assert out.shape == np.shape(empty) and out.dtype == np.float64


@pytest.mark.parametrize(
    "event", [Exponential(2.0), TabulatedQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 3.0))]
)
@pytest.mark.parametrize(
    "inspection",
    [Exponential(1.0), TabulatedQuantile((0.0, 0.4, 0.4, 1.0), (1.0, 1.0, 2.0, 2.0))],
)
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_simulate_draws_the_documented_stream_layout(event, inspection, n, p):
    # Three consecutive blocks of n uniforms: cure mark, event time,
    # inspection time; each law's quantile written out as its formula.
    def quantile(law, u):
        if isinstance(law, Exponential):
            with np.errstate(divide="ignore"):
                return -np.log1p(-u) / law.rate
        return np.interp(u, law.probs, law.values)

    seed = 1234 + n
    rng = np.random.default_rng(seed)
    u_cure, u_event, u_inspect = rng.random(n), rng.random(n), rng.random(n)
    event_time = quantile(event, u_event)
    y = quantile(inspection, u_inspect)
    delta = ((u_cure >= p) & (event_time <= y)).astype(np.int8)
    sample = simulate(MixtureSpec(p=p, event=event, inspection=inspection), n, seed)
    assert sample.delta.tobytes() == delta.tobytes()
    assert sample.y.tobytes() == y.tobytes()


@pytest.mark.parametrize(
    "dist", [Exponential(2.0), TabulatedQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 3.0))]
)
def test_cdf_of_nan_is_nan(dist):
    assert math.isnan(dist.cdf(math.nan))
    out = dist.cdf([math.nan, 0.5, math.inf])
    assert math.isnan(out[0]) and 0.0 < out[1] < 1.0 and out[2] == 1.0


def test_tabulated_point_mass():
    dist = TabulatedQuantile.point_mass(3.0)
    assert dist.quantile(0.01) == 3.0
    assert dist.quantile(0.99) == 3.0
    assert dist.cdf(2.999) == 0.0
    assert dist.cdf(3.0) == 1.0


def test_tabulated_cdf_is_right_continuous_generalized_inverse():
    dist = TabulatedQuantile(probs=(0.0, 0.5, 1.0), values=(0.0, 1.0, 3.0))
    assert dist.quantile(0.25) == pytest.approx(0.5)
    assert dist.quantile(0.75) == pytest.approx(2.0)
    # quantile then cdf lands back on the probability
    for u in np.linspace(0.01, 0.99, 25):
        assert abs(dist.cdf(dist.quantile(u)) - u) <= 1e-12


@pytest.mark.parametrize(
    "probs, values, message",
    [
        ((0.0, 1.0), (0.0, 1.0, 2.0), "equal length"),
        ((0.1, 1.0), (0.0, 1.0), "start at 0 and end at 1"),
        ((0.0, 0.6, 0.4, 1.0), (0.0, 1.0, 2.0, 3.0), "probs must be nondecreasing"),
        ((0.0, math.nan, 1.0), (0.5, 1.0, 2.0), "probs must be finite"),
        ((0.0, 1.0), (0.0, math.inf), "values must be finite"),
        ((0.0, 0.5, 1.0), (0.0, 2.0, 1.0), "values must be nondecreasing"),
    ],
)
def test_tabulated_quantile_refuses_a_bad_table(probs, values, message):
    with pytest.raises(ValueError, match=message):
        TabulatedQuantile(probs, values)


def test_mixture_spec_validates_p():
    with pytest.raises(ValueError):
        MixtureSpec(p=-0.1, event=Exponential(1.0), inspection=Exponential(1.0))
    with pytest.raises(ValueError):
        MixtureSpec(p=1.1, event=Exponential(1.0), inspection=Exponential(1.0))


@pytest.mark.parametrize(
    "delta, y",
    [
        ([2, 5], [1.0, 2.0]),
        ([0.5, 1], [1.0, 2.0]),  # an int8 cast alone would read 0.5 as 0
        ([0, 1], [1.0, math.inf]),
        ([0, 1], [1.0, math.nan]),
        ([0, 1], [-1.0, 2.0]),
        ([0, 1, 1], [1.0, 2.0]),
        ([], []),
    ],
)
def test_sorted_sample_checks_records(delta, y):
    # A SortedSample is built only from a CurrentStatusSample, whose
    # constructor owns the record checks.
    with pytest.raises(ValueError):
        CurrentStatusSample(delta=np.asarray(delta), y=np.asarray(y, dtype=float))


def test_boolean_and_int8_indicators_give_the_same_sample():
    # A boolean array skips the value check; the sample it gives must be the
    # one its int8 twin gives, byte for byte.
    rng = np.random.default_rng(5)
    delta = rng.random(50) < 0.6
    y = rng.random(50)
    from_bool = CurrentStatusSample(delta=delta, y=y)
    from_int8 = CurrentStatusSample(delta=delta.astype(np.int8), y=y)
    assert from_bool.delta.dtype == from_int8.delta.dtype == np.int8
    assert from_bool.delta.tobytes() == from_int8.delta.tobytes()
    assert from_bool.y.tobytes() == from_int8.y.tobytes()


def test_a_boolean_byte_other_than_0_or_1_is_read_as_1():
    raw = np.frombuffer(bytes([0, 1, 2, 255]), dtype=bool)
    sample = CurrentStatusSample(delta=raw, y=np.array([1.0, 2.0, 3.0, 4.0]))
    assert sample.delta.tolist() == [0, 1, 1, 1]
    assert npmle_pava(raw).fhat.tolist() == npmle_pava([0, 1, 1, 1]).fhat.tolist()


@pytest.mark.parametrize("bad", [0.5, 2, -1, math.nan])
def test_indicators_other_than_0_or_1_are_still_refused(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        CurrentStatusSample(delta=np.array([1, bad]), y=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="0 or 1"):
        npmle_pava(np.array([1, bad]))


def test_simulate_hands_its_boolean_indicators_to_the_sample(monkeypatch):
    seen = []
    check = model._indicators
    monkeypatch.setattr(model, "_indicators", lambda *a: seen.append(a[0].dtype) or check(*a))
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    sample = simulate(spec, 20, 3)
    assert seen == [np.dtype(bool)] and sample.delta.dtype == np.int8


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_tail_start_refuses_a_cut_off_that_is_not_finite(x):
    ss = SortedSample(CurrentStatusSample(delta=[1, 0, 1], y=[2.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match=f"^cut-off must be finite, got {x!r}$"):
        ss.tail_start(x)


def test_sorted_sample_derives_tie_groups_from_y():
    sample = CurrentStatusSample(delta=np.array([1, 0, 1]), y=np.array([1.0, 1.0, 2.0]))
    ss = SortedSample(sample)
    assert np.array_equal(ss.group_start, [0, 2])
    assert not ss.group_start.flags.writeable
    with pytest.raises(TypeError):
        SortedSample(sample, group_start=[0, 1, 2])
    # An unsorted sample comes out stably sorted with its indicators.
    ss = SortedSample(
        CurrentStatusSample(delta=np.array([0, 1, 1, 0]), y=np.array([2.0, 1.0, 2.0, 1.0]))
    )
    assert np.array_equal(ss.y, [1.0, 1.0, 2.0, 2.0])
    assert np.array_equal(ss.delta, [1, 0, 0, 1])
    assert np.array_equal(ss.group_start, [0, 2])


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((np.array([1.0, 2.0]),), {}),
        (((np.array([1, 0]), np.array([1.0, 2.0])),), {}),
        ((), {"delta": np.array([1, 0]), "y": np.array([1.0, 2.0])}),
    ],
    ids=["array", "tuple", "keywords"],
)
def test_sorted_sample_refuses_raw_arrays(args, kwargs):
    with pytest.raises(TypeError):
        SortedSample(*args, **kwargs)


def test_sort_checks_no_record_twice(monkeypatch):
    calls = []
    check = model._indicators
    monkeypatch.setattr(model, "_indicators", lambda *a: calls.append(a) or check(*a))
    sample = CurrentStatusSample(delta=np.array([1, 0, 1]), y=np.array([2.0, 1.0, 2.0]))
    assert len(calls) == 1
    SortedSample(sample)
    assert len(calls) == 1


def argsorts_of_a_sort(sample):
    """The kinds of the argsorts that ``SortedSample`` takes of the times of
    ``sample``: they are swapped for a view that counts the argsorts taken
    of it, through the array method or through np.argsort."""
    calls = []

    class CountingTimes(np.ndarray):
        def argsort(self, *args, **kwargs):
            calls.append(kwargs.get("kind"))
            return super().argsort(*args, **kwargs)

    object.__setattr__(sample, "y", sample.y.view(CountingTimes))
    SortedSample(sample)
    return calls


def test_ties_only_take_the_argsort():
    # At and above the argsort gate, the packed-key sort leaves an untied
    # sample, one with a zero time included, to a plain sort of keys; only
    # ties take one stable argsort.
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    untied = simulate(spec, 10_000, seed=0)
    assert untied.n >= model._ARGSORT_N
    assert np.unique(untied.y).size == untied.n and untied.y.min() > 0.0
    assert argsorts_of_a_sort(untied) == []
    with_zero = CurrentStatusSample(delta=untied.delta, y=np.append(untied.y[1:], -0.0))
    assert np.unique(with_zero.y).size == with_zero.n and with_zero.y.min() == 0.0
    assert argsorts_of_a_sort(with_zero) == []
    rng = np.random.default_rng(0)
    tied = CurrentStatusSample(delta=rng.integers(0, 2, 10_000), y=rng.integers(1, 9, 10_000))
    assert argsorts_of_a_sort(tied) == ["stable"]


@pytest.mark.parametrize("n", [1, 2, 100, model._ARGSORT_N - 1])
def test_below_the_gate_every_sample_takes_one_stable_argsort(monkeypatch, n):
    packed = []
    monkeypatch.setattr(model, "_sort_records", lambda *args: packed.append(args))
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    untied = simulate(spec, n, seed=0)
    with_zero = CurrentStatusSample(delta=untied.delta, y=np.append(untied.y[1:], -0.0))
    rng = np.random.default_rng(0)
    tied = CurrentStatusSample(delta=rng.integers(0, 2, n), y=rng.integers(1, 3, n))
    for sample in (untied, with_zero, tied):
        assert argsorts_of_a_sort(sample) == ["stable"]
    assert packed == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_a_bad_time_amid_valid_ones_is_refused(bad):
    y = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    y[2] = bad
    with pytest.raises(ValueError, match="inspection times must be finite and nonnegative"):
        CurrentStatusSample(delta=np.array([0, 1, 0, 1, 1]), y=y)


def test_negative_zero_time_is_stored_as_zero():
    sample = CurrentStatusSample(delta=[1, 0], y=[-0.0, 1.0])
    assert not np.signbit(sample.y).any()
    assert not np.signbit(SortedSample(sample).y).any()


def test_simulate_all_cured_means_no_events():
    spec = MixtureSpec(p=1.0, event=Exponential(3.0), inspection=Exponential(1.0))
    for seed in (0, 1, 2):
        sample = simulate(spec, 50, seed=seed)
        assert int(sample.delta.sum()) == 0


def test_simulate_immediate_event_always_observed():
    spec = MixtureSpec(
        p=0.0, event=TabulatedQuantile.point_mass(0.0), inspection=Exponential(1.0)
    )
    sample = simulate(spec, 50, seed=2)
    assert int(sample.delta.sum()) == 50


def test_simulate_indicator_mean_matches_quadrature():
    q = event_indicator_mean(0.3, 2.0, 1.0)
    assert abs(q - 0.7 * (2.0 / 3.0)) <= 1e-9
    n = 100_000
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    sample = simulate(spec, n, seed=314)
    mean = float(np.mean(sample.delta))
    assert abs(mean - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n)
    assert abs(mean - 0.4667) <= 0.01


def test_simulate_deterministic_per_seed():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    a = simulate(spec, 200, seed=9)
    b = simulate(spec, 200, seed=9)
    c = simulate(spec, 200, seed=10)
    assert np.array_equal(a.delta, b.delta) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_simulate_rejects_bad_n():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    for n in (0, 2.5, 100.0, math.nan):
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            simulate(spec, n, seed=1)


def test_simulate_rejects_a_seed_that_is_not_a_nonnegative_integer():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    for seed in (-1, 2.5):
        with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
            simulate(spec, 5, seed)


def test_sort_basic_and_idempotent():
    sample = CurrentStatusSample(delta=np.array([1, 0]), y=np.array([2.0, 1.0]))
    ss = SortedSample(sample)
    assert np.array_equal(ss.y, [1.0, 2.0])
    assert np.array_equal(ss.delta, [0, 1])
    again = SortedSample(CurrentStatusSample(delta=ss.delta, y=ss.y))
    assert np.array_equal(again.y, ss.y) and np.array_equal(again.delta, ss.delta)


def test_sort_tie_group_keeps_input_order():
    sample = CurrentStatusSample(delta=np.array([1, 0]), y=np.array([1.0, 1.0]))
    ss = SortedSample(sample)
    assert np.array_equal(ss.delta, [1, 0])  # stable
    assert np.array_equal(ss.group_start, [0])  # one shared threshold


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_sort_with_concomitants_gives_the_bytes_of_sorted_sample(tied):
    # The older name is kept only because the benchmark times the sort
    # under it; it must stay the same call.
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    sample = simulate(spec, 200, seed=3)
    if tied:
        sample = CurrentStatusSample(delta=sample.delta, y=np.round(sample.y * 4) / 4)
    old, new = model.sort_with_concomitants(sample), SortedSample(sample)
    assert new.group_start.size < 200 if tied else new.group_start.size == 200
    for name in ("y", "delta", "group_start"):
        got, want = getattr(old, name), getattr(new, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sort_preserves_multiset():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        delta = rng.integers(0, 2, size=n)
        y = np.round(rng.uniform(0.0, 3.0, size=n), 1)  # forces some ties
        ss = SortedSample(CurrentStatusSample(delta=delta, y=y))
        assert sorted(zip(y, delta)) == sorted(zip(ss.y, ss.delta))
        assert np.all(np.diff(ss.y) >= 0)


def test_csv_round_trip_is_exact(tmp_path):
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    sample = simulate(spec, 1000, seed=5)
    path = tmp_path / "data.csv"
    write_csv(sample, path)
    back = read_csv(path)
    assert np.array_equal(back.delta, sample.delta)
    assert np.array_equal(back.y, sample.y)  # 17 significant digits round-trip


def test_csv_negative_y_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delta,y\n1,0.5\n0,-1\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_csv(path)


def test_csv_bad_delta_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delta,y\n2,0.5\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv(path)


def test_csv_bad_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delta,y\n1,0.5,9\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv(path)


@pytest.mark.parametrize("field", ["1_0", "\uff11\uff12", "\u0663", "inf", "nan"])
def test_csv_y_is_an_ascii_decimal(tmp_path, field):
    # float() reads "1_0" as 10.0, full-width "12" as 12.0 and Arabic-Indic 3 as 3.0.
    path = tmp_path / "bad.csv"
    path.write_text(f"delta,y\n1,0.5\n0,{field}\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_csv(path)


def test_csv_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfdelta,y\n1,0.5\n")
    sample = read_csv(path)
    assert np.array_equal(sample.delta, [1]) and np.array_equal(sample.y, [0.5])


def test_csv_header_only_is_empty_sample(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("delta,y\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="empty sample"):
        read_csv(path)


def test_csv_wrong_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("y,delta\n0.5,1\n", encoding="utf-8")
    with pytest.raises(CsvFormatError):
        read_csv(path)


def test_csv_accepts_crlf(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"delta,y\r\n1,0.5\r\n0,2\r\n")
    sample = read_csv(path)
    assert np.array_equal(sample.delta, [1, 0])
    assert np.array_equal(sample.y, [0.5, 2.0])


def test_csv_invalid_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xef\xbb\xbfdelta,y\n1,0.5\n0,0.7\xb5\n1,2\n")
    with pytest.raises(CsvFormatError, match=r"latin1\.csv: line 3: not valid UTF-8"):
        read_csv(path)


@pytest.mark.parametrize("end", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\r\r"])
def test_csv_only_a_line_feed_ends_a_line(tmp_path, end):
    # str.splitlines() also breaks at these, which put the error on line 4;
    # of "\r\r\n" only the last "\r" belongs to the line ending.
    path = tmp_path / "bad.csv"
    path.write_text(f"delta,y\n1,0.5\n0,0.7{end}\n1,2\n", encoding="utf-8", newline="")
    with pytest.raises(CsvFormatError, match="line 3: bad inspection time"):
        read_csv(path)


_SPEC = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))


def _drawn(times):
    """The times a ``_Draws`` checks when its fill yields ``times``."""
    draws = model._Draws(_SPEC, times.size)
    draws.fill = lambda seed: times
    return draws.draw(0)


# Each site that checks an array of reals, and the text that refuses one.
_REAL_ARRAY_SITES = [
    pytest.param(
        lambda v: Exponential(1.0).quantile(v),
        "quantile argument must lie in [0, 1]",
        id="quantile",
    ),
    pytest.param(
        lambda v: CurrentStatusSample(delta=np.zeros(v.size, dtype=np.int8), y=v),
        "inspection times must be finite and nonnegative",
        id="sample-times",
    ),
    pytest.param(_drawn, "inspection times must be finite and nonnegative", id="drawn-times"),
    pytest.param(lambda v: ks_distance(v, "std-normal"), "samples must be finite", id="ks"),
    pytest.param(
        lambda v: log_lik(v, np.zeros(v.size)), "f values must lie in [0, 1]", id="log-lik"
    ),
    pytest.param(
        lambda v: theoretical_mn(v, 100, 0.3, 2.0, 1.0),
        "x must be finite and nonnegative",
        id="mn-x",
    ),
]


@pytest.mark.parametrize("call, refused", _REAL_ARRAY_SITES)
def test_each_array_of_reals_is_refused_in_its_range_words(call, refused):
    # NaN, both infinities, and the nearest doubles below 0 and above 1
    # where the range stops there, each amid valid entries.
    outside = [math.nan, math.inf, -math.inf]
    if "nonnegative" in refused or "[0, 1]" in refused:
        outside.append(-5e-324)
    if "[0, 1]" in refused:
        outside.append(np.nextafter(1.0, 2.0))
    for bad in outside:
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            call(np.array([0.0, bad, 1.0]))
    call(np.array([0.0, 5e-324, 1.0]))


def test_an_empty_array_of_reals_passes_where_it_did():
    assert Exponential(1.0).quantile([]).size == 0
    assert theoretical_mn([], 100, 0.3, 2.0, 1.0).size == 0
    with pytest.raises(ValueError, match="^need at least one sample$"):
        ks_distance([], "std-normal")


@pytest.mark.parametrize(
    "samples",
    [0.3, [[0.3], [0.1], [0.2]], [[0.3, 0.1], [0.2, 0.4]], np.empty((0, 2))],
    ids=["scalar", "column", "2x2", "empty-2-d"],
)
def test_ks_distance_refuses_samples_that_are_not_1d(samples):
    with pytest.raises(ValueError, match="^samples must be a nonempty 1-d sequence$"):
        ks_distance(samples, "std-normal")


_SORTED = SortedSample(simulate(_SPEC, 200, 0))

# Each site that checks a choice parameter: the call, which returns the
# value kept where one is, the name it refuses a value under, and the
# choices, the first of which the call accepts.
_CHOICE_SITES = [
    pytest.param(
        lambda kind: CutoffRule(kind).kind,
        "cut-off kind",
        ("optimal", "undersmoothed", "fixed-x", "fixed-tail"),
        id="cut-off-kind",
    ),
    pytest.param(
        lambda name: ks_distance([0.1, 0.2], name),
        "reference",
        ("std-normal", "half-normal"),
        id="ks-reference",
    ),
    pytest.param(
        lambda name: z_stats(_SORTED, 1.0, 0.3, name),
        "studentization",
        ("known-p", "plug-in"),
        id="z-stats",
    ),
    pytest.param(
        lambda name: McConfig(_SPEC, 10, 5, 0, CutoffRule("fixed-x", x=1.0), name).studentization,
        "studentization",
        ("known-p", "plug-in"),
        id="mc-config",
    ),
    pytest.param(
        lambda name: cv_m1_curve(_SORTED, name), "variance_stat", ("p1", "p2"), id="cv-m1"
    ),
    pytest.param(
        lambda name: cv_m2_curve(_SORTED, name), "variance_stat", ("p1", "p2"), id="cv-m2"
    ),
]


@pytest.mark.parametrize("call, name, choices", _CHOICE_SITES)
def test_each_choice_parameter_is_refused_in_one_form(call, name, choices):
    # A list, a tuple, a 0-d array or the bytes of a choice are not the
    # choice, and neither is a string that names none.
    first = choices[0]
    for bad in ("bogus", first.upper(), [first], (first,), np.array(first), first.encode(), None):
        refused = f"{name} must be one of {choices}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            call(bad)
    # A numpy string is taken, and a kept choice is a plain str.
    kept = call(np.str_(first))
    assert not isinstance(kept, str) or type(kept) is str
