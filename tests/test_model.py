"""Distribution specs, mixture sampling, sorting, and CSV round trips."""

import math

import numpy as np
import pytest

from curest import (
    CsvFormatError,
    CurrentStatusSample,
    Exponential,
    MixtureSpec,
    SortedSample,
    TabulatedQuantile,
    read_csv,
    simulate,
    sort_with_concomitants,
    write_csv,
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
    assert dist.tau == math.inf
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


def test_tabulated_point_mass():
    dist = TabulatedQuantile.point_mass(3.0)
    assert dist.quantile(0.01) == 3.0
    assert dist.quantile(0.99) == 3.0
    assert dist.cdf(2.999) == 0.0
    assert dist.cdf(3.0) == 1.0
    assert dist.tau == 3.0


def test_tabulated_cdf_is_right_continuous_generalized_inverse():
    dist = TabulatedQuantile(probs=(0.0, 0.5, 1.0), values=(0.0, 1.0, 3.0))
    assert dist.quantile(0.25) == pytest.approx(0.5)
    assert dist.quantile(0.75) == pytest.approx(2.0)
    # quantile then cdf lands back on the probability
    for u in np.linspace(0.01, 0.99, 25):
        assert abs(dist.cdf(dist.quantile(u)) - u) <= 1e-12


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


def test_sorted_sample_derives_tie_groups_from_y():
    sample = CurrentStatusSample(delta=np.array([1, 0, 1]), y=np.array([1.0, 1.0, 2.0]))
    ss = sort_with_concomitants(sample)
    assert np.array_equal(ss.group_start, [0, 2])
    assert not ss.group_start.flags.writeable
    with pytest.raises(TypeError):
        SortedSample(sample, group_start=[0, 1, 2])
    # An unsorted sample comes out stably sorted with its indicators.
    ss = sort_with_concomitants(
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
    sort_with_concomitants(sample)
    assert len(calls) == 1


def test_ties_only_take_the_argsort(monkeypatch):
    # The packed-key sort leaves an untied sample, one with a zero time
    # included, to a plain sort of keys; only ties take one stable argsort.
    calls = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    untied = simulate(spec, 10_000, seed=0)
    assert np.unique(untied.y).size == untied.n and untied.y.min() > 0.0
    sort_with_concomitants(untied)
    with_zero = CurrentStatusSample(delta=untied.delta, y=np.append(untied.y[1:], -0.0))
    assert np.unique(with_zero.y).size == with_zero.n and with_zero.y.min() == 0.0
    sort_with_concomitants(with_zero)
    assert calls == []
    rng = np.random.default_rng(0)
    tied = CurrentStatusSample(delta=rng.integers(0, 2, 10_000), y=rng.integers(1, 9, 10_000))
    sort_with_concomitants(tied)
    assert calls == ["stable"]


def test_negative_zero_time_is_stored_as_zero():
    sample = CurrentStatusSample(delta=[1, 0], y=[-0.0, 1.0])
    assert not np.signbit(sample.y).any()
    assert not np.signbit(sort_with_concomitants(sample).y).any()


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
    ss = sort_with_concomitants(sample)
    assert np.array_equal(ss.y, [1.0, 2.0])
    assert np.array_equal(ss.delta, [0, 1])
    again = sort_with_concomitants(CurrentStatusSample(delta=ss.delta, y=ss.y))
    assert np.array_equal(again.y, ss.y) and np.array_equal(again.delta, ss.delta)


def test_sort_tie_group_keeps_input_order():
    sample = CurrentStatusSample(delta=np.array([1, 0]), y=np.array([1.0, 1.0]))
    ss = sort_with_concomitants(sample)
    assert np.array_equal(ss.delta, [1, 0])  # stable
    assert np.array_equal(ss.group_start, [0])  # one shared threshold


def test_sort_preserves_multiset():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        delta = rng.integers(0, 2, size=n)
        y = np.round(rng.uniform(0.0, 3.0, size=n), 1)  # forces some ties
        ss = sort_with_concomitants(CurrentStatusSample(delta=delta, y=y))
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
