"""Invariants of the sort, the tail averages, the replication loop, the
NPMLE and the CSV format, checked on generated inputs."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curest import (
    CurrentStatusSample,
    Exponential,
    MixtureSpec,
    cv_m1_curve,
    cv_m2_curve,
    estimate_cure,
    npmle_pava,
    read_csv,
    select_cutoff,
    simulate,
    sort_with_concomitants,
    trace,
    write_csv,
    z_stats,
)
from curest._parallel import chunk_spans, replicate
from curest.npmle import _top_indicator

from oracles import maxmin_brute, z_stats_from_trace

# Inspection times drawn mostly from a handful of values, so most samples
# have ties, and sometimes from a continuum, so some have none.
inspection_times = st.one_of(
    st.integers(0, 5).map(float), st.floats(0.0, 10.0, allow_nan=False)
)
samples = st.lists(st.tuples(st.integers(0, 1), inspection_times), min_size=1, max_size=60)
CASES = settings(max_examples=200, deadline=None)
FEW_CASES = settings(max_examples=100, deadline=None)


@st.composite
def large_samples(draw):
    """Samples of up to 400 records: untied times, times on a few tied
    values, zeros of both signs among a few positive values, one ``-0.0``
    among untied positive times, or untied times at the ends of the double
    range (subnormals, times of 2.0 and more, whose keys carry the top
    exponent bit, and the largest double).  Below 100 records numpy's
    default sort of doubles happens to be stable, so half the draws are
    larger, where it is not."""
    n = draw(st.one_of(st.integers(1, 99), st.integers(100, 400)))
    kinds = ["untied", "tied", "signed-zero", "lone-negative-zero", "extreme"]
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "untied":
        y = rng.permutation(n) + rng.uniform(0.0, 0.5, n)
    elif kind == "tied":
        y = rng.integers(0, 6, n).astype(float)
    elif kind == "signed-zero":
        y = rng.choice([0.0, -0.0, -0.0, 0.0, 1.5, 3.0], n)
    elif kind == "lone-negative-zero":
        y = rng.permutation(n) + rng.uniform(0.5, 1.0, n)
        y[rng.integers(n)] = -0.0
    else:
        subnormal = np.arange(1, n + 1) * np.finfo(float).smallest_subnormal
        pool = np.concatenate([subnormal, 2.0 ** rng.uniform(1.0, 1023.0, n)])
        y = rng.permutation(np.append(rng.choice(pool, n - 1, replace=False), np.finfo(float).max))
    return CurrentStatusSample(delta=rng.integers(0, 2, n), y=y)


def sorted_sample(records):
    delta, y = zip(*records)
    return sort_with_concomitants(CurrentStatusSample(delta=np.array(delta), y=np.array(y)))


def derived(ss):
    """What the estimators derive from a sorted sample: exact bytes and
    reprs, or the message of the error raised."""
    tr = trace(ss)
    out = [getattr(tr, name).tobytes() for name in ("index", "y", "tail_count", "p1", "p2")]
    for build in (cv_m1_curve, cv_m2_curve):
        try:
            curve = build(ss)
        except ValueError as exc:
            out.append(str(exc))
            continue
        out += [a.tobytes() for a in (curve.variance, curve.bias_sq, curve.objective)]
        out.append(repr(curve.plug_ins))
        for guard in (1, 5):
            try:
                choice = select_cutoff(curve, guard=guard)
            except ValueError as exc:
                out.append(str(exc))
                continue
            out += [repr(choice), repr(estimate_cure(tr, choice))]
    return out


@CASES
@given(records=samples, data=st.data())
def test_record_order_within_tie_groups_changes_nothing(records, data):
    # The stable sort keeps the input order inside each tie group, so
    # permuting the input permutes the records within every group.
    order = data.draw(st.permutations(range(len(records))))
    a = sorted_sample(records)
    b = sorted_sample([records[i] for i in order])
    assert np.array_equal(a.y, b.y)
    assert derived(a) == derived(b)


@CASES
@given(records=samples)
def test_trace_entries_are_distinct_thresholds_with_dominating_running_max(records):
    ss = sorted_sample(records)
    tr = trace(ss)
    assert np.all(np.diff(tr.y) > 0)
    assert np.array_equal(tr.tail_count, [np.sum(ss.y >= x) for x in tr.y])
    assert np.all(tr.p2 >= tr.p1)
    assert np.all(np.diff(tr.p2) >= 0)


@CASES
@given(reps=st.integers(1, 500), workers=st.integers(1, 64))
def test_chunk_spans_split_the_replications_in_order(reps, workers):
    spans = chunk_spans(reps, workers)
    assert spans[0][0] == 0 and spans[-1][1] == reps
    assert all(a < b for a, b in spans)
    assert all(b == c for (_, b), (c, _) in zip(spans, spans[1:]))


def test_chunk_spans_refuses_fractional_reps():
    with pytest.raises(ValueError, match="reps must be an integer of at least 1"):
        chunk_spans(2.5, 1)


@FEW_CASES
@given(
    p=st.floats(0.0, 1.0),
    n=st.integers(1, 30),
    reps=st.integers(1, 12),
    seed=st.integers(0, 2**32),
)
def test_replicate_is_the_seeded_list_comprehension(p, n, reps, seed):
    spec = MixtureSpec(p=p, event=Exponential(2.0), inspection=Exponential(1.0))

    def stat(sample):
        return sample.delta.tobytes() + sample.y.tobytes()

    expected = [stat(simulate(spec, n, seed + k)) for k in range(reps)]
    assert replicate(stat, spec, n, reps, seed, workers=1) == expected


@CASES
@given(deltas=st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_pava_equals_the_max_min_formula(deltas):
    assert npmle_pava(deltas).fhat.tobytes() == maxmin_brute(deltas).fhat.tobytes()


@FEW_CASES
@given(
    records=st.lists(
        st.tuples(st.integers(0, 1), st.floats(min_value=0.0, allow_infinity=False)),
        min_size=1,
        max_size=30,
    )
)
def test_csv_round_trip_reproduces_the_bytes(records):
    delta, y = zip(*records)
    sample = CurrentStatusSample(delta=np.array(delta), y=np.array(y))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_csv(sample, path)
        back = read_csv(path)
    assert back.delta.tobytes() == sample.delta.tobytes()
    assert back.y.tobytes() == sample.y.tobytes()


def assert_stable_argsort_bytes(sample):
    order = np.argsort(sample.y, kind="stable")
    ss = sort_with_concomitants(sample)
    assert ss.y.tobytes() == sample.y[order].tobytes()
    assert ss.delta.tobytes() == sample.delta[order].tobytes()
    opens = np.concatenate([[0], np.flatnonzero(np.diff(sample.y[order]) != 0) + 1])
    want = opens.astype(np.intp)
    assert ss.group_start.dtype == want.dtype and ss.group_start.tobytes() == want.tobytes()
    assert not any(a.flags.writeable for a in (ss.y, ss.delta, ss.group_start))


@CASES
@given(sample=large_samples())
@example(sample=CurrentStatusSample(delta=np.array([1]), y=np.array([-0.0])))
@example(sample=CurrentStatusSample(delta=np.array([0]), y=np.array([-0.0])))
def test_sort_gives_the_bytes_of_a_stable_argsort(sample):
    assert_stable_argsort_bytes(sample)


def test_sort_of_a_large_simulated_sample_gives_the_bytes_of_a_stable_argsort():
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    assert_stable_argsort_bytes(simulate(spec, 100_000, 0))


@CASES
@given(sample=large_samples())
def test_top_indicator_is_the_last_sorted_indicator(sample):
    assert _top_indicator(sample) == sort_with_concomitants(sample).delta[-1]


@CASES
@given(
    sample=st.one_of(samples.map(sorted_sample), large_samples().map(sort_with_concomitants)),
    where=st.sampled_from(["below", "on", "between", "above"]),
    data=st.data(),
)
def test_tail_start_opens_the_tail_of_its_threshold(sample, where, data):
    y = sample.y
    j = data.draw(st.integers(0, y.size - 1))
    if where == "below":
        x = math.nextafter(y[0], -math.inf)
    elif where == "above":
        empty = "^cut-off exceeds the largest inspection time; the tail is empty$"
        with pytest.raises(ValueError, match=empty):
            sample.tail_start(math.nextafter(y[-1], math.inf))
        return
    else:
        x = float(y[j])
        if where == "between" and j > 0 and y[j - 1] < y[j]:
            x = float(y[j - 1] + (y[j] - y[j - 1]) / 2)
    i = sample.tail_start(x)
    assert i == np.flatnonzero(y >= x)[0]
    assert i in sample.group_start


@CASES
@given(
    sample=st.one_of(samples.map(sorted_sample), large_samples().map(sort_with_concomitants)),
    where=st.sampled_from(["below", "on", "between", "top"]),
    data=st.data(),
)
def test_z_stats_reads_the_trace_entry_of_its_cutoff(sample, where, data):
    # "on" hits a threshold, often one shared by a tie run, at any position
    # of the run; "between" lies strictly between two distinct thresholds.
    y = sample.y
    if where == "below":
        x = float(y[0]) / 2
    elif where == "top":
        x = float(y[-1])
    else:
        j = data.draw(st.integers(0, y.size - 1))
        x = float(y[j])
        if where == "between" and j > 0 and y[j - 1] < y[j]:
            x = float(y[j - 1] + (y[j] - y[j - 1]) / 2)
    for studentization in ("known-p", "plug-in"):
        p_true = data.draw(st.sampled_from([0.3, 0.5, 0.9]))
        got = z_stats(sample, x, p_true, studentization)
        want = z_stats_from_trace(sample, x, p_true, studentization)
        assert np.array([got.z1, got.z2]).tobytes() == np.array(want[:2]).tobytes()
        assert got.tail_count == want[2]
