"""Invariants of the tail averages, the replication loop, the NPMLE and
the CSV format, checked on generated inputs."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
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
)
from curest._parallel import chunk_spans, replicate

from oracles import maxmin_brute

# Inspection times drawn mostly from a handful of values, so most samples
# have ties, and sometimes from a continuum, so some have none.
inspection_times = st.one_of(
    st.integers(0, 5).map(float), st.floats(0.0, 10.0, allow_nan=False)
)
samples = st.lists(st.tuples(st.integers(0, 1), inspection_times), min_size=1, max_size=60)
CASES = settings(max_examples=200, deadline=None)
FEW_CASES = settings(max_examples=100, deadline=None)


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
