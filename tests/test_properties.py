"""Invariants of the tail averages, checked on generated samples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curest import (
    CurrentStatusSample,
    cv_m1_curve,
    cv_m2_curve,
    estimate_cure,
    select_cutoff,
    sort_with_concomitants,
    trace,
)

# Inspection times drawn mostly from a handful of values, so most samples
# have ties, and sometimes from a continuum, so some have none.
inspection_times = st.one_of(
    st.integers(0, 5).map(float), st.floats(0.0, 10.0, allow_nan=False)
)
samples = st.lists(st.tuples(st.integers(0, 1), inspection_times), min_size=1, max_size=60)
CASES = settings(max_examples=200, deadline=None)


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
