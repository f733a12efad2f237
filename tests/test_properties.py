"""Invariants of the sort, the tail averages, the replication loop, the
NPMLE and the CSV format, checked on generated inputs."""

import concurrent.futures
import math
import sys
import tempfile
from concurrent.futures import Future
from fractions import Fraction
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curest import (
    CurrentStatusSample,
    CutoffRule,
    Exponential,
    McConfig,
    MixtureSpec,
    SortedSample,
    TabulatedQuantile,
    ThinningConfig,
    cv_m1_curve,
    cv_m2_curve,
    estimate_cure,
    inconsistency_probe,
    npmle_pava,
    plug_ins,
    read_csv,
    run_mc,
    select_cutoff,
    simulate,
    theoretical_cutoff_exponential,
    thinning_check,
    trace,
    write_csv,
    z_stats,
)
from curest import _band
from curest._parallel import chunk_spans, replicate_seeds
from curest.asymptotics import _McSpan, _tail_pair, _z_pair
from curest.model import _Draws, _sort_records
from curest.npmle import _ProbeSpan

from oracles import (
    conditional_running_mean_max_cdf,
    maxmin_brute,
    optimal_cutoff_hp,
    pava_by_record,
    running_mean_max_cdf,
    select_cutoff_reference,
    z_stats_by_definition,
)

# Inspection times drawn mostly from a handful of values, so most samples
# have ties, and sometimes from a continuum, so some have none.
inspection_times = st.one_of(
    st.integers(0, 5).map(float), st.floats(0.0, 10.0, allow_nan=False)
)
samples = st.lists(st.tuples(st.integers(0, 1), inspection_times), min_size=1, max_size=60)
untied_samples = st.lists(
    st.tuples(st.integers(0, 1), st.floats(0.0, 10.0, allow_nan=False)),
    min_size=1,
    max_size=60,
    unique_by=lambda record: record[1],
)
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


# Tests of a SortedSample draw the CurrentStatusSample and sort it in the
# body: hypothesis prints a dataclass by its init fields, and SortedSample's
# is the InitVar ``sample``, which it does not keep, so the failure report
# would hide the falsifying example behind an AttributeError.
def current_status_sample(records):
    delta, y = zip(*records)
    return CurrentStatusSample(delta=np.array(delta), y=np.array(y))


def sorted_sample(records):
    return SortedSample(current_status_sample(records))


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
        out.append(repr(plug_ins(curve.trace)))
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


def outcome(select, curve, guard):
    try:
        return repr(select(curve, guard=guard))
    except ValueError as exc:
        return f"ValueError: {exc}"


@FEW_CASES
@given(records=st.one_of(samples, untied_samples))
def test_select_cutoff_equals_the_mask_based_reference(records):
    ss = sorted_sample(records)
    for build in (cv_m1_curve, cv_m2_curve):
        for variance_stat in ("p1", "p2"):
            try:
                curve = build(ss, variance_stat=variance_stat)
            except ValueError:
                continue  # m1 without a valid alpha_hat
            for guard in range(1, ss.n + 2):
                want = outcome(select_cutoff_reference, curve, guard)
                assert outcome(select_cutoff, curve, guard) == want


@CASES
@given(reps=st.integers(1, 500), workers=st.integers(1, 10**4))
def test_chunk_spans_split_the_replications_in_order(reps, workers):
    spans = chunk_spans(reps, workers)
    assert spans[0][0] == 0 and spans[-1][1] == reps
    assert all(a < b for a, b in spans)
    assert all(b == c for (_, b), (c, _) in zip(spans, spans[1:]))


@CASES
@given(reps=st.integers(1, 500))
def test_one_worker_runs_one_span(reps):
    assert chunk_spans(reps, 1) == [(0, reps)]


def test_chunk_spans_refuses_fractional_reps():
    with pytest.raises(ValueError, match="reps must be an integer of at least 1"):
        chunk_spans(2.5, 1)


def test_the_pool_has_no_more_workers_than_chunks(monkeypatch):
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert replicate_seeds(lambda: str, 2, 5, workers=64) == ["5", "6"]
    assert asked == [2]


positive_floats = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@CASES
@given(
    n=st.integers(1, 10**9),
    p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    lam=positive_floats,
    mu=positive_floats,
)
@example(n=10, p=0.3, lam=2.0, mu=1e300)  # (lam + mu) ** 2 overflowed
@example(n=10, p=0.3, lam=1e300, mu=2.0)
@example(n=10, p=0.3, lam=1e-300, mu=1e-300)  # (lam + mu) ** 2 underflowed to 0
@example(n=100, p=0.3, lam=1e-160, mu=1e-160)  # subnormal terms
@example(n=100, p=0.3, lam=1e153, mu=1e153)  # 2 lam mu n near the largest float
@example(n=100, p=0.3, lam=1e308, mu=1.7e308)  # mu + 2 lam overflows
@example(n=100, p=5e-324, lam=0.25, mu=0.25)  # p (lam + mu) ** 2 rounded to 0
@example(n=1, p=5.1e-140, lam=1.3e-306, mu=1e-312)  # just below the largest float
@example(n=100, p=0.3, lam=5e-324, mu=5e-324)  # past the largest float
def test_the_closed_form_cutoff_is_accurate_or_refused(n, p, lam, mu):
    want = optimal_cutoff_hp(n, p, lam, mu)
    try:
        x = theoretical_cutoff_exponential(n, p, lam, mu)
    except ValueError as exc:
        assert "exceeds the largest float" in str(exc)
        assert want > sys.float_info.max * (1.0 - 1e-12)
        return
    assert math.isfinite(x) and x >= 0.0
    # Relative error, or the absolute error of the log argument (a sum of
    # logs of the inputs) carried through the division by mu + 2 lam.
    logs = sum(abs(math.log(v)) for v in (n, p, lam, mu)) + 1.0
    slack = 1e-12 * want + 1e-13 * logs / (mpmath.mpf(mu) + 2 * mpmath.mpf(lam))
    assert abs(x - want) <= slack + 5e-324


class DrawnBytes(_Draws):
    """A span workspace returning the bytes of each draw as ``simulate``'s
    sample holds them: int8 indicators, and ``-0.0`` stored as ``0.0``."""

    def __call__(self, seed):
        y = self.draw(seed)
        return self.delta.astype(np.int8).tobytes() + (y + 0.0).tobytes()


@FEW_CASES
@given(
    p=st.floats(0.0, 1.0),
    n=st.integers(1, 30),
    reps=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    workers=st.sampled_from([1, 3]),
)
def test_replicate_seeds_is_the_seeded_list_comprehension(p, n, reps, seed, workers):
    # One workspace serves a whole span, so each draw must overwrite all of
    # the previous one.
    spec = MixtureSpec(p=p, event=Exponential(2.0), inspection=Exponential(1.0))
    samples = (simulate(spec, n, seed + k) for k in range(reps))
    expected = [s.delta.tobytes() + s.y.tobytes() for s in samples]
    assert replicate_seeds(partial(DrawnBytes, spec, n), reps, seed, workers) == expected


@pytest.mark.parametrize(
    "n, p, inspection",
    [
        (1, 0.3, Exponential(1.0)),
        (20, 0.0, Exponential(1.0)),
        (20, 1.0, Exponential(1.0)),
        (50, 0.3, TabulatedQuantile((0.0, 0.4, 0.6, 1.0), (1.0, 2.0, 2.0, 3.0))),
        # The lowest value is -0.0 and an atom: the sample stores it as 0.0.
        (50, 0.3, TabulatedQuantile((0.0, 0.5, 1.0), (-0.0, -0.0, 1.0))),
    ],
    ids=["n1", "p0", "p1", "atoms", "signed-zero"],
)
def test_one_workspace_reused_across_seeds_draws_what_simulate_draws(n, p, inspection):
    # The stream's edges: one record, no cured or no uncured subject, tied
    # times, and seeds on both sides of 2**32 up to the largest 64-bit one.
    spec = MixtureSpec(p=p, event=Exponential(2.0), inspection=inspection)
    drawn = DrawnBytes(spec, n)
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1):
        sample = simulate(spec, n, seed)
        assert drawn(seed) == sample.delta.tobytes() + sample.y.tobytes(), seed


@CASES
@given(deltas=st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_pava_equals_the_max_min_formula(deltas):
    assert npmle_pava(deltas).fhat.tobytes() == maxmin_brute(deltas).fhat.tobytes()


@st.composite
def indicator_sequences(draw):
    """0/1 sequences of 1 to 2,000 records: runs of one value, each up to
    300 records long, or independent records with one chance of a one."""
    if draw(st.booleans()):
        runs = draw(
            st.lists(st.tuples(st.integers(0, 1), st.integers(1, 300)), min_size=1, max_size=30)
        )
        return [bit for bit, length in runs for _ in range(length)][:2000]
    n = draw(st.integers(1, 2000))
    chance = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random(n) < chance).astype(int).tolist()


# The forms in which indicators reach npmle_pava.
INDICATOR_FORMS = {
    "int8": lambda bits: np.array(bits, dtype=np.int8),
    "uint8": lambda bits: np.array(bits, dtype=np.uint8),
    "bool": lambda bits: np.array(bits, dtype=bool),
    "int64": lambda bits: np.array(bits, dtype=np.int64),
    "float64": lambda bits: np.array(bits, dtype=np.float64),
    "list": list,
}


@CASES
@given(bits=indicator_sequences(), form=st.sampled_from(sorted(INDICATOR_FORMS)))
@example(bits=[0] * 2000, form="int8")
@example(bits=[1] * 2000, form="bool")
@example(bits=[1] * 1000 + [0] * 1000, form="list")
@example(bits=[0, 1] * 1000, form="uint8")
def test_pava_gives_the_bytes_of_the_record_by_record_pass(bits, form):
    fit = npmle_pava(INDICATOR_FORMS[form](bits))
    assert fit.fhat.tobytes() == pava_by_record(bits).fhat.tobytes()


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
    ss = SortedSample(sample)
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
@given(
    sample=st.one_of(samples.map(current_status_sample), large_samples()),
    where=st.sampled_from(["below", "on", "between", "above"]),
    data=st.data(),
)
def test_tail_start_opens_the_tail_of_its_threshold(sample, where, data):
    sample = SortedSample(sample)
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
    sample=st.one_of(samples.map(current_status_sample), large_samples()),
    where=st.sampled_from(["below", "on", "between", "top"]),
    data=st.data(),
)
def test_z_stats_equals_the_statistics_by_definition(sample, where, data):
    sample = SortedSample(sample)
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
        want = z_stats_by_definition(sample, x, p_true, studentization)
        assert np.array([got.z1, got.z2]).tobytes() == np.array(want[:2]).tobytes()
        assert got.tail_count == want[2]


@CASES
@given(
    sample=st.one_of(
        samples.map(current_status_sample),
        untied_samples.map(current_status_sample),
        large_samples(),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_tail_pair_is_the_trace_entry_at_every_opening(sample, seed):
    sample = SortedSample(sample)
    # The packed keys order a tie group by indicator, not by input
    # position, so the kernel must not read the order inside a group.
    rng = np.random.default_rng(seed)
    tr, starts, n = trace(sample), sample.group_start, sample.n
    groups = np.split(sample.delta, starts[1:])
    ones = np.concatenate([rng.permutation(group) for group in groups]).nonzero()[0]
    tied = None if starts.size == n else starts
    for e, i in enumerate(starts.tolist()):
        want = np.array([tr.p1[e], tr.p2[e]]).tobytes()
        assert np.array(_tail_pair(ones, n, i, tied, 0)).tobytes() == want


def visit_schedule():
    """Scheduled visits at 0.25, 0.50, ..., 4.0, each carrying the Exp(1)
    mass of the interval ending at it: every sample of more than 16 records
    is tied."""
    probs, values, lo = [], [], 0.0
    for k in range(1, 17):
        hi = -math.expm1(-0.25 * k) if k < 16 else 1.0
        probs += [lo, hi]
        values += [0.25 * k, 0.25 * k]
        lo = hi
    return TabulatedQuantile(tuple(probs), tuple(values))


MC_DESIGNS = {
    "untied exponential": lambda p: MixtureSpec(p, Exponential(2.0), Exponential(1.0)),
    "tied visits": lambda p: MixtureSpec(p, Exponential(2.0), visit_schedule()),
    # delta is exactly 1 minus the cure mark.
    "point-mass event": lambda p: MixtureSpec(
        p, TabulatedQuantile.point_mass(0.0), Exponential(1.0)
    ),
    # Half the inspections fall on a point mass given as -0.0.
    "signed-zero table": lambda p: MixtureSpec(
        p, Exponential(2.0), TabulatedQuantile((0.0, 0.5, 1.0), (-0.0, -0.0, 2.0))
    ),
}


# 1e6 lies above every sample, so each replication is skipped there.
mc_rules = st.one_of(
    st.sampled_from([0.0, 0.3, 1.0, 2.5, 1e6]).map(lambda x: CutoffRule("fixed-x", x=x)),
    st.just(CutoffRule("optimal")),
    st.just(CutoffRule("undersmoothed")),
    st.integers(1, 3000).map(lambda tail: CutoffRule("fixed-tail", tail=tail)),
)


def public_chain(config):
    """run_mc's (rep_index, z1, z2) from the public per-sample chain."""
    kept, z1, z2 = [], [], []
    for k in range(config.reps):
        ss = SortedSample(simulate(config.spec, config.n, config.seed + k))
        x = config.cutoff.resolve(config.spec, ss)
        if x > ss.y[-1]:
            continue
        zz = z_stats(ss, x, config.spec.p, config.studentization)
        kept.append(k)
        z1.append(zz.z1)
        z2.append(zz.z2)
    return (
        np.asarray(kept, dtype=np.int64).tobytes(),
        np.asarray(z1, dtype=float).tobytes(),
        np.asarray(z2, dtype=float).tobytes(),
    )


# The examples reach the edges (see the next test): every replication
# skipped, the optimal cut-off clamped to 0, a tail longer than the sample,
# all-ones tails (a non-finite plug-in statistic), tied samples, a cut-off
# at the first record, so no one lies below it, and samples with no ones.
@FEW_CASES
@given(
    design=st.sampled_from(sorted(MC_DESIGNS)),
    p=st.sampled_from([0.05, 0.3, 0.9]),
    n=st.one_of(st.integers(1, 30), st.integers(31, 2000)),
    reps=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    rule=mc_rules,
    studentization=st.sampled_from(["known-p", "plug-in"]),
    workers=st.sampled_from([1, 3]),
)
@example(design="untied exponential", p=0.3, n=50, reps=9, seed=11,
         rule=CutoffRule("fixed-x", x=1e6), studentization="known-p", workers=3)
@example(design="untied exponential", p=0.9, n=12, reps=3, seed=1,
         rule=CutoffRule("optimal"), studentization="known-p", workers=1)
@example(design="untied exponential", p=0.3, n=40, reps=9, seed=11,
         rule=CutoffRule("fixed-tail", tail=3000), studentization="plug-in", workers=3)
@example(design="point-mass event", p=0.05, n=200, reps=9, seed=11,
         rule=CutoffRule("fixed-tail", tail=2), studentization="plug-in", workers=3)
@example(design="tied visits", p=0.3, n=500, reps=9, seed=11,
         rule=CutoffRule("undersmoothed"), studentization="plug-in", workers=3)
@example(design="tied visits", p=0.3, n=50, reps=4, seed=3,
         rule=CutoffRule("fixed-x", x=0.0), studentization="plug-in", workers=1)
@example(design="untied exponential", p=0.9, n=3, reps=4, seed=1,
         rule=CutoffRule("fixed-tail", tail=2), studentization="plug-in", workers=1)
def test_run_mc_equals_the_public_per_sample_chain(
    design, p, n, reps, seed, rule, studentization, workers
):
    # The optimal cut-off is defined for exponential laws only.
    assume(rule.kind != "optimal" or design == "untied exponential")
    config = McConfig(MC_DESIGNS[design](p), n, reps, seed, rule, studentization)
    res = run_mc(config, workers=workers)
    got = (res.rep_index.tobytes(), res.z1.tobytes(), res.z2.tobytes())
    assert got == public_chain(config)


def test_the_chain_examples_reach_their_edge_cases():
    untied, point = MC_DESIGNS["untied exponential"], MC_DESIGNS["point-mass event"]
    assert run_mc(McConfig(untied(0.3), 50, 9, 11, CutoffRule("fixed-x", x=1e6))).skipped == 9
    clamped = SortedSample(simulate(untied(0.9), 12, 1))
    assert CutoffRule("optimal").resolve(untied(0.9), clamped) == 0.0
    degenerate = McConfig(point(0.05), 200, 9, 11, CutoffRule("fixed-tail", tail=2), "plug-in")
    assert run_mc(degenerate).nonfinite > 0
    tied = SortedSample(simulate(MC_DESIGNS["tied visits"](0.3), 500, 11))
    assert tied.group_start.size < tied.n
    ones = [simulate(untied(0.9), 3, 1 + k).delta.sum() for k in range(4)]
    assert 0 in ones and max(ones) > 0


CONDITIONAL_REPS = 2000
CONDITIONAL_KS_BOUND = 1.95 / math.sqrt(CONDITIONAL_REPS)  # 99.9 % point of the KS law
CONDITIONAL_RUNS = {
    "untied exponential": (CutoffRule("fixed-x", x=0.5), 41_000),
    "tied visits": (CutoffRule("fixed-tail", tail=30), 47_000),
}


def conditional_pit(design, workers, event=None):
    """run_mc's replications of ``design`` at n = 200 with each observed p2
    mapped through its law given the replication's inspection times: the
    randomized U = P(p2 < obs | y) + V P(p2 = obs | y), uniform on (0, 1)
    when the law is right.  The chances q_i = (1 - p) F(y_i) take F from
    ``event``, by default the design's own event law.  Each replication's
    (z1, z2) is checked against the p1 and p2 read off its sorted records
    as a whole count of ones over a whole count of records."""
    n, p = 200, 0.3
    spec = MC_DESIGNS[design](p)
    rule, seed = CONDITIONAL_RUNS[design]
    config = McConfig(spec, n, CONDITIONAL_REPS, seed + 1000 * workers, rule)
    res = run_mc(config, workers=workers)
    assert res.retained == CONDITIONAL_REPS
    event = spec.event if event is None else event
    q, opens = np.empty((CONDITIONAL_REPS, n)), np.zeros((CONDITIONAL_REPS, n), dtype=bool)
    start, obs = [], []
    for k in range(CONDITIONAL_REPS):
        ss = SortedSample(simulate(spec, n, config.seed + k))
        i = ss.tail_start(rule.resolve(spec, ss))
        ones = np.concatenate([np.cumsum(ss.delta[::-1], dtype=np.int64)[::-1], [0]])
        g = ss.group_start[ss.group_start <= i]
        top = g[np.argmax(ones[g] / (n - g))]
        p1, p2 = int(ones[i]) / (n - i), int(ones[top]) / (n - top)
        assert (res.z1[k], res.z2[k]) == _z_pair(p1, p2, n - i, p, "known-p")
        q[k] = (1.0 - p) * event.cdf(ss.y)
        opens[k, ss.group_start] = True
        start.append(i)
        obs.append(Fraction(int(ones[top]), int(n - top)))
    at = conditional_running_mean_max_cdf(obs, q, opens, start)
    below = conditional_running_mean_max_cdf(obs, q, opens, start, strict=True)
    return below + np.random.default_rng(seed).random(CONDITIONAL_REPS) * (at - below)


def ks_uniform(u):
    u = np.sort(u)
    steps = np.arange(1, u.size + 1) / u.size
    return float(max((steps - u).max(), (u - steps + 1.0 / u.size).max()))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("design", sorted(CONDITIONAL_RUNS))
def test_run_mc_draws_the_exact_law_of_p2_given_the_inspection_times(design, workers):
    # Given y, the indicators are independent with chances (1 - p) F(y_i),
    # so each replication's p2 has an exact law, and the randomized PIT of
    # the observed p2 is uniform.  The seeds and the bound were fixed
    # before any run.
    gap = ks_uniform(conditional_pit(design, workers))
    assert gap <= CONDITIONAL_KS_BOUND, f"KS gap {gap:.4f}"


def test_the_conditional_law_sees_a_wrong_event_law():
    gap = ks_uniform(conditional_pit("untied exponential", 1, Exponential(1.5)))
    assert gap > CONDITIONAL_KS_BOUND, f"KS gap {gap:.4f}"


def test_the_conditional_law_at_one_chance_is_the_iid_law():
    n, m, q = 40, 7, 0.65
    points = sorted({Fraction(s, k) for k in range(m, n + 1) for s in range(0, k + 1, 3)})
    rows = len(points)
    opens = np.ones((rows, n), dtype=bool)
    for strict in (False, True):
        chances = np.full((rows, n), q)
        got = conditional_running_mean_max_cdf(points, chances, opens, [n - m] * rows, strict)
        assert got == pytest.approx(running_mean_max_cdf(points, n, m, q, strict), abs=1e-12)


@st.composite
def band_samples(draw):
    """Samples for the band path: untied and tied times (``large_samples``
    and ``samples``), with their indicators as drawn, all 0, all 1, or 1
    exactly on the records at or above some time."""
    sample = draw(st.one_of(large_samples(), samples.map(lambda r: CurrentStatusSample(*zip(*r)))))
    delta, y, n = sample.delta, sample.y, sample.n
    pattern = draw(st.sampled_from(["drawn", "zeros", "ones", "top"]))
    if pattern == "zeros":
        delta = np.zeros(n, dtype=np.int8)
    elif pattern == "ones":
        delta = np.ones(n, dtype=np.int8)
    elif pattern == "top":
        delta = (y >= np.sort(y)[n - draw(st.integers(1, n))]).astype(np.int8)
    return CurrentStatusSample(delta=delta, y=y)


@CASES
@given(sample=band_samples(), alias=st.sampled_from(["none", "y_sorted", "bits"]))
@example(sample=CurrentStatusSample(delta=[1], y=[0.0]), alias="y_sorted")
@example(sample=CurrentStatusSample(delta=[0, 1, 1, 0], y=[2.0, 1.0, 2.0, 1.0]), alias="bits")
def test_sort_records_sorts_the_records_into_its_buffers(sample, alias):
    # The aliases are the ones run_mc's workspace takes: the sorted times
    # over the unsorted ones (the band path), and the indicator bits over
    # the indicators (both paths).
    n, order = sample.n, np.argsort(sample.y, kind="stable")
    y, y_sorted = sample.y.copy(), np.empty(n)
    delta, bits = sample.delta.astype(bool), np.empty(n, dtype=np.int8)
    opens = np.empty(n, dtype=bool)
    if alias == "y_sorted":
        y_sorted = y
    elif alias == "bits":
        delta = bits = sample.delta.copy()
    untied = _sort_records(y, delta, y_sorted, bits, opens)
    want_y = sample.y[order]
    assert y_sorted.tobytes() == want_y.tobytes()
    want_opens = np.concatenate([[True], want_y[1:] != want_y[:-1]])
    assert opens.tobytes() == want_opens.tobytes()
    assert untied == bool(want_opens.all())
    raw = bits.view(np.uint8)
    assert raw.max() <= 1
    starts = want_opens.nonzero()[0]
    sums = np.add.reduceat(raw.astype(np.int64), starts)
    assert sums.tobytes() == np.add.reduceat(sample.delta[order].astype(np.int64), starts).tobytes()
    if untied:
        assert raw.tobytes() == sample.delta[order].astype(np.uint8).tobytes()


def band_rules(n):
    # A cut-off at 0, between or at the records, or above all of them, and
    # tails of 1, of n and longer than the sample.
    return st.one_of(
        st.sampled_from([0.0, 0.3, 1.0, 2.5, 1e6]).map(lambda x: CutoffRule("fixed-x", x=x)),
        st.just(CutoffRule("optimal")),
        st.just(CutoffRule("undersmoothed")),
        st.sampled_from([1, n, n + 5]).map(lambda tail: CutoffRule("fixed-tail", tail=tail)),
        st.integers(1, n).map(lambda tail: CutoffRule("fixed-tail", tail=tail)),
    )


def band_kernel(sample, config, origin, shift):
    """``_McSpan``'s (z1, z2) for the records of ``sample``, on the band
    path with the buckets ``(origin, shift)`` whatever the gate says."""
    span = _McSpan(config)
    span.buckets = (origin, shift)

    def draw(seed):
        span.u[1] = sample.y
        span.delta[:] = sample.delta
        return span.u[1]

    span.draw = draw
    return span(0)


def public_pair(sample, config):
    """(z1, z2) of ``sample`` from ``SortedSample`` and ``z_stats``, or None
    when the cut-off lies above every record."""
    ss = SortedSample(sample)
    x = config.cutoff.resolve(config.spec, ss)
    if x > ss.y[-1]:
        return None
    zz = z_stats(ss, x, config.spec.p, config.studentization)
    return zz.z1, zz.z2


@FEW_CASES
@given(
    sample=band_samples(),
    data=st.data(),
    p=st.sampled_from([0.05, 0.3, 0.9]),
    studentization=st.sampled_from(["known-p", "plug-in"]),
    origin=st.sampled_from([2.0**-3, 1.0, 2.0**4]),
    shift=st.integers(48, 53),
)
def test_the_band_kernel_equals_the_public_chain(sample, data, p, studentization, origin, shift):
    # The buckets are set past the gate, so small samples take the band
    # path, with buckets from coarse to fine.
    rule = data.draw(band_rules(sample.n))
    spec = MixtureSpec(p, Exponential(2.0), Exponential(1.0))
    config = McConfig(spec, sample.n, 1, 0, rule, studentization)
    got, want = band_kernel(sample, config, origin, shift), public_pair(sample, config)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_the_band_kernel_sorts_from_the_lowest_bucket_whose_bound_exceeds_the_floor():
    # With one bucket per binade of y + 1, the buckets are [0, 1), [1, 3)
    # and [3, 7).  The bucket starts' means are 1/5, 1/4 and 0, but p2 is
    # 1/3, at the record at 2.0 inside the middle bucket, whose bound
    # 1 / (2 + 1) exceeds the floor 1/4: the band must start there.
    sample = CurrentStatusSample(delta=[0, 0, 1, 0, 0], y=[0.5, 1.0, 2.0, 4.0, 5.0])
    spec = MixtureSpec(0.3, Exponential(2.0), Exponential(1.0))
    config = McConfig(spec, 5, 1, 0, CutoffRule("fixed-x", x=3.0))
    assert trace(SortedSample(sample)).p2[3] == 1 / 3  # at the cut-off's record
    assert band_kernel(sample, config, 1.0, 52) == public_pair(sample, config)


def test_the_band_kernel_keeps_a_tail_that_lies_above_the_band():
    # With one bucket per binade of y + 1, the cut-off 2.5 lies in the
    # bucket [1, 3), whose records 1.0 and 2.0 both lie below it.  The band
    # ends with that bucket, so no record of the band reaches the cut-off,
    # but the two records above the band make the tail: the replication is
    # kept.
    sample = CurrentStatusSample(delta=[0, 1, 1, 0, 1], y=[0.5, 1.0, 2.0, 4.0, 5.0])
    spec = MixtureSpec(0.3, Exponential(2.0), Exponential(1.0))
    config = McConfig(spec, 5, 1, 0, CutoffRule("fixed-x", x=2.5))
    want = public_pair(sample, config)
    assert want is not None
    assert band_kernel(sample, config, 1.0, 52) == want


@FEW_CASES
@given(
    design=st.sampled_from(["untied exponential", "point-mass event"]),
    p=st.sampled_from([0.05, 0.3, 0.9]),
    n=st.integers(1, 2000),
    seed=st.integers(0, 2**32),
    rule=mc_rules,
    studentization=st.sampled_from(["known-p", "plug-in"]),
)
def test_the_band_path_equals_the_public_chain_on_drawn_samples(
    design, p, n, seed, rule, studentization
):
    assume(rule.kind != "optimal" or design == "untied exponential")
    config = McConfig(MC_DESIGNS[design](p), n, 4, seed, rule, studentization)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_band, "MIN_N", 1)
        assert _McSpan(config).buckets is not None
        res = run_mc(config)
    assert (res.rep_index.tobytes(), res.z1.tobytes(), res.z2.tobytes()) == public_chain(config)


@pytest.mark.parametrize(
    "rule",
    [CutoffRule("undersmoothed"), CutoffRule("fixed-tail", tail=300), CutoffRule("optimal")],
    ids=["undersmoothed", "fixed-tail", "optimal"],
)
def test_run_mc_at_n_1e5_takes_the_band_path_and_equals_the_public_chain(rule):
    config = McConfig(MC_DESIGNS["untied exponential"](0.3), 100_000, 3, 17, rule)
    assert _McSpan(config).buckets is not None
    res = run_mc(config)
    assert (res.rep_index.tobytes(), res.z1.tobytes(), res.z2.tobytes()) == public_chain(config)


def test_the_band_path_runs_only_where_it_can_pay():
    untied, tied = MC_DESIGNS["untied exponential"](0.3), MC_DESIGNS["tied visits"](0.3)

    def banded(spec, n, rule=CutoffRule("undersmoothed")):
        return _McSpan(McConfig(spec, n, 1, 0, rule)).buckets is not None

    assert banded(untied, _band.MIN_N)
    assert banded(untied, _band.MIN_N, CutoffRule("fixed-tail", tail=10))
    assert not banded(untied, _band.MIN_N - 1)
    # Ties widen the band, and a law spanning many binades needs too many
    # buckets.
    assert not banded(tied, _band.MIN_N)
    wide = TabulatedQuantile((0.0, 0.5, 1.0), (0.0, 1.0, 1e9))
    assert not banded(MixtureSpec(0.3, Exponential(2.0), wide), _band.MIN_N)


def public_thinning(config, thresholds):
    """thinning_check's (n1, n0) from the public per-sample chain: the
    tail at each threshold is read off the sorted sample."""
    rows = []
    for k in range(config.reps):
        ss = SortedSample(simulate(config.spec, config.n, config.seed + k))
        row = []
        for x in thresholds:
            i = int(np.searchsorted(ss.y, x, side="left"))
            ones = int(np.count_nonzero(ss.delta[i:]))
            row.append((ones, ss.n - i - ones))
        rows.append(row)
    counts = np.asarray(rows, dtype=np.int64)
    return counts[..., 0].tobytes(), counts[..., 1].tobytes()


@FEW_CASES
@given(
    design=st.sampled_from(sorted(MC_DESIGNS)),
    p=st.sampled_from([0.0, 0.3, 1.0]),
    n=st.one_of(st.integers(1, 30), st.integers(31, 2000)),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4),
    reps=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    workers=st.sampled_from([1, 3]),
)
def test_thinning_check_equals_the_public_per_sample_chain(
    design, p, n, fractions, reps, seed, workers
):
    config = ThinningConfig(MC_DESIGNS[design](p), n, [f * n for f in fractions], reps, seed)
    res = thinning_check(config, workers=workers)
    targets = np.asarray(config.target_means)
    want = config.spec.inspection.quantile(1.0 - targets / n)
    assert res.threshold.tobytes() == np.asarray(want, dtype=float).tobytes()
    assert (res.n1.tobytes(), res.n0.tobytes()) == public_thinning(config, res.threshold)
    assert res.n1.shape == res.n0.shape == (reps, targets.size)


@FEW_CASES
@given(
    design=st.sampled_from(sorted(MC_DESIGNS)),
    p=st.sampled_from([0.0, 0.3, 1.0]),
    n=st.one_of(st.integers(1, 30), st.integers(31, 2000)),
    reps=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    workers=st.sampled_from([1, 3]),
)
def test_inconsistency_probe_equals_the_public_per_sample_chain(
    design, p, n, reps, seed, workers
):
    # Each replication's indicator is the last one after the stable sort.
    spec = MC_DESIGNS[design](p)
    chain = [simulate(spec, n, seed + k) for k in range(reps)]
    want = [int(SortedSample(sample).delta[-1]) for sample in chain]
    assert replicate_seeds(partial(_ProbeSpan, spec, n), reps, seed, workers) == want
    assert inconsistency_probe(spec, n, reps, seed, workers) == sum(want) / reps
