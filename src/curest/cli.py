"""Command-line driver for the cure-fraction toolkit.

Subcommands simulate datasets, trace the tail averages, evaluate the
cut-off selection objectives, estimate the cure fraction, and run the
replicated distributional checks.  Every command is a one-shot batch step:
it reads/writes CSV files, prints a short summary to stdout, and exits.

Exit codes: 0 success; 2 usage or parameter validation error; 3 data or
runtime failure (malformed CSV, empty tail, undefined plug-in, bad paths,
a sample too large to allocate).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from functools import partial
from statistics import NormalDist

import numpy as np

from .asymptotics import (
    _CUTOFF_KINDS, _STUDENTIZATIONS, CutoffRule, McConfig, ThinningConfig, run_mc,
    thinning_check,
)
from .estimators import (
    _VARIANCE_STATS,
    choice_at_index,
    cv_m1_curve,
    cv_m2_curve,
    estimate_cure,
    select_cutoff,
    trace,
)
from .model import (
    Exponential, MixtureSpec, SortedSample, _check_count, _check_real, read_csv, simulate,
    write_csv, write_table,
)

_JSON_KEYS = (
    "pHat1", "pHat2", "cutIndex", "cutThreshold", "tailCount", "ciLo", "ciHi", "ksNormal",
    "ksHalfNormal",
)


def _write_json_summary(path: str, **fields) -> None:
    """Write every summary key; an unavailable value, a non-finite one
    included, is null, since strict JSON has no NaN or infinity."""
    payload = {key: None for key in _JSON_KEYS}
    for key, value in fields.items():
        payload[key] = value if math.isfinite(value) else None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _checked(args, flag: str, build, *params, **options):
    """Call a library check that combines flags, or a flag with the data
    (each flag's own value is checked as it is parsed); its ValueError is a
    usage error naming ``flag``."""
    try:
        return build(*params, **options)
    except ValueError as exc:
        args.parser.error(f"{flag}: {exc}")


def _given(args, name: str) -> dict:
    """The flag ``name`` as a keyword argument, if given: else the library default applies."""
    value = getattr(args, name)
    return {} if value is None else {name: value}


def _mixture(args) -> MixtureSpec:
    return MixtureSpec(args.p, Exponential(args.f_rate), Exponential(args.g_rate))


def cmd_simulate(args) -> int:
    spec = _mixture(args)
    sample = simulate(spec, args.n, args.seed)
    write_csv(sample, args.out)
    print(f"n={sample.n} delta_bar={float(np.mean(sample.delta)):.6g}")
    return 0


def cmd_trace(args) -> int:
    ss = SortedSample(read_csv(args.data))
    tr = trace(ss)
    write_table(args.out, "index,y,p1,p2", (tr.index, tr.y, tr.p1, tr.p2))
    print(f"n={tr.n} rows={tr.index.size} final_p2={tr.p2[-1]:.6g}")
    return 0


def cmd_cv(args) -> int:
    ss = SortedSample(read_csv(args.data))
    stat = _given(args, "variance_stat")
    m2 = cv_m2_curve(ss, **stat)
    try:
        m1 = cv_m1_curve(ss, **stat)
    except ValueError as exc:
        m1 = None
        print(f"warning: m1 objective unavailable: {exc}", file=sys.stderr)
    tr = m2.trace
    m1_columns = (m1.variance, m1.bias_sq, m1.objective) if m1 is not None else (None,) * 3
    write_table(
        args.out,
        "index,y,m1_var,m1_bias2,m1,m2_var,m2_bias2,m2",
        (tr.index, tr.y, *m1_columns, m2.variance, m2.bias_sq, m2.objective),
    )
    def report(flavor, curve):
        if curve is None:
            print(f"{flavor}: unavailable (alpha_hat invalid)")
            return
        try:
            pick = select_cutoff(curve, **_given(args, "guard"))
        except ValueError as exc:
            print(f"warning: {flavor} selection unavailable: {exc}", file=sys.stderr)
            print(f"{flavor}: unavailable (no selectable cut-off)")
            return
        print(f"{flavor}: index={pick.index} threshold={pick.threshold:.6g}")

    report("m1", m1)
    report("m2", m2)
    return 0


def cmd_estimate(args) -> int:
    parser, alpha = args.parser, args.alpha
    # Up to 2**-53, 1 - alpha/2 rounds to 1, which has no normal quantile.
    if alpha <= 2.0**-53:
        parser.error(f"--alpha: alpha must exceed 2**-53, got {alpha!r}")
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    # A flag the method does not use is refused, not silently ignored, and
    # one it uses must be given.
    uses = {
        "fixed-index": ("--index",),
        "fixed-quantile": ("--quantile",),
        "theoretical-exp": ("--p", "--f-rate", "--g-rate"),
    }.get(args.method, ())
    given = {
        "--index": args.index, "--quantile": args.quantile,
        "--p": args.p, "--f-rate": args.f_rate, "--g-rate": args.g_rate,
    }
    for flag, value in given.items():
        if flag not in uses and value is not None:
            parser.error(f"--method {args.method} takes no {flag}")
    missing = [flag for flag in uses if given[flag] is None]
    if missing:
        parser.error(f"--method {args.method} needs {', '.join(missing)}")

    ss = SortedSample(read_csv(args.data))
    tr = trace(ss)
    guard = _given(args, "guard")
    if args.method.startswith("cv-"):
        curve = (cv_m1_curve if args.method == "cv-m1" else cv_m2_curve)(ss)
        choice = select_cutoff(curve, **guard)
    elif args.method == "fixed-index":
        # Only the sample's size bounds the index, so it is checked here.
        choice = _checked(args, "--index", choice_at_index, tr, args.index, **guard)
    else:
        if args.method == "fixed-quantile":
            # For 0 < q < 1 the product is positive and rounds to at most n,
            # so the position lies in 1..n.
            pos = math.ceil(args.quantile * tr.n)
        else:
            print(
                "warning: theoretical-exp uses the oracle design parameters "
                "(--p/--f-rate/--g-rate), not the data",
                file=sys.stderr,
            )
            x_star = _checked(
                args, "--f-rate/--g-rate", CutoffRule("optimal").resolve, _mixture(args), ss
            )
            pos = ss.tail_start(x_star) + 1
        choice = choice_at_index(tr, pos, method=args.method, **guard)

    est = estimate_cure(tr, choice)
    center = 1.0 - est.p_hat1
    half = z * math.sqrt(est.p_hat1 * (1.0 - est.p_hat1)) / math.sqrt(est.tail_count)
    ci_lo = max(0.0, center - half)
    ci_hi = min(1.0, center + half)

    print(f"n={tr.n} distinct_thresholds={tr.index.size}")
    print(
        f"cutoff: method={choice.method} index={est.index} "
        f"threshold={est.threshold:.6g} tail_count={est.tail_count}"
    )
    print(f"p_hat1={est.p_hat1:.6g} p_hat2={est.p_hat2:.6g}")
    print(f"event_fraction_ci=[{ci_lo:.6g}, {ci_hi:.6g}] level={1.0 - alpha:g}")
    if args.json_summary:
        _write_json_summary(
            args.json_summary,
            pHat1=est.p_hat1,
            pHat2=est.p_hat2,
            cutIndex=est.index,
            cutThreshold=est.threshold,
            tailCount=est.tail_count,
            ciLo=ci_lo,
            ciHi=ci_hi,
        )
    return 0


def cmd_mc(args) -> int:
    spec = _mixture(args)
    # Name the flag of the field CutoffRule checks first: a field the kind
    # does not use, else the one it does.
    own = {"fixed-x": "--cutoff-x", "fixed-tail": "--tail-count"}.get(args.cutoff)
    given = {"--cutoff-x": args.cutoff_x, "--tail-count": args.tail_count}
    stray = [f for f, value in given.items() if f != own and value is not None]
    flag = stray[0] if stray else own or "--cutoff"
    rule = _checked(args, flag, CutoffRule, args.cutoff, args.cutoff_x, args.tail_count)
    # Each flag's value is checked as it is parsed, so McConfig can still
    # refuse only rates whose optimal cut-off is past the largest float.
    config = _checked(
        args, "--f-rate/--g-rate", McConfig,
        spec, args.n, args.reps, args.seed, rule, **_given(args, "studentization"),
    )
    res = run_mc(config, workers=args.threads)
    write_table(args.out, "rep,z1,z2", (res.rep_index, res.z1, res.z2))
    print(
        f"reps={config.reps} retained={res.retained} skipped={res.skipped} "
        f"nonfinite={res.nonfinite}"
    )
    print(f"z1: mean={res.mean_z1:.6g} sd={res.sd_z1:.6g} ks_normal={res.ks_normal:.6g}")
    print(
        f"z2: mean={res.mean_z2:.6g} sd={res.sd_z2:.6g} "
        f"ks_half_normal={res.ks_half_normal:.6g}"
    )
    if args.json_summary:
        _write_json_summary(
            args.json_summary,
            ksNormal=res.ks_normal,
            ksHalfNormal=res.ks_half_normal,
        )
    return 0


def cmd_thinning(args) -> int:
    spec = _mixture(args)
    # Each flag's value is checked as it is parsed, so ThinningConfig can
    # still refuse only a target above n.
    config = _checked(
        args, "--target-mean", ThinningConfig,
        spec, args.n, args.target_mean, args.reps, args.seed,
    )
    stats = thinning_check(config, workers=args.threads)
    write_table(
        args.out,
        "target_mean,threshold,mean_n1,mean_n0,var_over_mean_n1,var_over_mean_n0,corr_n1_n0",
        (
            stats.target_mean, stats.threshold, stats.mean_n1, stats.mean_n0,
            stats.var_over_mean_n1, stats.var_over_mean_n0, stats.corr,
        ),
    )
    for k in range(stats.target_mean.size):
        print(
            f"target={stats.target_mean[k]:g} mean_n1={stats.mean_n1[k]:.6g} "
            f"mean_n0={stats.mean_n0[k]:.6g} corr={stats.corr[k]:.6g}"
        )
    return 0


def _flag(read, kind: str, check, name: str, bound):
    """argparse type for a flag feeding the library parameter ``name``: its
    text, read by ``read``, is checked by the library's ``check`` against
    ``bound``, so a bad value is refused in the library's words at parse."""

    def parse(text: str):
        try:
            value = read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        try:
            return check(name, value, bound)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_integer = partial(_flag, int, "an integer", _check_count)
_real = partial(_flag, float, "a real number", _check_real)


def _default(func, name: str):
    """The library's default for the parameter ``name`` of ``func``."""
    return inspect.signature(func).parameters[name].default


def _available_cpus() -> int:
    """CPUs this process may run on; the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _add_mixture_flags(sub, p_within: str, required: bool = True) -> None:
    # p_within: the range in which the command's library call checks p.
    p, rate = _real("cure fraction p", p_within), _real("rate", "positive")
    sub.add_argument("--p", type=p, required=required, help="cure fraction")
    sub.add_argument("--f-rate", type=rate, required=required, help="event-time exponential rate")
    sub.add_argument(
        "--g-rate", type=rate, required=required, help="inspection-time exponential rate"
    )


def _add_replication_flags(sub) -> None:
    n, reps, seed = _integer("n", 1), _integer("reps", 1), _integer("seed", 0)
    sub.add_argument("--n", type=n, required=True, help="sample size per replication")
    sub.add_argument("--reps", type=reps, required=True, help="number of replications")
    sub.add_argument("--seed", type=seed, default=0, help="base seed; replication k uses seed+k")
    sub.add_argument(
        "--threads", type=_integer("workers", 1), default=_available_cpus(),
        help="worker processes (results are independent of this)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curest",
        description="Cure-fraction estimation from current-status data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a dataset and write delta,y CSV")
    _add_mixture_flags(p_sim, "unit")
    p_sim.add_argument("--n", type=_integer("n", 1), required=True, help="sample size")
    p_sim.add_argument("--seed", type=_integer("seed", 0), default=0, help="RNG seed")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_tr = sub.add_parser("trace", help="tail averages per distinct threshold")
    p_tr.add_argument("--data", required=True, help="input delta,y CSV")
    p_tr.add_argument("--out", required=True, help="output CSV path (index,y,p1,p2)")
    p_tr.set_defaults(func=cmd_trace)

    p_cv = sub.add_parser("cv", help="cut-off selection objectives per threshold")
    p_cv.add_argument("--data", required=True, help="input delta,y CSV")
    p_cv.add_argument("--out", required=True, help="output CSV path")
    guard = _integer("guard", 1)
    p_cv.add_argument("--guard", type=guard, help="minimum tail count for selection")
    p_cv.add_argument(
        "--variance-stat",
        choices=_VARIANCE_STATS,
        help="tail statistic used inside the variance term",
    )
    p_cv.set_defaults(func=cmd_cv)

    p_est = sub.add_parser(
        "estimate",
        help="cure estimates at a chosen cut-off",
        description="Cure estimates 1 - p1 and 1 - p2 at a chosen cut-off.  They estimate the "
        "cure fraction p only under sufficient follow-up, when the inspections reach past the "
        "event times.  When no inspection falls after a time tau, they estimate "
        "p' = 1 - (1 - p) F(tau), F the event-time CDF (Maller & Zhou 1992, Biometrika 79(4)).",
    )
    p_est.add_argument("--data", required=True, help="input delta,y CSV")
    p_est.add_argument(
        "--method",
        required=True,
        choices=("cv-m1", "cv-m2", "theoretical-exp", "fixed-index", "fixed-quantile"),
    )
    index, q = _integer("index", 1), _real("quantile", "inner")
    p_est.add_argument("--index", type=index, help="1-based cut-off index (fixed-index)")
    p_est.add_argument("--quantile", type=q, help="inspection quantile in (0,1) (fixed-quantile)")
    p_est.add_argument(
        "--guard",
        type=guard,
        help=f"minimum tail count (default {_default(select_cutoff, 'guard')} for cv methods, "
        f"{_default(choice_at_index, 'guard')} otherwise)",
    )
    p_est.add_argument(
        "--alpha", type=_real("alpha", "inner"), default=0.05, help="CI significance level"
    )
    _add_mixture_flags(p_est, "inner", required=False)
    p_est.add_argument("--json-summary", help="write machine-readable summary JSON here")
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("mc", help="replicated studentized tail statistics")
    _add_mixture_flags(p_mc, "inner")
    _add_replication_flags(p_mc)
    p_mc.add_argument("--cutoff", choices=_CUTOFF_KINDS, default="optimal")
    # CutoffRule refuses a stray field before it checks x, so x is left to it.
    p_mc.add_argument("--cutoff-x", type=float, help="threshold for --cutoff fixed-x only")
    tail = _integer("fixed-tail rule's tail", 1)
    p_mc.add_argument("--tail-count", type=tail, help="tail size for --cutoff fixed-tail only")
    p_mc.add_argument("--studentization", choices=_STUDENTIZATIONS)
    p_mc.add_argument("--out", required=True, help="output CSV path (rep,z1,z2)")
    p_mc.add_argument("--json-summary", help="write machine-readable summary JSON here")
    p_mc.set_defaults(func=cmd_mc)

    p_th = sub.add_parser("thinning", help="tail counts split by indicator value")
    _add_mixture_flags(p_th, "unit")
    _add_replication_flags(p_th)
    p_th.add_argument(
        "--target-mean",
        type=_real("target mean", "positive"),
        nargs="+",
        default=[20.0],
        help="expected tail sizes; thresholds are the matching inspection quantiles",
    )
    p_th.add_argument("--out", required=True, help="output CSV path")
    p_th.set_defaults(func=cmd_thinning)

    for name, sp in sub.choices.items():
        sp.set_defaults(parser=sp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
