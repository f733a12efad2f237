"""Command-line driver for the cure-fraction toolkit.

Subcommands simulate datasets, trace the tail averages, evaluate the
cut-off selection objectives, estimate the cure fraction, and run the
replicated distributional checks.  Every command is a one-shot batch step:
it reads/writes CSV files, prints a short summary to stdout, and exits.

Exit codes: 0 success; 2 usage or parameter validation error; 3 data or
runtime failure (malformed CSV, empty tail, undefined plug-in, bad paths).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.special import ndtri

from .asymptotics import CutoffRule, McConfig, ThinningConfig, run_mc, thinning_check
from .estimators import (
    choice_at_index,
    cv_m1_curve,
    cv_m2_curve,
    estimate_cure,
    select_cutoff,
    theoretical_cutoff_exponential,
    trace,
)
from .model import (
    Exponential, MixtureSpec, read_csv, simulate, sort_with_concomitants, write_csv, write_table,
)

_JSON_KEYS = (
    "pHat1",
    "pHat2",
    "cutIndex",
    "cutThreshold",
    "tailCount",
    "ciLo",
    "ciHi",
    "ksNormal",
    "ksHalfNormal",
)


def _write_json_summary(path: str, **fields) -> None:
    payload = {key: None for key in _JSON_KEYS}
    for key, value in fields.items():
        if key not in payload:
            raise ValueError(f"unknown summary key {key!r}")
        payload[key] = value
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _checked(args, flag: str, build, *params):
    """Call a validating library constructor or function; its ValueError
    becomes a usage error (exit 2) naming the flag that supplied the value."""
    try:
        return build(*params)
    except ValueError as exc:
        args.parser.error(f"{flag}: {exc}")


def _mixture(args) -> MixtureSpec:
    event = _checked(args, "--f-rate", Exponential, args.f_rate)
    inspection = _checked(args, "--g-rate", Exponential, args.g_rate)
    return _checked(args, "--p", MixtureSpec, args.p, event, inspection)


def cmd_simulate(args) -> int:
    spec = _mixture(args)
    sample = simulate(spec, args.n, args.seed)
    write_csv(sample, args.out)
    print(f"n={sample.n} delta_bar={float(np.mean(sample.delta)):.6g}")
    return 0


def cmd_trace(args) -> int:
    ss = sort_with_concomitants(read_csv(args.data))
    tr = trace(ss)
    write_table(args.out, "index,y,p1,p2", (tr.index, tr.y, tr.p1, tr.p2))
    print(f"n={tr.n} rows={tr.index.size} final_p2={tr.p2[-1]:.6g}")
    return 0


def cmd_cv(args) -> int:
    ss = sort_with_concomitants(read_csv(args.data))
    m2 = cv_m2_curve(ss, variance_stat=args.variance_stat)
    try:
        m1 = cv_m1_curve(ss, variance_stat=args.variance_stat)
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
            pick = select_cutoff(curve, guard=args.guard)
        except ValueError as exc:
            print(f"warning: {flavor} selection unavailable: {exc}", file=sys.stderr)
            print(f"{flavor}: unavailable (no selectable cut-off)")
            return
        print(f"{flavor}: index={pick.index} threshold={pick.threshold:.6g}")

    report("m1", m1)
    report("m2", m2)
    return 0


def cmd_estimate(args) -> int:
    parser = args.parser
    if not 0.0 < args.alpha < 1.0:
        parser.error("--alpha must lie strictly inside (0, 1)")
    if args.method == "fixed-index" and args.index is None:
        parser.error("--method fixed-index needs --index")
    if args.method == "fixed-quantile" and (
        args.quantile is None or not 0.0 < args.quantile < 1.0
    ):
        parser.error("--method fixed-quantile needs --quantile in (0, 1)")
    if args.method == "theoretical-exp":
        if args.p is None or args.f_rate is None or args.g_rate is None:
            parser.error("--method theoretical-exp needs --p, --f-rate and --g-rate")
        spec = _mixture(args)

    ss = sort_with_concomitants(read_csv(args.data))
    guard = args.guard if args.guard is not None else (5 if args.method.startswith("cv-") else 1)

    if args.method.startswith("cv-"):
        curve = (cv_m1_curve if args.method == "cv-m1" else cv_m2_curve)(ss)
        tr = curve.trace
        choice = select_cutoff(curve, guard=guard)
    else:
        tr = trace(ss)
        if args.method == "fixed-index":
            pos = args.index
        elif args.method == "fixed-quantile":
            pos = min(tr.n, max(1, math.ceil(args.quantile * tr.n)))
        else:
            print(
                "warning: theoretical-exp uses the oracle design parameters "
                "(--p/--f-rate/--g-rate), not the data",
                file=sys.stderr,
            )
            # With the rates and n already valid, only p outside (0, 1) is
            # left for the closed form to reject.
            x_star = _checked(
                args, "--p", theoretical_cutoff_exponential,
                tr.n, spec.p, spec.event.rate, spec.inspection.rate,
            )
            pos = ss.tail_start(x_star) + 1
        choice = choice_at_index(tr, pos, method=args.method, guard=guard)

    est = estimate_cure(tr, choice)
    z = float(ndtri(1.0 - args.alpha / 2.0))
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
    print(f"event_fraction_ci=[{ci_lo:.6g}, {ci_hi:.6g}] level={1.0 - args.alpha:g}")
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
    # The count flags and the choices are checked by argparse, so the only
    # value McConfig can still reject is p at 0 or 1.
    config = _checked(
        args, "--p", McConfig, spec, args.n, args.reps, args.seed, rule, args.studentization
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
    # The count flags are checked by argparse, so the only values
    # ThinningConfig can still reject are the targets.
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


def _integer_at_least(low: int):
    """argparse type accepting an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_count = _integer_at_least(1)
_seed = _integer_at_least(0)


def _available_cpus() -> int:
    """CPUs this process may run on; the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _add_mixture_flags(sub, required: bool = True) -> None:
    sub.add_argument("--p", type=float, required=required, help="cure fraction")
    sub.add_argument("--f-rate", type=float, required=required, help="event-time exponential rate")
    sub.add_argument(
        "--g-rate", type=float, required=required, help="inspection-time exponential rate"
    )


def _add_replication_flags(sub) -> None:
    sub.add_argument("--n", type=_count, required=True, help="sample size per replication")
    sub.add_argument("--reps", type=_count, required=True, help="number of replications")
    sub.add_argument("--seed", type=_seed, default=0, help="base seed; replication k uses seed+k")
    sub.add_argument(
        "--threads", type=_count, default=_available_cpus(),
        help="worker processes (results are independent of this)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curest",
        description="Cure-fraction estimation from current-status data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a dataset and write delta,y CSV")
    _add_mixture_flags(p_sim)
    p_sim.add_argument("--n", type=_count, required=True, help="sample size")
    p_sim.add_argument("--seed", type=_seed, default=0, help="RNG seed")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_tr = sub.add_parser("trace", help="tail averages per distinct threshold")
    p_tr.add_argument("--data", required=True, help="input delta,y CSV")
    p_tr.add_argument("--out", required=True, help="output CSV path (index,y,p1,p2)")
    p_tr.set_defaults(func=cmd_trace)

    p_cv = sub.add_parser("cv", help="cut-off selection objectives per threshold")
    p_cv.add_argument("--data", required=True, help="input delta,y CSV")
    p_cv.add_argument("--out", required=True, help="output CSV path")
    p_cv.add_argument("--guard", type=_count, default=5, help="minimum tail count for selection")
    p_cv.add_argument(
        "--variance-stat",
        choices=("p1", "p2"),
        default="p1",
        help="tail statistic used inside the variance term",
    )
    p_cv.set_defaults(func=cmd_cv)

    p_est = sub.add_parser("estimate", help="cure estimates at a chosen cut-off")
    p_est.add_argument("--data", required=True, help="input delta,y CSV")
    p_est.add_argument(
        "--method",
        required=True,
        choices=("cv-m1", "cv-m2", "theoretical-exp", "fixed-index", "fixed-quantile"),
    )
    p_est.add_argument("--index", type=_count, help="1-based cut-off index (fixed-index)")
    p_est.add_argument("--quantile", type=float, help="inspection quantile in (0,1) (fixed-quantile)")
    p_est.add_argument(
        "--guard",
        type=_count,
        default=None,
        help="minimum tail count (default 5 for cv methods, 1 otherwise)",
    )
    p_est.add_argument("--alpha", type=float, default=0.05, help="CI significance level")
    _add_mixture_flags(p_est, required=False)
    p_est.add_argument("--json-summary", help="write machine-readable summary JSON here")
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("mc", help="replicated studentized tail statistics")
    _add_mixture_flags(p_mc)
    _add_replication_flags(p_mc)
    p_mc.add_argument(
        "--cutoff",
        choices=("optimal", "undersmoothed", "fixed-x", "fixed-tail"),
        default="optimal",
    )
    p_mc.add_argument("--cutoff-x", type=float, help="threshold for --cutoff fixed-x only")
    p_mc.add_argument("--tail-count", type=_count, help="tail size for --cutoff fixed-tail only")
    p_mc.add_argument(
        "--studentization", choices=("known-p", "plug-in"), default="known-p"
    )
    p_mc.add_argument("--out", required=True, help="output CSV path (rep,z1,z2)")
    p_mc.add_argument("--json-summary", help="write machine-readable summary JSON here")
    p_mc.set_defaults(func=cmd_mc)

    p_th = sub.add_parser("thinning", help="tail counts split by indicator value")
    _add_mixture_flags(p_th)
    _add_replication_flags(p_th)
    p_th.add_argument(
        "--target-mean",
        type=float,
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
