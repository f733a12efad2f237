"""Byte-identity battery: one SHA-256 digest per output surface of curest.

Run it on two trees and diff the outputs; an empty diff shows that every
surface below gives the same bytes on both:

    PYTHONPATH=src python tests/golden.py > head.txt
    PYTHONPATH=/path/to/base/src python tests/golden.py > base.txt
    diff base.txt head.txt

Each line is a surface's name, two spaces, and the digest of its bytes.  The
surfaces are:

- ``simulate`` records and ``write_csv`` bytes on four designs (untied
  exponential, tied visits, a point-mass event, and an inspection table
  whose lowest value is a ``-0.0`` atom), at n from 1 to 10^5 on both sides
  of ``_band.MIN_N`` and at seeds up to 2^64 - 1;
- the ``SortedSample`` and ``trace`` arrays of those samples, and, for
  n <= 1,000, ``z_stats`` at every tie-group opening under both
  studentizations;
- ``run_mc``'s retained indices, z arrays and summaries for every cut-off
  kind, both studentizations, 1 and 3 workers, and n on both sides of
  ``_band.MIN_N``;
- ``thinning_check`` and ``inconsistency_probe`` at 1 and 2 workers;
- ``npmle_pava``, ``log_lik``, ``profile_cure_loglik`` and
  ``npmle_cure_argmax_interval`` on int8, bool, int64 and list indicators;
- a CLI session run in-process through ``curest.cli.main`` in a temporary
  directory: all six commands, every ``--help`` text, and usage and data
  errors, each with its exit code, stdout, stderr and every file it wrote.

An exception a call raises is part of its surface: its type and message are
digested in place of the value.  Floats are digested by their bits, so a
change in the last bit of any value shows.  The battery needs only numpy,
curest and the standard library; the path of the curest it ran goes to
stderr.  It takes about 12 s on a 2-vCPU machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import sys
import tempfile

# argparse wraps help to the terminal's width; fix it so --help texts compare.
os.environ["COLUMNS"] = "80"

import numpy as np  # noqa: E402

import curest  # noqa: E402
from curest import (  # noqa: E402
    CurrentStatusSample,
    CutoffRule,
    Exponential,
    McConfig,
    MixtureSpec,
    SortedSample,
    TabulatedQuantile,
    ThinningConfig,
    inconsistency_probe,
    log_lik,
    npmle_cure_argmax_interval,
    npmle_pava,
    profile_cure_loglik,
    read_csv,
    run_mc,
    simulate,
    thinning_check,
    trace,
    write_csv,
    z_stats,
)
from curest import cli  # noqa: E402
from curest._band import MIN_N  # noqa: E402

P = 0.3
SIZES = (1, 2, 7, 100, 1_000, MIN_N - 1, MIN_N, 100_000)
SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


def _visits() -> TabulatedQuantile:
    """Visits at 0.25, 0.50, ..., 4.0, each carrying the Exp(1) mass of the
    interval ending at it, so every sample of more than 16 records is tied."""
    probs, values, lo = [], [], 0.0
    for k in range(1, 17):
        hi = -math.expm1(-0.25 * k) if k < 16 else 1.0
        probs += [lo, hi]
        values += [0.25 * k, 0.25 * k]
        lo = hi
    return TabulatedQuantile(tuple(probs), tuple(values))


DESIGNS = {
    "untied-exp": MixtureSpec(P, Exponential(2.0), Exponential(1.0)),
    "tied-visits": MixtureSpec(P, Exponential(2.0), _visits()),
    "point-mass-event": MixtureSpec(P, TabulatedQuantile.point_mass(0.5), Exponential(1.0)),
    # A fifth of the inspections fall on an atom given as -0.0.
    "signed-zero-atom": MixtureSpec(
        P, Exponential(2.0), TabulatedQuantile((0.0, 0.2, 1.0), (-0.0, -0.0, 3.0))
    ),
}


def _encode(value, out: list) -> None:
    """Append an unambiguous byte encoding of ``value`` to ``out``."""
    if isinstance(value, np.ndarray):
        out.append(f"array {value.dtype.str} {value.shape}:".encode())
        out.append(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(f"{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            out.append(f"{f.name}=".encode())
            _encode(getattr(value, f.name), out)
        out.append(b")")
    elif isinstance(value, (int, np.integer)):
        out.append(f"{type(value).__name__} {int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        out.append(f"{type(value).__name__} {float(value).hex()};".encode())
    elif isinstance(value, str):
        out.append(f"str {len(value)}:{value}".encode())
    elif isinstance(value, bytes):
        out.append(f"bytes {len(value)}:".encode() + value)
    elif isinstance(value, (tuple, list)):
        out.append(f"{type(value).__name__} {len(value)}[".encode())
        for item in value:
            _encode(item, out)
        out.append(b"]")
    elif value is None:
        out.append(b"None;")
    else:
        raise TypeError(f"no encoding for {type(value).__name__}")


def emit(name: str, *values) -> None:
    parts: list = []
    for value in values:
        _encode(value, parts)
    print(f"{name}  {hashlib.sha256(b''.join(parts)).hexdigest()}")


def outcome(call, *args, **kwargs):
    """``call``'s value, or its exception as (type name, message)."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - an error is part of the surface
        return ("raised", type(exc).__name__, str(exc))


def samples_battery(tmp: str) -> None:
    path = os.path.join(tmp, "sample.csv")
    for design, spec in DESIGNS.items():
        for n in SIZES:
            for seed in SEEDS:
                tag = f"{design}, n {n}, seed {seed}"
                sample = simulate(spec, n, seed)
                emit(f"simulate[{tag}]", sample)
                write_csv(sample, path)
                with open(path, "rb") as fh:
                    emit(f"write_csv[{tag}]", fh.read())
                ss = SortedSample(sample)
                emit(f"SortedSample[{tag}]", ss)
                tr = trace(ss)
                emit(f"trace[{tag}]", tr)
                if n <= 1_000:
                    for stud in ("known-p", "plug-in"):
                        zz = [z_stats(ss, x, P, stud) for x in ss.y[ss.group_start].tolist()]
                        emit(f"z_stats[{tag}, {stud}, every opening]", zz)
                    fit_battery(tag, ss.delta)


def fit_battery(tag: str, delta: np.ndarray) -> None:
    kinds = {
        "int8": delta,
        "bool": delta.astype(bool),
        "int64": delta.astype(np.int64),
        "list": delta.tolist(),
    }
    for kind, d in kinds.items():
        fit = npmle_pava(d)
        emit(f"npmle_pava[{tag}, {kind}]", fit)
        emit(f"log_lik[{tag}, {kind}]", log_lik(fit.fhat, d))
        emit(f"profile_cure_loglik[{tag}, {kind}]", profile_cure_loglik(fit, d, P))
        emit(f"npmle_cure_argmax_interval[{tag}, {kind}]", npmle_cure_argmax_interval(fit))


def fit_errors() -> None:
    for label, d in (
        ("empty", []),
        ("two", [0, 2]),
        ("half", [0.5, 1.0]),
        ("int8 -1", np.array([0, -1], dtype=np.int8)),
        ("uint8 255", np.array([1, 255], dtype=np.uint8)),
        ("2-d", [[0, 1]]),
    ):
        emit(f"npmle_pava[error {label}]", outcome(npmle_pava, d))
        emit(f"log_lik[error {label}]", outcome(log_lik, [0.5] * len(d), d))
    emit("log_lik[f decreasing]", outcome(log_lik, [0.6, 0.5], [0, 1]))
    emit("log_lik[delta 1 at f 0]", log_lik([0.0, 0.5], [1, 1]))
    emit("log_lik[delta 0 at f 1]", log_lik([0.5, 1.0], [0, 0]))


def mc_rules(design: str, n: int) -> dict:
    rules = {
        "undersmoothed": CutoffRule("undersmoothed"),
        "fixed-x 0": CutoffRule("fixed-x", x=0.0),
        "fixed-x 1": CutoffRule("fixed-x", x=1.0),
        "fixed-x 3.5": CutoffRule("fixed-x", x=3.5),
        # Above the largest of about half the untied samples at n = MIN_N.
        "fixed-x 11": CutoffRule("fixed-x", x=11.0),
        "fixed-tail 30": CutoffRule("fixed-tail", tail=30),
        "fixed-tail n": CutoffRule("fixed-tail", tail=n),
    }
    if design == "untied-exp":
        rules["optimal"] = CutoffRule("optimal")
    return rules


def mc_battery() -> None:
    reps, seed = 5, 2**64 - 3
    for design, spec in DESIGNS.items():
        for n in (200, MIN_N - 1, MIN_N):
            for label, rule in mc_rules(design, n).items():
                for stud in ("known-p", "plug-in"):
                    config = McConfig(spec, n, reps, seed, rule, stud)
                    for workers in (1, 3):
                        tag = f"{design}, {label}, {stud}, workers {workers}, n {n}"
                        emit(f"run_mc[{tag}]", outcome(run_mc, config, workers))
    # A design the optimal rule cannot serve is refused when McConfig is built.
    emit(
        "McConfig[tied-visits, optimal]",
        outcome(McConfig, DESIGNS["tied-visits"], 200, reps, seed, CutoffRule("optimal")),
    )


def replicated_battery() -> None:
    for design, spec in DESIGNS.items():
        for n, targets in ((200, (5.0, 20.0, 40.0)), (MIN_N, (30.0, 300.0))):
            for reps in (1, 9):
                config = ThinningConfig(spec, n, targets, reps, 11)
                for workers in (1, 2):
                    tag = f"{design}, n {n}, reps {reps}, workers {workers}"
                    emit(f"thinning_check[{tag}]", thinning_check(config, workers))
        for n in (50, 2_000):
            for workers in (1, 2):
                tag = f"{design}, n {n}, workers {workers}"
                emit(f"inconsistency_probe[{tag}]", inconsistency_probe(spec, n, 60, 3, workers))


COMMANDS = ("simulate", "trace", "cv", "estimate", "mc", "thinning")
MODEL = ("--p", "0.3", "--f-rate", "2", "--g-rate", "1")
SMALL = (*MODEL, "--n", "10", "--reps", "2")
MC_CUTOFFS = {
    "optimal": ("--cutoff", "optimal"),
    "undersmoothed": ("--cutoff", "undersmoothed", "--studentization", "plug-in"),
    "fixed-x-1": ("--cutoff", "fixed-x", "--cutoff-x", "1"),
    "fixed-x-0": ("--cutoff", "fixed-x", "--cutoff-x", "0"),
    "fixed-tail-20": ("--cutoff", "fixed-tail", "--tail-count", "20"),
    "fixed-tail-200": ("--cutoff", "fixed-tail", "--tail-count", "200"),
}


def cli_session() -> list:
    """(label, argv) pairs run in order in one directory; an argv of None
    writes ``tied.csv``, sim.csv's times rounded to quarters."""

    def est(method, *flags, data="sim.csv"):
        return ("estimate", "--data", data, "--method", method, *flags)

    def trace_of(data):
        return ("trace", "--data", data, "--out", "o.csv")

    session = [("help", ("--help",))]
    session += [(f"{cmd} help", (cmd, "--help")) for cmd in COMMANDS]
    session += [
        ("no command", ()),
        ("unknown command", ("unknown-command",)),
        ("simulate", ("simulate", *MODEL, "--n", "200", "--seed", "1", "--out", "sim.csv")),
        ("simulate big", ("simulate", *MODEL, "--n", "2000", "--seed", str(2**64 - 1),
                          "--out", "big.csv")),
        ("trace", ("trace", "--data", "sim.csv", "--out", "trace.csv")),
        ("cv", ("cv", "--data", "sim.csv", "--out", "cv.csv")),
        ("cv guard p2", ("cv", "--data", "sim.csv", "--out", "cv-g.csv", "--guard", "150",
                         "--variance-stat", "p2")),
        ("estimate cv-m2", est("cv-m2", "--json-summary", "est.json")),
        ("estimate cv-m1", est("cv-m1")),
        ("estimate theoretical-exp", est("theoretical-exp", *MODEL)),
        ("estimate fixed-index", est("fixed-index", "--index", "150")),
        ("estimate fixed-quantile", est("fixed-quantile", "--quantile", "0.9",
                                        "--json-summary", "q.json")),
        ("estimate fixed-index 180", est("fixed-index", "--index", "180",
                                         "--json-summary", "i.json")),
        ("tied", None),
        ("trace tied", ("trace", "--data", "tied.csv", "--out", "tied-trace.csv")),
        ("cv tied", ("cv", "--data", "tied.csv", "--out", "tied-cv.csv")),
        ("estimate cv-m2 tied", est("cv-m2", "--json-summary", "tied-est.json",
                                    data="tied.csv")),
    ]
    for label, flags in MC_CUTOFFS.items():
        for threads in (1, 3):
            stem = f"mc-{label}-{threads}"
            session.append((f"mc {label} threads {threads}", (
                "mc", *MODEL, "--n", "200", "--reps", "9", "--threads", str(threads), *flags,
                "--out", f"{stem}.csv", "--json-summary", f"{stem}.json",
            )))
    for reps, threads in ((9, 1), (9, 2), (1, 1)):
        session.append((f"thinning reps {reps} threads {threads}", (
            "thinning", *MODEL, "--n", "200", "--reps", str(reps), "--threads", str(threads),
            "--target-mean", "5", "20", "40", "--out", f"thin-{reps}-{threads}.csv",
        )))
    # Usage errors: exit 2, naming the flag; all but the last come before
    # any data are read.
    session += [
        ("simulate p nan", ("simulate", "--p", "nan", "--f-rate", "2", "--g-rate", "1",
                            "--n", "10", "--seed", "1", "--out", "bad.csv")),
        ("simulate f-rate -1", ("simulate", "--p", "0.3", "--f-rate", "-1", "--g-rate", "1",
                                "--n", "10", "--seed", "1", "--out", "bad.csv")),
        ("simulate n 2.5", ("simulate", *MODEL, "--n", "2.5", "--out", "bad.csv")),
        ("simulate seed text", ("simulate", *MODEL, "--n", "10", "--seed", "one",
                                "--out", "bad.csv")),
        ("mc fixed-x no x", ("mc", *SMALL, "--cutoff", "fixed-x", "--out", "bad.csv")),
        ("mc fixed-x inf", ("mc", *SMALL, "--cutoff", "fixed-x", "--cutoff-x", "inf",
                            "--out", "bad.csv")),
        ("mc stray cutoff-x", ("mc", *SMALL, "--cutoff", "optimal", "--cutoff-x", "1",
                               "--out", "bad.csv")),
        ("mc reps 0", ("mc", *MODEL, "--n", "10", "--reps", "0", "--out", "bad.csv")),
        ("mc threads 0", ("mc", *SMALL, "--threads", "0", "--out", "bad.csv")),
        ("thinning target 0", ("thinning", *SMALL, "--target-mean", "0", "--out", "bad.csv")),
        ("thinning target above n", ("thinning", *SMALL, "--target-mean", "11",
                                     "--out", "bad.csv")),
        ("estimate alpha 1e-17", est("cv-m2", "--alpha", "1e-17")),
        ("estimate alpha 0", est("cv-m2", "--alpha", "0")),
        ("estimate quantile 1.5", est("fixed-quantile", "--quantile", "1.5")),
        ("estimate missing rates", est("theoretical-exp", "--p", "0.3")),
        ("estimate stray index", est("cv-m2", "--index", "3")),
        ("estimate p 0", est("theoretical-exp", "--p", "0", "--f-rate", "2", "--g-rate", "1")),
        ("estimate p 0 absent", est("theoretical-exp", "--p", "0", "--f-rate", "2",
                                    "--g-rate", "1", data="absent.csv")),
        ("estimate index 1000", est("fixed-index", "--index", "1000")),
        # Data errors: exit 3.
        ("trace absent", trace_of("absent.csv")),
        ("trace malformed", trace_of("malformed.csv")),
        ("trace bad delta", trace_of("bad-delta.csv")),
        ("trace not utf-8", trace_of("latin.csv")),
        ("estimate empty tail", est("cv-m2", data="one.csv")),
    ]
    return session



def run_main(args) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # noqa: BLE001 - an escape is part of the surface
            code = ("raised", type(exc).__name__, str(exc))
    return code, out.getvalue(), err.getvalue()


def snapshot() -> dict:
    files = {}
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            files[name] = fh.read()
    return files


def cli_battery(tmp: str) -> None:
    here = os.getcwd()
    os.chdir(tmp)
    try:
        with open("malformed.csv", "w", encoding="utf-8") as fh:
            fh.write("delta,y\n1,0.5\n0,abc\n")
        with open("bad-delta.csv", "w", encoding="utf-8") as fh:
            fh.write("delta,y\n1,0.5\n2,0.75\n")
        with open("latin.csv", "wb") as fh:
            fh.write(b"delta,y\n1,0.5\n0,0.\xe9\n")
        with open("one.csv", "w", encoding="utf-8") as fh:
            fh.write("delta,y\n1,0.5\n")
        before = snapshot()
        for label, args in cli_session():
            if args is None:
                # Times rounded to quarters tie, as the CI session makes them.
                s = read_csv("sim.csv")
                write_csv(CurrentStatusSample(s.delta, np.round(s.y * 4) / 4), "tied.csv")
                code, out, err = 0, "", ""
            else:
                code, out, err = run_main(args)
            exit_text = code if isinstance(code, int) else "raised"
            emit(f"cli[{label}]: exit {exit_text}, stdout, stderr", code, out, err)
            after = snapshot()
            for name, data in after.items():
                if before.get(name) != data:
                    emit(f"cli[{label}]: {name}", data)
            before = after
    finally:
        os.chdir(here)


def main() -> int:
    print(f"curest from {os.path.dirname(curest.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        samples_battery(tmp)
    fit_errors()
    mc_battery()
    replicated_battery()
    with tempfile.TemporaryDirectory() as tmp:
        cli_battery(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
