"""curest benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-n1e5 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced blocks
of the same loop and reports the per-layer metrics.  Either way the last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``
and a result file with the run record is written under ``perfbench/out/``.
``--smoke`` shrinks every size so the whole run takes seconds.

The benchmark imports curest from ``src/`` of the checkout it sits in and
exits with code 2, printing no result, when that package is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 5
LAYERS = ("model", "estimators", "asymptotics", "npmle", "parallel")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("mc-n1e5", "study-n1e2"))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (0 is the default seed)")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    return args


def steady_allocator() -> bool:
    """Make glibc keep freed memory in the heap instead of returning it to
    the kernel.  By default it returns large blocks and trims the heap on a
    schedule that differs from process to process, so that the same run
    page-faults 5 000 or 11 000 times per ``run_mc`` call, and the time of
    its steps moves by a fifth between runs.  With these settings a warmed-up loop
    reuses its pages, as a long-running process settles to do."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 1 << 30)) and bool(mallopt(m_mmap_threshold, 1 << 25))


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tail_percentile(samples) -> dict | None:
    """Highest of p99.9, p99, p90, p50 with at least ten samples beyond it."""
    import numpy as np

    n = len(samples)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return {"pct": pct, "value": float(np.percentile(samples, pct))}
    return None


def timing(value: float, samples) -> dict:
    """A gated value with the ungated median and tail of its samples."""
    import numpy as np

    return {
        "value": value,
        "samples": len(samples),
        "p50": float(np.median(samples)),
        "tail": tail_percentile(samples),
    }


def git_state() -> dict:
    def git(*cmd):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *cmd], capture_output=True, text=True, timeout=30, check=False
        )
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return {"sha": None, "dirty": None}
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def run_record(args, allocator: bool) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "steady_allocator": allocator,
        "started_unix": time.time(),
    }


def child_setups(args, count: int, ops) -> list[float]:
    """Set up the workload again in ``count`` fresh processes, one at a time."""
    times = []
    for _ in range(count):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            ops.record(False, f"set-up process exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ops.attempted += res["attempted"]
        ops.failed += res["failed"]
        times.append(res["setup_s"])
    return times


def slowdown(wl, ref_times) -> float:
    """How many times slower than on the tuning machine the reference kernel
    ran: its mean time over its nominal time."""
    return statistics.fmean(ref_times) / wl.ref_nominal_s


def reference_block(wl, seconds: float) -> list[float]:
    """Times of the reference kernel run back to back for ``seconds`` (at
    least three calls)."""
    times, t0 = [], perf_counter()
    while len(times) < 3 or perf_counter() - t0 < seconds:
        times.append(wl.reference())
    return times


def measure(wl, rec, seconds: float, traced: bool, ops, k: int, refs=None):
    """Closed loop: run units while the next one is expected to end within
    ``seconds`` of wall time (at least one unit).  Returns replications,
    busy time per unit and the next unit number.  When ``refs`` is given,
    each unit first appends a reference kernel time to it."""
    reps, busy = 0, array("d")
    t0 = perf_counter()
    while True:
        r, b = wl.unit(rec, k, traced, ops, refs)
        k += 1
        reps += r
        busy.append(b)
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(busy) > seconds:
            return reps, busy, k


def end_to_end(args, wl, spans, ops, setup_times, setup_slow) -> tuple[dict, dict]:
    refs = array("d")
    reps, busy, _ = measure(wl, spans.NullRecorder(), args.seconds, False, ops, 0, refs)
    # Times are calibrated: divided by the run's slowdown, so that they read
    # as on the tuning machine.  The shared machine the benchmark was tuned
    # on runs the same code up to about 1.7 times slower for minutes at a
    # time; the reference kernel, timed between the units, slows with it.
    # Throughput is over the whole run, so it moves only with the share of
    # time spent slow, where a median unit time flips between states.  The
    # raw value and the median and tail of unit times stay in the result file.
    slow = slowdown(wl, refs)
    busy_cal = array("d", (b / slow for b in busy))
    metrics = {
        "setup_s": timing(statistics.median(setup_times), setup_times),
        "reps_per_s": timing(reps / sum(busy_cal), busy_cal),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
    }
    detail = {
        "slowdown": slow,
        "reference_calls": len(refs),
        "setup_slowdown": setup_slow,
        "raw": {"reps_per_s": reps / sum(busy), "setup_s": setup_times[0] * setup_slow},
    }
    return metrics, {"detail": detail}


def per_layer(args, wl, spans, workloads, ops, expected_cli) -> tuple[dict, dict]:
    import curest as C

    plain, traced = spans.Recorder(), spans.Recorder()
    totals = {False: [0, 0.0], True: [0, 0.0]}
    # Alternate untraced and traced blocks so drift affects both alike.
    block = max(args.seconds / 10.0, 0.05)
    k, mode, blocks, t0 = 0, False, 0, perf_counter()
    while blocks < 2 or perf_counter() - t0 < args.seconds:
        rec = traced if mode else plain
        names = list(spans.TARGETS) if mode else []
        with spans.installed(rec, names):
            reps, busy, k = measure(wl, rec, block, mode, ops, k)
        totals[mode][0] += reps
        totals[mode][1] += sum(busy)
        mode, blocks = not mode, blocks + 1
    summary = traced.summary()
    reps_t, busy_t = totals[True]
    reps_p, busy_p = totals[False]

    def per_call(name: str, scale: float) -> float:
        s = summary.get(name)
        return s["total_s"] / s["calls"] * scale if s else 0.0

    small = args.smoke
    write_s, read_s = workloads.csv_probe(C, OUT, 2_000 if small else 100_000, 1 if small else 3, ops)
    cli_s = workloads.cli_probe(C, ROOT, OUT, 2_000 if small else 100_000, args.seed, expected_cli, ops)
    pool_s, speedup = workloads.parallel_probe(C, 2_000 if small else 100_000, 4 if small else 16, 1 if small else 2, ops)
    samples = traced.counts["sort.samples"]
    metrics = {
        "model.simulate_us": per_call("model.simulate", 1e6),
        "model.sort_us": per_call("model.sort_with_concomitants", 1e6),
        "model.tied_sample_share": traced.counts["sort.tied"] / samples if samples else 0.0,
        "model.write_csv_s": write_s,
        "model.read_csv_s": read_s,
        "estimators.trace_us": per_call("estimators.trace", 1e6),
        "estimators.trace_calls_per_rep": (
            summary["estimators.trace"]["calls"] / reps_t if reps_t and "estimators.trace" in summary else 0.0
        ),
        "estimators.cv_us": per_call("estimators.cv_m1_curve", 1e6) + per_call("estimators.cv_m2_curve", 1e6),
        "estimators.select_us": per_call("estimators.select_cutoff", 1e6),
        "asymptotics.resolve_us": per_call("asymptotics.resolve", 1e6),
        "asymptotics.z_stats_us": per_call("asymptotics.z_stats", 1e6),
        "asymptotics.ks_ms": per_call("asymptotics.ks_distance", 1e3),
        "npmle.pava_us": per_call("npmle.npmle_pava", 1e6),
        "cli.import_s": workloads.import_probe(ROOT, 1 if small else 3, ops),
        **{f"cli.{name}_s": t for name, t in cli_s.items()},
        "parallel.pool_start_ms": pool_s * 1e3,
        "parallel.speedup_w2": speedup,
        "trace.overhead_share": (busy_t / reps_t) / (busy_p / reps_p) - 1.0 if reps_t and reps_p else 0.0,
    }
    for layer in LAYERS:
        self_s = sum(s["self_s"] for name, s in summary.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.share"] = self_s / busy_t if busy_t else 0.0
    metrics["fail_ratio"] = ops.failed / ops.attempted
    detail = {
        "spans": summary,
        "reps": {"traced": reps_t, "untraced": reps_p},
        "busy_s": {"traced": busy_t, "untraced": busy_p},
    }
    return {name: {"value": v} for name, v in metrics.items()}, {"traced": traced, "detail": detail}


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    allocator = steady_allocator()
    if not (ROOT / "src" / "curest" / "__init__.py").is_file():
        die(f"no curest package under {ROOT / 'src'}; run from a full checkout")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        expected_all = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        die(f"cannot read the benchmark definition: {exc}")
    sys.path.insert(0, str(ROOT / "src"))
    import curest

    if not Path(curest.__file__).resolve().is_relative_to(ROOT / "src"):
        die(f"curest was imported from {curest.__file__}, not from this checkout")
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    expected = expected_all["smoke" if args.smoke else "full"]
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke, expected[args.workload], OUT)
    ops = workloads.Ops()
    wl.setup(ops)
    own_setup = perf_counter() - t_start
    # Set-up is calibrated like the loop: by the reference kernel, timed
    # right after it in the same process.
    setup_slow = slowdown(wl, reference_block(wl, 0.2))
    setup_times = [own_setup / setup_slow]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0], "attempted": ops.attempted, "failed": ops.failed}))
        return 0
    setup_times += child_setups(args, 0 if args.smoke else SETUP_REPEATS - 1, ops)

    if args.trace:
        metrics, extra = per_layer(args, wl, spans, workloads, ops, expected["cli"])
        wanted = bench["per_layer"]
    else:
        metrics, extra = end_to_end(args, wl, spans, ops, setup_times, setup_slow)
        wanted = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) ^ set(metrics)
    if missing:
        die(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    for rec_name in ("plain", "traced"):
        if rec_name in extra:
            extra[rec_name].save(OUT / f"spans-{tag}-{rec_name}.npz")
    result_file = {
        "record": run_record(args, allocator),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "fail_ratio": ops.failed / ops.attempted,
        "failures": ops.messages,
        "counts": wl.counts,
        "metrics": {name: {**metrics[name], "unit": units[name]} for name in units},
        "detail": extra.get("detail"),
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result_file, indent=1) + "\n", encoding="utf-8")

    for message in ops.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for name in units:
        print(f"{name} = {metrics[name]['value']:.6g} {units[name]}")
    print(f"operations failed/attempted = {ops.failed}/{ops.attempted}")
    line = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]} for name in units},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
