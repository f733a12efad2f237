"""The benchmark workloads and the probes of the traced run.

Each workload is a closed loop with one caller: the next unit of work starts
only after the previous one returns.  The library receives only inputs
generated from the workload seed.  A unit reports how many replications it
completed and how long its timed part took; its output checks run outside
that time.

- ``mc-n1e5``: one ``run_mc`` call of ``MC_REPS`` replications per unit, at
  n = 10^5 with untied data, one worker.
- ``study-n1e2``: one small-sample analysis per unit, n = 100, every sample
  tied (scheduled inspection visits).

Each workload also has a reference kernel: fixed work of the same kind as its
units (small-array numpy calls in a Python loop, or large-array numpy
kernels) that never calls curest.  Untraced runs time it before every unit,
so that the machine's speed during the run is known; see ``slowdown`` in
run.py.

The CLI is measured by a probe of the traced run, ``cli_probe``: one session
of four ``python -m curest`` processes on one 10^5-row dataset.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans


MC_REPS = 10
STUDY_N = 100
STUDY_REFERENCE_REPS = 20
SEED_STRIDE = 1_000_000
PROCESS_TIMEOUT_S = 150


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:16]


class Ops:
    """Attempted and failed operations.  An operation fails when it raises,
    exits nonzero, or its output check does not match."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def mc_spec(C):
    return C.MixtureSpec(p=0.3, event=C.Exponential(2.0), inspection=C.Exponential(1.0))


def visit_schedule(C):
    """Inspection law of scheduled visits at 0.25, 0.50, ..., 4.0: each visit
    carries the Exp(1) mass of the interval ending at it, and the last visit
    also takes the remaining tail."""
    G = C.Exponential(1.0)
    visits = [0.25 * k for k in range(1, 17)]
    probs, values, lo = [], [], 0.0
    for k, v in enumerate(visits):
        hi = float(G.cdf(v)) if k + 1 < len(visits) else 1.0
        probs += [lo, hi]
        values += [v, v]
        lo = hi
    return C.TabulatedQuantile(tuple(probs), tuple(values))


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, smoke: bool, expected: dict, out: Path) -> None:
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.expected = expected
        self.out = out
        # Outcomes worth recording that are not failures.
        self.counts: dict[str, int] = {}

    def setup(self, ops: Ops) -> None:
        """Imports, inputs and warm-up."""
        raise NotImplementedError

    def unit(self, rec: spans.Recorder, k: int, traced: bool, ops: Ops, refs=None) -> tuple[int, float]:
        """Run unit ``k``.  When ``refs`` is given, first append to it the
        time of one reference kernel call, outside the unit's own time."""
        raise NotImplementedError

    # Mean time of ``reference()`` on the machine the benchmark was tuned on
    # (a 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2).
    ref_nominal_s: float

    def reference(self) -> float:
        """Run the reference kernel once and return its wall time."""
        raise NotImplementedError


class McWorkload(Workload):
    name = "mc-n1e5"

    def setup(self, ops: Ops) -> None:
        import numpy as np

        import curest as C

        self.C, self.np = C, np
        self.n = 2_000 if self.smoke else 100_000
        self.spec = mc_spec(C)
        self.rule = C.CutoffRule("undersmoothed")
        res = C.run_mc(self.config(0, MC_REPS))
        got = digest(res.z1.tobytes(), res.z2.tobytes())
        ops.record(
            self.check(res, MC_REPS) and got == self.expected["z"],
            f"mc reference z digest {got}, expected {self.expected['z']}",
        )

    def config(self, seed: int, reps: int):
        return self.C.McConfig(spec=self.spec, n=self.n, reps=reps, seed=seed, cutoff=self.rule)

    def check(self, res, reps: int) -> bool:
        np = self.np
        return (
            res.retained == reps
            and res.nonfinite == 0
            and bool(np.all(res.z2 >= res.z1))
        )

    def unit(self, rec, k, traced, ops, refs=None):
        if refs is not None:
            refs.append(self.reference())
        config = self.config(self.seed * SEED_STRIDE + k * MC_REPS, MC_REPS)
        t0 = perf_counter()
        try:
            with rec.span("bench.run_mc"):
                res = self.C.run_mc(config, workers=1)
        except Exception as exc:  # counted as a failed operation
            ops.record(False, f"run_mc raised {exc!r}")
            return 0, perf_counter() - t0
        busy = perf_counter() - t0
        ok = ops.record(self.check(res, MC_REPS), f"run_mc check failed at seed {config.seed}")
        return (MC_REPS if ok else 0), busy

    ref_nominal_s = 0.031

    def reference(self) -> float:
        # Draw, stable-sort and accumulate 10^5 doubles, twice: the array
        # kernels that dominate a replication.
        np = self.np
        t0 = perf_counter()
        for seed in (1, 2):
            x = np.random.default_rng(seed).standard_exponential(100_000)
            order = np.argsort(x, kind="stable")
            np.cumsum(x[order])
        return perf_counter() - t0


class StudyWorkload(Workload):
    name = "study-n1e2"

    def setup(self, ops: Ops) -> None:
        import numpy as np

        import curest as C

        self.C, self.np = C, np
        self.spec = C.MixtureSpec(p=0.3, event=C.Exponential(2.0), inspection=visit_schedule(C))
        self.ref_x = np.random.default_rng(0).random(STUDY_N)
        self.counts["m1_unavailable"] = 0
        rec = spans.Recorder()
        rows = [self.analyse(rec, seed) for seed in range(STUDY_REFERENCE_REPS)]
        got = digest(np.asarray(rows, dtype=np.float64).tobytes())
        ops.record(got == self.expected["outputs"], f"study reference digest {got}, expected {self.expected['outputs']}")

    def analyse(self, rec, seed: int) -> tuple:
        C = self.C
        rec.rep_id = seed
        with rec.span("bench.rep"):
            with rec.span("bench.simulate"):
                sample = C.simulate(self.spec, STUDY_N, seed)
            with rec.span("bench.trace"):
                ss = C.sort_with_concomitants(sample)
                tr = C.trace(ss)
            with rec.span("bench.cv"):
                try:
                    m1 = C.cv_m1_curve(ss)
                except ValueError:
                    # alpha_hat is undefined on this sample; as documented, and
                    # as ``curest cv`` does, only the m2 objective is used.
                    m1 = None
                m2 = C.cv_m2_curve(ss)
                pick1 = C.select_cutoff(m1, guard=5) if m1 is not None else None
                pick2 = C.select_cutoff(m2, guard=5)
            with rec.span("bench.estimate"):
                est1 = C.estimate_cure(tr, pick1) if pick1 is not None else None
                est2 = C.estimate_cure(tr, pick2)
                fit = C.npmle_pava(ss.delta)
                interval = C.npmle_cure_argmax_interval(fit)
        if est1 is None:
            self.counts["m1_unavailable"] += 1
            return (-1, pick2.index, math.nan, math.nan, est2.p_hat1, est2.p_hat2, interval.hi)
        return (
            pick1.index,
            pick2.index,
            est1.p_hat1,
            est1.p_hat2,
            est2.p_hat1,
            est2.p_hat2,
            interval.hi,
        )

    def unit(self, rec, k, traced, ops, refs=None):
        if refs is not None:
            refs.append(self.reference())
        seed = self.seed * SEED_STRIDE + k
        t0 = perf_counter()
        try:
            row = self.analyse(rec, seed)
        except Exception as exc:  # counted as a failed operation
            ops.record(False, f"study rep {seed} raised {exc!r}")
            return 0, perf_counter() - t0
        busy = perf_counter() - t0
        index1, _, a1, a2, b1, b2, hi = row
        # p2 >= p1 means the cure estimate 1 - p2 is at most 1 - p1.
        ok = (index1 < 0 or a2 <= a1) and b2 <= b1 and 0.0 <= hi <= 1.0
        ok = ops.record(ok, f"study rep {seed} check failed")
        return int(ok), busy

    ref_nominal_s = 0.000115

    def reference(self) -> float:
        # Small-array numpy calls and Python arithmetic in a loop: the
        # per-call overhead that dominates at n = 100.
        np, x = self.np, self.ref_x
        t0 = perf_counter()
        acc = 0.0
        for _ in range(4):
            order = np.argsort(x, kind="stable")
            acc += float(np.cumsum(x[order])[-1]) + np.unique(np.round(x, 1)).size
            acc += sum(k * k % 7 for k in range(60))
        return perf_counter() - t0


WORKLOADS = {w.name: w for w in (McWorkload, StudyWorkload)}


def csv_probe(C, root_out: Path, n: int, repeats: int, ops: Ops) -> tuple[float, float]:
    """Median write and read time of a ``delta,y`` file of ``n`` rows."""
    import statistics

    sample = C.simulate(mc_spec(C), n, 0)
    writes, reads = [], []
    tmp = Path(tempfile.mkdtemp(prefix="csv-", dir=root_out))
    try:
        path = tmp / "probe.csv"
        for _ in range(repeats):
            t0 = perf_counter()
            C.write_csv(sample, path)
            writes.append(perf_counter() - t0)
            t0 = perf_counter()
            back = C.read_csv(path)
            reads.append(perf_counter() - t0)
            ops.record(back.y.tobytes() == sample.y.tobytes(), "csv probe round trip differs")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return statistics.median(writes), statistics.median(reads)


def cli_commands(n: int, seed: int):
    sim = ["--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", str(n)]
    return [
        ("simulate", ["simulate", *sim, "--seed", str(seed), "--out", "data.csv"]),
        ("trace", ["trace", "--data", "data.csv", "--out", "trace.csv"]),
        ("cv", ["cv", "--data", "data.csv", "--out", "cv.csv"]),
        ("estimate", ["estimate", "--data", "data.csv", "--method", "cv-m2", "--json-summary", "est.json"]),
    ]


def cli_probe(C, root: Path, root_out: Path, n: int, seed: int, expected: dict, ops: Ops) -> dict:
    """One CLI session in a fresh temp dir: four ``python -m curest``
    processes, one at a time, with ``PYTHONPATH`` set to the checkout's
    ``src``.  Returns the wall time of each command's process."""
    import numpy as np

    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=root_out))
    times, codes = {}, {}
    try:
        for name, args in cli_commands(n, seed):
            t0 = perf_counter()
            codes[name] = subprocess.run(
                [sys.executable, "-m", "curest", *args],
                cwd=tmp,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=PROCESS_TIMEOUT_S,
                check=False,
            ).returncode
            times[name] = perf_counter() - t0
        for name, code in codes.items():
            ops.record(code == 0, f"cli {name} exit {code}")
        if codes["simulate"] == 0:
            back = C.read_csv(tmp / "data.csv")
            ref = C.simulate(mc_spec(C), n, seed)
            ops.record(
                back.delta.tobytes() == ref.delta.tobytes() and back.y.tobytes() == ref.y.tobytes(),
                f"data.csv at seed {seed} does not re-parse to simulate()",
            )
        if codes["trace"] == 0:
            tr = np.loadtxt(tmp / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
            p1, p2 = tr[:, 2], tr[:, 3]
            ops.record(
                bool(np.all(p2 >= p1) and np.all(np.diff(p2) >= 0)),
                f"trace.csv at seed {seed}: p2 < p1 or p2 decreasing",
            )
        if codes["estimate"] == 0:
            summary = json.loads((tmp / "est.json").read_text(encoding="utf-8"))
            ops.record(summary["pHat2"] <= summary["pHat1"], f"est.json at seed {seed}: pHat2 > pHat1")
        if seed == 0:
            for fname, want in expected.items():
                path = tmp / fname
                got = digest(path.read_bytes()) if path.exists() else None
                ops.record(got == want, f"{fname} digest {got} at the default seed, expected {want}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return times


def import_probe(root: Path, repeats: int, ops: Ops) -> float:
    """Median wall time of a fresh process that imports curest.cli."""
    import statistics

    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import curest.cli"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=PROCESS_TIMEOUT_S,
            check=False,
        )
        times.append(perf_counter() - t0)
        ops.record(proc.returncode == 0, f"import curest.cli exit {proc.returncode}")
    return statistics.median(times)


def parallel_probe(C, n: int, reps: int, repeats: int, ops: Ops) -> tuple[float, float]:
    """Pool start-up with a no-op chunk, and the speed-up of ``run_mc`` at 2
    workers over 1 on the mc design."""
    import statistics

    from curest._parallel import map_replication_chunks

    starts = []
    for _ in range(repeats):
        t0 = perf_counter()
        # ``max(start, stop)`` is a picklable chunk function that does nothing.
        map_replication_chunks(max, (), 2, 2)
        starts.append(perf_counter() - t0)
    config = C.McConfig(
        spec=mc_spec(C), n=n, reps=reps, seed=0, cutoff=C.CutoffRule("undersmoothed")
    )
    ratios = []
    for _ in range(repeats):
        t0 = perf_counter()
        one = C.run_mc(config, workers=1)
        t1 = perf_counter()
        two = C.run_mc(config, workers=2)
        t2 = perf_counter()
        ratios.append((t1 - t0) / (t2 - t1))
        ops.record(
            one.z1.tobytes() == two.z1.tobytes() and one.z2.tobytes() == two.z2.tobytes(),
            "run_mc differs between 1 and 2 workers",
        )
    return statistics.median(starts), statistics.median(ratios)
