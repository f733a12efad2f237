"""End-to-end command-line behavior.

``run_cli`` drives ``cli.main`` in the test process, so the CLI runs under
the suite's warning filters and pays no interpreter start-up.  A subprocess
is kept only where the process is what is tested: the exit codes of
``python -m curest`` and what importing and running the CLI loads.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import textwrap
import types

import mpmath
import numpy as np
import pytest

import curest
from curest import asymptotics, cli, estimators, model
from curest import read_csv, simulate, write_csv, z_stats
from curest import Exponential, MixtureSpec, SortedSample

JSON_KEYS = {
    "pHat1",
    "pHat2",
    "cutIndex",
    "cutThreshold",
    "tailCount",
    "ciLo",
    "ciHi",
    "ksNormal",
    "ksHalfNormal",
}


def run_cli(*args):
    """Run ``cli.main`` on ``args`` and return what a process would: the
    exit code (argparse exits through ``SystemExit``), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def write_toy(path, rows):
    path.write_text("delta,y\n" + "".join(f"{d},{y}\n" for d, y in rows), encoding="utf-8")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_writes_csv_and_summary(tmp_path):
    out = tmp_path / "data.csv"
    res = run_cli(
        "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "100", "--seed", "7", "--out", str(out),
    )
    assert res.returncode == 0
    assert res.stdout.startswith("n=100 delta_bar=")
    sample = read_csv(out)
    assert sample.n == 100
    assert out.read_text().splitlines()[0] == "delta,y"


def test_simulate_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    for out in (a, b):
        res = run_cli(
            "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
            "--n", "50", "--seed", "11", "--out", str(out),
        )
        assert res.returncode == 0
    run_cli(
        "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "50", "--seed", "12", "--out", str(c),
    )
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_rejects_bad_p(tmp_path):
    res = run_cli(
        "simulate", "--p", "1.2", "--f-rate", "2", "--g-rate", "1",
        "--n", "10", "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2
    assert "--p" in res.stderr


def test_simulate_unwritable_path_is_runtime_error():
    res = run_cli(
        "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "10", "--out", "/nonexistent-dir/out.csv",
    )
    assert res.returncode == 3
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "command",
    [["simulate", "--seed", "1"], ["mc", "--reps", "2", "--threads", "2"]],
    ids=["simulate", "mc-2-workers"],
)
def test_a_sample_too_large_to_allocate_is_runtime_error(tmp_path, command):
    # 2 * 10**15 doubles, 14.2 PiB, lie beyond any address space, so the
    # draw's allocation fails at once, in process or in a worker.
    res = run_cli(
        *command, "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", str(10**15), "--out", str(tmp_path / "out.csv"),
    )
    assert res.returncode == 3
    assert res.stderr.startswith("error: Unable to allocate 14.2 PiB")
    assert res.stderr.count("\n") == 1


def test_trace_hand_values(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    out = tmp_path / "trace.csv"
    res = run_cli("trace", "--data", str(data), "--out", str(out))
    assert res.returncode == 0
    rows = read_rows(out)
    assert [r["index"] for r in rows] == ["1", "2", "3"]
    assert [float(r["p1"]) for r in rows] == pytest.approx([2 / 3, 0.5, 1.0])
    assert [float(r["p2"]) for r in rows] == pytest.approx([2 / 3, 2 / 3, 1.0])
    assert "final_p2=1" in res.stdout


def test_trace_all_zero(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(0, 1.0), (0, 2.0)])
    out = tmp_path / "trace.csv"
    assert run_cli("trace", "--data", str(data), "--out", str(out)).returncode == 0
    rows = read_rows(out)
    assert all(float(r["p1"]) == 0.0 and float(r["p2"]) == 0.0 for r in rows)


def test_trace_merges_ties(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 2.0), (1, 3.0)])
    out = tmp_path / "trace.csv"
    res = run_cli("trace", "--data", str(data), "--out", str(out))
    assert res.returncode == 0
    assert len(read_rows(out)) == 3  # one row per distinct threshold
    assert "rows=3" in res.stdout


def test_trace_writes_a_negative_zero_time_as_zero(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, "-0"), (0, 2.0)])
    out = tmp_path / "trace.csv"
    assert run_cli("trace", "--data", str(data), "--out", str(out)).returncode == 0
    assert [r["y"] for r in read_rows(out)] == ["0", "2"]


def test_trace_malformed_csv_names_line(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("delta,y\n1,0.5\nbad,1.0\n", encoding="utf-8")
    res = run_cli("trace", "--data", str(data), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 3
    assert "line 3" in res.stderr


def test_trace_invalid_utf8_is_runtime_error(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"delta,y\n1,0.5\n0,\xff\n")
    res = run_cli("trace", "--data", str(data), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 3
    assert res.stderr == f"error: {data}: line 3: not valid UTF-8\n"


def test_cv_hand_values_and_columns(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    out = tmp_path / "cv.csv"
    res = run_cli("cv", "--data", str(data), "--out", str(out), "--guard", "1")
    assert res.returncode == 0
    rows = read_rows(out)
    assert list(rows[0].keys()) == [
        "index", "y", "m1_var", "m1_bias2", "m1", "m2_var", "m2_bias2", "m2",
    ]
    row2 = rows[1]
    assert float(row2["m2_var"]) == pytest.approx(0.125, abs=1e-12)
    assert float(row2["m2"]) == pytest.approx(0.125 + (2 / 3 - 7 / 9) ** 2, abs=1e-12)


def test_cv_invalid_alpha_leaves_m1_empty_with_warning(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(0, 1.0), (0, 2.0), (0, 3.0)])
    out = tmp_path / "cv.csv"
    res = run_cli("cv", "--data", str(data), "--out", str(out), "--guard", "1")
    assert res.returncode == 0
    assert "warning" in res.stderr and "m1" in res.stderr
    rows = read_rows(out)
    assert all(r["m1"] == "" and r["m1_var"] == "" and r["m1_bias2"] == "" for r in rows)
    assert "m1: unavailable" in res.stdout
    # all-zero indicators also make every variance entry exactly 0, so m2
    # has no rankable cut-off either; the table must still be written
    assert "m2: unavailable (no selectable cut-off)" in res.stdout
    assert "m2 selection unavailable" in res.stderr


def test_cv_default_guard_excludes_last_four(tmp_path):
    data = tmp_path / "sim.csv"
    run_cli(
        "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "20", "--seed", "3", "--out", str(data),
    )
    out = tmp_path / "cv.csv"
    res = run_cli("cv", "--data", str(data), "--out", str(out))
    assert res.returncode == 0
    for line in res.stdout.splitlines():
        if line.startswith(("m1: index=", "m2: index=")):
            picked = int(line.split("index=")[1].split()[0])
            assert picked <= 16  # tail count >= 5 on 20 records


def test_estimate_fixed_index_hand_values(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    summary = tmp_path / "est.json"
    res = run_cli(
        "estimate", "--data", str(data), "--method", "fixed-index",
        "--index", "2", "--json-summary", str(summary),
    )
    assert res.returncode == 0
    payload = json.loads(summary.read_text())
    assert set(payload) == JSON_KEYS
    assert payload["pHat1"] == pytest.approx(0.5, abs=1e-12)
    assert payload["pHat2"] == pytest.approx(1 / 3, abs=1e-12)
    assert payload["cutIndex"] == 2 and payload["tailCount"] == 2
    # half-width 1.96 * 0.5 / sqrt(2) = 0.693 pushes both ends past the
    # boundaries, so the interval clips to [0, 1]
    assert payload["ciLo"] == 0.0 and payload["ciHi"] == 1.0
    assert payload["ksNormal"] is None and payload["ksHalfNormal"] is None
    assert "p_hat1=0.5" in res.stdout


@pytest.mark.parametrize("index", ["4", "1000"])
def test_estimate_an_index_past_the_sample_is_usage_error(tmp_path, index):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    res = run_cli("estimate", "--data", str(data), "--method", "fixed-index", "--index", index)
    assert res.returncode == 2
    assert f"--index: index must lie in 1..3, got {index}" in res.stderr
    assert res.stdout == ""


def test_estimate_interior_ci_half_width(tmp_path):
    data = tmp_path / "wide.csv"
    rows = [(1, float(i)) for i in range(1, 13)] + [(0, float(i)) for i in range(13, 17)]
    write_toy(data, rows)
    summary = tmp_path / "est.json"
    res = run_cli(
        "estimate", "--data", str(data), "--method", "fixed-index",
        "--index", "1", "--json-summary", str(summary),
    )
    assert res.returncode == 0
    payload = json.loads(summary.read_text())
    assert payload["pHat1"] == pytest.approx(0.25, abs=1e-12)
    center = 1.0 - payload["pHat1"]
    assert payload["ciLo"] == pytest.approx(center - 0.2121723251392822, abs=1e-12)
    assert payload["ciHi"] == pytest.approx(center + 0.2121723251392822, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
def test_estimate_half_width_against_high_precision(tmp_path, alpha):
    # Eight events in a tail of 16: p_hat1 = 1/2, so the half-width is
    # z * 1/2 / 4 with no rounding, and ciHi - 1/2 recovers it exactly.
    data = tmp_path / "half.csv"
    write_toy(data, [(i % 2, float(i)) for i in range(1, 17)])
    summary = tmp_path / "est.json"
    res = run_cli(
        "estimate", "--data", str(data), "--method", "fixed-index", "--index", "1",
        "--alpha", str(alpha), "--json-summary", str(summary),
    )
    assert res.returncode == 0
    payload = json.loads(summary.read_text())
    assert payload["pHat1"] == 0.5 and payload["tailCount"] == 16
    with mpmath.workdps(40):
        want = mpmath.sqrt(2) * mpmath.erfinv(1 - mpmath.mpf(alpha)) / 8
        assert abs((payload["ciHi"] - 0.5) / want - 1) <= 1e-15


def test_estimate_json_deterministic(tmp_path):
    data = tmp_path / "sim.csv"
    run_cli(
        "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "200", "--seed", "21", "--out", str(data),
    )
    outs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        res = run_cli(
            "estimate", "--data", str(data), "--method", "cv-m2",
            "--json-summary", str(path),
        )
        assert res.returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_estimate_method_flag_requirements(tmp_path):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    res = run_cli("estimate", "--data", str(data), "--method", "fixed-index")
    assert res.returncode == 2 and "--index" in res.stderr
    res = run_cli("estimate", "--data", str(data), "--method", "fixed-quantile")
    assert res.returncode == 2 and "--quantile" in res.stderr
    res = run_cli("estimate", "--data", str(data), "--method", "theoretical-exp")
    assert res.returncode == 2
    assert "--p" in res.stderr
    # a flag the method does not use is refused, not silently ignored; each
    # of these runs to exit 0 without its stray flag
    theoretical = ["--p", "0.3", "--f-rate", "2", "--g-rate", "1"]
    for method, flags, stray in [
        ("cv-m2", ["--guard", "1", "--index", "5"], "--index"),
        ("cv-m1", ["--guard", "1", "--g-rate", "1"], "--g-rate"),
        ("fixed-index", ["--index", "2", "--p", "0.3"], "--p"),
        ("fixed-index", ["--index", "2", "--f-rate", "2"], "--f-rate"),
        ("fixed-quantile", ["--quantile", "0.5", "--index", "7"], "--index"),
        ("theoretical-exp", [*theoretical, "--quantile", "0.5"], "--quantile"),
    ]:
        res = run_cli("estimate", "--data", str(data), "--method", method, *flags)
        assert res.returncode == 2
        assert res.stderr.splitlines()[-1].endswith(f"--method {method} takes no {stray}")


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("q", [0.5, 0.9, 5e-324, 1.0 - 2.0**-53])
def test_fixed_quantile_is_fixed_index_at_the_quantile_position(tmp_path, tied, q):
    # --method fixed-quantile cuts at position ceil(q n), clamped to 1..n:
    # the least positive q gives position 1 and the largest q below 1 gives n.
    data = tmp_path / "data.csv"
    if tied:
        rng = np.random.default_rng(3)
        write_toy(data, zip(rng.integers(0, 2, 151), rng.integers(1, 13, 151) / 4))
    else:
        run_cli(
            "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
            "--n", "201", "--seed", "8", "--out", str(data),
        )
    n = read_csv(data).n
    index = {5e-324: 1, 1.0 - 2.0**-53: n}.get(q, math.ceil(q * n))
    summaries = []
    for flags in (["fixed-quantile", "--quantile", repr(q)], ["fixed-index", "--index", str(index)]):
        path = tmp_path / f"{flags[0]}.json"
        res = run_cli(
            "estimate", "--data", str(data), "--method", *flags, "--json-summary", str(path)
        )
        assert res.returncode == 0, res.stderr
        summaries.append(path.read_bytes())
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("alpha", ["0", "1", "nan", "1e-17", repr(2.0**-53)])
def test_estimate_alpha_outside_the_unit_interval_is_usage_error(tmp_path, alpha):
    # The data path does not exist: exit 2, not 3, shows that --alpha is
    # checked before the data are read.  Up to 2**-53, 1 - alpha/2 rounds to
    # 1, which has no normal quantile.
    res = run_cli(
        "estimate", "--data", str(tmp_path / "absent.csv"), "--method", "cv-m2",
        "--alpha", alpha,
    )
    assert res.returncode == 2
    bound = "exceed 2**-53" if 0.0 < float(alpha) < 1.0 else "lie strictly inside (0, 1)"
    assert res.stderr.splitlines()[-1].endswith(
        f"--alpha: alpha must {bound}, got {float(alpha)!r}"
    )


def test_the_least_alpha_above_two_to_the_minus_53_gives_an_interval(tmp_path):
    # 128 events in a tail of 256: the upper end lies z / 32 above 1/2, and
    # 1 - alpha/2 rounds to 1 - 2**-53.
    data = tmp_path / "half.csv"
    write_toy(data, [(i % 2, float(i)) for i in range(1, 257)])
    summary = tmp_path / "est.json"
    res = run_cli(
        "estimate", "--data", str(data), "--method", "fixed-index", "--index", "1",
        "--alpha", repr(math.nextafter(2.0**-53, 1.0)), "--json-summary", str(summary),
    )
    assert res.returncode == 0, res.stderr
    z = 32 * (json.loads(summary.read_text())["ciHi"] - 0.5)
    assert z == pytest.approx(8.2095, abs=1e-4)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["fixed-quantile", "--quantile", "1.5"], "--quantile: quantile must lie strictly inside"
         " (0, 1), got 1.5"),
        (["fixed-quantile", "--quantile", "nan"], "--quantile: quantile must lie strictly inside"
         " (0, 1), got nan"),
        (["fixed-quantile"], "--method fixed-quantile needs --quantile"),
        (["fixed-index"], "--method fixed-index needs --index"),
        (["theoretical-exp"], "--method theoretical-exp needs --p, --f-rate, --g-rate"),
        (["theoretical-exp", "--p", "0.3"], "--method theoretical-exp needs --f-rate, --g-rate"),
        (["theoretical-exp", "--p", "0.3", "--g-rate", "1"], "theoretical-exp needs --f-rate"),
        (["theoretical-exp", "--p", "0", "--f-rate", "2", "--g-rate", "1"],
         "--p: cure fraction p must lie strictly inside (0, 1), got 0.0"),
        (["theoretical-exp", "--p", "1", "--f-rate", "2", "--g-rate", "1"],
         "--p: cure fraction p must lie strictly inside (0, 1), got 1.0"),
    ],
)
def test_estimate_method_flags_are_checked_before_the_data_are_read(
    tmp_path, flags, message
):
    # The data path does not exist: exit 2, not 3; a missing-flag error names
    # only the flags that are missing.  Nothing is run on the design, so the
    # oracle warning is not printed either.
    res = run_cli("estimate", "--data", str(tmp_path / "absent.csv"), "--method", *flags)
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1].endswith(message)
    assert "oracle" not in res.stderr


@pytest.mark.parametrize("flag, value", [("--n", "2.5"), ("--reps", "x")])
def test_a_count_flag_that_is_not_an_integer_is_usage_error(tmp_path, flag, value):
    flags = {
        "--p": "0.3", "--f-rate": "2", "--g-rate": "1", "--n": "100", "--reps": "5",
        "--out": str(tmp_path / "x.csv"),
    }
    flags[flag] = value
    res = run_cli("mc", *[item for pair in flags.items() for item in pair])
    assert res.returncode == 2
    assert f"expected an integer, got {value!r}" in res.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command, flag, value, name",
    [
        ("simulate", "--n", "0", "n"),
        ("simulate", "--seed", "-1", "seed"),
        ("cv", "--guard", "0", "guard"),
        ("estimate", "--guard", "0", "guard"),
        ("estimate", "--index", "0", "index"),
        ("mc", "--n", "0", "n"),
        ("mc", "--reps", "0", "reps"),
        ("mc", "--seed", "-1", "seed"),
        ("mc", "--threads", "0", "workers"),
        ("mc", "--tail-count", "0", "fixed-tail rule's tail"),
        ("thinning", "--n", "0", "n"),
        ("thinning", "--reps", "0", "reps"),
        ("thinning", "--seed", "-1", "seed"),
        ("thinning", "--threads", "0", "workers"),
    ],
)
def test_a_count_flag_is_refused_in_the_words_of_the_library(
    tmp_path, command, flag, value, name
):
    # Each count is refused as it is parsed, by the check of the library
    # parameter it feeds: the data path does not exist (exit 2, not 3), and
    # no output is written.
    design = ["--p", "0.3", "--f-rate", "2", "--g-rate", "1"]
    runs = ["--n", "10", "--reps", "1", "--threads", "1"]
    out = ["--out", str(tmp_path / "x.csv")]
    data = ["--data", str(tmp_path / "absent.csv")]
    flags = {
        "simulate": [*design, "--n", "10", *out],
        "cv": [*data, *out],
        "estimate": [*data, "--method", "fixed-index", "--index", "1"],
        "mc": [*design, *runs, "--cutoff", "fixed-tail", "--tail-count", "3", *out],
        "thinning": [*design, *runs, *out],
    }[command]
    res = run_cli(command, *flags, flag, value)
    with pytest.raises(ValueError) as refusal:
        model._check_count(name, int(value), 0 if flag == "--seed" else 1)
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1].endswith(f"{flag}: {refusal.value}")
    assert not (tmp_path / "x.csv").exists()


def test_a_guard_or_variance_stat_left_out_takes_the_library_default(tmp_path):
    # On these records the m2 objective picks index 5, 4 and 3 under the
    # guards 4, 5 and 6, so only select_cutoff's default of 5 matches.
    data = tmp_path / "toy.csv"
    write_toy(data, [(0, float(y)) for y in range(1, 7)] + [(1, 7.0), (1, 8.0)])

    def run(command, *flags):
        path = tmp_path / "out"
        out = ["--out", str(path)] if command == "cv" else ["--json-summary", str(path)]
        res = run_cli(command, "--data", str(data), *flags, *out)
        assert res.returncode == 0, res.stderr
        return res.stdout, path.read_bytes()

    cv_m2 = ("estimate", "--method", "cv-m2")
    assert run(*cv_m2) == run(*cv_m2, "--guard", "5")
    assert run(*cv_m2) not in (run(*cv_m2, "--guard", "4"), run(*cv_m2, "--guard", "6"))
    assert run("cv") == run("cv", "--guard", "5", "--variance-stat", "p1")
    assert run("cv") != run("cv", "--guard", "4")
    # The tail at index 8 holds one record: choice_at_index's guard of 1
    # takes it, and a guard of 2 refuses it.
    fixed = ("estimate", "--method", "fixed-index", "--index", "8")
    assert run(*fixed) == run(*fixed, "--guard", "1")
    assert run_cli("estimate", "--data", str(data), *fixed[1:], "--guard", "2").returncode == 3


def test_mc_without_studentization_is_known_p(tmp_path):
    out = tmp_path / "mc.csv"

    def run(*flags):
        res = run_cli(
            "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "100",
            "--reps", "5", "--threads", "1", *flags, "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        return res.stdout, out.read_bytes()

    assert run() == run("--studentization", "known-p") != run("--studentization", "plug-in")


def test_estimate_theoretical_warns_about_oracle_parameters(tmp_path):
    data = tmp_path / "sim.csv"
    run_cli(
        "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "200", "--seed", "4", "--out", str(data),
    )
    res = run_cli(
        "estimate", "--data", str(data), "--method", "theoretical-exp",
        "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
    )
    assert res.returncode == 0
    assert "oracle design parameters" in res.stderr


def test_an_optimal_cutoff_past_the_largest_float_is_usage_error(tmp_path, monkeypatch):
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(asymptotics, "replicate_seeds", no_replication)
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    design = ["--p", "0.3", "--f-rate", "1e-320", "--g-rate", "1e-320"]
    mc = [
        "mc", *design, "--n", "10", "--reps", "2", "--threads", "1",
        "--cutoff", "optimal", "--out", str(tmp_path / "m.csv"),
    ]
    estimate = ["estimate", "--data", str(data), "--method", "theoretical-exp", *design]
    for argv in (mc, estimate):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stderr.splitlines()[-1].endswith(
            "--f-rate/--g-rate: the optimal cut-off for these rates exceeds the largest float"
        )


def test_an_optimal_cutoff_at_an_extreme_rate_runs(tmp_path):
    # (lam + mu) ** 2 once overflowed here; the cut-off is 0.
    res = run_cli(
        "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1e300", "--n", "10",
        "--reps", "2", "--threads", "1", "--cutoff", "optimal",
        "--out", str(tmp_path / "m.csv"),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("reps=2 retained=2 ")


def test_estimate_empty_tail_is_runtime_error(tmp_path):
    data = tmp_path / "toy.csv"
    # all inspection times below the theoretical cut-off for these parameters
    write_toy(data, [(1, 0.01), (0, 0.02), (1, 0.03)])
    res = run_cli(
        "estimate", "--data", str(data), "--method", "theoretical-exp",
        "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
    )
    assert res.returncode == 3
    assert "tail is empty" in res.stderr


def test_estimate_malformed_csv_is_runtime_error(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("delta,y\n1,-3\n", encoding="utf-8")
    res = run_cli("estimate", "--data", str(data), "--method", "fixed-index", "--index", "1")
    assert res.returncode == 3
    assert "line 2" in res.stderr


def test_mc_csv_and_summary(tmp_path):
    out = tmp_path / "mc.csv"
    summary = tmp_path / "mc.json"
    res = run_cli(
        "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "150", "--reps", "8", "--seed", "40",
        "--cutoff", "fixed-tail", "--tail-count", "12",
        "--out", str(out), "--json-summary", str(summary), "--threads", "1",
    )
    assert res.returncode == 0
    rows = read_rows(out)
    assert list(rows[0].keys()) == ["rep", "z1", "z2"]
    assert len(rows) == 8
    assert "retained=8 skipped=0" in res.stdout
    payload = json.loads(summary.read_text())
    assert set(payload) == JSON_KEYS
    assert payload["ksNormal"] is not None and payload["ksHalfNormal"] is not None
    assert payload["pHat1"] is None


def test_mc_summary_writes_unavailable_values_as_null(tmp_path):
    # Every replication is skipped, so no KS distance exists; strict JSON
    # has no NaN, so the summary holds null there.
    summary = tmp_path / "mc.json"
    res = run_cli(
        "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "50", "--reps", "3", "--cutoff", "fixed-x", "--cutoff-x", "1e9",
        "--out", str(tmp_path / "mc.csv"), "--json-summary", str(summary), "--threads", "1",
    )
    assert res.returncode == 0, res.stderr
    assert "retained=0 skipped=3" in res.stdout

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(summary.read_text(), parse_constant=refuse)
    assert set(payload) == JSON_KEYS
    assert all(value is None for value in payload.values())


def test_mc_single_rep_matches_library(tmp_path):
    out = tmp_path / "mc.csv"
    res = run_cli(
        "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "200", "--reps", "1", "--seed", "17",
        "--cutoff", "fixed-x", "--cutoff-x", "1.0",
        "--out", str(out), "--threads", "1",
    )
    assert res.returncode == 0
    row = read_rows(out)[0]
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    zz = z_stats(SortedSample(simulate(spec, 200, seed=17)), 1.0, p_true=0.3)
    assert float(row["z1"]) == zz.z1
    assert float(row["z2"]) == zz.z2


def test_mc_flag_validation(tmp_path):
    res = run_cli(
        "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "100", "--reps", "5", "--cutoff", "fixed-x",
        "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2 and "--cutoff-x" in res.stderr
    res = run_cli(
        "mc", "--p", "0.0", "--f-rate", "2", "--g-rate", "1",
        "--n", "100", "--reps", "5", "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2 and "--p" in res.stderr


@pytest.mark.parametrize("p", ["0", "1"])
def test_mc_p_at_0_or_1_is_usage_error(tmp_path, p):
    res = run_cli(
        "mc", "--p", p, "--f-rate", "2", "--g-rate", "1", "--n", "100", "--reps", "5",
        "--cutoff", "fixed-x", "--cutoff-x", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1].endswith(
        f"--p: cure fraction p must lie strictly inside (0, 1), got {float(p)!r}"
    )


@pytest.mark.parametrize("p", ["0", "1"])
def test_estimate_and_mc_name_the_cure_fraction_alike(tmp_path, p):
    # The closed-form cut-off checks p under the name MixtureSpec and
    # McConfig give it, so both commands print one text.
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    design = ["--p", p, "--f-rate", "2", "--g-rate", "1"]
    mc = ["mc", *design, "--n", "10", "--reps", "2", "--out", str(tmp_path / "m.csv")]
    estimate = ["estimate", "--data", str(data), "--method", "theoretical-exp", *design]
    for argv in (mc, estimate):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stderr.splitlines()[-1].endswith(
            f"--p: cure fraction p must lie strictly inside (0, 1), got {float(p)!r}"
        )


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--f-rate", "nan"),
        ("simulate", "--f-rate", "inf"),
        ("mc", "--g-rate", "nan"),
        ("mc", "--cutoff-x", "inf"),
        ("mc", "--cutoff-x", "nan"),
        ("estimate", "--f-rate", "nan"),
    ],
)
def test_nonfinite_parameters_are_usage_errors(tmp_path, command, flag, value):
    data = tmp_path / "toy.csv"
    write_toy(data, [(1, 1.0), (0, 2.0), (1, 3.0)])
    flags = {"--p": "0.3", "--f-rate": "2", "--g-rate": "1"}
    if command == "simulate":
        flags.update({"--n": "10", "--out": str(tmp_path / "x.csv")})
    elif command == "mc":
        flags.update({
            "--n": "10", "--reps": "1", "--cutoff": "fixed-x", "--cutoff-x": "1",
            "--threads": "1", "--out": str(tmp_path / "x.csv"),
        })
    else:
        flags.update({"--data": str(data), "--method": "theoretical-exp"})
    flags[flag] = value
    res = run_cli(command, *(item for pair in flags.items() for item in pair))
    assert res.returncode == 2, res.stderr
    # the usage line lists every flag, so look for the name in the message
    assert flag in res.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "cutoff, flags, named",
    [
        ("optimal", ["--cutoff-x", "1"], "--cutoff-x"),
        ("undersmoothed", ["--tail-count", "3"], "--tail-count"),
        ("fixed-x", ["--cutoff-x", "1", "--tail-count", "3"], "--tail-count"),
        ("fixed-x", ["--cutoff-x", "-1", "--tail-count", "3"], "--tail-count"),
        ("fixed-tail", ["--tail-count", "3", "--cutoff-x", "1"], "--cutoff-x"),
    ],
)
def test_mc_refuses_a_flag_its_cutoff_does_not_use(tmp_path, cutoff, flags, named):
    res = run_cli(
        "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "50",
        "--reps", "1", "--threads", "1", "--out", str(tmp_path / "x.csv"),
        "--cutoff", cutoff, *flags,
    )
    assert res.returncode == 2
    assert f"{named}: {cutoff} rule takes no" in res.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "mc", "thinning"])
def test_negative_seed_is_usage_error(tmp_path, command):
    flags = [
        "--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "50",
        "--seed", "-1", "--out", str(tmp_path / "x.csv"),
    ]
    if command != "simulate":
        flags += ["--reps", "1", "--threads", "1"]
    res = run_cli(command, *flags)
    assert res.returncode == 2
    assert "--seed" in res.stderr.splitlines()[-1]


@pytest.mark.parametrize("method", ["cv-m1", "cv-m2"])
def test_estimate_cv_builds_the_trace_once(tmp_path, monkeypatch, method):
    data = tmp_path / "sim.csv"
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    write_csv(simulate(spec, 400, seed=5), data)
    # trace keeps the trace it builds on the sample, so the command and the
    # curve may both ask for it: what is counted is the builds.
    build = estimators.EstimatorTrace.__post_init__
    builds = []

    def counted(tr, ss):
        builds.append(ss)
        build(tr, ss)

    monkeypatch.setattr(estimators.EstimatorTrace, "__post_init__", counted)
    assert run_cli("estimate", "--data", str(data), "--method", method).returncode == 0
    assert len(builds) == 1


def test_thinning_csv_and_limits(tmp_path):
    out = tmp_path / "thin.csv"
    res = run_cli(
        "thinning", "--p", "0", "--f-rate", "2", "--g-rate", "1",
        "--n", "1000", "--reps", "300", "--seed", "7",
        "--target-mean", "20", "--out", str(out), "--threads", "1",
    )
    assert res.returncode == 0
    rows = read_rows(out)
    assert list(rows[0].keys()) == [
        "target_mean", "threshold", "mean_n1", "mean_n0",
        "var_over_mean_n1", "var_over_mean_n0", "corr_n1_n0",
    ]
    assert float(rows[0]["mean_n0"]) / 20.0 <= 0.02
    assert "corr=" in res.stdout


def test_thinning_zero_reps_is_usage_error(tmp_path):
    res = run_cli(
        "thinning", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "100", "--reps", "0", "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 2
    assert "--reps" in res.stderr


@pytest.mark.parametrize("target", ["0", "nan", "100.5"])
def test_thinning_target_mean_is_usage_error(tmp_path, target):
    flags = [
        "--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "100", "--reps", "1",
        "--target-mean", "20", target, "--threads", "1", "--out", str(tmp_path / "x.csv"),
    ]
    res = run_cli("thinning", *flags)
    assert res.returncode == 2
    assert "--target-mean" in res.stderr.splitlines()[-1]


def test_cli_outputs_reparse_losslessly(tmp_path):
    data = tmp_path / "sim.csv"
    run_cli(
        "simulate", "--p", "0.3", "--f-rate", "2", "--g-rate", "1",
        "--n", "300", "--seed", "33", "--out", str(data),
    )
    sample = read_csv(data)
    trace_out = tmp_path / "trace.csv"
    run_cli("trace", "--data", str(data), "--out", str(trace_out))
    rows = read_rows(trace_out)
    ss = SortedSample(sample)
    # every float written with 17 significant digits comes back bitwise
    got_y = np.array([float(r["y"]) for r in rows])
    assert np.array_equal(np.unique(ss.y), got_y)


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("unknown-command").returncode == 2
    help_res = run_cli("--help")
    assert help_res.returncode == 0
    assert "simulate" in help_res.stdout


def test_estimate_help_states_the_follow_up_condition():
    # 1 - p1 and 1 - p2 estimate p only when the inspections reach past the
    # event times; the help says so, and names what they estimate otherwise.
    res = run_cli("estimate", "--help")
    assert res.returncode == 0
    text = " ".join(res.stdout.split())
    for phrase in ("sufficient follow-up", "p' = 1 - (1 - p) F(tau)", "Maller & Zhou 1992"):
        assert phrase in text, phrase


def test_missing_input_file_is_runtime_error(tmp_path):
    res = run_cli("trace", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_python_m_curest_exits_with_the_code_main_returns(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "curest", *args], capture_output=True, text=True
        )

    help_res = run("--help")
    assert help_res.returncode == 0
    assert "simulate" in help_res.stdout
    assert run().returncode == 2
    res = run("trace", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_cli_import_does_not_load_scipy_stats():
    code = "import sys, curest.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
    # Nor any scipy module or the process pool: the calls that use them
    # import them.
    code = (
        "import sys, curest, curest.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_runs_load_no_scipy(tmp_path):
    code = textwrap.dedent(
        """
        import os, sys
        from curest import cli

        os.chdir(sys.argv[1])
        model = ["--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "200"]
        assert cli.main(["simulate", *model, "--seed", "1", "--out", "sim.csv"]) == 0
        assert cli.main(["estimate", "--data", "sim.csv", "--method", "cv-m2"]) == 0
        assert cli.main(["mc", *model, "--reps", "4", "--threads", "1", "--out", "mc.csv"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    res = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_all_lists_exactly_the_public_names_curest_binds():
    bound = {
        name
        for name, value in vars(curest).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(curest.__all__) == bound
    assert len(curest.__all__) == len(bound)
