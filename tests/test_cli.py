"""End-to-end command-line behavior via subprocess round trips."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from curest import cli, estimators
from curest import read_csv, simulate, sort_with_concomitants, write_csv, z_stats
from curest import Exponential, MixtureSpec

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
    return subprocess.run(
        [sys.executable, "-m", "curest", *args],
        capture_output=True,
        text=True,
    )


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
    assert cli.main(["trace", "--data", str(data), "--out", str(out)]) == 0
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
    zz = z_stats(sort_with_concomitants(simulate(spec, 200, seed=17)), 1.0, p_true=0.3)
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
def test_mc_refuses_a_flag_its_cutoff_does_not_use(tmp_path, capsys, cutoff, flags, named):
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "mc", "--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "50",
            "--reps", "1", "--threads", "1", "--out", str(tmp_path / "x.csv"),
            "--cutoff", cutoff, *flags,
        ])
    assert exc.value.code == 2
    assert f"{named}: {cutoff} rule takes no" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "mc", "thinning"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    flags = [
        "--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "50",
        "--seed", "-1", "--out", str(tmp_path / "x.csv"),
    ]
    if command != "simulate":
        flags += ["--reps", "1", "--threads", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *flags])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("method", ["cv-m1", "cv-m2"])
def test_estimate_cv_builds_the_trace_once(tmp_path, monkeypatch, method):
    data = tmp_path / "sim.csv"
    spec = MixtureSpec(p=0.3, event=Exponential(2.0), inspection=Exponential(1.0))
    write_csv(simulate(spec, 400, seed=5), data)
    build = estimators.trace
    builds = []

    def counted(ss):
        builds.append(ss)
        return build(ss)

    monkeypatch.setattr(estimators, "trace", counted)
    monkeypatch.setattr(cli, "trace", counted)
    assert cli.main(["estimate", "--data", str(data), "--method", method]) == 0
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
def test_thinning_target_mean_is_usage_error(tmp_path, capsys, target):
    flags = [
        "--p", "0.3", "--f-rate", "2", "--g-rate", "1", "--n", "100", "--reps", "1",
        "--target-mean", "20", target, "--threads", "1", "--out", str(tmp_path / "x.csv"),
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(["thinning", *flags])
    assert exc.value.code == 2
    assert "--target-mean" in capsys.readouterr().err.splitlines()[-1]


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
    ss = sort_with_concomitants(sample)
    # every float written with 17 significant digits comes back bitwise
    got_y = np.array([float(r["y"]) for r in rows])
    assert np.array_equal(np.unique(ss.y), got_y)


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("unknown-command").returncode == 2
    help_res = run_cli("--help")
    assert help_res.returncode == 0
    assert "simulate" in help_res.stdout


def test_missing_input_file_is_runtime_error(tmp_path):
    res = run_cli("trace", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_cli_import_does_not_load_scipy_stats():
    code = "import sys, curest.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
