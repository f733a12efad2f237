"""Catalogue of known faults (mutants) and the tests that must catch them.

Each mutant is one exact-text replacement in one module of ``src/curest``,
with the test node ids that must fail once it is applied.  The runner
copies ``src/`` to a temporary directory, applies one mutant there, and
runs only that mutant's tests against the copy; the tree itself is never
edited.  A mutant whose text matches its module zero times or more than
once is an error, not a pass: a change that moves the code updates the
catalogue.  An equivalent mutant, one that no test can catch because the
program's outputs do not change, is listed with the reason, and its tests
must pass.

Not collected by pytest; it needs the test extras.  Run all mutants, or
the ones named, from the repository root:

    python tests/mutants.py [name ...]

It prints one line per mutant and exits 1 if any mutant survived, any
equivalent one was caught, or any text did not match exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a file of src/curest
    text: str
    replacement: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no test can catch it; empty for a fault


CATALOGUE = (
    Mutant(
        "pava-one-joins-a-mixed-block",
        "npmle.py",
        "elif s == c:",
        "elif True:",
        ("tests/test_npmle.py::test_pava_equals_brute_exhaustively_small_n",),
    ),
    Mutant(
        "pava-zero-skips-pooling",
        "npmle.py",
        "while sums and sums[-1] * c >= s * counts[-1]:",
        "while False:",
        ("tests/test_npmle.py::test_pava_equals_brute_exhaustively_small_n",),
    ),
    Mutant(
        "pava-pools-only-a-higher-mean",
        "npmle.py",
        "sums[-1] * c >= s * counts[-1]",
        "sums[-1] * c > s * counts[-1]",
        (
            "tests/test_npmle.py::test_pava_equals_brute_exhaustively_small_n",
            "tests/test_properties.py::test_pava_gives_the_bytes_of_the_record_by_record_pass",
        ),
        equivalent=(
            "it leaves only adjacent blocks of equal mean unpooled, which the unique"
            " isotonic fit gives the same values, and equal ratios of integers divide"
            " to the same double; it gave the bytes of the record-by-record pass on all"
            " 131,070 bit strings of n <= 16"
        ),
    ),
    Mutant(
        "one-byte-indicators-below-1",
        "model.py",
        "raw.view(np.uint8).max() <= 1",
        "raw.view(np.uint8).max() < 1",
        ("tests/test_npmle.py::test_one_byte_and_boolean_indicators_fit_as_int64",),
    ),
    Mutant(
        "one-byte-indicators-up-to-2",
        "model.py",
        "raw.view(np.uint8).max() <= 1",
        "raw.view(np.uint8).max() <= 2",
        ("tests/test_npmle.py::test_one_byte_indicators_other_than_0_or_1_are_refused",),
    ),
    Mutant(
        "tail-means-by-reciprocal",
        "asymptotics.py",
        "means /= n - below",
        "means *= 1.0 / (n - below)",
        ("tests/test_properties.py::test_tail_pair_is_the_trace_entry_at_every_opening",),
    ),
    Mutant(
        "tail-p1-by-reciprocal",
        "asymptotics.py",
        "p1 = (k - j) / (n - i)\n",
        "p1 = (k - j) * (1.0 / (n - i))\n",
        ("tests/test_properties.py::test_tail_pair_is_the_trace_entry_at_every_opening",),
    ),
    Mutant(
        "tail-p2-from-the-least-mean",
        "asymptotics.py",
        "float(means.max())",
        "float(means.min())",
        ("tests/test_properties.py::test_tail_pair_is_the_trace_entry_at_every_opening",),
    ),
    Mutant(
        "small-sort-by-quicksort",
        "model.py",
        'order = sample.y.argsort(kind="stable")',
        'order = sample.y.argsort(kind="quicksort")',
        (
            "tests/test_properties.py::test_sort_gives_the_bytes_of_a_stable_argsort",
            "tests/test_properties.py::test_sort_gives_the_bytes_of_a_stable_argsort_at_the_gate",
        ),
    ),
    Mutant(
        "argsort-gate-takes-its-own-size",
        "model.py",
        "if n < _ARGSORT_N:",
        "if n <= _ARGSORT_N:",
        (
            "tests/test_properties.py::test_sort_gives_the_bytes_of_a_stable_argsort_at_the_gate",
            "tests/test_model.py::test_below_the_gate_every_sample_takes_one_stable_argsort",
            "tests/test_model.py::test_ties_only_take_the_argsort",
        ),
        equivalent=(
            "both sorts give the bytes of a stable argsort, so a sample of exactly"
            " _ARGSORT_N records sorts to the same bytes on either path"
        ),
    ),
    Mutant(
        "trace-means-by-reciprocal",
        "estimators.py",
        "p1 = sums[tail_count - 1] / tail_count",
        "p1 = sums[tail_count - 1] * (1.0 / tail_count)",
        ("tests/test_properties.py::test_trace_p1_is_the_exact_fraction_of_ones_in_each_tail",),
    ),
    Mutant(
        "array-check-reads-only-the-least",
        "model.py",
        "lo, hi = values.min(), values.max()",
        "lo = hi = values.min()",
        (
            "tests/test_model.py::test_each_array_of_reals_is_refused_in_its_range_words",
            "tests/test_properties.py::test_an_array_is_refused_exactly_when_an_entry_is",
        ),
    ),
    Mutant(
        "choice-check-takes-a-non-string",
        "model.py",
        "if isinstance(value, str) and value in choices:",
        "if value in choices:",
        ("tests/test_model.py::test_each_choice_parameter_is_refused_in_one_form",),
    ),
    Mutant(
        "draw-leaks-its-generator-into-the-next-draw",
        "model.py",
        "rng = np.random.default_rng(seed)",
        'rng = self.__dict__.setdefault("rng", np.random.default_rng(seed))',
        ("tests/test_properties.py::test_one_workspace_reused_across_seeds_draws_what_simulate_draws",),
    ),
    Mutant(
        "probe-reads-the-second-largest-time",
        "npmle.py",
        "return int(self.delta[y.size - 1 - int(np.argmax(y[::-1]))])",
        'return int(self.delta[y.argsort(kind="stable")[-min(2, y.size)]])',
        ("tests/test_properties.py::test_inconsistency_probe_equals_the_public_per_sample_chain",),
    ),
    Mutant(
        "moments-sd-with-ddof-0",
        "asymptotics.py",
        "np.std(values, ddof=1)",
        "np.std(values, ddof=0)",
        ("tests/test_asymptotics.py::test_run_mc_counts_and_moments",),
    ),
    Mutant(
        "fixed-tail-one-record-long",
        "asymptotics.py",
        "return float(y[n - m])",
        "return float(y[n - m - 1])",
        ("tests/test_asymptotics.py::test_cutoff_rule_validation_and_resolution",),
    ),
    Mutant(
        "large-tied-sort-keeps-the-input-indicators",
        "model.py",
        'delta = sample.delta[sample.y.argsort(kind="stable")]',
        "delta = sample.delta",
        ("tests/test_cli.py::test_trace_cv_and_estimate_on_both_sides_of_the_argsort_gate",),
    ),
    Mutant(
        "span-seeds-from-its-own-start",
        "_parallel.py",
        "return [one(seed + k) for k in range(start, stop)]",
        "return [one(seed + k - start) for k in range(start, stop)]",
        ("tests/test_asymptotics.py::test_run_mc_worker_count_is_invisible",),
    ),
    Mutant(
        "band-path-keeps-a-skipped-replication",
        "asymptotics.py",
        "if band is None:\n                return None",
        "if band is None:\n                return math.nan, math.nan",
        (
            "tests/test_properties.py::test_run_mc_at_n_1e5_takes_the_band_path_and_equals_the_public_chain",
        ),
    ),
)


def run(mutant: Mutant) -> str:
    """Apply ``mutant`` to a copy of ``src/`` and run its tests there; the
    outcome is ``caught``, ``survived`` or an error naming what failed."""
    with tempfile.TemporaryDirectory(prefix="curest-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "curest" / mutant.module
        code = path.read_text(encoding="utf-8")
        matches = code.count(mutant.text)
        if matches != 1:
            return f"error: the text matches {mutant.module} {matches} times, not once"
        path.write_text(code.replace(mutant.text, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        found = subprocess.run(
            [sys.executable, "-c", "import curest; print(curest.__file__)"],
            env=env, cwd=tmp, capture_output=True, text=True,
        ).stdout.strip()
        if not found.startswith(str(src)):
            return f"error: the tests would import curest from {found or 'nowhere'}"
        # The working directory is the copy's, so hypothesis keeps the
        # mutant's failing examples out of the tree's example database.
        nodes = [str(ROOT / node) for node in mutant.tests]
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
            env=env, cwd=tmp, capture_output=True, text=True,
        )
        if tests.returncode == 1:
            return "caught"
        if tests.returncode == 0:
            return "survived"
        return f"error: pytest exited {tests.returncode}\n{tests.stdout}{tests.stderr}"


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in CATALOGUE}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [known[name] for name in names] or CATALOGUE:
        outcome = run(mutant)
        expected = "survived" if mutant.equivalent else "caught"
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        failed += outcome != expected
        print(f"[mutant] {mutant.name}: {outcome}{note}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
