"""Data model for current-status cure samples.

The event time of a subject is never observed directly.  Each record carries
an inspection time ``y`` and the indicator ``delta`` of whether the event had
already happened by ``y``.  A cured subject never experiences the event, so
its indicator is 0 at every inspection time; the cure fraction ``p`` is the
quantity the rest of the package estimates.
"""

from __future__ import annotations

import codecs
import math
import operator
from dataclasses import InitVar, dataclass, field
from typing import Union

import numpy as np


class CsvFormatError(ValueError):
    """Raised when a dataset file does not match the expected layout."""


_PAD = " \t"  # the only padding a CSV field may carry


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with the given rate on [0, inf)."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be positive and finite, got {self.rate!r}")

    @property
    def tau(self) -> float:
        """Right endpoint of the support."""
        return math.inf

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = -np.expm1(-self.rate * np.maximum(t, 0.0))
        return float(out) if out.ndim == 0 else out

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if not ((u >= 0.0) & (u <= 1.0)).all():
            raise ValueError("quantile argument must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = -np.log1p(-u) / self.rate
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TabulatedQuantile:
    """Distribution given by a piecewise-linear quantile table.

    ``probs`` must rise from 0 to 1 and ``values`` must be finite and
    nondecreasing.  A flat run of values encodes a point mass; the cdf is the
    right-continuous generalized inverse of the table, so a point mass maps
    to the top of its probability interval.
    """

    probs: tuple
    values: tuple

    def __post_init__(self) -> None:
        probs = tuple(float(u) for u in self.probs)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "values", values)
        if len(probs) != len(values) or len(probs) < 2:
            raise ValueError("probs and values must have equal length >= 2")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("probs must start at 0 and end at 1")
        if any(a > b for a, b in zip(probs, probs[1:])):
            raise ValueError("probs must be nondecreasing")
        if any(not math.isfinite(v) for v in values):
            raise ValueError("values must be finite")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("values must be nondecreasing")

    @classmethod
    def point_mass(cls, value: float) -> "TabulatedQuantile":
        """Degenerate distribution putting all mass at ``value``."""
        return cls((0.0, 1.0), (value, value))

    @property
    def tau(self) -> float:
        return self.values[-1]

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if not ((u >= 0.0) & (u <= 1.0)).all():
            raise ValueError("quantile argument must lie in [0, 1]")
        out = np.interp(u, np.asarray(self.probs), np.asarray(self.values))
        return float(out) if out.ndim == 0 else out

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        v = np.asarray(self.values)
        q = np.asarray(self.probs)
        # searchsorted(right) puts t after any flat run of equal values, so a
        # point mass jumps to the top of its probability interval.
        j = np.searchsorted(v, t, side="right")
        out = np.where(j == 0, 0.0, 1.0)
        mid = (j > 0) & (j < v.size)
        jm = j[mid]
        lo_v, hi_v = v[jm - 1], v[jm]
        lo_q, hi_q = q[jm - 1], q[jm]
        span = hi_v - lo_v
        frac = np.where(span > 0, (t[mid] - lo_v) / np.where(span > 0, span, 1.0), 0.0)
        out[mid] = lo_q + frac * (hi_q - lo_q)
        return float(out[0]) if scalar else out


DistSpec = Union[Exponential, TabulatedQuantile]


@dataclass(frozen=True)
class MixtureSpec:
    """Sampling design: cure fraction plus event and inspection laws.

    With probability ``p`` a subject is cured (event time +inf); otherwise
    the event time follows ``event``.  Inspection times follow
    ``inspection`` independently.
    """

    p: float
    event: DistSpec
    inspection: DistSpec

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"cure fraction p must lie in [0, 1], got {self.p!r}")


def _check_count(name: str, value, low: int) -> None:
    """Refuse ``value`` unless it is an integer of at least ``low``; a float
    never passes, not even a whole one, so 2.5 is not read as 2."""
    try:
        ok = operator.index(value) >= low
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _indicators(delta, dtype) -> np.ndarray:
    """``delta`` cast to ``dtype`` once every entry is checked to be 0 or 1;
    the check comes first because the cast would truncate 0.5 to 0."""
    raw = np.asarray(delta)
    if not ((raw == 0) | (raw == 1)).all():
        raise ValueError("delta entries must be 0 or 1")
    return raw.astype(dtype)


@dataclass(frozen=True)
class CurrentStatusSample:
    """Observed records: delta[i] = 1 when the event preceded inspection y[i].
    The constructor checks the records and keeps frozen copies of them; a
    time of ``-0.0`` is stored as ``0.0``."""

    delta: np.ndarray
    y: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        raw = np.asarray(self.delta)
        y = np.asarray(self.y, dtype=float) + 0.0  # a copy, with -0.0 as 0.0
        if raw.ndim != 1 or y.shape != raw.shape or raw.size == 0:
            raise ValueError("delta and y must be 1-d arrays of equal nonzero length")
        delta = _indicators(raw, np.int8)
        if not np.isfinite(y).all() or (y < 0).any():
            raise ValueError("inspection times must be finite and nonnegative")
        object.__setattr__(self, "delta", _freeze(delta))
        object.__setattr__(self, "y", _freeze(y))

    @property
    def n(self) -> int:
        return self.delta.size


@dataclass(frozen=True)
class SortedSample:
    """A checked sample stably sorted by inspection time, indicators carried
    along; built only from a ``CurrentStatusSample``, so its records are
    checked exactly once.

    Each record is packed into one 64-bit key, the bits of ``y`` shifted up
    one place with ``delta`` in the freed lowest bit, and the keys are sorted
    as plain integers.  A checked time is finite and nonnegative, and never
    ``-0.0``, so its sign bit, the one the shift drops, is clear, and the
    bits of nonnegative doubles order as their values do; the sorted keys
    therefore give ``y`` back by a shift down.  Without ties the sorted order
    is unique, so it is the stable one and ``delta`` is the keys' lowest bit.
    The keys order a tie by ``delta`` rather than by input position, so a
    tied sample takes ``delta`` through a stable argsort instead.

    ``group_start`` holds the 0-based position opening each run of tied
    inspection times.  Downstream statistics are evaluated once per distinct
    threshold, so tied observations always land on the same side of any
    cut-off.
    """

    sample: InitVar[CurrentStatusSample]
    y: np.ndarray = field(init=False)
    delta: np.ndarray = field(init=False)
    group_start: np.ndarray = field(init=False)

    def __post_init__(self, sample: CurrentStatusSample) -> None:
        if not isinstance(sample, CurrentStatusSample):
            raise TypeError(
                f"SortedSample needs a CurrentStatusSample, got {type(sample).__name__}"
            )
        key = sample.y.view(np.uint64) << 1
        key |= sample.delta.view(np.uint8)
        key.sort()
        y = (key >> 1).view(np.float64)
        opens = np.empty(y.size, dtype=bool)  # first record of each tie group
        opens[0] = True
        np.not_equal(y[1:], y[:-1], out=opens[1:])
        if opens.all():
            delta = (key & 1).astype(np.int8)
            starts = np.arange(y.size, dtype=np.intp)
        else:
            delta = sample.delta[np.argsort(sample.y, kind="stable")]
            starts = np.flatnonzero(opens)
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "delta", _freeze(delta))
        object.__setattr__(self, "group_start", _freeze(starts))

    @property
    def n(self) -> int:
        return self.y.size

    def tail_start(self, x: float) -> int:
        """0-based position of the first record of the tail ``y >= x``; it
        opens a tie group.  A threshold above the largest inspection time
        leaves the tail empty and is refused."""
        i = int(np.searchsorted(self.y, x, side="left"))
        if i == self.n:
            raise ValueError("cut-off exceeds the largest inspection time; the tail is empty")
        return i


def simulate(spec: MixtureSpec, n: int, seed: int) -> CurrentStatusSample:
    """Draw ``n`` current-status records.

    The generator consumes three blocks of ``n`` uniforms in a fixed order
    (cure mark, event time, inspection time), so the stream layout is
    documented and a seed reproduces the sample exactly.  The event-time
    uniform is consumed even for cured subjects to keep the layout fixed.
    """
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    u_cure = rng.random(n)
    u_event = rng.random(n)
    u_inspect = rng.random(n)
    event_time = np.asarray(spec.event.quantile(u_event), dtype=float)
    event_time = np.where(u_cure < spec.p, np.inf, event_time)
    y = np.asarray(spec.inspection.quantile(u_inspect), dtype=float)
    delta = (event_time <= y).astype(np.int8)
    return CurrentStatusSample(delta=delta, y=y, seed=seed)


def sort_with_concomitants(sample: CurrentStatusSample) -> SortedSample:
    """Stable sort by inspection time, keeping each indicator with its y
    (see ``SortedSample``)."""
    return SortedSample(sample)


def write_table(path, header: str, columns) -> None:
    """Write a CSV with one row per entry of the array columns, each number
    with 17 significant digits so it round-trips float64 exactly; a column
    given as None has empty cells."""
    row = ",".join("" if col is None else "{:.17g}" for col in columns) + "\n"
    # Python numbers from tolist() format faster than numpy scalars.
    cells = [col.tolist() for col in columns if col is not None]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(map(row.format, *cells))


def write_csv(sample: CurrentStatusSample, path) -> None:
    """Write ``delta,y`` rows (see ``write_table``)."""
    write_table(path, "delta,y", (sample.delta, sample.y))


def read_csv(path) -> CurrentStatusSample:
    """Parse a ``delta,y`` file, reporting the line number of any bad row.

    A line ends at a line feed, which a carriage return may precede; no other
    character ends one, so the numbers name lines of the file as an editor
    counts them, and a carriage return anywhere else is part of its field.
    A leading UTF-8 byte order mark, as spreadsheets write, is skipped.
    Fields may be padded with spaces and tabs, and with nothing else.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{path}: line {lineno}: not valid UTF-8") from None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or [c.strip(_PAD) for c in lines[0].split(",")] != ["delta", "y"]:
        raise CsvFormatError(f"{path}: line 1: expected header 'delta,y'")
    deltas: list[bool] = []
    ys: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"{path}: line {lineno}: expected two comma-separated fields")
        d_raw, y_raw = parts[0].strip(_PAD), parts[1].strip(_PAD)
        if d_raw not in ("0", "1"):
            raise CsvFormatError(f"{path}: line {lineno}: delta must be 0 or 1, got {d_raw!r}")
        # float() alone also reads "1_0" as 10, non-ASCII digits ("１２",
        # "٣") and numbers padded with other whitespace ("0.7\f"); "inf" and
        # "nan" fail the finiteness check below.
        try:
            if not y_raw.isascii() or "_" in y_raw or y_raw.strip() != y_raw:
                raise ValueError
            t = float(y_raw)
        except ValueError:
            raise CsvFormatError(
                f"{path}: line {lineno}: bad inspection time {y_raw!r}"
            ) from None
        if not math.isfinite(t) or t < 0:
            raise CsvFormatError(
                f"{path}: line {lineno}: inspection time must be finite and nonnegative"
            )
        deltas.append(d_raw == "1")
        ys.append(t)
    if not deltas:
        raise CsvFormatError(f"{path}: empty sample")
    return CurrentStatusSample(delta=np.asarray(deltas, dtype=np.int8), y=np.asarray(ys))
