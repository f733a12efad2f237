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


class _Law:
    """A law sampled by its quantile function.  Each law computes its
    quantiles in place (``_quantile_into``), which is how ``_draw_into``
    applies it to its uniforms; ``quantile`` does so on a copy.

    Only ``quantile`` can pass u = 1, where an unbounded law's quantile is
    +inf (``log1p(-1)`` divides by zero), so the floating-point state that
    lets that pass quietly is set here, once per call.  The samplers draw
    their uniforms with ``Generator.random``, which never returns 1, so
    ``_quantile_into`` itself sets no state and pays nothing for it.

    ``_atoms`` tells whether the law puts mass on single points, so that its
    samples tie."""

    _atoms = False

    def quantile(self, u):
        u = np.array(u, dtype=float)  # a copy: the argument is left as it was
        # A NaN carries through min and max and fails both comparisons; an
        # empty argument has neither, and has nothing to refuse.
        if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
            raise ValueError("quantile argument must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            self._quantile_into(u)
        return float(u) if u.ndim == 0 else u


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential distribution with the given rate on [0, inf)."""

    rate: float

    def __post_init__(self) -> None:
        _check_real("rate", self.rate, "positive")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = -np.expm1(-self.rate * np.maximum(t, 0.0))
        return float(out) if out.ndim == 0 else out

    def _quantile_into(self, u: np.ndarray) -> None:
        # -log1p(-u) / rate, with the outer sign moved onto the rate: a
        # quotient's sign is exact, so the doubles are the same.
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.divide(u, -self.rate, out=u)


@dataclass(frozen=True)
class TabulatedQuantile(_Law):
    """Distribution given by a piecewise-linear quantile table.

    ``probs`` must rise from 0 to 1 and ``values`` must be finite and
    nondecreasing.  A flat run of values encodes a point mass; the cdf is the
    right-continuous generalized inverse of the table, so a point mass maps
    to the top of its probability interval.
    """

    probs: tuple
    values: tuple

    def __post_init__(self) -> None:
        probs = tuple(_check_real("probs", u, "finite") for u in self.probs)
        values = tuple(_check_real("values", v, "finite") for v in self.values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "values", values)
        if len(probs) != len(values) or len(probs) < 2:
            raise ValueError("probs and values must have equal length >= 2")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("probs must start at 0 and end at 1")
        if any(a > b for a, b in zip(probs, probs[1:])):
            raise ValueError("probs must be nondecreasing")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "_atoms", any(a == b for a, b in zip(values, values[1:])))
        # The tables as arrays, built once for quantile and cdf.
        object.__setattr__(self, "_probs", _freeze(np.array(probs)))
        object.__setattr__(self, "_values", _freeze(np.array(values)))

    @classmethod
    def point_mass(cls, value: float) -> "TabulatedQuantile":
        """Degenerate distribution putting all mass at ``value``."""
        return cls((0.0, 1.0), (value, value))

    def _quantile_into(self, u: np.ndarray) -> None:
        # np.interp takes no output array, so this law fills u from a
        # temporary.
        u[...] = np.interp(u, self._probs, self._values)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        v, q = self._values, self._probs
        # searchsorted(right) puts t after any flat run of equal values, so a
        # point mass jumps to the top of its probability interval.
        j = np.searchsorted(v, t, side="right")
        out = np.where(j == 0, 0.0, 1.0)
        out[np.isnan(t)] = math.nan  # searchsorted puts NaN past every value
        mid = (j > 0) & (j < v.size)
        jm = j[mid]
        lo_v, hi_v = v[jm - 1], v[jm]
        lo_q, hi_q = q[jm - 1], q[jm]
        # There v[j - 1] <= t < v[j], so every span is positive.
        frac = (t[mid] - lo_v) / (hi_v - lo_v)
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
        _check_real("cure fraction p", self.p, "unit")


def _check_count(name: str, value, low: int) -> None:
    """Refuse ``value`` unless it is an integer of at least ``low``; a float
    never passes, not even a whole one, so 2.5 is not read as 2, and neither
    does a bool, so True is not read as 1."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= low
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


# The ranges a real parameter may be checked against: the words of the
# message that refuses a value outside one, and the test of a finite value.
_RANGES = {
    "finite": ("be finite", lambda v: True),
    "nonnegative": ("be finite and nonnegative", lambda v: v >= 0.0),
    "positive": ("be positive and finite", lambda v: v > 0.0),
    "unit": ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "inner": ("lie strictly inside (0, 1)", lambda v: 0.0 < v < 1.0),
}


def _check_real(name: str, value, within: str) -> float:
    """``value`` as a float, once it is checked to be a finite real number
    in the range ``within`` names (see ``_RANGES``).  A bool is refused
    first, so True is not read as 1.0; then ``math.isfinite`` raises its
    ``TypeError`` for anything that is not a real number, such as a string,
    so "0.5" is not read as 0.5; a value outside the range raises a
    ``ValueError``.  Every range is finite, so NaN and the infinities never
    pass."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    words, holds = _RANGES[within]
    if not (math.isfinite(value) and holds(value)):
        raise ValueError(f"{name} must {words}, got {value!r}")
    return float(value)


def _check_type(owner: str, value, cls: type) -> None:
    """Refuse ``value`` with a ``TypeError`` naming its type unless it is a
    ``cls``."""
    if not isinstance(value, cls):
        raise TypeError(f"{owner} needs a {cls.__name__}, got {type(value).__name__}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _indicators(delta, dtype) -> np.ndarray:
    """``delta`` cast to ``dtype`` once every entry is checked to be 0 or 1;
    the check comes first because the cast would truncate 0.5 to 0.

    A boolean array skips the check: it can only hold False and True, and
    the cast maps every byte of a boolean, even one other than 0 or 1, to 0
    or 1, as the check would have passed it.  ``simulate`` hands over its
    boolean indicators for this reason."""
    raw = np.asarray(delta)
    if raw.dtype != bool and not ((raw == 0) | (raw == 1)).all():
        raise ValueError("delta entries must be 0 or 1")
    return raw.astype(dtype)


def _check_times(y: np.ndarray) -> None:
    # A NaN carries through min and max and fails both comparisons.
    if not (y.min() >= 0.0 and y.max() < math.inf):
        raise ValueError("inspection times must be finite and nonnegative")


@dataclass(frozen=True)
class CurrentStatusSample:
    """Observed records: delta[i] = 1 when the event preceded inspection y[i].
    The constructor checks the records and keeps frozen copies of them; a
    time of ``-0.0`` is stored as ``0.0``."""

    delta: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.delta)
        y = np.asarray(self.y, dtype=float) + 0.0  # a copy, with -0.0 as 0.0
        if raw.ndim != 1 or y.shape != raw.shape or raw.size == 0:
            raise ValueError("delta and y must be 1-d arrays of equal nonzero length")
        delta = _indicators(raw, np.int8)
        _check_times(y)
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

    The records are sorted by ``_sort_records``; its order of a tie group
    is not the stable one, so a tied sample takes ``delta`` through a
    stable argsort instead.

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
        _check_type("SortedSample", sample, CurrentStatusSample)
        n = sample.n
        y, delta, opens = np.empty(n), np.empty(n, dtype=np.int8), np.empty(n, dtype=bool)
        if not _sort_records(sample.y, sample.delta, y, delta, opens):
            delta = sample.delta[sample.y.argsort(kind="stable")]
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "delta", _freeze(delta))
        object.__setattr__(self, "group_start", _freeze(opens.nonzero()[0]))

    @property
    def n(self) -> int:
        return self.y.size

    def tail_start(self, x: float) -> int:
        """0-based position of the first record of the tail ``y >= x``; it
        opens a tie group.  A threshold above the largest inspection time
        leaves the tail empty and is refused."""
        i = _tail_start(self.y, x)
        if i == self.n:
            raise ValueError("cut-off exceeds the largest inspection time; the tail is empty")
        return i


def _tail_start(y: np.ndarray, x: float) -> int:
    """Position of the first of the sorted times ``y`` at or above ``x``."""
    return int(np.searchsorted(y, x, side="left"))


def _sort_records(y, delta, y_sorted, bits, opens) -> bool:
    """Sort the checked records ``(y, delta)`` by time into the
    preallocated ``y_sorted`` (times), ``bits`` (indicators, bytes of 0 or
    1) and ``opens`` (the first record of each tie group marked); return
    whether the times are untied.  ``y_sorted`` may be ``y``'s own buffer,
    and ``bits`` or ``opens`` ``delta``'s.  This is the one place that
    knows the packed keys.

    Each record is packed into one 64-bit key in ``y_sorted``'s bytes, the
    bits of ``y`` shifted up one place with ``delta`` in the freed lowest
    bit, and the keys are sorted as plain integers.  A checked time is
    finite and nonnegative, and never ``-0.0``, so its sign bit, the one
    the shift drops, is clear, and the bits of nonnegative doubles order as
    their values do; the sorted keys therefore give the times back by a
    shift down.  Without ties the sorted order is unique, so it is the
    stable one and the indicators are the keys' lowest bits.  The keys
    order a tie group by indicator rather than by input position."""
    key = y_sorted.view(np.uint64)
    np.left_shift(y.view(np.uint64), 1, out=key)
    np.bitwise_or(key, delta.view(np.uint8), out=key)
    key.sort()
    np.bitwise_and(key, 1, out=bits.view(np.uint8))
    np.right_shift(key, 1, out=key)
    opens[0] = True
    np.not_equal(y_sorted[1:], y_sorted[:-1], out=opens[1:])
    return bool(opens.all())


def _draw_into(
    spec: MixtureSpec, seed: int, u: np.ndarray, delta: np.ndarray, uncured: np.ndarray
) -> np.ndarray:
    """Draw the records of ``seed`` in place, the one place that turns a
    seed into records (see ``simulate`` for the stream layout).  The cure
    uniforms are drawn into row 0 of the ``(2, n)`` block ``u`` and compared
    with ``p`` into the boolean array ``uncured``; the rest of the stream
    then fills the block, whose row 0 becomes the event times and row 1 the
    inspection times, which are returned.  The indicators go to the boolean
    array ``delta``."""
    rng = np.random.default_rng(seed)
    event_time, y = u
    rng.random(out=event_time)
    # A cured subject (cure uniform below p) never has the event.
    np.greater_equal(event_time, spec.p, out=uncured)
    rng.random(out=u)
    spec.event._quantile_into(event_time)
    spec.inspection._quantile_into(y)
    np.less_equal(event_time, y, out=delta)
    np.logical_and(delta, uncured, out=delta)
    return y


class _Draws:
    """A workspace for draws of ``n`` records, reused from draw to draw: the
    ``(2, n)`` block ``u`` of uniforms, which become the event times (row 0)
    and the inspection times (row 1), the indicators ``delta`` and one
    boolean ``scratch`` array, which holds the cure marks during a draw and
    is free again once it returns; 16 bytes and two booleans per record.
    ``draw`` returns the checked inspection times of a seed, as ``simulate``
    draws them; the event times in row 0 are free from then on."""

    def __init__(self, spec: MixtureSpec, n: int) -> None:
        self.spec = spec
        self.u = np.empty((2, n))
        self.delta = np.empty(n, dtype=bool)
        self.scratch = np.empty(n, dtype=bool)

    def draw(self, seed: int) -> np.ndarray:
        y = _draw_into(self.spec, seed, self.u, self.delta, self.scratch)
        _check_times(y)
        return y


def simulate(spec: MixtureSpec, n: int, seed: int) -> CurrentStatusSample:
    """Draw ``n`` current-status records.

    The generator consumes three blocks of ``n`` uniforms in a fixed order
    (cure mark, event time, inspection time), so the stream layout is
    documented and a seed reproduces the sample exactly.  The event-time
    uniform is consumed even for cured subjects to keep the layout fixed.
    The cure marks are drawn first into one row, and the two later blocks
    then as the rows of one ``(2, n)`` array over it, which is the same
    stream.
    """
    _check_type("simulate", spec, MixtureSpec)
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    u = np.empty((2, n))
    delta, uncured = np.empty((2, n), dtype=bool)
    y = _draw_into(spec, seed, u, delta, uncured)
    return CurrentStatusSample(delta=delta, y=y)


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
