"""In-memory span recorder and the wrappers that put spans around curest's
public functions from outside the package.

A span is (name, start, end, parent span, replication id).  Spans are kept in
flat arrays while the benchmark runs and written out once it ends; self time
is computed afterwards from the parent links.  The layer of a span is the
part of its name before the first dot (``model.simulate`` -> ``model``).
"""

from __future__ import annotations

import importlib
import math
import sys
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

# Span name -> (module, attribute) of every public function the traced run
# wraps.  ``CutoffRule.resolve`` is a method and is patched on the class.
TARGETS = {
    "model.simulate": ("curest.model", "simulate"),
    "model.sort_with_concomitants": ("curest.model", "sort_with_concomitants"),
    "model.read_csv": ("curest.model", "read_csv"),
    "model.write_csv": ("curest.model", "write_csv"),
    "estimators.trace": ("curest.estimators", "trace"),
    "estimators.plug_ins": ("curest.estimators", "plug_ins"),
    "estimators.cv_m1_curve": ("curest.estimators", "cv_m1_curve"),
    "estimators.cv_m2_curve": ("curest.estimators", "cv_m2_curve"),
    "estimators.select_cutoff": ("curest.estimators", "select_cutoff"),
    "estimators.estimate_cure": ("curest.estimators", "estimate_cure"),
    "estimators.choice_at_index": ("curest.estimators", "choice_at_index"),
    "asymptotics.resolve": ("curest.asymptotics", "CutoffRule.resolve"),
    "asymptotics.z_stats": ("curest.asymptotics", "z_stats"),
    "asymptotics.ks_distance": ("curest.asymptotics", "ks_distance"),
    "asymptotics.run_mc": ("curest.asymptotics", "run_mc"),
    "npmle.npmle_pava": ("curest.npmle", "npmle_pava"),
    "npmle.npmle_cure_argmax_interval": ("curest.npmle", "npmle_cure_argmax_interval"),
    "parallel.map_replication_chunks": ("curest._parallel", "map_replication_chunks"),
}
MODULES = (
    "curest",
    "curest.model",
    "curest.estimators",
    "curest.asymptotics",
    "curest.npmle",
    "curest._parallel",
    "curest.cli",
)


class Recorder:
    """Spans and counters of one process, held in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rep = array("q")
        self.stack: list[int] = []
        self.rep_id = -1
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rep.append(self.rep_id)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        # An exception may have skipped the close of a nested span.
        del self.stack[self.stack.index(i):]

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(self, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            rep=np.frombuffer(self.rep, dtype=np.int64),
        )

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return ids, dur

    def summary(self) -> dict:
        """Per span name: calls, total time and self time.  A span's self
        time is its duration minus the durations of its direct children."""
        ids, dur = self._arrays()
        if not dur.size:
            return {}
        par = np.frombuffer(self.parent, dtype=np.int32)
        inside = par >= 0
        covered = np.bincount(par[inside], weights=dur[inside], minlength=dur.size)
        self_time = dur - covered
        out = {}
        for sid in np.unique(ids):
            pick = ids == sid
            out[self.names[sid]] = {
                "calls": int(np.count_nonzero(pick)),
                "total_s": float(np.sum(dur[pick])),
                "self_s": float(np.sum(self_time[pick])),
            }
        return out


class NullRecorder:
    """Stands in for a Recorder when tracing is off: records nothing, so
    memory does not grow with the number of units run."""

    rep_id = -1

    def span(self, name: str):
        return nullcontext()


class _Span:
    __slots__ = ("rec", "name", "i")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        self.i = self.rec.open(self.name)

    def __exit__(self, *exc) -> None:
        self.rec.close(self.i)


def _rep_from_seed(rec: Recorder, args, kwargs) -> None:
    # The seed identifies the replication: run_mc uses seed + k for rep k.
    rec.rep_id = int(kwargs["seed"] if "seed" in kwargs else args[2])


def _count_ties(rec: Recorder, out) -> None:
    rec.counts["sort.samples"] += 1
    rec.counts["sort.tied"] += int(out.group_start.size < out.n)


_BEFORE = {"model.simulate": _rep_from_seed}
_AFTER = {"model.sort_with_concomitants": _count_ties}


@contextmanager
def installed(rec: Recorder, names):
    """Replace each named function by a span-recording wrapper in every
    curest module that binds it, and restore the originals on exit.

    The replication id follows the seed of each ``simulate`` call, so the
    spans of one replication share an id even inside ``run_mc``.
    """
    modules = [sys.modules[m] for m in MODULES if m in sys.modules]
    patches = []
    try:
        for name in names:
            mod_name, attr = TARGETS[name]
            hooks = (_BEFORE.get(name), _AFTER.get(name))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(importlib.import_module(mod_name), cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig))
                setattr(cls, meth, rec.wrap(name, orig, *hooks))
                continue
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = rec.wrap(name, orig, *hooks)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, key, orig in reversed(patches):
            setattr(owner, key, orig)

