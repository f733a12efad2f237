"""Seeded replications, fanned out over worker processes.

Replication k of a run with base seed ``seed`` draws its sample with seed
``seed + k``; ``replicate`` is the only place that derives it.  Replications
run in contiguous chunks and are joined in replication order, so results
never depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .model import _check_count, simulate


def chunk_spans(reps: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) spans covering range(reps), in order."""
    _check_count("reps", reps, 1)
    chunks = max(1, min(reps, workers * 4))
    edges = [round(i * reps / chunks) for i in range(chunks + 1)]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def map_replication_chunks(fn, args: tuple, reps: int, workers: int) -> list:
    """Run ``fn(*args, start, stop)`` over chunked replication spans; the
    results come back in span order for any worker count."""
    _check_count("workers", workers, 1)
    spans = chunk_spans(reps, workers)
    if workers == 1 or len(spans) == 1:
        return [fn(*args, a, b) for a, b in spans]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args, a, b) for a, b in spans]
        return [f.result() for f in futures]


def _replicate_span(stat, spec, n: int, seed: int, start: int, stop: int) -> list:
    return [stat(simulate(spec, n, seed + k)) for k in range(start, stop)]


def replicate(stat, spec, n: int, reps: int, seed: int, workers: int = 1) -> list:
    """``[stat(simulate(spec, n, seed + k)) for k in range(reps)]`` for any
    worker count.  With more than one worker, ``stat`` must pickle: a
    module-level function, or one bound with ``functools.partial``."""
    chunks = map_replication_chunks(_replicate_span, (stat, spec, n, seed), reps, workers)
    return [value for chunk in chunks for value in chunk]
