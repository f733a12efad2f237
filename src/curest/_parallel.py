"""Seeded replications, fanned out over worker processes.

``replicate_seeds`` is the one replication path: ``run_mc``,
``thinning_check`` and ``inconsistency_probe`` each pass it a workspace
class whose instance draws and reduces the replications of one span.
Replication k of a run with base seed ``seed`` uses seed ``seed + k``;
``_span`` is the only place that derives it.  Replications run in contiguous
spans, one span for one worker, else up to four per worker, and are joined
in replication order, so results never depend on the worker count.
"""

from __future__ import annotations

from .model import _check_count


def chunk_spans(reps: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) spans covering range(reps), in order: one
    span for one worker, else up to four per worker."""
    reps = _check_count("reps", reps, 1)
    chunks = 1 if workers == 1 else min(reps, workers * 4)
    # chunks <= reps puts the edges at least 1 apart, so no span is empty.
    edges = [round(i * reps / chunks) for i in range(chunks + 1)]
    return list(zip(edges, edges[1:]))


def map_replication_chunks(fn, args: tuple, reps: int, workers: int) -> list:
    """Run ``fn(*args, start, stop)`` over chunked replication spans; the
    results come back in span order for any worker count."""
    workers = _check_count("workers", workers, 1)
    spans = chunk_spans(reps, workers)
    if len(spans) == 1:
        return [fn(*args, a, b) for a, b in spans]
    from concurrent.futures import ProcessPoolExecutor  # here: one worker needs no pool

    # No more processes than spans: a forking pool starts all of them at once.
    with ProcessPoolExecutor(max_workers=min(workers, len(spans))) as pool:
        futures = [pool.submit(fn, *args, a, b) for a, b in spans]
        return [f.result() for f in futures]


def _span(per_span, seed: int, start: int, stop: int) -> list:
    one = per_span()
    return [one(seed + k) for k in range(start, stop)]


def replicate_seeds(per_span, reps: int, seed: int, workers: int) -> list:
    """``[one(seed + k) for k in range(reps)]`` for any worker count, where
    each span of replications calls ``one = per_span()`` once, so ``one``
    may hold buffers that its replications reuse.  With more than one
    worker, ``per_span`` must pickle; ``one`` need not."""
    chunks = map_replication_chunks(_span, (per_span, seed), reps, workers)
    return [value for chunk in chunks for value in chunk]
