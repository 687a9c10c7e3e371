"""Worker-count resolution and the engine's one parallel path.

Parallelism never changes results: particle work is chunked over disjoint
index ranges whose values depend only on (seed, particle, step), and
reductions are always performed by a single numpy call over a full row.
Only :func:`run_chunked` runs work on threads, on one long-lived pool per
worker count; a batch of replications is one ``(rows, N)`` state whose
chunks hold every row, so the threshold counts lanes (rows x N), and a
batch is bit for bit its rows run one at a time. Each replication's
oracle replay then runs in order on the calling thread through
:func:`map_ordered`, the per-replication seam the benchmark tracer wraps.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")

#: Below this many items, chunked threading costs more than it saves.
MIN_CHUNK_ITEMS = 16384

#: The host CPU count, read once: it is the costlier half of every
#: :func:`worker_count` call.
_CPU_COUNT = os.cpu_count() or 1


def worker_count() -> int:
    """Worker cap from ``MEANREFLECT_THREADS``, defaulting to the host CPU count."""
    raw = os.environ.get("MEANREFLECT_THREADS", "").strip()
    if not raw:
        return _CPU_COUNT
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValidationError(
            f"MEANREFLECT_THREADS must be a positive integer, got {raw!r}"
        )
    return n


def chunk_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous ranges."""
    n_chunks = max(1, min(n_chunks, n_items))
    step = -(-n_items // n_chunks)
    return [(lo, min(lo + step, n_items)) for lo in range(0, n_items, step)]


def chunk_split(
    n_items: int, threads: int | None = None, rows: int = 1,
) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` chunks :func:`run_chunked` runs ``range(n_items)`` in.

    ``threads`` defaults to :func:`worker_count`. Each item spans ``rows``
    lanes (the rows of a batch, all in every chunk), and the work is split
    only from ``MIN_CHUNK_ITEMS`` lanes on.
    """
    threads = worker_count() if threads is None else threads
    if threads <= 1 or rows * n_items < MIN_CHUNK_ITEMS:
        return [(0, n_items)]
    return chunk_ranges(n_items, threads)


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=workers)


# A forked child inherits the cached pools but none of their threads.
os.register_at_fork(after_in_child=_pool.cache_clear)


def run_chunked(
    work: Callable[[int, int], None], n_items: int, threads: int | None = None,
    rows: int = 1,
) -> None:
    """Run ``work(lo, hi)`` over the disjoint chunks :func:`chunk_split`
    gives, on threads when there is more than one.

    ``work`` must write only to slice ``[lo:hi]`` of its outputs, so the
    result is independent of scheduling.
    """
    threads = worker_count() if threads is None else threads
    chunks = chunk_split(n_items, threads, rows)
    if len(chunks) == 1:
        work(*chunks[0])
        return
    pool = _pool(threads)
    futures = [pool.submit(work, lo, hi) for lo, hi in chunks]
    wait(futures)  # no chunk may still be writing when an error propagates
    for fut in futures:
        fut.result()


def map_ordered(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply ``fn`` to each item in order on the calling thread.

    This is the per-replication seam the benchmark tracer wraps: the error
    harness advances a batch of replications as one ``(rows, N)`` cloud,
    then replays each replication's exact path through it. The particle
    work of the batch is what runs on threads.
    """
    return [fn(item) for item in items]
