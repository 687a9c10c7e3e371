"""The one parallel path: chunked particle work on a reused pool."""

import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanreflect import parallel
from meanreflect.model import make_case_i
from meanreflect.scheme import GridSpec, simulate

N_CHUNKED = 20_000  # above MIN_CHUNK_ITEMS, so every step is chunked


def chunked_k_hat() -> np.ndarray:
    model, constraint = make_case_i(beta=2, sigma=1, eta=1, lam=5, x0=1, p=0.5)
    return simulate(model, constraint, GridSpec(1.0, 10), N_CHUNKED, seed=8,
                    threads=2).k_hat


def test_one_pool_serves_every_step(monkeypatch):
    assert N_CHUNKED >= parallel.MIN_CHUNK_ITEMS
    built = []

    class CountingExecutor(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingExecutor)
    chunked_k_hat()
    assert len(built) <= 1


def _child_k_hat(conn) -> None:
    conn.send(chunked_k_hat())
    conn.close()


def test_forked_child_runs_chunked_work():
    # the parent's pool threads do not survive a fork; the child needs its own
    expected = chunked_k_hat()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_k_hat, args=(send,))
    child.start()
    try:
        assert receive.poll(120), "forked child hung on its chunked run"
        assert np.array_equal(receive.recv(), expected)
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_concurrent_callers_share_the_pool():
    # more callers than workers queue their chunks on one pool
    expected = chunked_k_hat()
    interval = sys.getswitchinterval()
    callers = ThreadPoolExecutor(max_workers=4)
    sys.setswitchinterval(1e-5)
    try:
        runs = [callers.submit(chunked_k_hat) for _ in range(4)]
        done, _ = wait(runs, timeout=120)
    finally:
        sys.setswitchinterval(interval)
        callers.shutdown(wait=False)
    assert len(done) == 4
    for run in runs:
        assert np.array_equal(run.result(), expected)


def test_split_threshold_counts_lanes():
    # a batch's chunks hold every row, so rows x items is what is compared
    assert 10_000 < parallel.MIN_CHUNK_ITEMS <= 2 * 10_000
    for rows, want in ((1, [(0, 10_000)]), (2, [(0, 5000), (5000, 10_000)])):
        chunks = []
        parallel.run_chunked(lambda lo, hi: chunks.append((lo, hi)),
                             parallel.chunk_split(10_000, 2, rows))
        assert sorted(chunks) == want


@settings(max_examples=300, deadline=None)
@given(n_items=st.integers(1, 3 * parallel.MIN_CHUNK_ITEMS), threads=st.integers(1, 64),
       rows=st.integers(1, parallel.MIN_CHUNK_ITEMS))
@example(n_items=3, threads=8, rows=parallel.MIN_CHUNK_ITEMS)  # more threads than items
def test_chunk_split_covers_the_items_in_order(n_items, threads, rows):
    # a large batch (rows) splits a few items, so threads > n_items is drawn too
    chunks = parallel.chunk_split(n_items, threads, rows)
    assert chunks[0][0] == 0 and chunks[-1][1] == n_items
    assert all(lo < hi for lo, hi in chunks)
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))  # disjoint, no gap
    assert len(chunks) <= threads
    if threads <= 1 or rows * n_items < parallel.MIN_CHUNK_ITEMS:
        assert len(chunks) == 1


def test_default_worker_count_is_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("MEANREFLECT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert parallel.worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel.worker_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.worker_count() == 1
