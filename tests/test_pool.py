"""The shared worker pool: contiguous blocks, results in order, forked workers or the serial path."""
import os
import threading

import pytest

from wardflow import pool


def _indices_and_pid(offset, block):
    return [(offset + i, os.getpid()) for i in block]


@pytest.mark.parametrize("workers, count", [(1, 7), (2, 7), (3, 10), (2, 1)])
def test_blocks_cover_the_range_in_order(monkeypatch, workers, count):
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: min(workers, tasks))
    seen = pool.map_blocks(_indices_and_pid, (100,), count)
    assert [index for index, _ in seen] == [100 + i for i in range(count)]
    # one contiguous block per worker, run in forked processes when there are several
    blocks = min(workers, count)
    bounds = {count * k // blocks for k in range(1, blocks)}
    pids = [pid for _, pid in seen]
    assert all(pids[i] == pids[i - 1] for i in range(1, count) if i not in bounds)
    assert (os.getpid() in pids) == (blocks == 1)


def test_tasks_see_unpicklable_arguments_through_fork(monkeypatch):
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: 2)
    lock = threading.Lock()  # cannot be pickled
    assert pool.map_tasks(lambda held, task: (held is not None, task * 2), (lock,), [1, 2, 3]) == [
        (True, 2), (True, 4), (True, 6)]


def test_a_caller_with_running_threads_gets_the_serial_path(monkeypatch):
    monkeypatch.setattr(pool, "_worker_count", lambda tasks: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        seen = pool.map_blocks(_indices_and_pid, (0,), 4)
    finally:
        release.set()
        other.join()
    assert {pid for _, pid in seen} == {os.getpid()}
