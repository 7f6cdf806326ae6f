"""Independent tasks across forked worker processes, or serially in this one.

The small-world ensemble members, the tail bootstrap's replicate blocks and
the betweenness source groups run here. Every task draws from its own seed
(`derive_seed`) or sums a fixed share of the work, so the results do not
depend on how many workers run them.
"""
from __future__ import annotations

import os
import threading
from typing import Callable, Sequence


def derive_seed(*key: int) -> int:
    """The seed of the task that `key` names, such as (master seed, section) or (seed, tag, member)."""
    import numpy as np

    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _worker_count(tasks: int) -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, tasks))


# set in each forked worker by the pool initializer; the parent never writes it
_pool_call: tuple = ()


def _set_pool_call(func: Callable, args: tuple) -> None:
    global _pool_call
    _pool_call = (func, args)


def _pooled(task):
    func, args = _pool_call
    return func(*args, task)


def map_tasks(func: Callable, args: tuple, tasks: Sequence) -> list:
    """[func(*args, task) for task in tasks], across forked workers when more than one CPU is usable.

    The workers receive `func` and `args` through fork rather than pickling,
    so each task sees the very same objects, in the same iteration order, as
    a serial run would, and no worker pays for a fresh import. Forking a
    process whose other threads may hold locks is unsafe, so a caller with
    running threads gets the serial path. Results come back in task order.
    """
    workers = _worker_count(len(tasks))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            context = None
        if context is not None:
            with ProcessPoolExecutor(workers, mp_context=context, initializer=_set_pool_call,
                                     initargs=(func, args)) as pool:
                return list(pool.map(_pooled, tasks))
    return [func(*args, task) for task in tasks]


def map_blocks(func: Callable, args: tuple, count: int) -> list:
    """func(*args, block) over contiguous blocks of range(count), one per worker, results joined in order.

    `func` returns a list with one entry per index of its block.
    """
    workers = _worker_count(count)
    bounds = [count * k // workers for k in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [item for part in map_tasks(func, args, blocks) for item in part]
