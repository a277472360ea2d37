"""How independent work fans out over the CPUs this process may use.

workers() is the one CPU count of the package. The Euler engine runs its
path blocks on that many threads: a block's time is spent in numpy calls on
large arrays, which release the interpreter lock. The stable-density table
and the mollifier's u'/u'' cache are loops over independent points whose
time is spent holding the lock (QUADPACK calling a Python integrand, many
small numpy calls), so threads do not speed them up; map_interleaved runs
them on forked processes instead.

map_interleaved forks its workers, so the function and its slices reach
them as the caller's memory, without pickling, and no worker imports the
package again (a spawned worker would start an interpreter and import numpy
and scipy, about 0.65 s on a 2-vCPU host, longer than either loop takes);
only the index of each slice and its result cross a pipe. Forking a process
that runs other Python threads can deadlock the child, so map_interleaved
runs inline when other threads are alive or when it is called from a thread
other than the main thread; it also runs inline on a platform without the
fork start method and when workers() is 1. Either way the result is that of
fn applied to each slice in turn.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def workers() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    return ("fork" in multiprocessing.get_all_start_methods()
            and threading.current_thread() is threading.main_thread()
            and threading.active_count() == 1)


_task = None    # (fn, slices) in a forked worker, set once by _receive


def _receive(fn, slices):
    global _task
    _task = fn, slices


def _call(i: int):
    fn, slices = _task
    return fn(slices[i])


def map_interleaved(fn, xs) -> np.ndarray:
    """fn applied to the workers() interleaved slices xs[i::w] of the 1-D
    array xs, each slice in one of w forked processes, its results put back
    in the order of xs. fn maps a 1-D array of points to a float array whose
    last axis runs over those points; a value must depend on its own point
    only, and then the result is bitwise that of fn(xs) for any worker
    count. Interleaving spreads regions of costly points, such as a densely
    sampled stretch of a grid, evenly over the workers. If fn raises for
    points of several slices, the error of the first such slice reaches the
    caller with its message and attributes. Every worker has exited when the
    call returns or raises."""
    xs = np.asarray(xs)
    w = max(1, min(workers(), xs.size))
    slices = [xs[i::w] for i in range(w)]
    if w == 1 or not _can_fork():
        parts = [fn(s) for s in slices]
    else:
        # with fork, the pool starts all its processes before its manager thread
        with ProcessPoolExecutor(w, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_receive, initargs=(fn, slices)) as pool:
            parts = list(pool.map(_call, range(w)))
    out = np.empty(parts[0].shape[:-1] + (xs.size,))
    for i, part in enumerate(parts):
        out[..., i::w] = part
    return out
