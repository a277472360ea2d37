"""How independent work fans out over the CPUs this process may use.

workers() is the one CPU count of the package. The Euler engine runs its
path blocks on that many threads, whose numpy calls release the interpreter
lock. The density table, the mollifier's u'/u'' cache and its identity
residuals hold the lock (QUADPACK calling Python, many small numpy calls),
so map_interleaved forks for them: the caller computes the first slice, and
w - 1 children from os.fork, which inherit fn and import nothing again,
compute the others and send their pickled results back on pipes. No helper
thread competes with the caller's slice for the lock. Pinning each process
to its own CPU lost an A/B on a 2-vCPU host, so the scheduler places them.
Forking a process that runs other Python threads can deadlock the child,
so while other threads are alive, off the main thread and without os.fork
the caller computes one slice of every point, and starts no child; since a
value depends on its own point only, one slice has the bits of w slices.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

import numpy as np


def workers() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    return (hasattr(os, "fork")
            and threading.current_thread() is threading.main_thread()
            and threading.active_count() == 1)


def _fork_join(fn, slices) -> list:
    """fn(slices[0]) in the caller and fn(slices[i]) in forked child i; every
    child is reaped before a result is read or an error raised."""
    children = []       # (pid, read end of its pipe)
    try:
        for i in range(1, len(slices)):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:    # the child sends fn's result or error, or nothing
                try:        # if it cannot pickle, and exits without atexit
                    try:
                        result = True, fn(slices[i])
                    except BaseException as exc:
                        result = False, exc
                    with open(w, "wb") as f:
                        f.write(pickle.dumps(result))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        parts = [fn(slices[0])]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        ends = []       # (bytes written, wait status) per child
        for pid, r in children:
            with open(r, "rb") as f:
                ends.append((f.read(), os.waitpid(pid, 0)[1]))
    for i, (data, status) in enumerate(ends, 1):
        if status or not data:
            raise RuntimeError(f"forked worker for slice {i} exited with status "
                               f"{os.waitstatus_to_exitcode(status)} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        parts.append(value)
    return parts


def map_interleaved(fn, xs) -> np.ndarray:
    """fn applied to the interleaved slices xs[i::w] of the 1-D array xs, w
    being workers() where forking is safe and 1 elsewhere, put back in the
    order of xs. fn maps points to a float array whose last axis runs over
    them; a value that depends on its own point only has the bits of fn(xs)
    for any worker count. Interleaving spreads costly stretches of a grid
    over the workers. The first slice that raises sends its error whole; no
    child outlives the call."""
    xs = np.asarray(xs)
    w = max(1, min(workers(), xs.size)) if _can_fork() else 1
    parts = _fork_join(fn, [xs[i::w] for i in range(w)])
    out = np.empty(parts[0].shape[:-1] + (xs.size,))
    for i, part in enumerate(parts):
        out[..., i::w] = part
    return out
