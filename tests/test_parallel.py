"""Fan-out over the caller and forked children: the density table, the
mollifier cache and the generator-identity rows have the same bits for any
worker count, an error in any slice reaches the caller whole, every child is
reaped, the caller's CPU affinity is left alone, and the inline cases start
no process."""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import stablesde as ss
from stablesde import cli, parallel, stable
from stablesde.errors import NumericError
from stablesde.mollifier import SmoothedDistance

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def no_child_left():
    """No child process, running or exited, outlives a test."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fresh_tables():
    """No density table cached from another test, none left to the next."""
    stable._density_spline.cache_clear()
    yield
    stable._density_spline.cache_clear()


def _table_and_cache_bits():
    spline = stable._density_spline.__wrapped__(1.5)
    cache = ss.SmoothedDistance(ss.build_mollifier(1.5, 0.1, 4.0))._ensure_cache()
    return [spline.x.tobytes(), spline.c.tobytes(),
            cache["up"].c.tobytes(), cache["upp"].c.tobytes()]


def _tree(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_map_interleaved_keeps_point_order_and_runs_slice_0_in_the_caller(
        monkeypatch):
    """Slice 0 runs in the caller, every other slice in its own forked
    child, and the values come back in the order of the points."""
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    out = parallel.map_interleaved(
        lambda xs: np.array([xs, np.full(xs.size, float(os.getpid()))]),
        np.arange(7.0))
    assert out[0].tolist() == list(range(7))
    pids = [set(out[1][i::3]) for i in range(3)]
    assert pids[0] == {os.getpid()}
    assert all(len(p) == 1 and os.getpid() not in p for p in pids[1:])
    assert pids[1] != pids[2]


def test_tables_bitwise_equal_for_any_worker_count(monkeypatch):
    bits = {}
    for n in (1, 2, 3):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        bits[n] = _table_and_cache_bits()
    assert bits[1] == bits[2] == bits[3]


@pytest.mark.parametrize("config", ["certify_density.json", "certify_mollifier.json"])
def test_cli_outputs_byte_equal_with_one_and_two_workers(monkeypatch, tmp_path,
                                                         fresh_tables, config):
    trees = []
    for n in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        stable._density_spline.cache_clear()
        out = tmp_path / str(n)
        assert cli.main(["run", "--config", str(ROOT / "configs" / config),
                         "--out", str(out)]) == 0
        trees.append(_tree(out))
    assert trees[0] == trees[1]


def test_worker_numeric_error_reaches_the_caller(monkeypatch, tmp_path, capfd,
                                                 fresh_tables):
    """A NumericError raised in a forked child (table index 1201, an odd
    index, so slice 1 of two) keeps its message, estimate and error bound,
    and the CLI reports it as a numeric failure on one line."""
    bad = np.linspace(2.0, 20.0, 1601)[401]     # grid point 1201 of the table
    parent_calls = []

    def failing_quad(law, x):
        parent_calls.append(x)      # lost with the child's memory when forked
        if x == bad:
            raise NumericError(f"density quadrature failed at x={x}",
                               estimate=0.25, error_bound=1e-3)
        return 0.0

    monkeypatch.setattr(stable, "_density_quad", failing_quad)
    errors = []
    for n in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        parent_calls.clear()
        with pytest.raises(NumericError) as info:
            stable._density_spline.__wrapped__(1.5)
        errors.append(info.value)
        assert parent_calls and (bad in parent_calls) == (n == 1)
    inline, forked = errors
    assert str(forked) == str(inline) and f"x={bad}" in str(forked)
    assert (forked.estimate, forked.error_bound) == (0.25, 1e-3)

    capfd.readouterr()
    rc = cli.main(["run", "--config", str(ROOT / "configs" / "certify_density.json"),
                   "--out", str(tmp_path / "out")])
    err = capfd.readouterr().err
    assert rc == 4
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"numeric failure: density quadrature failed at x={bad}")


def test_inline_paths_start_no_process(monkeypatch):
    """From a thread other than the main thread, from the main thread while
    another thread is alive, and with one worker, the table and cache are
    computed inline, with the bits of the forked run."""
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    forked = _table_and_cache_bits()

    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    result = []
    thread = threading.Thread(target=lambda: result.append(_table_and_cache_bits()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and result == [forked]
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert _table_and_cache_bits() == forked
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    assert _table_and_cache_bits() == forked


def test_caller_slice_error_stops_the_children(monkeypatch):
    """When the caller's own slice raises, its error propagates at once and
    the children still computing are stopped and reaped."""
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    caller = os.getpid()

    def fn(xs):
        if os.getpid() == caller:
            raise ValueError("caller slice failed")
        time.sleep(60)
        return xs

    start = time.monotonic()
    with pytest.raises(ValueError, match="caller slice failed"):
        parallel.map_interleaved(fn, np.arange(6.0))
    assert time.monotonic() - start < 30


def test_child_without_result_names_its_slice_and_status(monkeypatch):
    """A child that exits before writing a result is an error naming its
    slice and exit status, not a hang or a missing value."""
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    caller = os.getpid()

    def fn(xs):
        if os.getpid() != caller and xs[0] == 2.0:
            os._exit(3)
        return xs

    with pytest.raises(RuntimeError,
                       match="slice 2 exited with status 3 without a result"):
        parallel.map_interleaved(fn, np.arange(6.0))


def test_failed_fork_propagates_after_reaping_the_children(monkeypatch):
    """A fork that fails after another has succeeded raises its OSError; the
    child already started is reaped."""
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(BlockingIOError):
        parallel.map_interleaved(lambda xs: xs, np.arange(6.0))
    assert len(forks) == 2


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_caller_affinity_is_the_same_after_return_and_raise(monkeypatch):
    """The fan-out leaves the caller's CPU affinity set as it found it, more
    workers than CPUs included, whether the call returns or raises."""
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    before = os.sched_getaffinity(0)
    parallel.map_interleaved(lambda xs: xs, np.arange(6.0))
    assert os.sched_getaffinity(0) == before

    def fn(xs):
        if xs[0] == 0.0:
            raise ValueError("caller slice failed")
        return xs

    with pytest.raises(ValueError):
        parallel.map_interleaved(fn, np.arange(6.0))
    assert os.sched_getaffinity(0) == before


def test_certify_komatsu_builds_the_cache_once_before_it_forks(monkeypatch, tmp_path):
    """On a fresh SmoothedDistance, certify_komatsu builds the u'/u'' cache
    once, in the caller, before any fork, so no child builds its own; its
    rows are the same for 1, 2 and 3 workers."""
    log = tmp_path / "log"

    def note(line):
        with open(log, "a") as f:
            f.write(line + "\n")

    master_grid, real_fork = SmoothedDistance._master_grid, os.fork
    monkeypatch.setattr(SmoothedDistance, "_master_grid",
                        lambda self: note(f"build {os.getpid()}") or master_grid(self))
    monkeypatch.setattr(os, "fork", lambda: note("fork") or real_fork())
    law = ss.make_stable_law(1.5)
    rows = {}
    for n in (1, 2, 3):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        log.write_text("")
        s = SmoothedDistance(ss.build_mollifier(1.5, 0.1, 4.0))
        a_s, b_s = s.mollifier.support
        thetas = [a_s * 1.01, 0.06, b_s * 0.99, 0.2, -0.05, 1.0]
        rows[n] = ss.certify_komatsu(s, law, thetas).to_json()
        # one fork per child of the cache build, then one per child of the rows
        assert log.read_text().splitlines() == (
            [f"build {os.getpid()}"] + ["fork"] * (2 * (n - 1)))
    assert rows[1] == rows[2] == rows[3]
