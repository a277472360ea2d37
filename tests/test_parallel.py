"""Fan-out over forked workers: the density table and the mollifier cache
have the same bits for any worker count, a worker's error reaches the caller
whole, and the inline cases start no process."""

import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import stablesde as ss
from stablesde import cli, parallel, stable
from stablesde.errors import NumericError

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_tables():
    """No density table cached from another test, none left to the next."""
    stable._density_spline.cache_clear()
    yield
    stable._density_spline.cache_clear()


def _table_and_cache_bits():
    spline = stable._density_spline.__wrapped__(1.5, 20.0)
    cache = ss.SmoothedDistance(ss.build_mollifier(1.5, 0.1, 4.0))._ensure_cache()
    return [spline.x.tobytes(), spline.c.tobytes(),
            cache["up"].c.tobytes(), cache["upp"].c.tobytes()]


def _tree(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_map_interleaved_keeps_point_order_and_leaves_no_worker(monkeypatch):
    """Slices run in forked workers, their values come back in the order of
    the points, and every worker has exited when the call returns."""
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    out = parallel.map_interleaved(
        lambda xs: np.array([xs, np.full(xs.size, float(os.getpid()))]),
        np.arange(5.0))
    assert out[0].tolist() == list(range(5))
    assert os.getpid() not in set(out[1])
    assert multiprocessing.active_children() == []


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
    """A NumericError raised in a worker keeps its message, estimate and
    error bound, no worker outlives it, and the CLI reports it as a numeric
    failure on one line."""
    parent_calls = []

    def failing_quad(law, x):
        parent_calls.append(x)      # lost with the worker's memory when forked
        if abs(x - 6.5) < 1e-9:
            raise NumericError(f"density quadrature failed at x={x}",
                               estimate=0.25, error_bound=1e-3)
        return 0.0

    monkeypatch.setattr(stable, "_density_quad", failing_quad)
    errors = []
    for n in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        parent_calls.clear()
        with pytest.raises(NumericError) as info:
            stable._density_spline.__wrapped__(1.5, 20.0)
        errors.append(info.value)
        assert multiprocessing.active_children() == []
        assert bool(parent_calls) == (n == 1)
    inline, forked = errors
    assert str(forked) == str(inline) and "x=6.5" in str(forked)
    assert (forked.estimate, forked.error_bound) == (0.25, 1e-3)

    capfd.readouterr()
    rc = cli.main(["run", "--config", str(ROOT / "configs" / "certify_density.json"),
                   "--out", str(tmp_path / "out")])
    err = capfd.readouterr().err
    assert rc == 4
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numeric failure: density quadrature failed at x=6.5")
    assert multiprocessing.active_children() == []


def test_inline_paths_start_no_process(monkeypatch):
    """From a thread other than the main thread, from the main thread while
    another thread is alive, and with one worker, the table and cache are
    computed inline, with the bits of the forked run."""
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    forked = _table_and_cache_bits()

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
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
