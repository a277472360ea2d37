"""Span tracer for the traced benchmark run.

``install`` wraps the public functions of each ``stablesde`` module from
outside the program. A wrapper replaces every binding of the original
function object in every loaded ``stablesde`` module, because modules bind
functions with ``from .x import f`` and call them through their own globals:
the sampler ``simulate_coupled`` uses is ``stablesde.simulate.sample_increments``,
and ``density_grid`` is reached through both ``stablesde.measures`` and
``stablesde.stable``. Methods are replaced on their class.

Each call records a span ``[id, name, parent id, start, end]`` in memory, and
a hook may add counts at the same boundary. A call nested inside an open span
of the same name is not recorded again, so ``busy_s`` never counts the same
interval twice. ``summarize`` turns spans and counts into the per-layer
metrics; ``self_s`` is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []     # [id, name, parent id or None, start, end]
        self.counts = {}    # metric name -> number
        self.seen = set()   # (layer, key) pairs for first-call bookkeeping
        self._local = threading.local()

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, hook=None):
        """Wrap fn. name is a span name, or a callable taking the bound
        arguments and returning one, or None for an untraced call. hook(tracer,
        arguments, result, span) adds counts after the call returns."""
        sig = inspect.signature(fn)
        needs_args = callable(name) or hook is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = sig.bind(*args, **kwargs).arguments if needs_args else None
            span_name = name(arguments) if callable(name) else name
            stack = self._stack()
            if span_name is None or any(s[1] == span_name for s in stack):
                return fn(*args, **kwargs)
            span = [len(self.spans), span_name, stack[-1][0] if stack else None,
                    0.0, 0.0]
            self.spans.append(span)
            stack.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, arguments, result, span)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# count hooks
# ---------------------------------------------------------------------------

def _size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _count_increments(tr, a, result, span):
    tr.add("stable.sample_increments.increments", _size(a["n"]))


def _count_density_points(tr, a, result, span):
    law = a["law"]
    cut = law.density_quadrature.oscillatory_cutoff
    x = np.abs(np.atleast_1d(np.asarray(a["x"], dtype=float)))
    tail = int(np.count_nonzero(x > cut))
    tr.add("stable.density_grid.points_tail", tail)
    tr.add("stable.density_grid.points_spline", int(x.size) - tail)
    if ("density_grid", law.alpha) not in tr.seen:
        tr.seen.add(("density_grid", law.alpha))
        tr.add("stable.density_grid.cold_s", span[4] - span[3])


def _count_points(tr, a, result, span):
    tr.add("mollifier.exact_eval.points", int(np.size(a["x"])))


def _count_thetas(tr, a, result, span):
    tr.add("mollifier.certify_komatsu.thetas", len(a["thetas"]))


def _count_coupled(tr, a, result, span):
    cfg = a["config"]
    tr.add("simulate.simulate_coupled.leg_steps", 2 * cfg.n_steps * cfg.n_paths)
    tr.add("simulate.simulate_coupled.paths", cfg.n_paths)
    tr.add("simulate.simulate_coupled.flagged", result.n_flagged)


def _count_baseline(tr, a, result, span):
    cfg = a["config"]
    tr.add("simulate.simulate_baseline_average.leg_steps",
           cfg.n_steps * cfg.n_paths)


def _count_bytes(tr, a, result, span):
    path = a.get("path")
    if path is not None:
        tr.add("report.write.bytes", os.path.getsize(path))


def _by_mode(prefix):
    def name(a):
        return prefix + (".empirical" if a["model"].mode == "empirical"
                         else ".frozen")
    return name


def _cache_build(a):
    return "mollifier.cache_build" if a["self"]._cache is None else None


# (module, attribute or Class.method, span name, count hook)
LAYERS = (
    ("stable", "sample_increments", "stable.sample_increments", _count_increments),
    ("stable", "density_grid", "stable.density_grid", _count_density_points),
    ("stable", "_density_series", "stable.density_series", None),
    ("stable", "_density_spline", "stable.density_spline", None),
    ("stable", "stable_density", "stable.stable_density", None),
    ("stable", "density_total_mass", "stable.density_total_mass", None),
    ("stable", "generator_apply", "stable.generator_apply", None),
    ("mollifier", "build_mollifier", "mollifier.build_mollifier", None),
    ("mollifier", "SmoothedDistance._ensure_cache", _cache_build, None),
    ("mollifier", "SmoothedDistance.u_exact", "mollifier.exact_eval", _count_points),
    ("mollifier", "SmoothedDistance.u_prime_exact", "mollifier.exact_eval",
     _count_points),
    ("mollifier", "SmoothedDistance.u_second_exact", "mollifier.exact_eval",
     _count_points),
    ("mollifier", "certify_komatsu", "mollifier.certify_komatsu", _count_thetas),
    ("measures", "distance_B", _by_mode("measures.distance_B"), None),
    ("measures", "distance_S", _by_mode("measures.distance_S"), None),
    ("measures", "distance_B_sup", "measures.distance_sup", None),
    ("measures", "distance_S_sup", "measures.distance_sup", None),
    ("simulate", "simulate_coupled", "simulate.simulate_coupled", _count_coupled),
    ("simulate", "simulate_baseline_average",
     "simulate.simulate_baseline_average", _count_baseline),
    ("simulate", "distance_moment_curve", "simulate.functionals", None),
    ("simulate", "tail_probability", "simulate.functionals", None),
    ("simulate", "uniform_lp_check", "simulate.functionals", None),
    ("rng", "RngStream.substream", "rng.substream", None),
    ("rates", "run_sweep", "rates.run_sweep", None),
    ("rates", "convergence_experiment", "rates.convergence_experiment", None),
    ("report", "write_results_csv", "report.write", _count_bytes),
    ("report", "write_plotdata", "report.write", _count_bytes),
    ("report", "Report.to_json", "report.write", _count_bytes),
    ("cli", "run", "cli.run", None),
)


def install(tracer: Tracer) -> None:
    """Replace every binding of each LAYERS function with a tracing wrapper."""
    for mod_name, attr, name, hook in LAYERS:
        module = importlib.import_module("stablesde." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name, hook))
            continue
        orig = getattr(module, attr)
        wrapper = tracer.wrap(orig, name, hook)
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "")
            if mname != "stablesde" and not mname.startswith("stablesde."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(s[2], []).append(s)
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[0], ()), key=lambda c: c[3]):
            lo, hi = max(c[3], start), min(c[4], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (end - start) - covered
    return out


def _has_ancestor(span, name: str, by_id: dict) -> bool:
    while span[2] is not None:
        span = by_id[span[2]]
        if span[1] == name:
            return True
    return False


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def summarize(spans, counts) -> dict:
    """Per-layer metrics from one traced run. Every key is present; a layer
    that did not run reads 0."""
    names = {n for _, _, n, _ in LAYERS if isinstance(n, str)} | {
        "mollifier.cache_build", "measures.distance_B.frozen",
        "measures.distance_S.frozen", "measures.distance_B.empirical",
        "measures.distance_S.empirical"}
    m = {}
    for n in names:
        m[f"{n}.calls"] = 0
        m[f"{n}.busy_s"] = 0.0
        m[f"{n}.self_s"] = 0.0
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    tail_s = 0.0
    for s in spans:
        n = s[1]
        m[f"{n}.calls"] = m.get(f"{n}.calls", 0) + 1
        m[f"{n}.busy_s"] = m.get(f"{n}.busy_s", 0.0) + s[4] - s[3]
        m[f"{n}.self_s"] = m.get(f"{n}.self_s", 0.0) + selfs[s[0]]
        if (n == "stable.density_series" and s[2] is not None
                and by_id[s[2]][1] == "stable.density_grid"):
            tail_s += s[4] - s[3]
    for key in ("stable.sample_increments.increments",
                "stable.density_grid.points_tail",
                "stable.density_grid.points_spline",
                "stable.density_grid.cold_s", "mollifier.exact_eval.points",
                "mollifier.certify_komatsu.thetas",
                "simulate.simulate_coupled.leg_steps",
                "simulate.simulate_coupled.paths",
                "simulate.simulate_coupled.flagged",
                "simulate.simulate_baseline_average.leg_steps",
                "report.write.bytes"):
        m[key] = counts.get(key, 0)

    spline_build = m["stable.density_spline.busy_s"]
    m["stable.density_grid.tail_s"] = tail_s
    m["stable.density_grid.spline_build_s"] = spline_build
    m["stable.density_grid.tail_rate"] = _ratio(
        m["stable.density_grid.points_tail"], tail_s)
    m["stable.density_grid.spline_rate"] = _ratio(
        m["stable.density_grid.points_spline"],
        m["stable.density_grid.busy_s"] - tail_s - spline_build)
    m["stable.sample_increments.rate"] = _ratio(
        m["stable.sample_increments.increments"],
        m["stable.sample_increments.busy_s"])
    # the first cached evaluation may run inside generator_apply; self time
    # keeps the cache build out of the per-call figure
    m["stable.generator_apply.per_call_s"] = _ratio(
        m["stable.generator_apply.self_s"], m["stable.generator_apply.calls"])
    m["mollifier.cache_build_s"] = m["mollifier.cache_build.busy_s"]
    # a cache build inside the identity check is a one-off, not per theta
    in_komatsu = sum(s[4] - s[3] for s in spans
                     if s[1] == "mollifier.cache_build"
                     and _has_ancestor(s, "mollifier.certify_komatsu", by_id))
    m["mollifier.certify_komatsu.per_theta_s"] = _ratio(
        m["mollifier.certify_komatsu.busy_s"] - in_komatsu,
        m["mollifier.certify_komatsu.thetas"])
    frozen = ("measures.distance_B.frozen", "measures.distance_S.frozen")
    m["measures.distance_frozen.per_call_s"] = _ratio(
        sum(m[f"{n}.busy_s"] for n in frozen),
        sum(m[f"{n}.calls"] for n in frozen))
    for n in ("simulate.simulate_coupled", "simulate.simulate_baseline_average"):
        m[f"{n}.leg_steps_per_s"] = _ratio(m[f"{n}.leg_steps"], m[f"{n}.busy_s"])
    m["simulate.simulate_coupled.flagged_fraction"] = _ratio(
        m["simulate.simulate_coupled.flagged"], m["simulate.simulate_coupled.paths"])
    m["trace.spans"] = len(spans)
    m["trace.min_self_s"] = min(selfs.values(), default=0.0)
    return m
