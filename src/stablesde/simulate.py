"""Explicit Euler scheme for N equations driven by one shared stable path,
plus the Monte Carlo functionals built on the ensembles.

A leg is a start x0 with coefficients drift(t, x) and jump(t, x). All legs
are advanced with the same increments (left-point coefficient evaluation),
so legs with identical coefficients and starts give bitwise identical paths.
Every run returns one result type, LegEnsemble: a coupled baseline/perturbed
pair is the 2-leg case, the empirical coefficient distances average along
the 1-leg case, and a coefficient sequence runs all of its members on one
path. A path is flagged as soon as any leg goes non-finite or leaves
[-x_clip, x_clip]; the flag is one per path, shared by all legs, and flagged
paths are left out of every statistic.

The legs of a block are one stacked (N, width) state. At each step every
distinct coefficient is evaluated once, over all the rows of the legs that
run it, into a preallocated buffer, and a leg whose coefficient is a
Perturbed adds its term on its own row; the states are then updated as
(x + drift dt) + jump dZ, the order of the per-leg formula, so a leg's path
has the bits it would have if it ran alone.

Paths are simulated in fixed 4096-column blocks, each block owning a
counter-based substream keyed by (seed, stream label, block index). The
blocks of a run execute on a thread pool with one thread per CPU the process
may use; each block samples its own increments and writes only its own
columns of the outputs, so every output array is bitwise the same for any
thread count and any schedule. A block streams its increments in chunks of
16 steps, which draw the same numbers as sampling all its steps at once, so
a block's transient memory does not grow with the step count.

Per-path state that the functionals need (running maxima, the distance
between neighbouring legs at a retained time subgrid) is accumulated online
into preallocated arrays; full paths are kept only on request, since big
ensembles would not fit in memory.
"""

from __future__ import annotations

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import parallel
from .coefficients import CoefficientPair, split
from .errors import DomainError, NumericError
from .rng import RngStream
from .stable import StableLaw, sample_increments

_BLOCK_SIZE = 4096        # paths per substream block
_CHUNK_ROWS = 16          # steps of increments a block samples at a time
_RETAIN_GRID_MAX = 129    # retained times of the per-path differences


@dataclass(frozen=True)
class SimConfig:
    T: float
    n_steps: int
    n_paths: int
    seed: int
    x_clip: float = 1e12
    keep_paths: bool = False
    stream_label: str = "coupled"

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("T must be > 0")
        if self.n_steps < 1 or self.n_paths < 1:
            raise DomainError("n_steps and n_paths must be >= 1")
        if not self.x_clip > 0:
            raise DomainError("x_clip must be > 0")


@dataclass
class LegEnsemble:
    """Accumulators of an N-leg run. Per-leg arrays are stacked on axis 0;
    neighbour pair i is legs (i, i + 1)."""

    alpha: float
    retained_idx: np.ndarray
    retained_times: np.ndarray
    abs_diff: np.ndarray            # (N-1, n_retained, n_paths) |X_i - X_{i+1}|
    y_max: np.ndarray               # (N-1, n_paths) grid sup of |X_i - X_{i+1}|
    abs_max: np.ndarray             # (N, n_paths) grid sup |X_i|
    flagged: np.ndarray             # (n_paths,) shared by all legs, excluded from stats
    integral: np.ndarray            # (n_integrands, n_paths) leg 0's sum_k f(t_k, X_k) dt
    paths: np.ndarray | None        # (N, n_steps + 1, n_paths)
    increments_digest: str | None = None  # provenance fingerprint of the increments

    @property
    def n_flagged(self) -> int:
        return int(np.sum(self.flagged))

    @property
    def ok(self) -> np.ndarray:
        return ~self.flagged


def _blocks(config: SimConfig):
    """Yield (block index j, column slice, substream (seed, stream_label, j))
    per path block."""
    root = RngStream(config.seed)
    for j, b0 in enumerate(range(0, config.n_paths, _BLOCK_SIZE)):
        yield (j, slice(b0, min(b0 + _BLOCK_SIZE, config.n_paths)),
               root.substream(config.stream_label, j))


def _plan(coefficients) -> tuple:
    """How one coefficient slot of the legs is evaluated at each step: the
    distinct base coefficients, each with the rows of the legs that run it
    (a slice when they are adjacent), and (row, term) for each leg whose
    coefficient is a Perturbed of its base."""
    groups, terms = {}, []
    for i, f in enumerate(coefficients):
        base, term = split(f)
        groups.setdefault(id(base), (base, []))[1].append(i)
        if term is not None:
            terms.append((i, term))
    return ([(base, slice(r[0], r[-1] + 1) if r[-1] - r[0] == len(r) - 1
              else np.array(r)) for base, r in groups.values()], terms)


def simulate_legs(config: SimConfig, law: StableLaw, legs, integrands=(),
                  digest: bool = False) -> LegEnsemble:
    """Explicit Euler for the legs (x0, drift(t, x), jump(t, x)) on the
    shared increments: X[k+1] = X[k] + drift(t_k, X[k]) dt + jump(t_k, X[k]) dZ_k.

    The legs of a block are stepped as one stacked state: each distinct
    coefficient (a Perturbed counts as its base) is evaluated once per step
    over the rows of every leg that runs it, and each Perturbed leg adds its
    term on its own row. Each integrand f(t, x, drift, jump), given leg 0's
    state and coefficient values, is summed along leg 0 into its own row of
    `integral` (left-endpoint rule in time, matching the Euler grid); digest
    hashes the increments of every block in block order, so a block then
    keeps its increment chunks until they are hashed. Blocks run on
    parallel.workers() threads, so legs and integrands must be safe to call
    concurrently. If a block raises, the first such exception in block order
    is raised and blocks not yet started are cancelled.
    Deterministic for fixed (seed, config, legs), whatever the thread count.
    """
    n, npth, nl = config.n_steps, config.n_paths, len(legs)
    dt = config.T / n
    times = dt * np.arange(n + 1)
    ridx = np.unique(np.round(np.linspace(
        0, n, min(_RETAIN_GRID_MAX, n + 1))).astype(int))
    rpos = {k: i for i, k in enumerate(ridx)}
    x0 = np.array([[leg[0]] for leg in legs], dtype=float)
    plans = [_plan([leg[1] for leg in legs]), _plan([leg[2] for leg in legs])]
    # a leg is out of bounds (non-finite, or |x| > x_clip) exactly when
    # |x| <= guard fails: guard is finite, so it fails for +-inf and NaN
    guard = min(config.x_clip, sys.float_info.max)
    run = LegEnsemble(
        alpha=law.alpha, retained_idx=ridx, retained_times=times[ridx],
        abs_diff=np.empty((nl - 1, ridx.size, npth)),
        y_max=np.full((nl - 1, npth), np.nan), abs_max=np.full((nl, npth), np.nan),
        flagged=np.zeros(npth, dtype=bool),
        integral=np.zeros((len(integrands), npth)),
        paths=np.empty((nl, n + 1, npth)) if config.keep_paths else None)

    def euler_block(block):
        """Simulate one block (index, columns, stream) of _blocks into its
        columns of run; return its increment chunks, in step order, when they
        are to be hashed."""
        _, cols, stream = block
        width = cols.stop - cols.start
        # the (n, width) increments of the block draw n * width uniforms,
        # then n * width exponentials; a second stream that starts at the
        # exponentials lets chunks of rows draw the same numbers
        chunk_stream = SimpleNamespace(
            uniform=stream.uniform,
            exponential=stream.after_uniforms(n * width).exponential)
        chunks = []
        x = np.repeat(x0, width, axis=1)   # leg states, stepped in place
        # step buffers: coefficient values, |x|, neighbour differences,
        # guard test
        drift, jump, abs_x = np.empty_like(x), np.empty_like(x), np.abs(x)
        diff, ok = np.empty((nl - 1, width)), np.empty(x.shape, dtype=bool)
        any_flagged = False
        # views into the outputs, updated in place
        flagged, tot = run.flagged[cols], run.integral[:, cols]
        y_max, x_max = run.y_max[:, cols], run.abs_max[:, cols]
        for k in range(n + 1):
            # record the state at t_k (finite, or NaN on flagged paths), then
            # step to t_{k+1}
            np.abs(np.subtract(x[:-1], x[1:], out=diff), out=diff)
            np.fmax(y_max, diff, out=y_max)
            np.fmax(x_max, abs_x, out=x_max)
            if k in rpos:
                run.abs_diff[:, rpos[k], cols] = diff
            if run.paths is not None:
                run.paths[:, k, cols] = x
            if k == n:
                break
            if k % _CHUNK_ROWS == 0:
                dz = sample_increments(
                    law, dt, (min(_CHUNK_ROWS, n - k), width), chunk_stream)
                if digest:
                    chunks.append(dz)
            t_k = times[k]
            if any_flagged:
                np.copyto(x, 0.0, where=flagged)    # flagged paths step from 0
            for value, (groups, terms) in zip((drift, jump), plans):
                for f, rows in groups:
                    value[rows] = f(t_k, x[rows])
                for i, term in terms:
                    value[i] += term(t_k, x[i])
            for tot_i, f in zip(tot, integrands):
                tot_i += f(t_k, x[0], drift[0], jump[0]) * dt
            drift *= dt
            jump *= dz[k % _CHUNK_ROWS]
            x += drift
            x += jump
            np.less_equal(np.abs(x, out=abs_x), guard, out=ok)
            if not ok.all():
                flagged |= ~ok.all(axis=0)
                any_flagged = True
            if any_flagged:
                np.copyto(x, np.nan, where=flagged)
                np.copyto(abs_x, np.nan, where=flagged)
        return chunks

    hasher = hashlib.blake2b(digest_size=16) if digest else None
    with ThreadPoolExecutor(max_workers=parallel.workers()) as pool:
        # map yields in block order and drops each block's future once it has
        # yielded its increments; if a block raises, it cancels the blocks
        # not yet started
        for chunks in pool.map(euler_block, _blocks(config)):
            for dz in chunks:
                hasher.update(dz)

    if run.n_flagged > 0.01 * npth:
        raise NumericError(
            f"{run.n_flagged}/{npth} paths exceeded the guard "
            f"x_clip={config.x_clip:g} or went non-finite")
    if hasher is not None:
        run.increments_digest = hasher.hexdigest()
    return run


def simulate_coupled(config: SimConfig, pair: CoefficientPair,
                     law: StableLaw, digest: bool = False) -> LegEnsemble:
    """The baseline leg (x0, b, sigma) and the perturbed leg (x0_tilde,
    b_tilde, sigma_tilde) on the shared increments, with the increments
    digest if asked; deterministic for fixed (seed, config, pair)."""
    legs = [(pair.x0, pair.b, pair.sigma),
            (pair.x0_tilde, pair.b_tilde, pair.sigma_tilde)]
    return simulate_legs(config, law, legs, digest=digest)


def simulate_baseline_average(config: SimConfig, pair: CoefficientPair,
                              law: StableLaw, integrands) -> list:
    """Euler simulation of the pair's baseline leg alone accumulating time
    averages: for each f, the mean over paths of
    sum_k f(t_k, X_k, b(t_k, X_k), sigma(t_k, X_k)) dt.

    This is the Monte Carlo estimator behind the empirical coefficient
    distances (left-endpoint rule in time, matching the Euler grid).
    """
    run = simulate_legs(config, law, [(pair.x0, pair.b, pair.sigma)],
                        integrands=integrands)
    return [float(v.mean()) for v in run.integral[:, run.ok]]


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

@dataclass
class MomentCurve:
    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    sup: float
    sup_stderr: float


def distance_moment_curve(ens: LegEnsemble, q: float, i: int = 0) -> MomentCurve:
    """Per-retained-time Monte Carlo mean of |X_t - X_tilde_t|^q over the
    legs X, X_tilde of neighbour pair i.

    Moments of order q >= alpha do not exist for stable-driven differences;
    the precondition is 0 < q < alpha.
    """
    if not (0.0 < q < ens.alpha):
        raise DomainError(f"moment order q must lie in (0, alpha), got {q}")
    ok, n = ens.ok, ens.abs_diff.shape[2] - ens.n_flagged
    mean, stderr = np.empty(ens.retained_idx.size), np.zeros(ens.retained_idx.size)
    # one retained time at a time, with no copy of the whole selection.
    # abs_diff[i][:, ok] is Fortran-ordered, so mean and std(ddof=1) along
    # its axis 1 sum each row left to right; cumsum does the same on one row
    # (v.sum() would sum it pairwise), which keeps their bits
    for r, row in enumerate(ens.abs_diff[i]):
        v = row[ok] ** q
        mean[r] = np.cumsum(v)[-1] / n
        if n > 1:
            var = np.cumsum((v - mean[r]) ** 2)[-1] / (n - 1)
            stderr[r] = math.sqrt(var) / math.sqrt(n)
    i_sup = int(np.argmax(mean))
    return MomentCurve(times=ens.retained_times, mean=mean, stderr=stderr,
                       sup=float(mean[i_sup]), sup_stderr=float(stderr[i_sup]))


@dataclass
class TailEstimate:
    h: float
    prob: float
    wilson_low: float
    wilson_high: float


def wilson_interval(successes: int, n: int):
    """95% Wilson score interval of a binomial proportion."""
    z = 1.959963984540054
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def tail_probability(ens: LegEnsemble, h: float) -> TailEstimate:
    """Fraction of paths with sup_k |X - X_tilde|^(alpha-1) > h for the legs
    of neighbour pair 0 (a sup over the simulation grid, which underestimates
    the continuous sup)."""
    if not h > 0:
        raise DomainError("tail threshold h must be > 0")
    y = ens.y_max[0][ens.ok]
    n = y.size
    hits = int(np.sum(y ** (ens.alpha - 1.0) > h))
    lo, hi = wilson_interval(hits, n)
    return TailEstimate(h=h, prob=hits / n, wilson_low=lo, wilson_high=hi)


@dataclass
class UniformLpReport:
    p: float
    max_abs_dev_in_se: float


def uniform_lp_check(sup_abs_values, alpha: float) -> UniformLpReport:
    """Empirical E[sup_k |X|^p], p = (1 + alpha)/2, across a coefficient
    sequence: the largest distance, in standard errors, of a member mean from
    the common (inverse-variance weighted) constant fit. sup_abs_values holds
    one per-path sup|X| array per member n."""
    p = (1.0 + alpha) / 2.0
    means, ses = [], []
    for arr in sup_abs_values:
        v = np.asarray(arr, dtype=float)
        v = v[np.isfinite(v)] ** p
        means.append(v.mean())
        ses.append(v.std(ddof=1) / math.sqrt(v.size))
    means = np.array(means)
    ses = np.array(ses)
    w = 1.0 / np.maximum(ses, 1e-300) ** 2
    fit = float(np.sum(w * means) / np.sum(w))
    dev = np.abs(means - fit) / np.maximum(ses, 1e-300)
    return UniformLpReport(p=p, max_abs_dev_in_se=float(dev.max()))
