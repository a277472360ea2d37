"""Frozen transition density and the coefficient-distance functionals.

The distance functionals are the paper's density-weighted norms: they weight
the pointwise coefficient gaps by where the baseline process actually lives.
The true transition density is not available; the default model is the
frozen-coefficient density

    p0_t(x0, y) = g((y - x0) / s) / s,   s = t^(1/alpha) sigma(y)^(1/alpha),

with g the stable density, and sigma and x0 those of the pair's baseline. It
brackets the true density within constant factors [m, M]. The empirical mode
instead averages the gap along simulated baseline paths, which estimates the
distance under the true (discretized) law; the two are expected to agree up
to the bracketing constants, not exactly.

Space integrals run over an explicit window around x0 with a power-law tail
correction; time integrals use a grid graded like (j/J)^alpha toward 0,
where the frozen density concentrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientPair
from .errors import DomainError
from .quadrature import panel_nodes
from .simulate import SimConfig, simulate_baseline_average
from .stable import StableLaw, density_grid, stable_tail_mass

_SPACE_REL_TOL = 1e-4   # tail share at which a space integral's window stops growing
_SUP_TIME_NODES = 65    # uniform time nodes of the sup distances


def _time_grid(T: float, alpha: float, n: int) -> np.ndarray:
    """Graded time nodes s_j = T (j/n)^alpha, j = 0..n."""
    if n < 2:
        raise DomainError("time grid needs at least 2 nodes")
    j = np.arange(n + 1, dtype=float)
    return T * (j / n) ** alpha


@dataclass
class DensityModel:
    """How to approximate the law of the baseline of the pair it is used with.

    frozen_plain: p0;  empirical: Monte Carlo average along baseline paths
    simulated with sim_config.
    """

    mode: str
    law: StableLaw
    sim_config: SimConfig | None = None
    # (pair, what its distances share) of the last pair: the density on each
    # window, or the baseline-path averages
    _memo: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.mode not in ("frozen_plain", "empirical"):
            raise DomainError(f"unknown density model mode {self.mode!r}")
        if self.mode == "empirical" and self.sim_config is None:
            raise DomainError("empirical mode needs a SimConfig")

    def _shared(self, pair: CoefficientPair, build):
        """What the distances of pair share on this model: build() for a
        pair other than the last one, else the last pair's value."""
        if self._memo is None or self._memo[0] is not pair:
            self._memo = (pair, build())
        return self._memo[1]


def frozen_density(model: DensityModel, pair: CoefficientPair, t: float, y):
    """Frozen-coefficient density p0_t(x0, y) of the pair's baseline; sigma
    is evaluated at the target point y."""
    if model.mode == "empirical":
        raise DomainError("the empirical model has no closed-form density")
    if t <= 0:
        raise DomainError("t must be > 0")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    sig = np.asarray(pair.sigma(t, y_arr), dtype=float)
    scale = t ** (1.0 / model.law.alpha) * sig ** (1.0 / model.law.alpha)
    vals = density_grid(model.law, (y_arr - pair.x0) / scale) / scale
    return float(vals[0]) if np.ndim(y) == 0 else vals


# ---------------------------------------------------------------------------
# coefficient distances
# ---------------------------------------------------------------------------

def _space_integral(model: DensityModel, pair: CoefficientPair, t: float, gap_fn) -> float:
    """int gap(y) p0_t(x0, y) dy over an expanding window + tail estimate.
    The density on each window is memoized on the model for the pair, so
    distance_B and distance_S of one pair evaluate it once."""
    densities = model._shared(pair, dict)
    a = model.law.alpha
    x0 = pair.x0
    sig0 = float(np.asarray(pair.sigma(t, np.array([x0])))[0])
    scale = t ** (1.0 / a) * sig0 ** (1.0 / a)
    Z = max(10.0, _SPACE_REL_TOL ** (-1.0 / a))
    for _ in range(3):
        R = Z * scale
        edges = np.concatenate([-np.geomspace(R, 1e-4 * scale, 140), [0.0],
                                np.geomspace(1e-4 * scale, R, 140)]) + x0
        nodes, wts = panel_nodes(np.sort(edges), order=12)
        density = densities.get((t, Z))
        if density is None:
            density = densities[(t, Z)] = frozen_density(model, pair, t, nodes)
        body = float(np.sum(gap_fn(nodes) * density * wts))
        gap_far = max(float(gap_fn(np.array([x0 + R]))[0]),
                      float(gap_fn(np.array([x0 - R]))[0]))
        tail = 2.0 * gap_far * stable_tail_mass(model.law, Z * 0.8)
        if tail <= _SPACE_REL_TOL * max(body, 1e-300) or gap_far == 0.0:
            return body + tail
        Z *= 4.0
    return body + tail


def _gap_powers(pair: CoefficientPair, alpha: float) -> tuple:
    """(gap, power) of distance_B and of distance_S."""
    return (pair.drift_gap, 1.0), (pair.jump_gap, alpha)


def _empirical_averages(pair: CoefficientPair, model: DensityModel) -> list:
    """The baseline-path averages of both entries of _gap_powers, from one
    single-leg run whose step values of b and sigma the gaps reuse: the
    first empirical distance of a pair on a model simulates once for both,
    and the second reuses the run."""
    (drift_gap, p_b), (jump_gap, p_s) = _gap_powers(pair, model.law.alpha)
    return model._shared(pair, lambda: simulate_baseline_average(
        model.sim_config, pair, model.law,
        [lambda t, x, b, s: drift_gap(t, x, b) ** p_b,
         lambda t, x, b, s: jump_gap(t, x, s) ** p_s]))


@np.errstate(over="ignore", invalid="ignore")
def _distance_weighted(pair: CoefficientPair, model: DensityModel, T: float,
                       time_nodes: int, which: int) -> float:
    """Time-space integral of entry `which` of _gap_powers against the model
    density on time_nodes intervals graded by alpha, or its baseline-path
    average in empirical mode, where T must be the simulated horizon; a
    power that overflows gives inf, unwarned."""
    if T <= 0:
        raise DomainError("T must be > 0")
    if model.mode == "empirical":
        if T != model.sim_config.T:
            raise DomainError(f"empirical distances average over the simulated "
                              f"horizon sim.T={model.sim_config.T:g}, got T={T:g}")
        return _empirical_averages(pair, model)[which]
    gap, power = _gap_powers(pair, model.law.alpha)[which]
    nodes = _time_grid(T, model.law.alpha, time_nodes)
    vals = np.empty_like(nodes)
    # s -> 0 limit: the frozen density concentrates unit mass at x0
    vals[0] = gap(0.0, np.array([pair.x0]))[0] ** power
    for j, s in enumerate(nodes[1:], start=1):
        vals[j] = _space_integral(model, pair, s, lambda y, s_=s: gap(s_, y) ** power)
    return float(np.trapezoid(vals, nodes))


def distance_B(pair: CoefficientPair, model: DensityModel, T: float,
               time_nodes: int = 24) -> float:
    """Time-space integral of the drift gap |b(y) - b_tilde(s, y)| against
    the model density (equivalently, in empirical mode, the Monte Carlo
    average of the gap along baseline paths)."""
    return _distance_weighted(pair, model, T, time_nodes, 0)


def distance_S(pair: CoefficientPair, model: DensityModel, T: float,
               time_nodes: int = 24) -> float:
    """Jump-coefficient distance: the alpha-integral of
    |sigma(y) - sigma_tilde(s, y)| against the model density, to the power
    1/alpha."""
    raw = _distance_weighted(pair, model, T, time_nodes, 1)
    return raw ** (1.0 / model.law.alpha)


def check_sup_args(variant: str, window, x0: float) -> tuple:
    """The sup window: window as written, or x0 -+ 10 when it is None.
    Rejects an unknown sup-distance variant, a window that is not (lo, hi)
    with lo < hi and a finite width (an empty window is rejected like any
    other), and an x0 so large that x0 -+ 10 is a point."""
    if variant not in ("time_integral", "time_sup"):
        raise DomainError(f"unknown sup-distance variant {variant!r}")
    if window is None:
        if not x0 - 10.0 < x0 + 10.0:
            raise DomainError(f"the default sup window x0 -+ 10 is a point at x0={x0}; "
                              f"set distances.sup_window")
        return (x0 - 10.0, x0 + 10.0)
    if len(window) != 2 or not 0.0 < float(window[1]) - float(window[0]) < np.inf:
        raise DomainError(f"sup window must be (lo, hi) with lo < hi and a finite "
                          f"width hi - lo, got {window}")
    return tuple(window)


@np.errstate(over="ignore")
def _sup_distance(T: float, gap, power: float, variant: str, window: tuple,
                  n_points: int) -> float:
    lo, hi = window
    ys = np.linspace(lo, hi, n_points)
    ts = np.linspace(0.0, T, _SUP_TIME_NODES)
    sup_t = np.array([float(np.max(gap(t, ys))) for t in ts])
    if variant == "time_sup":
        return float(np.max(sup_t))
    return float(np.trapezoid(sup_t ** power, ts)) ** (1.0 / power)


def distance_B_sup(pair: CoefficientPair, T: float, *,
                   variant: str = "time_integral", window: tuple | None = None,
                   n_points: int = 10001) -> float:
    """Sup-norm drift distance: either int_0^T ||b - b_tilde(s,.)||_inf ds or
    sup_t ||..||_inf, the sup taken over a declared compact window."""
    window = check_sup_args(variant, window, pair.x0)
    return _sup_distance(T, pair.drift_gap, 1.0, variant, window, n_points)


def distance_S_sup(pair: CoefficientPair, alpha: float, T: float, *,
                   variant: str = "time_integral", window: tuple | None = None,
                   n_points: int = 10001) -> float:
    """Sup-norm jump distance: (int_0^T ||.||_inf^alpha ds)^(1/alpha) or
    sup_t ||.||_inf."""
    window = check_sup_args(variant, window, pair.x0)
    return _sup_distance(T, pair.jump_gap, alpha, variant, window, n_points)

