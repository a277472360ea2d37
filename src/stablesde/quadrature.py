"""Panel quadrature helpers and the shared QuadratureSpec configuration.

scipy's QUADPACK is used for one-off adaptive integrals elsewhere; the
helpers here provide deterministic fixed-mesh Gauss-Legendre rules that
vectorize over numpy arrays, which is what the mollifier evaluators and
the generator quadratures need inside hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrals of the stable law.

    oscillatory_cutoff is the |x| beyond which the stable density switches
    from cosine-transform quadrature to the power-law tail series.
    """

    max_subdivisions: int = 200
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    oscillatory_cutoff: float = 20.0


@lru_cache(maxsize=16)
def gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def kept_panels(lo, hi):
    """Mask of the panels (lo, hi) to integrate over. Zero-width panels (from
    duplicated breakpoints) are dropped so that no node can land exactly on
    an endpoint singularity."""
    return (hi - lo) > 1e-15 * np.maximum(1.0, np.abs(lo))


def panel_rule(lo, hi, order: int):
    """Gauss-Legendre nodes and weights of the panels (lo, hi), one row per
    panel."""
    gx, gw = gauss_legendre(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * gx[None, :], half[:, None] * gw[None, :]


def panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights for the kept panels between consecutive
    `edges`, flattened panel by panel."""
    edges = np.asarray(edges, dtype=float)
    keep = kept_panels(edges[:-1], edges[1:])
    nodes, weights = panel_rule(edges[:-1][keep], edges[1:][keep], order)
    return nodes.ravel(), weights.ravel()


def graded_fracs(n_levels: int, ratio: float) -> np.ndarray:
    """0 followed by ratio**n_levels, ..., ratio, 1: the edge fractions of
    graded_edges."""
    return np.concatenate([[0.0], ratio ** np.arange(n_levels, -1, -1.0)])


def graded_edges(a: float, b: float, toward: float, n_levels: int,
                 ratio: float) -> np.ndarray:
    """Panel edges on [a, b] geometrically graded toward the endpoint `toward`.

    Used to resolve endpoint singularities of |x - y|^(alpha-2) kernels; the
    finest panel has width ~ (b-a) * ratio**n_levels. Needs a < b.
    """
    fracs = graded_fracs(n_levels, ratio)
    if toward <= a:
        return a + (b - a) * fracs
    return np.sort(b - (b - a) * fracs)


def refine_edges(edges: np.ndarray, max_width: float) -> np.ndarray:
    """Subdivide panels wider than max_width uniformly."""
    out = [edges[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = hi - lo
        if w > max_width:
            k = int(np.ceil(w / max_width))
            out.extend(np.linspace(lo, hi, k + 1)[1:])
        else:
            out.append(hi)
    return np.array(out)


def ols_loglog(x: np.ndarray, y: np.ndarray):
    """OLS fit of log y against log x.

    Returns (slope, intercept, slope_se). Requires at least 3 points for a
    finite standard error; callers enforce their own minimum counts.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise DomainError("log-log fit needs at least two matching points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("log-log fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    n = lx.size
    mx = lx.mean()
    sxx = np.sum((lx - mx) ** 2)
    if sxx == 0:
        raise DomainError("log-log fit needs distinct x values")
    slope = np.sum((lx - mx) * (ly - ly.mean())) / sxx
    intercept = ly.mean() - slope * mx
    if n > 2:
        resid = ly - (intercept + slope * lx)
        s2 = np.sum(resid ** 2) / (n - 2)
        slope_se = float(np.sqrt(s2 / sxx))
    else:
        slope_se = float("inf")
    return float(slope), float(intercept), slope_se
