"""The driving symmetric alpha-stable law.

Normalization: the law of Z_1 has characteristic function exp(-|u|^alpha),
which is exactly the process generated by the jump measure
c_alpha |z|^(-1-alpha) dz with c_alpha = Gamma(alpha+1) sin(alpha pi/2) / pi.
With this convention the density, the sampler, and the generator are
mutually consistent: the generator applied to cos(u x) returns
-|u|^alpha cos(u x), and the first-order tail of the density is
c_alpha |x|^(-1-alpha).

Generator route: L f(x) is the integral of f''(x + t) against the weight
c_alpha/(alpha(alpha-1)) |t|^(1-alpha), for C^2 f whose f'' is absolutely
integrable against that weight. cos is no such f; its symbol is checked by
an independent second-difference quadrature kept with the tests.

Density route: g(x) = (1/pi) * int_0^inf cos(x t) exp(-t^alpha) dt by
oscillatory-weight quadrature for moderate |x|, switching to the power-law
tail series beyond the oscillatory cutoff. The tail series is asymptotic
for alpha in (1,2) but its terms keep decreasing far past any tolerance at
the cutoffs used here; truncation is at the smallest term. The series takes
an array of points: its coefficients are cached per alpha, all points' terms
are built in one broadcast, and each point's truncated sum is a plain sum of
its own terms, so the values are bitwise those of a per-point evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.special import gammaln

from .errors import DomainError, NumericError
from .parallel import map_interleaved
from .quadrature import QuadratureSpec, graded_edges, panel_nodes, refine_edges
from .rng import RngStream

_TAIL_KMAX = 80
_MASS_WINDOW = 100.0    # density_total_mass integrates g over [-R, R] with this R


@dataclass(frozen=True)
class StableLaw:
    """Symmetric alpha-stable law, alpha strictly inside (1, 2).

    c_alpha is the jump-measure constant; big_C_alpha is the constant in the
    generator image of the mollified distance function,
    L u_{delta,eps} = big_C_alpha * psi (see mollifier module). Every law
    shares one density_quadrature.
    """

    alpha: float
    c_alpha: float
    big_C_alpha: float
    density_quadrature: ClassVar[QuadratureSpec] = QuadratureSpec()

    @property
    def t_max(self) -> float:
        # exp(-t^alpha) < 1e-18 beyond this point
        return (18.0 * math.log(10.0)) ** (1.0 / self.alpha)


def make_stable_law(alpha: float) -> StableLaw:
    """Build the law; rejects alpha outside the open interval (1, 2)."""
    alpha = float(alpha)
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"alpha must lie strictly in (1, 2), got {alpha}")
    c_alpha = math.gamma(alpha + 1.0) * math.sin(alpha * math.pi / 2.0) / math.pi
    big_c = -2.0 * math.gamma(alpha) * math.cos(alpha * math.pi / 2.0)
    return StableLaw(alpha=alpha, c_alpha=c_alpha, big_C_alpha=big_c)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

class _ExpMemo(dict):
    """t -> exp(-t^alpha), each value computed once by the expression
    math.exp(-t ** alpha) and kept under the exact float t. QUADPACK bisects
    [0, t_max] alike for every x, so the density quadratures of one alpha
    share under a thousand distinct abscissae; `__getitem__` is their
    integrand."""

    def __init__(self, alpha: float):
        super().__init__()
        self.alpha = alpha

    def __missing__(self, t):
        val = self[t] = math.exp(-t ** self.alpha)
        return val


# one memo per alpha, shared by every density quadrature at that alpha
_exp_memo = lru_cache(maxsize=8)(_ExpMemo)


def _density_quad(law: StableLaw, x: float) -> float:
    spec = law.density_quadrature
    weight = {} if x == 0.0 else {"weight": "cos", "wvar": abs(x)}
    out = integrate.quad(_exp_memo(law.alpha).__getitem__, 0.0, law.t_max,
                         epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                         limit=spec.max_subdivisions, full_output=1, **weight)
    val, err = out[0], out[1]
    if len(out) > 3:
        raise NumericError(f"density quadrature did not converge at x={x}: {out[3]}",
                           estimate=val / math.pi, error_bound=err / math.pi)
    if err > max(spec.abs_tol * 50.0, spec.rel_tol * abs(val) * 50.0):
        raise NumericError(f"density quadrature error {err:.2e} too large at x={x}",
                           estimate=val / math.pi, error_bound=err / math.pi)
    return val / math.pi


@lru_cache(maxsize=8)
def _tail_rows(alpha: float):
    """(k alpha + 1, log|coefficient|, sign) of the tail-series terms
    k = 1.._TAIL_KMAX, read-only:

    g(x) = (1/pi) sum_k (-1)^(k+1) Gamma(k alpha + 1)/k! sin(k alpha pi/2) x^(-k alpha - 1)
    """
    k = np.arange(1, _TAIL_KMAX + 1, dtype=float)
    s = np.sin(k * alpha * np.pi / 2.0)
    logmag = gammaln(k * alpha + 1.0) - gammaln(k + 1.0) + np.log(np.abs(s) + 1e-300)
    sign = np.where(k % 2 == 1, 1.0, -1.0) * np.sign(s)
    rows = (k * alpha + 1.0, logmag, sign)
    for r in rows:
        r.flags.writeable = False
    return rows


def _truncated_series(law: StableLaw, x, powers, shift=None):
    """(1/pi) sum_k sign_k exp(logmag_k - powers_k log|x| - shift_k) over the
    tail-series terms of _tail_rows (shift None: no shift), one row of terms
    per point, truncated per point at its smallest term. Raises NumericError
    for the first point whose truncation error exceeds the tolerance. A
    scalar x gives a float."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    _, logmag, sign = _tail_rows(law.alpha)
    # math.log, not np.log: the two differ in the last bit on a few arguments
    logx = np.array([math.log(v) for v in np.abs(xs).tolist()])
    exponent = logmag - powers * logx[:, None]
    if shift is not None:
        exponent -= shift
    terms = sign * np.exp(exponent)
    mags = np.abs(terms)
    stop = np.argmin(mags, axis=1) + 1
    sums = np.empty(xs.size)
    # one np.sum per truncation length over contiguous rows keeps each
    # point's summation order that of a 1-D sum of its own terms
    for s in np.unique(stop):
        rows = stop == s
        sums[rows] = np.sum(terms[rows, :s], axis=1)
    val = sums / math.pi
    err = mags[np.arange(xs.size), np.minimum(stop, _TAIL_KMAX - 1)] / math.pi
    _require_converged(law, xs, val, err)
    return float(val[0]) if np.ndim(x) == 0 else val


def _density_series(law: StableLaw, x):
    """Tail series of g at |x|, the term k carrying |x|^(-k alpha - 1)."""
    return _truncated_series(law, x, _tail_rows(law.alpha)[0])


def _require_converged(law: StableLaw, xs, val, err):
    """Raise NumericError at the first point whose truncation error (the
    first omitted term) exceeds max(1e-8 |value|, abs_tol)."""
    xs, val, err = np.atleast_1d(xs, val, err)
    scaled = 1e-8 * np.abs(val)
    bad = np.nonzero(err > np.where(scaled > law.density_quadrature.abs_tol,
                                    scaled, law.density_quadrature.abs_tol))[0]
    if bad.size:
        i = bad[0]
        raise NumericError(f"tail series not converged at x={xs[i]}",
                           estimate=float(val[i]), error_bound=float(err[i]))


def stable_density(law: StableLaw, x: float) -> float:
    """Probability density of Z_1 at the scalar x, by the oscillatory
    quadrature up to the cutoff and the tail series beyond; density_grid
    evaluates arrays."""
    ax = abs(float(x))
    if ax <= law.density_quadrature.oscillatory_cutoff:
        return _density_quad(law, ax)
    return _density_series(law, ax)


def stable_tail_mass(law: StableLaw, x: float) -> float:
    """P(Z_1 > x) for x above the oscillatory cutoff: the density's tail
    series integrated term by term (power -k alpha, a 1/(k alpha) factor),
    truncated at its smallest term. Raises NumericError when the truncation
    error exceeds the tolerance of the density's tail series."""
    if x <= 0:
        raise DomainError("tail mass defined for x > 0")
    ka = np.arange(1, _TAIL_KMAX + 1, dtype=float) * law.alpha
    return _truncated_series(law, x, ka, np.log(ka))


def density_total_mass(law: StableLaw) -> float:
    """int_{-R}^{R} g plus the first-order analytic tail 2 c_alpha R^(-alpha)/alpha."""
    spec = law.density_quadrature
    cut = spec.oscillatory_cutoff
    body, _ = integrate.quad(lambda y: stable_density(law, y), 0.0, cut,
                             epsabs=1e-11, epsrel=1e-11, limit=spec.max_subdivisions)
    tail_body, _ = integrate.quad(lambda y: stable_density(law, y), cut, _MASS_WINDOW,
                                  epsabs=1e-12, epsrel=1e-11,
                                  limit=spec.max_subdivisions)
    analytic_tail = law.c_alpha * _MASS_WINDOW ** (-law.alpha) / law.alpha
    return 2.0 * (body + tail_body + analytic_tail)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def density_envelope(law: StableLaw, x):
    """The power-law envelope G(x) = (|x| v 1)^(-1-alpha)."""
    ax = np.maximum(np.abs(np.asarray(x, dtype=float)), 1.0)
    out = ax ** (-1.0 - law.alpha)
    return float(out) if np.ndim(x) == 0 else out


def envelope_comparability_check(law: StableLaw, grid):
    """Empirical two-sided comparability constants min/max of g/G over the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("comparability check needs a non-empty grid")
    dens = density_grid(law, grid)
    ratio = dens / density_envelope(law, grid)
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# fast vectorized density (spline-backed) for the measure integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _density_spline(alpha: float):
    law = make_stable_law(alpha)
    cut = law.density_quadrature.oscillatory_cutoff
    z = np.concatenate([np.linspace(0.0, 2.0, 801), np.linspace(2.0, cut, 1601)[1:]])
    vals = map_interleaved(
        lambda zs: np.array([_density_quad(law, zi) for zi in zs]), z)
    return CubicSpline(z, vals)


def density_grid(law: StableLaw, x) -> np.ndarray:
    """Vectorized g evaluation: cubic-spline table inside the cutoff, tail
    series beyond. Accuracy ~1e-9; the scalar quadrature route stays the
    oracle-grade path. The table's quadratures run on forked workers
    (parallel.map_interleaved), one value per point, so its bits do not
    depend on the worker count."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(x)
    cut = law.density_quadrature.oscillatory_cutoff
    spline = _density_spline(law.alpha)
    out = np.empty_like(ax)
    inner = ax <= cut
    out[inner] = spline(ax[inner])
    if not inner.all():
        out[~inner] = _density_series(law, ax[~inner])
    return out


# ---------------------------------------------------------------------------
# sampling (Chambers-Mallows-Stuck, symmetric case)
# ---------------------------------------------------------------------------

def sample_increments(law: StableLaw, dt: float, n: int, stream: RngStream) -> np.ndarray:
    """n i.i.d. increments of Z over a step of length dt: dt^(1/alpha) * xi,
    xi standard symmetric alpha-stable; n is a count or a shape.

    Draws stream.uniform(n), then stream.exponential(n). The Euler engine
    calls it once per chunk of rows of a block, with the uniforms and the
    exponentials taken from two copies of the block's stream, the second
    starting where the block's uniforms end (RngStream.after_uniforms): the
    chunks then hold the numbers of one call over the whole block."""
    if dt <= 0:
        raise DomainError("dt must be > 0")
    a = law.alpha
    # Chambers-Mallows-Stuck,
    #   xi = sin(a theta) / cos(theta)^(1/a) * (cos((a-1) theta) / w)^((1-a)/a),
    # in three buffers: every operation takes the operands and order of the
    # expression as written, so the bits are those of evaluating it directly
    theta = stream.uniform(n)
    w = stream.exponential(n)
    np.subtract(theta, 0.5, out=theta)
    np.multiply(np.pi, theta, out=theta)
    xi = np.multiply(a - 1.0, theta)
    np.cos(xi, out=xi)
    np.divide(xi, w, out=w)
    w **= (1.0 - a) / a
    np.multiply(a, theta, out=xi)
    np.sin(xi, out=xi)
    np.cos(theta, out=theta)
    theta **= 1.0 / a
    np.divide(xi, theta, out=xi)
    np.multiply(xi, w, out=xi)
    np.multiply(dt ** (1.0 / a), xi, out=xi)
    return xi


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def generator_apply(law: StableLaw, f2, x: float, breakpoints=()) -> float:
    """The generator L_alpha applied to f at x, from f's second derivative:

        L f(x) = c_alpha/(alpha(alpha-1)) * int f''(x+t) |t|^(1-alpha) dt.

    Exact for C^2 f whose f'' is absolutely integrable against |t|^(1-alpha)
    (both boundary terms of the double integration by parts then vanish);
    f2 is f'' and must accept numpy arrays. Integrating f'' rather than the
    second difference of f keeps rounding from being amplified by the jump
    kernel's y^(-1-alpha) near y = 0.

    On the two segments adjacent to t = 0 the substitution t = v^(1/(2-a))
    absorbs the weight singularity exactly (the transformed weight is the
    constant 1/(2-a)); elsewhere the weight is analytic and graded
    Gauss-Legendre panels resolve the features announced via breakpoints.
    """
    x = float(x)
    a = law.alpha
    tf = 60.0 * (1.0 + abs(x))
    brk = sorted({float(b) - x for b in breakpoints} | {0.0})
    seg = np.array([-tf] + [b for b in brk if -tf < b < tf] + [tf])

    def seg_edges(lo, hi):
        width = hi - lo
        e = np.unique(np.concatenate([
            graded_edges(lo, hi, toward=lo, n_levels=34, ratio=0.55),
            graded_edges(lo, hi, toward=hi, n_levels=34, ratio=0.55)]))
        return refine_edges(e, max_width=max(width / 8.0, 1e-12))

    q = 1.0 / (2.0 - a)
    total = 0.0
    for lo, hi in zip(seg[:-1], seg[1:]):
        if lo == 0.0 or hi == 0.0:
            sgn = 1.0 if lo == 0.0 else -1.0
            v_hi = (hi if lo == 0.0 else -lo) ** (2.0 - a)
            nodes, wts = panel_nodes(seg_edges(0.0, v_hi), order=24)
            vals = np.asarray(f2(x + sgn * nodes ** q))
            total += float(np.sum(vals * wts)) / (2.0 - a)
        else:
            nodes, wts = panel_nodes(seg_edges(lo, hi), order=24)
            vals = np.asarray(f2(x + nodes))
            total += float(np.sum(vals * np.abs(nodes) ** (1.0 - a) * wts))
    # tails beyond +-tf via inversion t = 1/s; the lower edge is 1e-9 for |x| <= 15
    s_edges = np.geomspace(min(1e-9, 1e-6 / tf), 1.0 / tf, 24)
    nodes, wts = panel_nodes(s_edges, order=24)
    for sgn in (1.0, -1.0):
        vals = np.asarray(f2(x + sgn / nodes))
        total += float(np.sum(vals * nodes ** (a - 3.0) * wts))
    return law.c_alpha / (a * (a - 1.0)) * total
