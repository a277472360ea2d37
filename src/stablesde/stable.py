"""The driving symmetric alpha-stable law.

Normalization: the law of Z_1 has characteristic function exp(-|u|^alpha),
which is exactly the process generated by the jump measure
c_alpha |z|^(-1-alpha) dz with c_alpha = Gamma(alpha+1) sin(alpha pi/2) / pi.
With this convention the density, the sampler, and the generator are
mutually consistent: the generator applied to cos(u x) returns
-|u|^alpha cos(u x), and the first-order tail of the density is
c_alpha |x|^(-1-alpha).

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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.special import gammaln

from .errors import DomainError, NumericError
from .quadrature import QuadratureSpec, graded_edges, panel_nodes, refine_edges
from .rng import RngStream

_TAIL_KMAX = 80
_MASS_WINDOW = 100.0    # density_total_mass integrates g over [-R, R] with this R


@dataclass(frozen=True)
class StableLaw:
    """Symmetric alpha-stable law, alpha strictly inside (1, 2).

    c_alpha is the jump-measure constant; big_C_alpha is the constant in the
    generator image of the mollified distance function,
    L u_{delta,eps} = big_C_alpha * psi (see mollifier module).
    """

    alpha: float
    c_alpha: float
    big_C_alpha: float
    density_quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

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
# density / cdf
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
    integrand = _exp_memo(law.alpha).__getitem__
    if x == 0.0:
        val, err = integrate.quad(integrand, 0.0, law.t_max,
                                  epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                                  limit=spec.max_subdivisions)
    else:
        out = integrate.quad(integrand, 0.0, law.t_max,
                             weight="cos", wvar=abs(x),
                             epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                             limit=spec.max_subdivisions, full_output=1)
        val, err = out[0], out[1]
        if len(out) > 3:
            raise NumericError(
                f"density quadrature did not converge at x={x}: {out[3]}",
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


def _density_series(law: StableLaw, x):
    """Tail series of g at |x|, one row of terms per point, truncated per
    point at its smallest term. Raises NumericError for the first point whose
    truncation error exceeds the tolerance. A scalar x gives a float."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(xs)
    kap1, logmag, sign = _tail_rows(law.alpha)
    # math.log, not np.log: the two differ in the last bit on a few arguments
    logx = np.array([math.log(v) for v in ax.tolist()])
    terms = sign * np.exp(logmag - kap1 * logx[:, None])
    mags = np.abs(terms)
    stop = np.argmin(mags, axis=1) + 1
    sums = np.empty(ax.size)
    # one np.sum per truncation length over contiguous rows keeps each
    # point's summation order that of a 1-D sum of its own terms
    for s in np.unique(stop):
        rows = stop == s
        sums[rows] = np.sum(terms[rows, :s], axis=1)
    val = sums / math.pi
    err = mags[np.arange(ax.size), np.minimum(stop, _TAIL_KMAX - 1)] / math.pi
    _require_converged(law, xs, val, err)
    return float(val[0]) if np.ndim(x) == 0 else val


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
    a = law.alpha
    if x <= 0:
        raise DomainError("tail mass defined for x > 0")
    _, logmag, sign = _tail_rows(a)
    ka = np.arange(1, _TAIL_KMAX + 1, dtype=float) * a
    logterm = logmag - ka * math.log(x) - np.log(ka)
    terms = sign * np.exp(logterm)
    mags = np.abs(terms)
    stop = int(np.argmin(mags)) + 1
    val = float(np.sum(terms[:stop])) / math.pi
    _require_converged(law, x, val, mags[min(stop, _TAIL_KMAX - 1)] / math.pi)
    return val


def stable_cdf(law: StableLaw, x) -> float:
    """CDF of Z_1: G(x) = 1/2 + (1/pi) int_0^inf sin(x t) exp(-t^alpha)/t dt."""
    if np.ndim(x) != 0:
        xs = np.asarray(x, dtype=float)
        return np.array([stable_cdf(law, xi) for xi in xs.ravel()]).reshape(xs.shape)
    x = float(x)
    if x == 0.0:
        return 0.5
    if x < 0.0:
        return 1.0 - stable_cdf(law, -x)
    a = law.alpha
    spec = law.density_quadrature
    if x > spec.oscillatory_cutoff:
        return 1.0 - stable_tail_mass(law, x)
    i1, e1 = integrate.quad(
        lambda t: math.sin(x * t) * math.exp(-t ** a) / t if t > 0 else x,
        0.0, 1.0, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions)
    out = integrate.quad(lambda t: math.exp(-t ** a) / t, 1.0, law.t_max,
                         weight="sin", wvar=x,
                         epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                         limit=spec.max_subdivisions, full_output=1)
    i2 = out[0]
    return 0.5 + (i1 + i2) / math.pi


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
def _density_spline(alpha: float, cutoff: float):
    law = make_stable_law(alpha)
    z = np.concatenate([np.linspace(0.0, 2.0, 801),
                        np.linspace(2.0, cutoff, 1601)[1:]])
    vals = np.array([_density_quad(law, zi) for zi in z])
    return CubicSpline(z, vals)


def density_grid(law: StableLaw, x) -> np.ndarray:
    """Vectorized g evaluation: cubic-spline table inside the cutoff, tail
    series beyond. Accuracy ~1e-9; the scalar quadrature route stays the
    oracle-grade path."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(x)
    cut = law.density_quadrature.oscillatory_cutoff
    spline = _density_spline(law.alpha, cut)
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

def _second_difference_route(law, f, x, f2, breakpoints):
    a = law.alpha
    spec = law.density_quadrature
    y0 = min(1e-4 * (1.0 + abs(x)), 0.5)
    if f2 is None:
        h = y0
        fxx = (f(x + h) - 2.0 * f(x) + f(x - h)) / h ** 2
    else:
        fxx = float(np.asarray(f2(x)).ravel()[0])
    # int_0^y0 f''(x) y^(1-alpha) dy; the dropped f'''' term is O(y0^(4-alpha))
    near = law.c_alpha * fxx * y0 ** (2.0 - a) / (2.0 - a)

    fx = f(x)

    def integrand(y):
        return (f(x + y) + f(x - y) - 2.0 * fx) * y ** (-1.0 - a)

    pts = sorted({abs(b - x) for b in breakpoints} | {abs(b + x) for b in breakpoints})
    y1 = 50.0
    y2 = 40.0 * y1
    mid_pts = [p for p in pts if y0 < p < 1.0]
    mid, e1 = integrate.quad(integrand, y0, 1.0, points=mid_pts or None,
                             epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                             limit=spec.max_subdivisions)
    far_pts = [p for p in pts if 1.0 < p < y1]
    far, e2 = integrate.quad(integrand, 1.0, y1, points=far_pts or None,
                             epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                             limit=spec.max_subdivisions)
    osc, e3 = integrate.quad(integrand, y1, y2, epsabs=spec.abs_tol,
                             epsrel=spec.rel_tol, limit=800)
    # beyond y2: the -2 f(x) part is analytic; the f(x +- y) part is either
    # integrated through the inversion map y = 1/s (smoothly growing f) or,
    # for oscillating bounded f, bounded and charged to the error budget
    rem = -2.0 * fx * y2 ** (-a) / a
    probe = np.array([f(x + s * y2) + f(x - s * y2) for s in (1.0, 2.0, 4.0, 8.0)])
    tame = np.all(np.diff(np.abs(probe)) >= 0) or np.all(np.diff(np.abs(probe)) <= 0)
    e4 = 0.0
    if tame and np.max(np.abs(probe)) > 1e-12:
        part, e4 = integrate.quad(
            lambda s: (f(x + 1.0 / s) + f(x - 1.0 / s)) * s ** (a - 1.0),
            1e-12, 1.0 / y2, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions)
        rem += part
    else:
        e4 = np.max(np.abs(probe)) * y2 ** (-a) / a
    total_err = (e1 + e2 + e3 + e4) * law.c_alpha
    val = near + law.c_alpha * (mid + far + osc + rem)
    if total_err > max(spec.abs_tol * 1e6, 2e-4 * (1.0 + abs(val))):
        raise NumericError("generator quadrature did not reach tolerance",
                           estimate=val, error_bound=total_err)
    return val


def _second_derivative_route(law, f2, x, breakpoints):
    """L f(x) = c_alpha/(alpha(alpha-1)) * int f''(x+t) |t|^(1-alpha) dt.

    Exact for C^2 f whose first derivative grows slower than |x|^(alpha-1)
    at infinity (both boundary terms of the double integration by parts
    vanish); f2 must accept numpy arrays.

    On the two segments adjacent to t = 0 the substitution t = v^(1/(2-a))
    absorbs the weight singularity exactly (the transformed weight is the
    constant 1/(2-a)); elsewhere the weight is analytic and graded
    Gauss-Legendre panels resolve the features announced via breakpoints.
    """
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
        if hi - lo <= 0:
            continue
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
    # tails beyond +-tf via inversion t = 1/s
    s_edges = np.geomspace(1e-9, 1.0 / tf, 24)
    nodes, wts = panel_nodes(s_edges, order=24)
    for sgn in (1.0, -1.0):
        vals = np.asarray(f2(x + sgn / nodes))
        total += float(np.sum(vals * nodes ** (a - 3.0) * wts))
    return law.c_alpha / (a * (a - 1.0)) * total


def generator_apply(law: StableLaw, f, x: float, *, f2=None, breakpoints=(),
                    method: str = "second_difference") -> float:
    """Numerical value of the generator L_alpha applied to f at x.

    f must be evaluable near x with at most linear growth. The default route
    integrates the symmetrized second difference of f against the jump
    kernel, with a Taylor replacement below y0 = 1e-4 (1+|x|). The
    "second_derivative" route needs a vectorized second derivative f2 and is
    the preferred path when f'' is cheap and decaying (used for the
    mollified-distance identity check, where amplification of rounding by
    y^(-1-alpha) would otherwise dominate).
    """
    if method == "second_derivative":
        if f2 is None:
            raise DomainError("second_derivative route requires f2")
        return _second_derivative_route(law, f2, float(x), breakpoints)
    if method != "second_difference":
        raise DomainError(f"unknown generator method {method!r}")
    return _second_difference_route(law, f, float(x), f2, breakpoints)
