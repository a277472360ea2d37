"""Independent references that the tests check the package against.

second_difference_route computes the generator L_alpha f(x) from f itself:
the symmetrized second difference of f integrated against the jump kernel
c_alpha y^(-1-alpha), with a Taylor replacement below y0 = 1e-4 (1 + |x|).
It needs no f'' and no decay of f, so it reaches cos, whose symbol
L cos(u .)(x) = -|u|^alpha cos(u x) fixes the normalization; the package's
generator_apply integrates f'' instead and is compared with it.

stable_cdf is the CDF of Z_1 by a sine-weight quadrature, spliced to the
package's tail mass beyond the oscillatory cutoff.

u_spline evaluates the smoothed distance u fast, the way the package does
u' and u'': a cubic spline through u_exact on the master grid inside the
far-field switch, the moment series outside. The package reads u only
through u_exact, so its cache holds no u spline.
"""

import math

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from stablesde.errors import NumericError
from stablesde.stable import StableLaw, stable_tail_mass


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


def u_spline(s):
    """A fast u(x) of the SmoothedDistance s: a cubic spline through
    s.u_exact on s's master grid for |x| <= s.far_switch, s.u_exact beyond."""
    grid = s._master_grid()
    spline = CubicSpline(grid, s.u_exact(grid))

    def u(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = spline(xs)
        far = np.abs(xs) > s.far_switch
        out[far] = s.u_exact(xs[far])
        return float(out[0]) if np.ndim(x) == 0 else out

    return u


def second_difference_route(law, f, x, f2=None, breakpoints=()):
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
