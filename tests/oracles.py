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

u_second_adaptive is u'' of the smoothed distance by adaptive QUADPACK
quadrature, the kernel's singularity at y = x carried by an algebraic weight,
against which the package's graded-panel near field is checked.

comparability_band fits the bracket [m, M] of the empirical-to-frozen ratio
of the drift distance B on calibration pairs and checks held-out pairs fall
inside it: the true density lies within [m, M] p0.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from stablesde.errors import DomainError, NumericError
from stablesde.measures import DensityModel, distance_B
from stablesde.simulate import SimConfig
from stablesde.stable import StableLaw, stable_tail_mass

_BAND_SLACK = 0.25      # comparability_band widening for Monte Carlo noise


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


def u_second_adaptive(m, x: float) -> float:
    """u''(x) = (alpha-1) int psi'(y) sign(x-y) |x-y|^(alpha-2) dy for the
    Mollifier m and x inside its support, by QUADPACK: split at y = x, the
    piece next to x on either side carries |x-y|^(alpha-2) as weight="alg",
    and the ramp ends of psi break the rest."""
    a = m.alpha
    lo, hi = m.support
    rl, rh = m.ramp_widths
    if not lo < x < hi:
        raise ValueError("x must lie inside the mollifier support")

    def dpsi(y):
        return float(m.psi_and_prime(y)[1][0])

    ends = [lo, lo + rl, hi - rh, hi]
    left = [e for e in ends if e < x] + [x]
    right = [x] + [e for e in ends if e > x]
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
    total = 0.0
    for sgn, cuts in ((1.0, left), (-1.0, right)):
        for p, q in zip(cuts[:-1], cuts[1:]):
            if x in (p, q):
                wvar = (0.0, a - 2.0) if q == x else (a - 2.0, 0.0)
                part = integrate.quad(dpsi, p, q, weight="alg", wvar=wvar, **opts)[0]
            else:
                part = integrate.quad(lambda y: dpsi(y) * abs(x - y) ** (a - 2.0),
                                      p, q, **opts)[0]
            total += sgn * part
    return (a - 1.0) * total


@dataclass
class BandFit:
    ratios_fit: list
    ratios_held_out: list
    m: float
    M: float
    passes: bool


def comparability_band(pairs_fit, pairs_check, law: StableLaw, T: float,
                       sim_config: SimConfig) -> BandFit:
    """Fit the density-bracketing band from calibration members and verify
    held-out members fall inside it.

    For each perturbation member the ratio empirical-B / frozen-B estimates
    where the true density sits inside [m, M] p0. The band is fitted once
    per coefficient pair (spread of the calibration ratios, slack-widened
    for Monte Carlo noise) and must satisfy 0 < m <= M < 10.
    """
    frozen = DensityModel(mode="frozen_plain", law=law)

    def ratio(pair, index):
        b_frozen = distance_B(pair, frozen, T)
        cfg = replace(sim_config,
                      stream_label=f"{sim_config.stream_label}-{index}")
        emp = DensityModel(mode="empirical", law=law, sim_config=cfg)
        b_emp = distance_B(pair, emp, T)
        if b_frozen <= 0:
            raise DomainError("frozen-mode distance vanished; cannot form ratio")
        return b_emp / b_frozen

    fit = [ratio(p, i) for i, p in enumerate(pairs_fit)]
    held = [ratio(p, i + len(pairs_fit)) for i, p in enumerate(pairs_check)]
    m = min(fit) / (1.0 + _BAND_SLACK)
    M = max(fit) * (1.0 + _BAND_SLACK)
    ok = (0.0 < m <= M < 10.0) and all(m <= r <= M for r in held)
    return BandFit(ratios_fit=fit, ratios_held_out=held, m=m, M=M,
                   passes=bool(ok))
