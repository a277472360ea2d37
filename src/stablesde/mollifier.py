"""Mollified distance function machinery.

The mollifier psi is a smooth probability density supported on
[eps/delta, eps], capped pointwise by 2/(x log delta). Construction: the
base profile 1/(x log delta) integrates to exactly 1 over the support, and
is multiplied by a C-infinity window (exp(-1/t) transitions) that equals 1
away from the endpoints; rescaling by the lost window mass keeps the
integral at 1 while the cap has factor-2 headroom.

The smoothed distance u = |.|^(alpha-1) * psi and its derivatives are
evaluated by graded-panel Gauss-Legendre quadrature near the support and by
a binomial moment expansion in the far field (|x| > 3 eps); the near-field
quadrature runs on batches of points, evaluates psi and psi' once per
distinct panel, both from one pass over the window ramps per node, with the
exponentials run only where a ramp is not flat (Mollifier.psi_and_prime),
and integrates only the columns of u, u', u'' that its caller reads (see
SmoothedDistance._near_values). The spline cache holds u' and u'' only: u
itself is read only where it is certified, through the exact evaluator. Its
grid points, and then the thetas of certify_komatsu, are split over forked
workers (parallel.map_interleaved); each value is computed from its own
point, so they have the same bits for any worker count. In the far field

    E|x - Y|^p = |x|^p * sum_k C(p, k) (-sgn x)^k E[Y^k] |x|^{-k},  Y ~ psi.

Since psi is one-sided, u is not even: u'(0) = -(alpha-1) E[Y^(alpha-2)] < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import binom

from .errors import ConstructionError, DomainError
from .parallel import map_interleaved
from .quadrature import graded_edges, graded_fracs, kept_panels, panel_nodes, panel_rule
from .report import CheckRow, Report
from .stable import StableLaw, generator_apply

_N_FAR_TERMS = 22
_EPS_MAX = float(np.finfo(float).max) ** (1.0 / (_N_FAR_TERMS - 1))   # E[Y^k] <= eps^k
_NEAR_ORDER = 18    # Gauss-Legendre nodes per near-field panel
_NEAR_BATCH = 4     # points per near-field batch: ~10k nodes, so each array stays in cache
_SHAPE_POINTS = 2001        # grid of the psi cap and sign checks, endpoints dropped
_BOUND_SLACK = 1e-3         # relative slack of the sandwich and u' cap checks
_KOMATSU_REL_TOL = 1e-2     # generator identity where psi > 0
_KOMATSU_ABS_TOL = 1e-4     # generator identity where psi = 0


def _bump_exp(t):
    # fmax sends t <= 0 and NaN to 1e-300, whose exp(-1e300) is +0.0
    with np.errstate(under="ignore"):
        return np.exp(-1.0 / np.fmax(t, 1e-300))


def _smoothstep_pair(t):
    """C-infinity monotone 0->1 transition on [0, 1] and its derivative (0
    off (0, 1)), from one pair of exponentials."""
    tc = np.clip(t, 0.0, 1.0)
    fu = _bump_exp(tc)
    fv = _bump_exp(1.0 - tc)
    # at the clipped ends fu or fv is 0 and the quotient 0/0 is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (fu / tc ** 2 * fv + fu * (fv / (1.0 - tc) ** 2)) / (fu + fv) ** 2
    return fu / (fu + fv), np.where((t > 0.0) & (t < 1.0), slope, 0.0)


def _window_ramp(t):
    """_smoothstep_pair(t), with the exponentials run only where t is in
    (0, 1): elsewhere the pair is (1.0, 0.0) for t >= 1 and (0.0, 0.0) for
    t <= 0, the values the formula takes there (fu / (fu + 0.0) and
    0.0 / (0.0 + fv), with the slope masked)."""
    ramp = (t > 0.0) & (t < 1.0)
    value = np.where(t >= 1.0, 1.0, 0.0)
    slope = np.zeros_like(t)
    value[ramp], slope[ramp] = _smoothstep_pair(t[ramp])
    return value, slope


@dataclass(frozen=True)
class Mollifier:
    """Concrete psi_{delta,eps}: windowed 1/(x log delta) profile."""

    alpha: float
    eps: float
    delta: float
    rho: float
    psi_normalizer: float

    @property
    def support(self):
        return self.eps / self.delta, self.eps

    @property
    def ramp_widths(self):
        a, b = self.support
        return a * self.rho, b * self.rho

    def psi_and_prime(self, x):
        """psi(x) and psi'(x) as arrays, from one evaluation of the window
        ramps per point, and of their exponentials per point where they ramp."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a, b = self.support
        rl, rh = self.ramp_widths
        inside = (x > a) & (x < b)
        xm = np.where(inside, x, 0.5 * (a + b))
        sl, dl = _window_ramp((xm - a) / rl)
        sh, dh = _window_ramp((b - xm) / rh)
        window = sl * sh
        logd = math.log(self.delta)
        pv = np.where(inside, self.psi_normalizer * window / (xm * logd), 0.0)
        ppv = np.where(inside, self.psi_normalizer / logd
                       * ((dl / rl * sh - sl * dh / rh) / xm - window / xm ** 2), 0.0)
        return pv, ppv

    def psi(self, x):
        vals = self.psi_and_prime(x)[0]
        return float(vals[0]) if np.ndim(x) == 0 else vals

    def base_edges(self) -> np.ndarray:
        """Panel edges resolving the two window ramps and the flat middle."""
        a, b = self.support
        rl, rh = self.ramp_widths
        return np.unique(np.concatenate([
            np.linspace(a, a + rl, 13),
            np.linspace(a + rl, b - rh, 25),
            np.linspace(b - rh, b, 13)]))

    def moments(self) -> np.ndarray:
        nodes, wts = panel_nodes(self.base_edges(), order=24)
        pv = self.psi(nodes)
        return np.array([np.sum(pv * nodes ** k * wts) for k in range(_N_FAR_TERMS)])


def build_mollifier(alpha: float, eps: float, delta: float) -> Mollifier:
    """Construct psi with unit integral and the 2/(x log delta) cap.

    The window half-width fraction rho is searched over [1e-4, 0.2]; the
    cap holds iff the renormalizer stays <= 2, since the window never
    exceeds 1.
    """
    if eps <= 0:
        raise DomainError("eps must be > 0")
    if eps < 1e-6:
        raise DomainError("eps below 1e-6 rejected: cap/normalization would "
                          "hit floating-point underflow in the log delta scaling")
    if eps > _EPS_MAX:
        raise DomainError(f"eps above {_EPS_MAX:.3g} rejected: the far-field moments "
                          f"E[Y^k], k < {_N_FAR_TERMS}, would overflow a double")
    if delta <= 1:
        raise DomainError("delta must be > 1")
    if not (1.0 < alpha < 2.0):
        raise DomainError("alpha must lie strictly in (1, 2)")
    worst = None
    for r in (0.05, 0.02, 0.1, 0.01, 0.005, 0.15, 0.2, 1e-3, 1e-4):
        mass = float(Mollifier(alpha=alpha, eps=eps, delta=delta, rho=r,
                               psi_normalizer=1.0).moments()[0])
        normalizer = 1.0 / mass if mass > 0 else math.inf  # mass 0: no usable window
        if normalizer <= 2.0 * (1.0 - 1e-12):
            return Mollifier(alpha=alpha, eps=eps, delta=delta, rho=r,
                             psi_normalizer=normalizer)
        worst = normalizer
    raise ConstructionError(
        f"no window fraction in [1e-4, 0.2] keeps psi <= 2/(x log delta); "
        f"best normalizer {worst:.6f} > 2 (cap violated)")


class SmoothedDistance:
    """u = |.|^(alpha-1) * psi with batched evaluators for u, u', u''.

    Direct graded quadrature inside |x| <= 3 eps, moment series outside:
    the exact evaluators u_exact, u_prime_exact and u_second_exact. The
    cubic-spline cache behind u_prime and u_second, built lazily on the
    graded master grid, holds u' and u'' only; nothing in the package reads
    u often enough to need a spline of it.
    """

    def __init__(self, mollifier: Mollifier):
        self.mollifier = mollifier
        self.alpha = mollifier.alpha
        self.far_switch = 3.0 * mollifier.eps
        self._moments = mollifier.moments()
        self._base_edges = mollifier.base_edges()
        self._cache = None

    # -- far field ---------------------------------------------------------

    def _series_mean_pow(self, x, p):
        """E|x - Y|^p for |x| > far_switch, via the binomial moment series."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        ks = np.arange(_N_FAR_TERMS, dtype=float)
        coef = binom(p, ks) * self._moments
        signs = np.where(x[..., None] > 0, (-1.0) ** ks, 1.0)
        return ax ** p * np.sum(coef * signs * ax[..., None] ** (-ks), axis=-1)

    # -- near field (direct quadrature) -------------------------------------
    #
    # The quadrature mesh for u(x) is the base edges of the support, plus
    # edges graded toward x when x is inside the support, or toward the
    # nearer support end when x is outside but within one support width.
    # A point outside the support thus uses one of three fixed panel sets;
    # a point inside shares with the base mesh every base panel that its
    # graded edges do not split. psi and psi' are evaluated once per distinct
    # panel, together in one pass per node, and each point's sums run over
    # its own nodes in mesh order, so the values are those of a
    # panel-by-panel quadrature per point.

    @cached_property
    def _fixed_meshes(self):
        """(base, graded toward eps/delta, graded toward eps): the panel
        (lo, hi) bounds and, flattened, the nodes, weights, psi and psi' of
        each of the three meshes a point outside the support uses."""
        m = self.mollifier
        a, b = m.support
        meshes = []
        for extra in ((), (graded_edges(a, b, toward=a, n_levels=30, ratio=0.5),),
                      (graded_edges(a, b, toward=b, n_levels=30, ratio=0.5),)):
            edges = np.unique(np.concatenate((self._base_edges,) + extra))
            keep = kept_panels(edges[:-1], edges[1:])
            lo, hi = edges[:-1][keep], edges[1:][keep]
            nodes, wts = panel_rule(lo, hi, _NEAR_ORDER)
            meshes.append((lo, hi, nodes.ravel(), wts.ravel())
                          + m.psi_and_prime(nodes.ravel()))
        return tuple(meshes)

    def _kernel_terms(self, w, pv, ppv, wts, which):
        """The integrands named in which, in its order, at the offsets
        w = x - node: "u" of u, "up" of u'/(alpha-1), "upp" of u''/(alpha-1).
        Each power of |w| is taken only if a named integrand reads it."""
        absw = np.abs(w)
        if which != ("u",):
            k_up = np.sign(w) * absw ** (self.alpha - 2.0)
        return [pv * absw ** (self.alpha - 1.0) * wts if k == "u"
                else (pv if k == "up" else ppv) * k_up * wts for k in which]

    def _outside_values(self, xs, mesh, which):
        _, _, nodes, wts, pv, ppv = mesh
        terms = self._kernel_terms(xs[:, None] - nodes[None, :], pv, ppv, wts, which)
        return [np.sum(t, axis=1) for t in terms]

    def _inside_values(self, xs, which):
        a, b = self.mollifier.support
        base_lo, base_hi, _, _, base_pv, base_ppv = self._fixed_meshes[0]
        fracs = graded_fracs(40, 0.4)
        x = xs[:, None]
        # graded_edges(a, x, toward=x) and graded_edges(x, b, toward=x), row-wise
        edges = np.sort(np.concatenate([
            np.broadcast_to(self._base_edges, (xs.size, self._base_edges.size)),
            x - (x - a) * fracs, x + (b - x) * fracs], axis=1), axis=1)
        # a duplicated edge makes a zero-width panel, which is dropped here
        # exactly as np.unique would have removed it
        keep = kept_panels(edges[:, :-1], edges[:, 1:])
        lo, hi = edges[:, :-1][keep], edges[:, 1:][keep]
        j = np.minimum(np.searchsorted(base_lo, lo), base_lo.size - 1)
        shared = (base_lo[j] == lo) & (base_hi[j] == hi)
        nodes, wts = panel_rule(lo, hi, _NEAR_ORDER)
        pv = np.empty_like(nodes)
        ppv = np.empty_like(nodes)
        pv[shared] = base_pv.reshape(-1, _NEAR_ORDER)[j[shared]]
        ppv[shared] = base_ppv.reshape(-1, _NEAR_ORDER)[j[shared]]
        pv[~shared], ppv[~shared] = self.mollifier.psi_and_prime(nodes[~shared])
        sizes = _NEAR_ORDER * keep.sum(axis=1)
        w = np.repeat(xs, sizes) - nodes.ravel()
        terms = self._kernel_terms(w, pv.ravel(), ppv.ravel(), wts.ravel(), which)
        ends = np.cumsum(sizes)
        return np.array([[np.sum(t[end - n:end]) for end, n in zip(ends, sizes)]
                         for t in terms])

    def _near_values(self, xs: np.ndarray, which: tuple):
        """The columns named in which ("u", "up", "upp": u, u', u''), in its
        order, at each x by quadrature over the mollifier support."""
        xs = np.asarray(xs, dtype=float)
        a, b = self.mollifier.support
        inside = (a < xs) & (xs < b)
        d_a, d_b = np.abs(xs - a), np.abs(xs - b)
        near = np.minimum(d_a, d_b) < (b - a)
        mesh_of = np.where(inside, -1, np.where(near, np.where(d_a <= d_b, 1, 2), 0))
        out = np.empty((len(which), xs.size))
        for m in (-1, 0, 1, 2):
            idx = np.nonzero(mesh_of == m)[0]
            for i0 in range(0, idx.size, _NEAR_BATCH):
                sel = idx[i0:i0 + _NEAR_BATCH]
                if m < 0:
                    out[:, sel] = self._inside_values(xs[sel], which)
                else:
                    out[:, sel] = self._outside_values(xs[sel], self._fixed_meshes[m],
                                                       which)
        am1 = self.alpha - 1.0
        return tuple(col if k == "u" else am1 * col for k, col in zip(which, out))

    # -- cache ---------------------------------------------------------------

    def _master_grid(self) -> np.ndarray:
        a, b = self.mollifier.support
        rl, rh = self.mollifier.ramp_widths
        fs = self.far_switch
        fine = min(rl, rh) / 24.0
        pieces = [
            np.linspace(-fs, fs, 2401),
            np.arange(a - 12.0 * rl, b + 12.0 * rh, fine),
            np.linspace(-2.0 * a, 2.0 * a, 601),
            np.linspace(a - 60.0 * rl, b + 60.0 * rh, 2401),
        ]
        g = np.unique(np.concatenate(pieces))
        g = g[(g >= -fs) & (g <= fs)]
        # merge near-duplicates: colliding floats from different pieces would
        # give the spline nearly-zero-width intervals and wild derivatives
        keep = np.concatenate([[True],
                               np.diff(g) > 1e-10 * (1.0 + np.abs(g[:-1]))])
        return g[keep]

    def _ensure_cache(self):
        if self._cache is None:
            grid = self._master_grid()
            self._fixed_meshes      # built here once, not once per worker
            up, upp = map_interleaved(
                lambda xs: np.array(self._near_values(xs, ("up", "upp"))), grid)
            self._cache = {"up": CubicSpline(grid, up), "upp": CubicSpline(grid, upp)}
        return self._cache

    # -- public evaluators ----------------------------------------------------

    def _eval_batch(self, x0, which: str, exact: bool = False):
        """u, u' or u'' at x0, a float for a scalar x0."""
        x = np.atleast_1d(np.asarray(x0, dtype=float))
        out = np.empty_like(x)
        far = np.abs(x) > self.far_switch
        # the d-th derivative of E|x - Y|^p, p = alpha - 1, is
        # p (p - 1) ... (p - d + 1) sgn(x)^d E|x - Y|^(p - d)
        d = ("u", "up", "upp").index(which)
        p = self.alpha - 1.0
        out[far] = (math.prod(p - j for j in range(d)) * np.sign(x[far]) ** d
                    * self._series_mean_pow(x[far], p - d))
        near = ~far
        if np.any(near):
            if exact:
                out[near] = self._near_values(x[near], (which,))[0]
            else:
                cache = self._ensure_cache()
                out[near] = cache[which](x[near])
        return float(out[0]) if np.ndim(x0) == 0 else out

    def u_prime(self, x):
        return self._eval_batch(x, "up")

    def u_second(self, x):
        return self._eval_batch(x, "upp")

    def u_exact(self, x):
        return self._eval_batch(x, "u", exact=True)

    def u_prime_exact(self, x):
        return self._eval_batch(x, "up", exact=True)

    def u_second_exact(self, x):
        return self._eval_batch(x, "upp", exact=True)


# ---------------------------------------------------------------------------
# certifications
# ---------------------------------------------------------------------------

def certify_mollifier_shape(m: Mollifier) -> Report:
    """Unit integral and the pointwise cap psi <= 2/(x log delta)."""
    a, b = m.support
    grid = np.linspace(a, b, _SHAPE_POINTS)[1:-1]
    capped = m.psi(grid) * grid * math.log(m.delta)
    return Report(name="mollifier_shape", checks=[
        CheckRow.within("psi_unit_mass", "integral of psi over [eps/delta, eps] = 1",
                        float(m.moments()[0]), 1.0, 1e-8),
        CheckRow.at_most("psi_cap", "psi(x) * x * log(delta) <= 2 on the support",
                         float(capped.max()), 2.0),
        CheckRow.at_least("psi_nonneg", "psi >= 0 on the support",
                          float(m.psi(grid).min()), 0.0)])


def certify_sandwich(s: SmoothedDistance, grid) -> Report:
    """Two-sided bounds |x|^(a-1) <= eps^(a-1) + u(x) and
    u(x) <= |x|^(a-1) + eps^(a-1) on the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("certification grid must be non-empty")
    a = s.alpha
    eps_pow = s.mollifier.eps ** (a - 1.0)
    u = s.u_exact(grid)
    base = np.abs(grid) ** (a - 1.0)
    scale = eps_pow + np.maximum(base, u)
    lower_margin = (eps_pow + u - base) / scale
    upper_margin = (base + eps_pow - u) / scale
    return Report(name="sandwich", checks=[
        CheckRow.at_least("u_lower_sandwich", "|x|^(a-1) <= eps^(a-1) + u(x)",
                          float(lower_margin.min()), -_BOUND_SLACK),
        CheckRow.at_least("u_upper_sandwich", "u(x) <= |x|^(a-1) + eps^(a-1)",
                          float(upper_margin.min()), -_BOUND_SLACK)])


def derivative_bound_rhs(s: SmoothedDistance, x):
    """Branchwise cap on |u'|: 2^(2-a)(a-1)|x|^(a-2) outside [-2eps, 2eps],
    2^(3-a) delta (1-1/delta)^(a-1) / (eps^(2-a) log delta) inside."""
    x = np.asarray(x, dtype=float)
    a = s.alpha
    eps, delta = s.mollifier.eps, s.mollifier.delta
    inside_cap = (2.0 ** (3.0 - a) * delta * (1.0 - 1.0 / delta) ** (a - 1.0)
                  / (eps ** (2.0 - a) * math.log(delta)))
    with np.errstate(divide="ignore"):
        outside_cap = 2.0 ** (2.0 - a) * (a - 1.0) * np.abs(x) ** (a - 2.0)
    return np.where(np.abs(x) <= 2.0 * eps, inside_cap, outside_cap)


def certify_derivative_bound(s: SmoothedDistance, grid) -> Report:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("certification grid must be non-empty")
    up = np.abs(s.u_prime_exact(grid))
    rhs = derivative_bound_rhs(s, grid)
    margin = (rhs * (1.0 + _BOUND_SLACK) - up) / rhs
    worst = float(margin.min())
    i_worst = int(np.argmin(margin))
    rows = [CheckRow(
        "u_prime_cap",
        "|u'(x)| <= 2^(2-a)(a-1)|x|^(a-2) outside [-2eps,2eps]; "
        "<= 2^(3-a) delta (1-1/delta)^(a-1) / (eps^(2-a) log delta) inside",
        float(up[i_worst]), float(rhs[i_worst] * (1.0 + _BOUND_SLACK)),
        worst, bool(worst >= 0.0),
        context={"x_worst": float(grid[i_worst])})]
    return Report(name="derivative_bound", checks=rows)


def komatsu_identity_residual(s: SmoothedDistance, law: StableLaw,
                              theta: float) -> float:
    """|L_alpha u(theta) - big_C_alpha psi(theta)|, both sides numeric.

    The generator integrates u'' (cancellation-free), with breakpoints at
    the support endpoints and window ramps.
    """
    if theta == 0.0:
        raise DomainError("the generator identity for u holds for theta != 0")
    if abs(law.alpha - s.alpha) > 1e-14:
        raise DomainError("law.alpha must match the mollifier alpha")
    a_s, b_s = s.mollifier.support
    rl, rh = s.mollifier.ramp_widths
    # window ramps are sharp features of u''; the quadrature mesh must split there
    brk = (a_s, a_s + rl, b_s - rh, b_s, -a_s, -b_s)
    lhs = generator_apply(law, s.u_second, theta, brk)
    rhs = law.big_C_alpha * s.mollifier.psi(theta)
    return abs(lhs - rhs)


def certify_komatsu(s: SmoothedDistance, law: StableLaw, thetas) -> Report:
    """Identity L_alpha u = C psi over a theta grid: relative tolerance where
    psi > 0, absolute tolerance where psi = 0."""
    thetas = np.asarray(thetas, dtype=float)
    s._ensure_cache()       # once, here: the forked workers inherit it
    resids = map_interleaved(lambda ts: np.array(
        [komatsu_identity_residual(s, law, float(t)) for t in ts]), thetas)
    rows = []
    for theta, resid in zip(thetas, resids.tolist()):
        rhs = law.big_C_alpha * s.mollifier.psi(float(theta))
        on = rhs > 0
        rows.append(CheckRow.at_most(
            f"generator_identity_{'on' if on else 'off'}_support",
            "relative |L u(theta) - C psi(theta)| / (C psi(theta)) <= rel_tol" if on
            else "|L u(theta)| <= abs_tol where psi(theta) = 0",
            resid / rhs if on else resid, _KOMATSU_REL_TOL if on else _KOMATSU_ABS_TOL,
            {"theta": float(theta)}))
    return Report(name="generator_identity", checks=rows)
