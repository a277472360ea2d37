"""Coefficient pairs and the built-in perturbation catalog.

Experiments never load code at runtime: coefficient pairs and perturbation
families are named members of this catalog with numeric parameters, so a
config file fully determines the experiment.

Conventions: baseline coefficients b, sigma map numpy arrays to arrays;
perturbed coefficients b_tilde, sigma_tilde take (t, x) with scalar t.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import REQUIRED, DomainError, config_numbers, config_value


def _param(params: dict, key: str, default=REQUIRED, kind=float):
    return config_value(params, key, default, kind, where="params.")


@dataclass
class CoefficientPair:
    """Baseline (b, sigma) and perturbed (b_tilde, sigma_tilde) coefficients
    with the regularity metadata the rate bounds need.

    K bounds |b| and sigma above, k bounds sigma below, eta is the Holder
    exponent of sigma^alpha, eta_tilde the spatial Holder exponent of
    sigma_tilde. f_b_tilde / f_sigma_tilde are the time-dependent Lipschitz /
    Holder envelopes.
    """

    b: callable
    sigma: callable
    b_tilde: callable
    sigma_tilde: callable
    x0: float
    x0_tilde: float
    K: float
    k: float
    eta: float
    eta_tilde: float
    f_b_tilde: callable
    f_sigma_tilde: callable
    label: str = ""

    def drift_gap(self, t, y):
        return np.abs(self.b(y) - self.b_tilde(t, y))

    def jump_gap(self, t, y):
        return np.abs(self.sigma(y) - self.sigma_tilde(t, y))


def spot_check_regularity(pair: CoefficientPair, alpha: float, rng,
                          n_pairs: int = 128, window: float = 10.0,
                          tol: float = 1e-9) -> None:
    """Sample-based verification of the declared bounds; raises DomainError
    on violation."""
    if not (1.0 / alpha - 1e-12 <= pair.eta_tilde <= 1.0 + 1e-12):
        raise DomainError(
            f"eta_tilde must lie in [1/alpha, 1], got {pair.eta_tilde}")
    xs = pair.x0 + window * (2.0 * rng.uniform(n_pairs) - 1.0)
    ys = pair.x0 + window * (2.0 * rng.uniform(n_pairs) - 1.0)
    ts = rng.uniform(n_pairs)
    sig = pair.sigma(xs)
    if np.any(sig < pair.k * (1.0 - tol)) or np.any(sig > pair.K * (1.0 + tol)):
        raise DomainError("sigma leaves the declared band [k, K]")
    if np.any(np.abs(pair.b(xs)) > pair.K * (1.0 + tol)):
        raise DomainError("|b| exceeds the declared bound K")
    sa = pair.sigma(xs) ** alpha - pair.sigma(ys) ** alpha
    if np.any(np.abs(sa) > pair.K * np.abs(xs - ys) ** pair.eta * (1.0 + 1e-6) + tol):
        raise DomainError("sigma^alpha violates the declared Holder bound")
    for t in np.unique(ts[:8]):
        bd = np.abs(pair.b_tilde(t, xs) - pair.b_tilde(t, ys))
        if np.any(bd > pair.f_b_tilde(t) * np.abs(xs - ys) * (1.0 + 1e-6) + tol):
            raise DomainError("b_tilde violates its Lipschitz declaration")
        sd = np.abs(pair.sigma_tilde(t, xs) - pair.sigma_tilde(t, ys))
        cap = pair.f_sigma_tilde(t) * np.abs(xs - ys) ** pair.eta_tilde
        if np.any(sd > cap * (1.0 + 1e-6) + tol):
            raise DomainError("sigma_tilde violates its Holder declaration")


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def smooth_bump(z):
    """C-infinity bump, value 1 at 0, supported on (-1, 1)."""
    z = np.asarray(z, dtype=float)
    inside = np.abs(z) < 1.0
    zm = np.where(inside, z, 0.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        val = np.exp(1.0 - 1.0 / np.maximum(1.0 - zm * zm, 1e-300))
    return np.where(inside, val, 0.0)


def holder_kink(z, exponent):
    """(1 - |z|^exponent)+ : exponent-Holder, value 1 at 0, support [-1, 1]."""
    z = np.asarray(z, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(z) ** exponent)


def smoothed_relu(z, h):
    """max(0, z) averaged over a window of half-width h (C^1, h -> 0 limit
    recovers the hinge)."""
    z = np.asarray(z, dtype=float)
    return np.where(z <= -h, 0.0,
                    np.where(z >= h, z, (z + h) ** 2 / (4.0 * h)))


def smoothed_abs(z, h):
    z = np.asarray(z, dtype=float)
    return np.where(np.abs(z) >= h, np.abs(z), (z * z + h * h) / (2.0 * h))


def kink_hat(x, center, amp):
    """amp * max(0, 1 - |x - center|): bounded Lipschitz drift with kinks."""
    return amp * np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float) - center))


def mollified_kink_hat(x, center, amp, h):
    """kink_hat smoothed at scale h (closed-form window averages, C^1)."""
    z = np.asarray(x, dtype=float) - center
    return amp * smoothed_relu(1.0 - smoothed_abs(z, h), h)


# ---------------------------------------------------------------------------
# baseline coefficients
# ---------------------------------------------------------------------------

def _baseline(params):
    """Bounded trigonometric baseline: b = b_amp cos(freq x - b_phase),
    sigma = s0 + s1 sin(freq_s x). b_phase = pi/2 makes the drift expansive
    near the origin (b'(0) = b_amp freq > 0), which keeps coupled paths
    separating instead of contracting."""
    b_amp = _param(params, "b_amp", 0.5)
    s0 = _param(params, "s0", 1.0)
    s1 = _param(params, "s1", 0.1)
    freq = _param(params, "freq", 1.0)
    freq_s = _param(params, "freq_s", 1.0)
    b_phase = _param(params, "b_phase", 0.0)
    if s0 - s1 <= 0:
        raise DomainError("baseline sigma must stay strictly positive (s0 > s1)")

    def b(x):
        return b_amp * np.cos(freq * np.asarray(x, dtype=float) - b_phase)

    def sigma(x):
        return s0 + s1 * np.sin(freq_s * np.asarray(x, dtype=float))

    k = s0 - s1
    sig_hi = s0 + s1
    lip_b = b_amp * freq
    # |d/dx sigma^alpha| <= 2 * sig_hi^(2-1) * s1 * freq_s is a crude cap;
    # use alpha<2 so sigma^alpha has Lipschitz constant <= 2 sig_hi s1 freq_s
    lip_sa = 2.0 * sig_hi * s1 * freq_s
    K = max(b_amp, sig_hi, lip_b, lip_sa, 1.0)
    return b, sigma, K, k


def _kink_baseline(params):
    """Kinked-hat drift baseline for the mollification experiments."""
    amp = _param(params, "kink_amp", 1.0)
    center = _param(params, "kink_center", 0.0)
    s0 = _param(params, "s0", 1.0)
    s1 = _param(params, "s1", 0.1)
    freq_s = _param(params, "freq_s", 1.0)
    if s0 - s1 <= 0:
        raise DomainError("baseline sigma must stay strictly positive (s0 > s1)")

    def b(x):
        return kink_hat(x, center, amp)

    def sigma(x):
        return s0 + s1 * np.sin(freq_s * np.asarray(x, dtype=float))

    K = max(amp, s0 + s1, 2.0 * (s0 + s1) * s1 * freq_s, 1.0)
    return b, sigma, K, s0 - s1


def _const_fns(value):
    def f(_t):
        return value
    return f


# ---------------------------------------------------------------------------
# pair catalog
# ---------------------------------------------------------------------------

def make_pair(name: str, alpha: float, params: dict | None = None) -> CoefficientPair:
    """Named coefficient pairs. All perturbations are time-homogeneous
    functions exposed through the (t, x) signature."""
    params = dict(params or {})
    x0 = _param(params, "x0", 0.0)
    if name in ("identical", "initial_gap", "drift_shift", "jump_shift",
                "drift_bump", "jump_bump", "jump_kink"):
        b, sigma, K, k = _baseline(params)
    elif name in ("kinked_drift", "mollified_kink"):
        b, sigma, K, k = _kink_baseline(params)
    else:
        raise DomainError(f"unknown coefficient pair {name!r}")

    x0_tilde = x0 + _param(params, "x0_gap", 0.0)
    eta_tilde = _param(params, "eta_tilde", 1.0)
    lip_b = K
    hol_s = 2.0 * K

    if name in ("identical", "initial_gap"):
        b_t = lambda t, x: b(x)
        s_t = lambda t, x: sigma(x)
    elif name == "drift_shift":
        c = _param(params, "shift")
        b_t = lambda t, x: b(x) + c
        s_t = lambda t, x: sigma(x)
    elif name == "jump_shift":
        c = _param(params, "shift")
        b_t = lambda t, x: b(x)
        s_t = lambda t, x: sigma(x) + c
    elif name == "drift_bump":
        amp = _param(params, "amp")
        center = _param(params, "center", x0)
        width = _param(params, "width", 1.0)
        b_t = lambda t, x: b(x) + amp * smooth_bump((np.asarray(x) - center) / width)
        s_t = lambda t, x: sigma(x)
        lip_b = K + 2.0 * abs(amp) / width
    elif name == "jump_bump":
        amp = _param(params, "amp")
        center = _param(params, "center", x0)
        width = _param(params, "width", 1.0)
        b_t = lambda t, x: b(x)
        s_t = lambda t, x: sigma(x) + amp * smooth_bump((np.asarray(x) - center) / width)
        hol_s = 2.0 * K + 2.0 * abs(amp) / width
    elif name == "jump_kink":
        amp = _param(params, "amp")
        center = _param(params, "center", x0)
        width = _param(params, "width", 1.0)
        b_t = lambda t, x: b(x)
        s_t = lambda t, x: (sigma(x) + amp
                            * holder_kink((np.asarray(x) - center) / width, eta_tilde))
        hol_s = 2.0 * K + abs(amp) / width ** eta_tilde
    elif name == "kinked_drift":
        b_t = lambda t, x: b(x)
        s_t = lambda t, x: sigma(x)
    elif name == "mollified_kink":
        amp = _param(params, "kink_amp", 1.0)
        center = _param(params, "kink_center", 0.0)
        h = _param(params, "h")
        b_t = lambda t, x: mollified_kink_hat(x, center, amp, h)
        s_t = lambda t, x: sigma(x)

    return CoefficientPair(
        b=b, sigma=sigma, b_tilde=b_t, sigma_tilde=s_t,
        x0=x0, x0_tilde=x0_tilde, K=K, k=k, eta=1.0, eta_tilde=eta_tilde,
        f_b_tilde=_const_fns(lip_b), f_sigma_tilde=_const_fns(hol_s), label=name)


# ---------------------------------------------------------------------------
# perturbation families
# ---------------------------------------------------------------------------

@dataclass
class PerturbationFamily:
    """A finite sequence of coefficient pairs converging to the baseline
    (or, for the mollification family, member coefficient functions
    converging to a kinked limit)."""

    name: str
    labels: list
    pairs: list
    scales: list
    eta_tilde: float = 1.0
    member_drifts: list = field(default_factory=list)


def make_family(name: str, alpha: float, params: dict | None = None) -> PerturbationFamily:
    params = dict(params or {})
    n_start = _param(params, "n_start", 1, int)
    n_stop = _param(params, "n_stop", 6, int)
    if n_stop < n_start:
        raise DomainError("family index range is empty")
    ns = list(range(n_start, n_stop + 1))

    if name == "initial_value":
        gaps = config_numbers(params, "gaps", None, where="params.")
        if gaps is None:
            gap0 = _param(params, "gap0", 0.64)
            ratio = _param(params, "ratio", 0.25)
            gaps = [gap0 * ratio ** (n - n_start) for n in ns]
        pairs = [make_pair("initial_gap", alpha, {**params, "x0_gap": g})
                 for g in gaps]
        for p, g in zip(pairs, gaps):
            p.label = f"gap={g:g}"
        return PerturbationFamily(name=name, labels=list(gaps), pairs=pairs,
                                  scales=[abs(g) for g in gaps])

    if name in ("jump_bump", "drift_bump", "jump_kink"):
        amp0 = _param(params, "amp0", 0.5)
        ratio = _param(params, "ratio", 0.5)
        amps = [amp0 * ratio ** n for n in ns]
        pairs = []
        for n, amp in zip(ns, amps):
            p = make_pair(name, alpha, {**params, "amp": amp})
            p.label = f"n={n}"
            pairs.append(p)
        return PerturbationFamily(name=name, labels=ns, pairs=pairs,
                                  scales=[abs(a) for a in amps],
                                  eta_tilde=_param(params, "eta_tilde", 1.0))

    if name == "drift_mollification":
        h0 = _param(params, "h0", 0.5)
        ratio = _param(params, "ratio", 0.5)
        hs = [h0 * ratio ** (n - n_start) for n in ns]
        pairs = []
        for n, h in zip(ns, hs):
            p = make_pair("mollified_kink", alpha, {**params, "h": h})
            p.label = f"h={h:g}"
            pairs.append(p)
        amp = _param(params, "kink_amp", 1.0)
        center = _param(params, "kink_center", 0.0)
        drifts = [(lambda x, hh=h: mollified_kink_hat(x, center, amp, hh))
                  for h in hs]
        drifts.append(lambda x: kink_hat(x, center, amp))
        return PerturbationFamily(name=name, labels=hs, pairs=pairs,
                                  scales=hs, member_drifts=drifts)

    raise DomainError(f"unknown perturbation family {name!r}")


def pair_between(family: PerturbationFamily, i: int, j: int,
                 alpha: float, params: dict | None = None) -> CoefficientPair:
    """Coupled pair whose baseline leg runs member i's drift and whose
    perturbed leg runs member j's (mollification family only)."""
    if not family.member_drifts:
        raise DomainError("pair_between needs a family with member drifts")
    params = dict(params or {})
    base = make_pair("kinked_drift", alpha, params)
    bi = family.member_drifts[i]
    bj = family.member_drifts[j]
    return replace(base,
                   b=bi, b_tilde=lambda t, x: bj(x),
                   label=f"members({i},{j})")
