"""Coefficient pairs and the built-in perturbation catalog.

Experiments never load code at runtime: coefficient pairs and perturbation
families are named members of this catalog with numeric parameters, so a
config file fully determines the experiment.

Conventions: every coefficient takes (t, x) with scalar t and an array x;
the catalog's are time-homogeneous. A perturbed coefficient is the baseline
object itself, a Perturbed (baseline + term), or a coefficient of its own,
so the Euler engine and the gap functions can see which legs share a
baseline and evaluate it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import REQUIRED, ConfigError, DomainError, check_section

# Catalog parameters by group: key -> (kind, default, lower bound), the form
# of the CLI's _SCHEMA, checked by errors.check_section. A pair reads the
# groups _PAIRS lists; a family reads its own groups and those of its member
# pair, except the key it sets for each member.
_PARAMS = {
    "start": {"x0": (float, 0.0, None), "x0_gap": (float, 0.0, None)},
    "sigma": {"s0": (float, 1.0, None), "s1": (float, 0.1, None),
              "freq_s": (float, 1.0, None)},
    "trig": {"b_amp": (float, 0.5, None), "freq": (float, 1.0, None),
             "b_phase": (float, 0.0, None)},
    "kink": {"kink_amp": (float, 1.0, None), "kink_center": (float, 0.0, None)},
    "shift": {"shift": (float, REQUIRED, None)},
    "bump": {"amp": (float, REQUIRED, None), "center": (float, None, None),  # None: x0
             "width": (float, 1.0, 0.0)},
    "holder": {"eta_tilde": (float, 1.0, None)},
    "h": {"h": (float, REQUIRED, None)},
    "members": {"n_start": (int, 1, None), "n_stop": (int, 6, None)},
    "gaps": {"gaps": (list, None, None), "gap0": (float, 0.64, None),
             "ratio": (float, 0.25, None)},
    "amps": {"amp0": (float, 0.5, None), "ratio": (float, 0.5, None)},
    "hs": {"h0": (float, 0.5, None), "ratio": (float, 0.5, None)},
}
_TRIG = ("start", "sigma", "trig")
_KINK = ("start", "sigma", "kink")
_PAIRS = {"identical": _TRIG, "initial_gap": _TRIG,
          "drift_shift": _TRIG + ("shift",), "jump_shift": _TRIG + ("shift",),
          "drift_bump": _TRIG + ("bump",), "jump_bump": _TRIG + ("bump",),
          "jump_kink": _TRIG + ("bump", "holder"), "kinked_drift": _KINK,
          "mollified_kink": _KINK + ("h",)}
# family -> (its group besides "members", member pair, key set per member)
_FAMILIES = {
    "initial_value": ("gaps", "initial_gap", "x0_gap"),
    "jump_bump": ("amps", "jump_bump", "amp"), "drift_bump": ("amps", "drift_bump", "amp"),
    "jump_kink": ("amps", "jump_kink", "amp"),
    "drift_mollification": ("hs", "mollified_kink", "h"),
}


def _table(groups) -> dict:
    """The _PARAMS entries of the given groups, in one table."""
    return {key: spec for group in groups for key, spec in _PARAMS[group].items()}


@dataclass(frozen=True)
class Perturbed:
    """The coefficient base(t, x) + term(t, x): a baseline plus a
    perturbation term, which callers that already hold the baseline value at
    x add to it instead of evaluating base again."""

    base: callable
    term: callable

    def __call__(self, t, x):
        return self.base(t, x) + self.term(t, x)


def split(f) -> tuple:
    """(base, term) with f = base + term; term is None when f is no Perturbed."""
    return (f.base, f.term) if isinstance(f, Perturbed) else (f, None)


def _gap(base, tilde, t, y, value):
    """|base(t, y) - tilde(t, y)|, where value, unless None, is base(t, y):
    a tilde built from base reuses it."""
    value = base(t, y) if value is None else value
    tilde_base, term = split(tilde)
    if tilde_base is not base:
        return np.abs(value - tilde(t, y))
    return np.abs(value - (value if term is None else value + term(t, y)))


@dataclass
class CoefficientPair:
    """Baseline (b, sigma) and perturbed (b_tilde, sigma_tilde) coefficients
    with their starts x0, x0_tilde. A perturbed coefficient is built from the
    baseline value at the same point: it is the baseline itself, or a
    Perturbed adding a term to it; only mollified_kink's b_tilde replaces the
    drift. eta_tilde is the spatial Holder exponent of sigma_tilde, which
    selects the branch of the rate bound."""

    b: callable
    sigma: callable
    b_tilde: callable
    sigma_tilde: callable
    x0: float
    x0_tilde: float
    eta_tilde: float
    label: str = ""

    def drift_gap(self, t, y, b=None):
        """|b(t, y) - b_tilde(t, y)|; b, when given, is the value b(t, y)."""
        return _gap(self.b, self.b_tilde, t, y, b)

    def jump_gap(self, t, y, sigma=None):
        """|sigma(t, y) - sigma_tilde(t, y)|; sigma, when given, is the
        value sigma(t, y)."""
        return _gap(self.sigma, self.sigma_tilde, t, y, sigma)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def smooth_bump(z):
    """C-infinity bump, value 1 at 0, supported on (-1, 1)."""
    z = np.asarray(z, dtype=float)
    # fmax sends |z| >= 1 and NaN to 1e-300, whose exp(1 - 1e300) is +0.0;
    # z * z overflows to inf from |z| ~ 1e154
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(1.0 - 1.0 / np.fmax(1.0 - z * z, 1e-300))


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

def _sigma(params):
    """sigma = s0 + s1 sin(freq_s x)."""
    s0, s1, freq_s = params["s0"], params["s1"], params["freq_s"]
    if s0 <= abs(s1):
        raise DomainError("baseline sigma must stay strictly positive (s0 > |s1|)")
    return lambda t, x: s0 + s1 * np.sin(freq_s * np.asarray(x, dtype=float))


def _baseline(params):
    """Bounded trigonometric baseline: b = b_amp cos(freq x - b_phase),
    sigma = s0 + s1 sin(freq_s x). b_phase = pi/2 makes the drift expansive
    near the origin (b'(0) = b_amp freq > 0), which keeps coupled paths
    separating instead of contracting."""
    b_amp, freq, b_phase = params["b_amp"], params["freq"], params["b_phase"]
    return (lambda t, x: b_amp * np.cos(freq * np.asarray(x, dtype=float) - b_phase),
            _sigma(params))


def _kink_baseline(params):
    """Kinked-hat drift baseline for the mollification experiments."""
    amp, center = params["kink_amp"], params["kink_center"]
    return lambda t, x: kink_hat(x, center, amp), _sigma(params)


# ---------------------------------------------------------------------------
# pair catalog
# ---------------------------------------------------------------------------

def make_pair(name: str, params: dict | None = None) -> CoefficientPair:
    """Named coefficient pairs. Every perturbed coefficient is the baseline
    or a Perturbed baseline + term, except mollified_kink's b_tilde, which
    replaces the drift. Only jump_kink's sigma_tilde is eta_tilde-Holder;
    every other pair's is Lipschitz."""
    groups = _PAIRS.get(name)
    if groups is None:
        raise DomainError(f"unknown coefficient pair {name!r}")
    params = check_section(dict(params or {}), _table(groups), "params")
    x0 = params["x0"]
    b, sigma = (_baseline if "trig" in groups else _kink_baseline)(params)
    x0_tilde = x0 + params["x0_gap"]
    eta_tilde = params.get("eta_tilde", 1.0)
    b_t, s_t = b, sigma
    if "shift" in groups:
        c = params["shift"]
    if "bump" in groups:
        amp, width = params["amp"], params["width"]
        center = x0 if params["center"] is None else params["center"]

    if name == "drift_shift":
        b_t = Perturbed(b, lambda t, x: c)
    elif name == "jump_shift":
        s_t = Perturbed(sigma, lambda t, x: c)
    elif name == "drift_bump":
        b_t = Perturbed(b, lambda t, x: amp * smooth_bump((np.asarray(x) - center) / width))
    elif name == "jump_bump":
        s_t = Perturbed(sigma, lambda t, x: amp * smooth_bump((np.asarray(x) - center) / width))
    elif name == "jump_kink":
        s_t = Perturbed(sigma, lambda t, x: amp * holder_kink(
            (np.asarray(x) - center) / width, eta_tilde))
    elif name == "mollified_kink":
        amp, center, h = params["kink_amp"], params["kink_center"], params["h"]
        if h <= 0:
            raise DomainError("mollification scale h must be > 0")
        b_t = lambda t, x: mollified_kink_hat(x, center, amp, h)

    return CoefficientPair(
        b=b, sigma=sigma, b_tilde=b_t, sigma_tilde=s_t,
        x0=x0, x0_tilde=x0_tilde, eta_tilde=eta_tilde, label=name)


# ---------------------------------------------------------------------------
# perturbation families
# ---------------------------------------------------------------------------

@dataclass
class PerturbationFamily:
    """A finite sequence of coefficient pairs converging to the baseline
    (for the mollification family, member drifts b_tilde converging to the
    kinked baseline drift b)."""

    name: str
    pairs: list
    scales: list


def make_family(name: str, params: dict | None = None) -> PerturbationFamily:
    """Members n_start..n_stop: geometric start gaps (or the gaps given),
    bump amplitudes or mollification scales."""
    if name not in _FAMILIES:
        raise DomainError(f"unknown perturbation family {name!r}")
    group, member, per_member = _FAMILIES[name]
    member_table = _table(_PAIRS[member])
    table = {**_table(("members", group)), **member_table}
    del table[per_member]
    given = dict(params or {})
    params = check_section(given, table, "params")
    overridden = sorted(set(given) & {"n_start", "n_stop", "gap0", "ratio"})
    if "gaps" in given and overridden:     # only initial_value reads gaps
        raise ConfigError(f"params.gaps sets the members of {name!r}, so "
                          f"{overridden} would be ignored")
    n_start, n_stop = params["n_start"], params["n_stop"]
    if n_stop < n_start:
        raise DomainError("family index range is empty")
    ns = list(range(n_start, n_stop + 1))

    if group == "gaps":
        values = params["gaps"]
        if values is None:
            values = _geometric(params["gap0"], params["ratio"],
                                [n - n_start for n in ns], name)
        scales, tags = [abs(g) for g in values], [f"gap={g!r}" for g in values]
    elif group == "amps":
        values = _geometric(params["amp0"], params["ratio"], ns, name)
        scales, tags = [abs(a) for a in values], [f"n={n}" for n in ns]
    else:
        values = _geometric(params["h0"], params["ratio"],
                            [n - n_start for n in ns], name)
        scales, tags = values, [f"h={h!r}" for h in values]
    shared = {key: value for key, value in given.items() if key in member_table}
    pairs = [make_pair(member, {**shared, per_member: v}) for v in values]
    if repeated := [tag for i, tag in enumerate(tags) if tag in tags[:i]]:
        raise DomainError(f"family {name!r} has two members labelled {repeated[0]}")
    for p, tag in zip(pairs, tags):
        p.label = tag
    return PerturbationFamily(name=name, pairs=pairs, scales=scales)


def _geometric(first: float, ratio: float, powers, name: str) -> list:
    """first * ratio ** p for each p; DomainError when one overflows a double."""
    try:
        values = [first * ratio ** p for p in powers]
        if all(math.isfinite(v) for v in values):
            return values
    except OverflowError:
        pass
    raise DomainError(f"the members of family {name!r} overflow a double "
                      f"at ratio {ratio:g}")


def drift_sequence(family: PerturbationFamily, who: str) -> list:
    """A mollification family's member drifts b_tilde(t, x), then their limit,
    the baseline drift; DomainError naming `who` for any other family."""
    if family.name != "drift_mollification":
        raise DomainError(f"{who} needs a mollification family")
    return [p.b_tilde for p in family.pairs] + [family.pairs[0].b]
