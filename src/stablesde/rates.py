"""Theoretical rate bounds, perturbation sweeps, and the convergence
experiment for coefficient sequences.

The stability bound has two branches in the spatial Holder exponent
eta_tilde of the perturbed jump coefficient:

    holder (eta_tilde > 1/alpha):
        C ( |x0 - x0~|^(alpha-1) + max{ B^e_B, S^e_S } ),
        e_B = (alpha eta_tilde - 1) / (alpha eta_tilde - alpha + 1),
        e_S = alpha - 1/eta_tilde,
    log (eta_tilde = 1/alpha):
        C ( |x0 - x0~|^(alpha-1) + 1 / log(1/max{B, S}) ),

valid under B < 1, S < 1. The multiplicative constant depends on quantities
no experiment can print, so every bound check is one-point calibrated:
C_fit is fitted on the row of the first member that the bound covers
(B < 1, S < 1) and all later rows are out-of-sample. The tail version
divides the same bracket by h. Sweeps and convergence runs take eta_tilde,
start and sigma from their family's members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import PerturbationFamily, drift_sequence
from .errors import AssumptionViolation, DomainError
from .measures import DensityModel, distance_B, distance_S
from .quadrature import ols_loglog
from .simulate import (SimConfig, distance_moment_curve, simulate_coupled,
                       simulate_legs, tail_probability, uniform_lp_check)
from .stable import StableLaw

_LOG_BRANCH_TOL = 1e-12


@dataclass
class RateBoundSpec:
    alpha: float
    eta_tilde: float

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise DomainError("alpha must lie strictly in (1, 2)")
        lo = 1.0 / self.alpha
        if not lo - _LOG_BRANCH_TOL <= self.eta_tilde <= 1.0 + _LOG_BRANCH_TOL:
            raise DomainError(
                f"eta_tilde must lie in [1/alpha, 1] = [{lo:.6f}, 1], got {self.eta_tilde}")

    @property
    def branch(self) -> str:
        return "log" if abs(self.eta_tilde - 1.0 / self.alpha) < _LOG_BRANCH_TOL else "holder"

    @property
    def exponent_B(self) -> float:
        if self.branch == "log":
            raise DomainError("the log branch has no power exponents")
        a, e = self.alpha, self.eta_tilde
        return (a * e - 1.0) / (a * e - a + 1.0)

    @property
    def exponent_S(self) -> float:
        if self.branch == "log":
            raise DomainError("the log branch has no power exponents")
        return self.alpha - 1.0 / self.eta_tilde


def theoretical_bound(spec: RateBoundSpec, x0_gap: float, B: float, S: float) -> float:
    """The bracket of the bound, its constant C taken as 1. B = S = 0
    collapses to the pure initial-value term (in the log branch by
    continuity)."""
    if not (B >= 0 and S >= 0 and math.isfinite(x0_gap)):
        raise DomainError(f"need B, S >= 0 and a finite x0_gap, got {B:g}, {S:g}, {x0_gap:g}")
    gap_term = abs(x0_gap) ** (spec.alpha - 1.0) if x0_gap != 0.0 else 0.0
    if spec.branch == "holder":
        if B >= 1.0 or S >= 1.0:
            raise AssumptionViolation(
                f"bound needs B < 1 and S < 1, got B={B:g}, S={S:g}")
        term = max(B ** spec.exponent_B, S ** spec.exponent_S)
    else:
        big = max(B, S)
        if big >= 1.0:
            raise AssumptionViolation(f"bound needs max(B, S) < 1, got {big:g}")
        term = 0.0 if big == 0.0 else 1.0 / math.log(1.0 / big)
    return gap_term + term


def tail_bound(spec: RateBoundSpec, x0_gap: float, B: float, S: float,
               h: float) -> float:
    if not h > 0:
        raise DomainError("tail threshold h must be > 0")
    return theoretical_bound(spec, x0_gap, B, S) / h


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    label: object
    scale: float
    x0_gap: float
    B: float
    S: float
    D: float
    D_se: float
    bound_raw: float
    bound_value: float
    satisfied: bool
    assumption_flag: bool
    tails: list = field(default_factory=list)


@dataclass
class SweepResult:
    spec: RateBoundSpec
    rows: list
    C_fit: float            # the calibration row's D over its bound bracket
    slope_D_vs_scale: float | None = None          # log D against log scale
    slope_S_vs_inverse_scale: float | None = None  # log S against log(1/scale)

    @property
    def out_of_sample_failures(self) -> int:
        """Rows without an assumption flag that exceed their bound, the first
        of them (the calibration row) left out."""
        fitted = [r for r in self.rows if not r.assumption_flag]
        return sum(not r.satisfied for r in fitted[1:])


def run_sweep(family: PerturbationFamily, sim_config: SimConfig,
              law: StableLaw, *, h_values=()) -> SweepResult:
    """For each family member: frozen_plain distances B_n, S_n on the
    default time grid, a coupled simulation, the sup moment
    D_n = sup_t mean|X - X~|^(alpha-1), tail rows, and the
    one-point-calibrated check of the members' eta_tilde bound, with C_fit
    fitted on the first member without an assumption flag. Assumption
    violations flag rows; AssumptionViolation when every row is flagged."""
    if not family.pairs:
        raise DomainError("perturbation family has no members")
    spec = RateBoundSpec(alpha=law.alpha, eta_tilde=family.pairs[0].eta_tilde)
    q = law.alpha - 1.0
    model = DensityModel(mode="frozen_plain", law=law)
    rows, c_fit = [], None
    for i, pair in enumerate(family.pairs):
        B = distance_B(pair, model, sim_config.T)
        S = distance_S(pair, model, sim_config.T)
        cfg = replace(sim_config, stream_label=f"sweep-{family.name}-{i}")
        ens = simulate_coupled(cfg, pair, law)
        curve = distance_moment_curve(ens, q)
        gap = pair.x0_tilde - pair.x0
        flag, value, satisfied = False, float("nan"), False
        try:
            raw = theoretical_bound(spec, gap, B, S)
        except AssumptionViolation:
            raw, flag = float("nan"), True
        else:
            if c_fit is None:   # the calibration row
                c_fit = curve.sup / raw if raw > 0 else 1.0
            value = c_fit * raw
            satisfied = bool(curve.sup <= value * (1.0 + 1e-12))
        tails = [tail_probability(ens, h) for h in h_values]
        del ens     # so that the next member does not simulate beside it
        rows.append(SweepRow(label=pair.label, scale=float(family.scales[i]),
                             x0_gap=gap, B=B, S=S, D=curve.sup,
                             D_se=curve.sup_stderr, bound_raw=raw,
                             bound_value=value, satisfied=satisfied,
                             assumption_flag=flag, tails=tails))
    if c_fit is None:
        raise AssumptionViolation(
            f"every member of family '{family.name}' violates B < 1 and S < 1; "
            f"no row can fit C_fit")

    result = SweepResult(spec=spec, rows=rows, C_fit=c_fit)
    good = [r for r in rows if not r.assumption_flag and r.D > 0 and r.bound_raw > 0]
    if len(good) >= 4:
        result.slope_D_vs_scale = ols_loglog([r.scale for r in good],
                                             [r.D for r in good])[0]
        if all(r.S > 0 for r in good):
            result.slope_S_vs_inverse_scale = ols_loglog(
                [1.0 / r.scale for r in good], [r.S for r in good])[0]
    return result


# ---------------------------------------------------------------------------
# convergence experiment for mollified coefficient sequences
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    pairwise_D: np.ndarray
    pairwise_se: np.ndarray
    monotone_within_2se: bool
    limit_residual: float
    lp_report: object


def convergence_experiment(family: PerturbationFamily, sim_config: SimConfig,
                           law: StableLaw) -> ConvergenceReport:
    """Successive coupled distances D_{n,n+1} for a coefficient sequence of
    at least 2 members sharing one driving path (all members and the limit
    run as the legs of one simulation), the identification residual against
    the limiting coefficients, and the uniform L^p boundedness check at
    p = (1 + alpha)/2.

    Cauchy behaviour = D_{n,n+1} decreasing up to twice the combined
    standard error.
    """
    drifts = drift_sequence(family, "convergence experiment")
    base = family.pairs[0]
    if base.x0_tilde != base.x0:
        raise DomainError("convergence members share one start: x0_gap must be 0")
    K = len(family.pairs)
    if K < 2:
        raise DomainError(f"convergence experiment needs at least 2 family "
                          f"members, got {K}")
    if sim_config.n_paths < 2:   # the standard errors need two paths
        raise DomainError(f"convergence experiment needs at least 2 paths, "
                          f"got sim.n_paths={sim_config.n_paths}")
    legs = [(base.x0, b, base.sigma) for b in drifts]
    run = simulate_legs(sim_config, law, legs)
    curves = [distance_moment_curve(run, law.alpha - 1.0, i) for i in range(K)]
    ds = np.array([c.sup for c in curves[:-1]])
    ses = np.array([c.sup_stderr for c in curves[:-1]])
    mono = bool(np.all(ds[1:] <= ds[:-1]
                       + 2.0 * np.sqrt(ses[1:] ** 2 + ses[:-1] ** 2)))
    lp = uniform_lp_check(run.abs_max[:K, run.ok], law.alpha)
    return ConvergenceReport(pairwise_D=ds, pairwise_se=ses,
                             monotone_within_2se=mono,
                             limit_residual=curves[-1].sup, lp_report=lp)
