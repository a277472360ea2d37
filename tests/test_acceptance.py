"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The bounds under test are inequalities with unspecified constants, so the
checks are property-based: slopes against analytic exponents, one-point
calibrated bound dominance with all remaining rows out of sample, and
certified pointwise inequalities at stated tolerances. Where Euler is exact
(constant coefficients), criterion 12 checks a moment curve against its
closed form, tail probabilities against Levy's inequality, and the distance
of two deterministic pairs to rounding. Every run is fully seeded and
deterministic.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import stablesde as ss
from stablesde.coefficients import make_family, make_pair
from stablesde.quadrature import ols_loglog
from stablesde.simulate import SimConfig
from stablesde.stable import density_total_mass

from oracles import comparability_band, stable_cdf

ALPHA = 1.5
G0 = {1.2: 0.29942005917982891, 1.5: 0.28735275145216445,
      1.8: 0.28306875859161901}


def report(num, passed, detail):
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return passed


@pytest.fixture(scope="module")
def law():
    return ss.make_stable_law(ALPHA)


@pytest.fixture(scope="module")
def jump_sweep(law):
    """Criterion 7 family, shared with criterion 8: sigma_n = sigma + 2^-n bump
    (negative narrow bump; eta_tilde = 1)."""
    family = make_family("jump_bump",
                         {"amp0": -0.1, "width": 0.6, "n_start": 1, "n_stop": 6})
    cfg = SimConfig(T=1.0, n_steps=500, n_paths=150000, seed=31415)
    return ss.run_sweep(family, cfg, law, h_values=(0.05, 0.1, 0.2, 0.4))


def test_criterion_1_density_oracles():
    ok = True
    details = []
    for alpha in (1.2, 1.5, 1.8):
        law_a = ss.make_stable_law(alpha)
        mass = density_total_mass(law_a)
        g0 = ss.stable_density(law_a, 0.0)
        ratio = ss.stable_density(law_a, 50.0) / (law_a.c_alpha * 50.0 ** (-1 - alpha))
        ok &= abs(mass - 1.0) < 1e-5
        ok &= abs(g0 - G0[alpha]) < 1e-6
        ok &= 0.98 <= ratio <= 1.02
        details.append(f"a={alpha}: |mass-1|={abs(mass-1):.1e} "
                       f"|g0-ref|={abs(g0-G0[alpha]):.1e} tail_ratio={ratio:.4f}")
    assert report(1, ok, "; ".join(details))


def test_criterion_2_sampler_validation(law):
    n = 100000
    xs = np.sort(ss.sample_increments(law, 1.0, n,
                                      ss.RngStream(8128).substream("cdf")))
    m = 1000
    idx = np.linspace(50, n - 51, m).astype(int)
    cdf = stable_cdf(law, xs[idx])
    emp = (idx + 0.5) / n
    # restricting the KS sup to every (n/m)-th order statistic costs at
    # most n/m/n in sup norm
    sup_gap = float(np.max(np.abs(cdf - emp))) + 1.0 / m
    stream = ss.RngStream(8128)
    dts = np.array([1.0, 4.0, 16.0, 64.0])
    meds = [np.median(np.abs(ss.sample_increments(law, dt, n,
                                                  stream.substream("scale", i))))
            for i, dt in enumerate(dts)]
    slope, _, _ = ols_loglog(dts, np.array(meds))
    ok = sup_gap < 0.01 and abs(slope - 1.0 / ALPHA) < 0.05
    assert report(2, ok, f"CDF sup gap={sup_gap:.4f} (<0.01), "
                         f"self-similarity slope={slope:.4f} "
                         f"(1/alpha={1/ALPHA:.4f} +- 0.05)")


def test_criterion_3_mollifier_certification():
    grid = np.linspace(-5.0, 5.0, 2001)
    grid = grid[grid != 0.0]
    worst = math.inf
    ok = True
    for alpha in (1.2, 1.5, 1.8):
        for eps in (0.5, 0.1, 0.02):
            for delta in (2.0, 4.0, 16.0):
                m = ss.build_mollifier(alpha, eps, delta)
                s = ss.SmoothedDistance(m)
                shape = ss.certify_mollifier_shape(m)
                sand = ss.certify_sandwich(s, grid)
                deriv = ss.certify_derivative_bound(s, grid)
                ok &= shape.passed and sand.passed and deriv.passed
                worst = min(worst, sand.worst_margin, deriv.worst_margin)
    assert report(3, ok, f"27 (alpha, eps, delta) combos; two-sided bounds, "
                         f"derivative cap, psi cap, unit mass; worst margin "
                         f"{worst:.2e}")


def test_criterion_4_generator_identity():
    ok = True
    details = []
    for alpha, eps, delta in ((1.5, 0.1, 4.0), (1.8, 0.02, 16.0)):
        law_a = ss.make_stable_law(alpha)
        m = ss.build_mollifier(alpha, eps, delta)
        s = ss.SmoothedDistance(m)
        a_s, b_s = m.support
        thetas = np.concatenate([np.linspace(a_s * 1.01, b_s * 0.99, 200),
                                 [2 * eps, -2 * eps, 1.0, -1.0]])
        rep = ss.certify_komatsu(s, law_a, thetas)
        ok &= rep.passed
        details.append(f"(a={alpha},eps={eps},delta={delta}): "
                       f"worst margin {rep.worst_margin:.2e}")
    assert report(4, ok, "; ".join(details))


def test_criterion_5_coupling_exactness(law):
    ok = True
    for seed in (1, 777, 424242):
        cfg = SimConfig(T=1.0, n_steps=200, n_paths=4096, seed=seed)
        ens = ss.simulate_coupled(cfg, make_pair("identical", {}), law)
        curve = ss.distance_moment_curve(ens, ALPHA - 1.0)
        ok &= ens.y_max.max() == 0.0
        ok &= curve.sup == 0.0
        ok &= ss.tail_probability(ens, 1e-9).prob == 0.0
    assert report(5, ok, "identical coefficients & start: bitwise-equal legs, "
                         "all distance functionals exactly zero, 3 seeds")


def test_criterion_6_initial_value_rate(law):
    base = {"b_phase": math.pi / 2, "freq": 0.5, "b_amp": 1.0}
    gaps = [0.01, 0.04, 0.16, 0.64]
    sups = []
    for i, gap in enumerate(gaps):
        cfg = SimConfig(T=1.0, n_steps=1000, n_paths=100000, seed=606,
                        stream_label=f"c6-{i}")
        pair = make_pair("initial_gap", {**base, "x0_gap": gap})
        ens = ss.simulate_coupled(cfg, pair, law)
        sups.append(ss.distance_moment_curve(ens, ALPHA - 1.0).sup)
    slope, _, se = ols_loglog(np.array(gaps), np.array(sups))
    ok = abs(slope - (ALPHA - 1.0)) < 0.15
    assert report(6, ok, f"sup-moment vs initial gap: slope={slope:.4f} "
                         f"(se {se:.4f}), expect alpha-1={ALPHA-1} +- 0.15; "
                         f"1e5 paths, 1e3 steps")


def test_criterion_7_jump_perturbation_bound(jump_sweep):
    res = jump_sweep
    ok = res.out_of_sample_failures == 0
    slope_ok = abs(res.slope_S_vs_inverse_scale + 1.0) < 0.05
    ok &= slope_ok
    ratios = [r.D / r.bound_raw for r in res.rows]
    assert report(7, ok, f"C_fit={res.C_fit:.4f} at n=1; "
                         f"D_n/bound ratios {[f'{r:.4f}' for r in ratios]}; "
                         f"S slope vs 2^n = "
                         f"{res.slope_S_vs_inverse_scale:.5f} (-1 +- 0.05)")


def test_criterion_8_tail_probability_shape(jump_sweep):
    row = jump_sweep.rows[1]          # the n=2 member
    assert row.label == "n=2"
    calib = next(t for t in row.tails if t.h == 0.1)
    rhs = 0.1 * calib.wilson_high     # Wilson-respecting calibration at h=0.1
    ok = True
    details = []
    for te in row.tails:
        lhs = te.h * te.wilson_low
        if te.h != 0.1:
            ok &= lhs <= rhs
        details.append(f"h={te.h}: hP={te.h * te.prob:.4f}")
    assert report(8, ok, f"h*P(sup > h) bounded by calibrated "
                         f"{rhs:.4f}; " + ", ".join(details))


def test_criterion_9_weighted_distance_consistency(law):
    amps_fit, amps_check = [0.4, 0.2], [0.1, 0.05]
    pairs_fit = [make_pair("drift_bump", {"amp": a, "s1": 0.05})
                 for a in amps_fit]
    pairs_check = [make_pair("drift_bump", {"amp": a, "s1": 0.05})
                   for a in amps_check]
    cfg = SimConfig(T=1.0, n_steps=500, n_paths=100000, seed=909,
                    stream_label="c9")
    band = comparability_band(pairs_fit, pairs_check, law, 1.0, cfg)
    gaps = [abs(r - 1.0) for r in band.ratios_fit + band.ratios_held_out]
    assert report(9, band.passes,
                  f"empirical/frozen B ratios fit={[f'{r:.4f}' for r in band.ratios_fit]} "
                  f"held-out={[f'{r:.4f}' for r in band.ratios_held_out]} in "
                  f"band [{band.m:.3f}, {band.M:.3f}] (0 < m <= M < 10); "
                  f"max relative gap {max(gaps):.3f}")


def test_criterion_10_convergence_experiment(law):
    family = make_family("drift_mollification",
                         {"h0": 0.5, "ratio": 0.5, "n_start": 1, "n_stop": 6})
    cfg = SimConfig(T=1.0, n_steps=400, n_paths=40000, seed=1618)
    rep = ss.convergence_experiment(family, cfg, law)
    ok = rep.monotone_within_2se and rep.lp_report.max_abs_dev_in_se <= 3.0
    assert report(10, ok,
                  f"pairwise D {[f'{d:.5f}' for d in rep.pairwise_D]} "
                  f"monotone within 2 SE: {rep.monotone_within_2se}; "
                  f"uniform L^{rep.lp_report.p} max |dev|/se = "
                  f"{rep.lp_report.max_abs_dev_in_se:.2f} (<= 3); "
                  f"limit residual {rep.limit_residual:.5f}")


def test_criterion_11_moment_threshold_negative_control(law):
    pair = make_pair("jump_bump", {"amp": -0.025, "width": 0.6})
    cfg = SimConfig(T=1.0, n_steps=400, n_paths=120000, seed=777,
                    stream_label="c11")
    ens = ss.simulate_coupled(cfg, pair, law)
    y_final = ens.abs_diff[0, -1][ens.ok]

    def cauchy_stable(q):
        # stability: doubling the path count moves the estimate by < 2
        # combined SE and the SE itself contracts like a CLT (ratio <= 0.85)
        v = y_final ** q
        n = 7500
        prev = None
        while n <= v.size:
            mean = v[:n].mean()
            se = v[:n].std(ddof=1) / math.sqrt(n)
            if prev is not None:
                pm, pse = prev
                if abs(mean - pm) > 2.0 * math.sqrt(se ** 2 + pse ** 2):
                    return False
                if se > 0.85 * pse:
                    return False
            prev = (mean, se)
            n *= 2
        return True

    low_ok = cauchy_stable(ALPHA - 1.0)
    high_fails = not cauchy_stable(ALPHA)
    ok = low_ok and high_fails
    assert report(11, ok, f"q=alpha-1 Cauchy-stable: {low_ok}; "
                          f"q=alpha fails stability: {high_fails} "
                          f"(moment threshold at alpha)")


def _levy_threshold(law, prob):
    """r with P(|Z_1| > r) = prob, by bisection on oracles.stable_cdf."""
    return brentq(lambda r: 2.0 * (1.0 - stable_cdf(law, r)) - prob, 1e-3, 1e3,
                  xtol=1e-12)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_criterion_12_constant_coefficient_moments(alpha):
    # with b = 0 and sigma = 1, Euler is exact and X_t - X~_t = -c Z_t, so
    # E|X_t - X~_t|^q = |c|^q t^(q/alpha) m(alpha, q) for exp(-|u|^alpha)
    c, q = 0.3, alpha - 1.0
    law = ss.make_stable_law(alpha)
    pair = make_pair("jump_shift", {"b_amp": 0.0, "s1": 0.0, "shift": c})
    cfg = SimConfig(T=1.0, n_steps=200, n_paths=40000, seed=5,
                    stream_label="c12")
    ens = ss.simulate_coupled(cfg, pair, law)
    curve = ss.distance_moment_curve(ens, q)
    m = (2.0 ** q * math.gamma((1.0 + q) / 2.0) * math.gamma(1.0 - q / alpha)
         / (math.sqrt(math.pi) * math.gamma(1.0 - q / 2.0)))
    later = curve.times > 0.0
    exact = abs(c) ** q * curve.times[later] ** (q / alpha) * m
    z = np.abs(curve.mean[later] - exact) / curve.stderr[later]
    ok = bool(np.all(z <= 4.0))
    # tails on the same paths: the grid sup of |c Z| over [0, 1] lies between
    # |c Z_1| and the continuous sup, so by Levy's inequality for symmetric
    # processes P <= P(sup |c Z| > c r) <= 2P with P = P(|Z_1| > r); h is
    # chosen so that P(sup |X - X~|^q > h) is that probability
    tails = []
    for prob in (0.05, 0.1, 0.2, 0.3):
        te = ss.tail_probability(ens, (c * _levy_threshold(law, prob)) ** q)
        ok &= te.wilson_high >= prob and te.wilson_low <= 2.0 * prob
        tails.append(f"{te.prob:.3f} in [{prob}, {2 * prob:.1f}]")
    assert report(12, ok, f"alpha={alpha}: E|X_t - X~_t|^(alpha-1) against "
                          f"|c|^q t^(q/alpha) m(alpha, q) at {later.sum()} times, "
                          f"max |z| = {z.max():.2f} (<= 4); tail Wilson intervals "
                          f"meet [P, 2P]: {', '.join(tails)}; 40000 paths, 200 steps")


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_criterion_12_deterministic_pairs(alpha):
    # with b = 0 and sigma = 1 both legs take the same jumps, so X~_t - X_t is
    # c t for drift_shift and the initial gap for initial_gap: D(t) is
    # |c t|^(alpha-1) or |gap|^(alpha-1) on every path, up to rounding
    q = alpha - 1.0
    law = ss.make_stable_law(alpha)
    cfg = SimConfig(T=1.0, n_steps=200, n_paths=40000, seed=5, stream_label="c12")
    details = []
    ok = True
    for name, params, exact in (
            ("drift_shift", {"shift": -0.3}, lambda t: np.abs(-0.3 * t) ** q),
            ("initial_gap", {"x0_gap": 0.2}, lambda t: np.full_like(t, 0.2 ** q))):
        pair = make_pair(name, {"b_amp": 0.0, "s1": 0.0, **params})
        curve = ss.distance_moment_curve(ss.simulate_coupled(cfg, pair, law), q)
        want = exact(curve.times)
        err = np.abs(curve.mean - want)
        ok &= bool(np.all(err <= 1e-9 * want))
        details.append(f"{name} max relative error "
                       f"{np.max(err[want > 0] / want[want > 0]):.1e}")
    assert report(12, ok, f"alpha={alpha}: D(t) of deterministic pairs to 1e-9 "
                          f"relative at every retained time; " + "; ".join(details))
