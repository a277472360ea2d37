"""Rate bound arithmetic, sweeps, and the convergence experiment."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablesde as ss
from stablesde import rates
from stablesde.coefficients import (PerturbationFamily, drift_sequence, make_family,
                                    make_pair)
from stablesde.rates import RateBoundSpec
from stablesde.simulate import SimConfig


def pair_between(family, i, j):
    """Coupled pair whose baseline leg runs member i's drift and whose
    perturbed leg runs member j's; index len(family.pairs) is the limit."""
    drifts = drift_sequence(family, "pair_between")
    return replace(family.pairs[0], b=drifts[i], b_tilde=drifts[j],
                   label=f"members({i},{j})")


@pytest.fixture(scope="module")
def law15():
    return ss.make_stable_law(1.5)


class TestBoundSpec:
    def test_exponents_alpha_15_eta_1(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        assert spec.branch == "holder"
        assert spec.exponent_B == pytest.approx(0.5)
        assert spec.exponent_S == pytest.approx(0.5)

    def test_log_branch_detection(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0 / 1.5)
        assert spec.branch == "log"
        with pytest.raises(ss.DomainError):
            spec.exponent_B
        with pytest.raises(ss.DomainError):
            spec.exponent_S

    def test_exponents_positive_on_holder_branch(self):
        for alpha in (1.2, 1.5, 1.8):
            for eta in np.linspace(1.0 / alpha + 1e-3, 1.0, 7):
                spec = RateBoundSpec(alpha=alpha, eta_tilde=float(eta))
                assert spec.exponent_B > 0
                assert spec.exponent_S > 0

    def test_branch_connection_continuity(self):
        # exponents vanish continuously as eta_tilde -> (1/alpha)+
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0 / 1.5 + 1e-3)
        assert 0.0 < spec.exponent_B < 0.01
        assert 0.0 < spec.exponent_S < 0.01

    def test_validation(self):
        with pytest.raises(ss.DomainError):
            RateBoundSpec(alpha=2.0, eta_tilde=1.0)
        with pytest.raises(ss.DomainError):
            RateBoundSpec(alpha=1.5, eta_tilde=0.5)
        with pytest.raises(ss.DomainError):
            RateBoundSpec(alpha=1.5, eta_tilde=1.1)


class TestTheoreticalBound:
    def test_zero_everything(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        assert ss.theoretical_bound(spec, 0.0, 0.0, 0.0) == 0.0

    def test_reference_value(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        assert ss.theoretical_bound(spec, 0.0, 0.01, 0.01) == pytest.approx(0.1)

    def test_log_branch_value(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0 / 1.5)
        val = ss.theoretical_bound(spec, 0.0, 0.01, 0.01)
        assert val == pytest.approx(1.0 / math.log(100.0))

    def test_log_branch_zero_distances(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0 / 1.5)
        assert ss.theoretical_bound(spec, 0.2, 0.0, 0.0) == pytest.approx(
            0.2 ** 0.5)

    def test_gap_term(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        assert ss.theoretical_bound(spec, 0.04, 0.0, 0.0) == pytest.approx(
            0.04 ** 0.5)

    @pytest.mark.parametrize("B,S", [(1.0, 0.01), (0.01, 1.0), (1.5, 1.5)])
    def test_assumption_violation(self, B, S):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        with pytest.raises(ss.AssumptionViolation):
            ss.theoretical_bound(spec, 0.0, B, S)

    def test_negative_distance_rejected(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        with pytest.raises(ss.DomainError):
            ss.theoretical_bound(spec, 0.0, -0.1, 0.0)

    @given(gap=st.floats(0, 2), b1=st.floats(0, 0.99), s1=st.floats(0, 0.99),
           db=st.floats(0, 0.005), ds=st.floats(0, 0.005), dg=st.floats(0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_argument(self, gap, b1, s1, db, ds, dg):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=0.9)
        lo = ss.theoretical_bound(spec, gap, b1, s1)
        hi = ss.theoretical_bound(spec, gap + dg, min(b1 + db, 0.999),
                                  min(s1 + ds, 0.999))
        assert hi >= lo - 1e-12


class TestTailBound:
    def test_matches_at_h_one(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        assert ss.tail_bound(spec, 0.1, 0.02, 0.03, 1.0) == pytest.approx(
            ss.theoretical_bound(spec, 0.1, 0.02, 0.03))

    def test_doubling_h_halves(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        assert ss.tail_bound(spec, 0.1, 0.02, 0.03, 0.2) == pytest.approx(
            2.0 * ss.tail_bound(spec, 0.1, 0.02, 0.03, 0.4))

    def test_h_domain(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        with pytest.raises(ss.DomainError):
            ss.tail_bound(spec, 0.1, 0.02, 0.03, 0.0)

    def test_zero_perturbation_zero_bound(self):
        spec = RateBoundSpec(alpha=1.5, eta_tilde=1.0)
        for h in (0.1, 1.0, 10.0):
            assert ss.tail_bound(spec, 0.0, 0.0, 0.0, h) == 0.0


class TestRunSweep:
    def test_empty_family_rejected(self):
        with pytest.raises(ss.DomainError):
            make_family("initial_value", {"n_start": 3, "n_stop": 2})

    def test_unknown_family(self):
        with pytest.raises(ss.DomainError):
            make_family("bogus", {})

    def test_initial_value_sweep(self, law15):
        family = make_family("initial_value", {"gaps": [0.64, 0.16, 0.04, 0.01]})
        cfg = SimConfig(T=1.0, n_steps=100, n_paths=12000, seed=7)
        res = ss.run_sweep(family, cfg, law15)
        assert res.slope_D_vs_scale == pytest.approx(0.5, abs=0.15)
        # B = S = 0 for the pure initial-value family
        assert all(r.B == 0.0 and r.S == 0.0 for r in res.rows)
        assert res.C_fit > 0.0
        assert res.rows[0].satisfied

    def test_sweep_reproducible(self, law15):
        family = make_family("jump_bump", {"amp0": 0.5, "n_start": 1, "n_stop": 3})
        cfg = SimConfig(T=1.0, n_steps=64, n_paths=4000, seed=21)
        r1 = ss.run_sweep(family, cfg, law15)
        r2 = ss.run_sweep(family, cfg, law15)
        assert [r.D for r in r1.rows] == [r.D for r in r2.rows]
        assert [r.B for r in r1.rows] == [r.B for r in r2.rows]

    def test_one_ensemble_at_a_time(self, law15, monkeypatch):
        """A member's ensemble is released before the next member runs."""
        live = []
        real = rates.simulate_coupled

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in live)
            ens = real(*args, **kwargs)
            live.append(weakref.ref(ens))
            return ens

        monkeypatch.setattr(rates, "simulate_coupled", tracked)
        family = make_family("jump_bump", {"n_start": 1, "n_stop": 2})
        ss.run_sweep(family, SimConfig(T=1.0, n_steps=8, n_paths=512, seed=4), law15)
        assert len(live) == 2

    def test_no_slopes_under_four_members(self, law15):
        family = make_family("jump_bump", {"n_start": 1, "n_stop": 3})
        cfg = SimConfig(T=1.0, n_steps=32, n_paths=2000, seed=4)
        res = ss.run_sweep(family, cfg, law15)
        assert res.slope_D_vs_scale is None


class TestConvergenceExperiment:
    def test_constant_family_all_zero(self, law15):
        # four equal members, built as make_family builds each one; make_family
        # itself rejects them, since their labels would repeat
        family = PerturbationFamily("drift_mollification",
                                    [make_pair("mollified_kink", {"h": 0.25})
                                     for _ in range(4)], [0.25] * 4)
        cfg = SimConfig(T=1.0, n_steps=64, n_paths=3000, seed=6)
        rep = ss.convergence_experiment(family, cfg, law15)
        assert np.all(rep.pairwise_D == 0.0)
        assert rep.monotone_within_2se
        assert rep.lp_report.max_abs_dev_in_se <= 3.0

    def test_mollification_family_decreases(self, law15):
        family = make_family("drift_mollification",
                             {"h0": 0.5, "ratio": 0.5, "n_start": 1, "n_stop": 5})
        cfg = SimConfig(T=1.0, n_steps=128, n_paths=8000, seed=17)
        rep = ss.convergence_experiment(family, cfg, law15)
        assert rep.monotone_within_2se
        assert rep.limit_residual < rep.pairwise_D[0]
        assert rep.lp_report.max_abs_dev_in_se <= 3.0

    def test_one_run_matches_coupled_pairs(self, law15):
        # the single 4-leg run equals, bitwise, one coupled simulation per
        # neighbouring pair of members on the same config
        family = make_family("drift_mollification",
                             {"h0": 0.5, "ratio": 0.5, "n_start": 1, "n_stop": 3})
        cfg = SimConfig(T=1.0, n_steps=32, n_paths=512, seed=21)
        rep = ss.convergence_experiment(family, cfg, law15)
        curves = [ss.distance_moment_curve(
                      ss.simulate_coupled(cfg, pair_between(family, i, i + 1), law15), 0.5)
                  for i in range(3)]
        assert rep.pairwise_D.tolist() == [c.sup for c in curves[:-1]]
        assert rep.pairwise_se.tolist() == [c.sup_stderr for c in curves[:-1]]
        assert rep.limit_residual == curves[-1].sup

    def test_nonzero_start_gap_rejected(self, law15):
        family = make_family("drift_mollification", {"n_stop": 2, "x0_gap": 0.1})
        cfg = SimConfig(T=1.0, n_steps=8, n_paths=64, seed=1)
        with pytest.raises(ss.DomainError):
            ss.convergence_experiment(family, cfg, law15)

    def test_one_member_family_rejected(self, law15):
        family = make_family("drift_mollification", {"n_start": 3, "n_stop": 3})
        cfg = SimConfig(T=1.0, n_steps=8, n_paths=64, seed=1)
        with pytest.raises(ss.DomainError, match="at least 2 family members"):
            ss.convergence_experiment(family, cfg, law15)

    def test_requires_mollification_family(self, law15):
        family = make_family("jump_bump", {"n_start": 1, "n_stop": 4})
        cfg = SimConfig(T=1.0, n_steps=16, n_paths=100, seed=1)
        with pytest.raises(ss.DomainError):
            ss.convergence_experiment(family, cfg, law15)
        with pytest.raises(ss.DomainError):
            pair_between(family, 0, 1)
