"""Frozen density and coefficient distances."""

import numpy as np
import pytest

import stablesde as ss
from stablesde.coefficients import make_pair
from stablesde import measures
from stablesde.measures import DensityModel
from stablesde.quadrature import panel_nodes

G0_15 = 0.28735275145216445


@pytest.fixture(scope="module")
def law15():
    return ss.make_stable_law(1.5)


@pytest.fixture(scope="module")
def gentle_model(law15):
    pair = make_pair("identical", {"s1": 0.05})
    return pair, DensityModel(mode="frozen_plain", law=law15)


class TestFrozenDensity:
    def test_constant_sigma_matches_weighted_measure(self, law15):
        """With sigma constant, p0_t(x0, y) = g((y - x0) / s) / s with
        s = t^(1/alpha) sigma^(1/alpha), the stable law rescaled around x0."""
        pair = make_pair("identical", {"s0": 1.3, "s1": 0.0, "x0": 0.5})
        model = DensityModel(mode="frozen_plain", law=law15)
        scale = 0.7 ** (1 / 1.5) * 1.3 ** (1 / 1.5)
        for y in (-1.0, 0.5, 2.0):
            g = ss.density_grid(law15, np.array([(y - 0.5) / scale]))[0]
            assert ss.frozen_density(model, pair, 0.7, y) == pytest.approx(
                g / scale, rel=1e-12)

    def test_center_value(self, law15):
        pair = make_pair("identical", {"s0": 1.0, "s1": 0.0})
        model = DensityModel(mode="frozen_plain", law=law15)
        assert ss.frozen_density(model, pair, 1.0, 0.0) == pytest.approx(G0_15, abs=1e-8)

    def test_center_by_substitution(self, law15):
        # y = x0 gives g(0) / (t^(1/a) sigma^(1/a))
        pair = make_pair("identical", {"s0": 1.3, "s1": 0.0, "x0": 2.0})
        model = DensityModel(mode="frozen_plain", law=law15)
        scale = 0.7 ** (1 / 1.5) * 1.3 ** (1 / 1.5)
        assert ss.frozen_density(model, pair, 0.7, 2.0) == pytest.approx(
            G0_15 / scale, rel=1e-8)

    def test_preconditions(self, law15, gentle_model):
        pair, model = gentle_model
        for t in (0.0, -1.0):
            with pytest.raises(ss.DomainError):
                ss.frozen_density(model, pair, t, 1.0)
        # the baseline sigma must stay strictly positive
        with pytest.raises(ss.DomainError):
            make_pair("identical", {"s0": 0.5, "s1": 0.5})

    def test_mass_near_one_on_time_grid(self, law15, gentle_model):
        """Quadrature of p0 over a window of 200 largest scales around x0,
        plus the stable tail mass beyond it, with sigma in [0.95, 1.05]."""
        pair, model = gentle_model
        for t in measures._time_grid(1.0, 1.5, 8)[1:]:
            scale_hi = float(t) ** (1 / 1.5) * 1.05 ** (1 / 1.5)
            half = np.geomspace(1e-3 * scale_hi, 200.0 * scale_hi, 120)
            nodes, wts = panel_nodes(
                pair.x0 + np.concatenate([-half[::-1], [0.0], half]), order=12)
            body = np.sum(ss.frozen_density(model, pair, float(t), nodes) * wts)
            tail = 2.0 * ss.stable_tail_mass(law15, 200.0 * (0.95 / 1.05) ** (1 / 1.5))
            assert abs(body + tail - 1.0) < 1e-3

    def test_tail_envelope_band(self, law15, gentle_model):
        pair, model = gentle_model
        ys = np.array([20.0, 35.0, -25.0])
        dens = ss.frozen_density(model, pair, 1.0, ys)
        env = ss.density_envelope(law15, ys)
        ratio = dens / env
        assert np.all(ratio > 0.01) and np.all(ratio < 10.0)

    def test_short_time_localizes(self, law15, gentle_model):
        pair, model = gentle_model
        assert ss.frozen_density(model, pair, 1e-6, 1.0) < 1e-6

    def test_empirical_mode_has_no_density(self, law15, gentle_model):
        pair, _ = gentle_model
        emp = DensityModel(mode="empirical", law=law15,
                           sim_config=ss.SimConfig(T=1.0, n_steps=10, n_paths=10,
                                                   seed=1))
        with pytest.raises(ss.DomainError):
            ss.frozen_density(emp, pair, 0.5, 0.0)

    def test_model_validation(self, law15):
        with pytest.raises(ss.DomainError):
            DensityModel(mode="nonsense", law=law15)
        # the envelope M p0 gives M B and M^(1/alpha) S: no mode of its own
        with pytest.raises(ss.DomainError):
            DensityModel(mode="frozen_upper", law=law15)
        with pytest.raises(TypeError):
            DensityModel(mode="frozen_plain", law=law15, M=1.0)
        with pytest.raises(ss.DomainError):
            DensityModel(mode="empirical", law=law15)


class TestSpaceIntegral:
    """The space integral behind B and S: int gap(y) p0_t(x0, y) dy."""

    @pytest.fixture(scope="class")
    def constant_sigma(self, law15):
        pair = make_pair("identical", {"s0": 1.2, "s1": 0.0, "x0": 0.5})
        return pair, DensityModel(mode="frozen_plain", law=law15)

    def test_total_mass_one(self, constant_sigma):
        pair, model = constant_sigma
        for t in (0.05, 0.8, 2.0):
            mass = measures._space_integral(model, pair, t,
                                            lambda y: np.ones_like(y))
            assert mass == pytest.approx(1.0, abs=1e-4)

    def test_constant(self, constant_sigma):
        pair, model = constant_sigma
        val = measures._space_integral(model, pair, 1.3,
                                       lambda y: 2.0 * np.ones_like(y))
        assert val == pytest.approx(2.0, rel=1e-4)

    def test_far_indicator_below_tail_bound(self, law15):
        pair = make_pair("identical", {"s0": 1.0, "s1": 0.0})
        model = DensityModel(mode="frozen_plain", law=law15)
        val = measures._space_integral(
            model, pair, 1.0, lambda y: (np.abs(y) > 30.0).astype(float))
        # the mass beyond 30 is the two stable tails, at most the envelope integral
        bound = 2.0 * law15.c_alpha * 30.0 ** -1.5 / 1.5 * 2.0
        assert 0.9 * 2.0 * ss.stable_tail_mass(law15, 30.0) < val < bound


class TestDistances:
    def test_zero_for_identical(self, law15, gentle_model):
        pair, model = gentle_model
        assert ss.distance_B(pair, model, 1.0) == 0.0
        assert ss.distance_S(pair, model, 1.0) == 0.0

    def test_constant_drift_shift(self, law15):
        pair = make_pair("drift_shift", {"shift": 0.3, "s1": 0.0})
        model = DensityModel(mode="frozen_plain", law=law15)
        assert ss.distance_B(pair, model, 1.0) == pytest.approx(0.3, rel=1e-3)
        assert ss.distance_B(pair, model, 2.0) == pytest.approx(0.6, rel=1e-3)

    def test_constant_jump_shift(self, law15):
        pair = make_pair("jump_shift", {"shift": 0.2, "s1": 0.0})
        model = DensityModel(mode="frozen_plain", law=law15)
        assert ss.distance_S(pair, model, 1.0) == pytest.approx(0.2, rel=1e-3)
        assert ss.distance_S(pair, model, 2.0) == pytest.approx(
            0.2 * 2.0 ** (1 / 1.5), rel=1e-3)

    def test_bump_scaling_slope(self, law15):
        from stablesde.quadrature import ols_loglog
        amps = np.array([1.0, 0.5, 0.25, 0.125])
        vals_B, vals_S = [], []
        model = DensityModel(mode="frozen_plain", law=law15)
        for amp in amps:
            pb = make_pair("drift_bump", {"amp": amp})
            js = make_pair("jump_bump", {"amp": amp * 0.3})
            vals_B.append(ss.distance_B(pb, model, 1.0))
            vals_S.append(ss.distance_S(js, model, 1.0))
        slope_B, _, _ = ols_loglog(1.0 / amps, np.array(vals_B))
        slope_S, _, _ = ols_loglog(1.0 / amps, np.array(vals_S))
        assert slope_B == pytest.approx(-1.0, abs=0.05)
        assert slope_S == pytest.approx(-1.0, abs=0.05)

    def test_monotone_in_perturbation(self, law15):
        model = DensityModel(mode="frozen_plain", law=law15)
        vals = []
        for amp in (0.1, 0.2, 0.4):
            pair = make_pair("drift_bump", {"amp": amp})
            vals.append(ss.distance_B(pair, model, 1.0))
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("name, distance", [("drift_bump", ss.distance_B),
                                                ("jump_bump", ss.distance_S)])
    def test_frozen_distance_follows_the_start(self, law15, name, distance):
        """With constant sigma and the bump centred on x0, the frozen density
        and the gap both move with the pair's start, so the distance does not."""
        model = DensityModel(mode="frozen_plain", law=law15)
        at = [distance(make_pair(name, {"amp": 0.25, "s1": 0.0, "x0": x0}),
                       model, 1.0) for x0 in (0.0, 2.0)]
        assert at[0] > 0 and at[1] == pytest.approx(at[0], rel=1e-9)

    def test_T_domain(self, law15, gentle_model):
        pair, model = gentle_model
        with pytest.raises(ss.DomainError):
            ss.distance_B(pair, model, 0.0)

    def test_empirical_mode_close_to_frozen(self, law15):
        pair = make_pair("drift_bump", {"amp": 0.4, "s1": 0.05})
        frozen = DensityModel(mode="frozen_plain", law=law15)
        b_frozen = ss.distance_B(pair, frozen, 1.0)
        emp = DensityModel(mode="empirical", law=law15,
                           sim_config=ss.SimConfig(T=1.0, n_steps=200,
                                                   n_paths=20000, seed=31))
        b_emp = ss.distance_B(pair, emp, 1.0)
        assert 0.5 < b_emp / b_frozen < 2.0


    def test_empirical_T_must_be_the_simulated_horizon(self, law15):
        pair = make_pair("drift_bump", {"amp": 0.2, "s1": 0.05})
        emp = DensityModel(mode="empirical", law=law15,
                           sim_config=ss.SimConfig(T=1.0, n_steps=4, n_paths=16,
                                                   seed=1))
        for distance in (ss.distance_B, ss.distance_S):
            with pytest.raises(ss.DomainError, match="sim.T=1, got T=2"):
                distance(pair, emp, 2.0)

    def test_empirical_B_and_S_share_one_run(self, law15, monkeypatch):
        pair = make_pair("jump_bump", {"amp": 0.3, "s1": 0.05})
        cfg = ss.SimConfig(T=1.0, n_steps=32, n_paths=512, seed=7)
        emp = DensityModel(mode="empirical", law=law15, sim_config=cfg)
        calls = []
        real = measures.simulate_baseline_average
        monkeypatch.setattr(measures, "simulate_baseline_average",
                            lambda *a: calls.append(a) or real(*a))
        B, S = ss.distance_B(pair, emp, 1.0), ss.distance_S(pair, emp, 1.0)
        assert len(calls) == 1
        # each average is bitwise what a run of that integrand alone gives,
        # with the gap evaluating b and sigma again
        b_alone, = real(cfg, pair, law15,
                        [lambda t, x, b, s: pair.drift_gap(t, x) ** 1.0])
        s_alone, = real(cfg, pair, law15,
                        [lambda t, x, b, s: pair.jump_gap(t, x) ** 1.5])
        assert B == b_alone and S == s_alone ** (1 / 1.5) and S > 0
        # another pair on the same model simulates again
        ss.distance_B(make_pair("drift_shift", {"shift": 0.2}), emp, 1.0)
        assert len(calls) == 2

    def test_frozen_B_and_S_share_the_density(self, law15, monkeypatch):
        pair = make_pair("jump_bump", {"amp": 0.3, "s1": 0.05})
        model = DensityModel(mode="frozen_plain", law=law15)
        calls = []
        real = measures.frozen_density
        monkeypatch.setattr(measures, "frozen_density",
                            lambda *a: calls.append(a[2]) or real(*a))
        B = ss.distance_B(pair, model, 1.0)
        n_B = len(calls)
        S = ss.distance_S(pair, model, 1.0)
        # one density per time node and window, all of them computed for B
        assert n_B >= 24 and len(calls) == n_B
        # each distance is bitwise what it is on a model of its own
        for distance, value in ((ss.distance_B, B), (ss.distance_S, S)):
            assert distance(pair, DensityModel(mode="frozen_plain", law=law15),
                            1.0) == value
        # another pair on the same model evaluates its own densities
        n = len(calls)
        ss.distance_B(make_pair("drift_shift", {"shift": 0.2}), model, 1.0)
        assert len(calls) > n

    @pytest.mark.parametrize("mode", ["frozen_plain", "empirical"])
    def test_memo_follows_the_pair(self, law15, mode):
        """Pair A, then B, then A again on one model: each pair's B and S
        are bitwise those of a fresh model, so the memo never serves one
        pair's density or run to another (the two baselines differ)."""
        cfg = ss.SimConfig(T=1.0, n_steps=16, n_paths=256, seed=3)

        def model():
            return DensityModel(mode=mode, law=law15, sim_config=cfg)

        def both(pair, m):
            return ss.distance_B(pair, m, 1.0, 4), ss.distance_S(pair, m, 1.0, 4)

        a = make_pair("jump_bump", {"amp": 0.3, "s1": 0.05})
        b = make_pair("drift_bump", {"amp": 0.2, "s1": 0.1, "x0": 0.5})
        shared = model()
        for pair in (a, b, a):
            got = both(pair, shared)
            assert got == both(pair, model()) and max(got) > 0


class TestSupDistances:
    def test_identical_zero(self, gentle_model):
        pair, _ = gentle_model
        assert ss.distance_B_sup(pair, 1.0) == 0.0
        assert ss.distance_S_sup(pair, 1.5, 1.0) == 0.0

    def test_constant_shift_variants(self):
        pair = make_pair("drift_shift", {"shift": 0.25})
        assert ss.distance_B_sup(pair, 2.0) == pytest.approx(0.5, rel=1e-12)
        assert ss.distance_B_sup(pair, 2.0, variant="time_sup") == pytest.approx(
            0.25, rel=1e-12)
        js = make_pair("jump_shift", {"shift": 0.25})
        assert ss.distance_S_sup(js, 1.5, 2.0) == pytest.approx(
            0.25 * 2.0 ** (1 / 1.5), rel=1e-6)

    def test_unknown_variant(self, gentle_model):
        pair, _ = gentle_model
        with pytest.raises(ss.DomainError):
            ss.distance_B_sup(pair, 1.0, variant="bogus")

    def test_only_an_absent_window_is_the_default(self, gentle_model):
        pair, _ = gentle_model
        for window in ((), []):
            with pytest.raises(ss.DomainError, match="lo < hi"):
                ss.distance_B_sup(pair, 1.0, window=window)
        assert ss.distance_B_sup(pair, 1.0, window=None) == 0.0


class TestTimeGrid:
    def test_nodes_graded(self):
        nodes = measures._time_grid(2.0, 1.5, 10)
        assert nodes[0] == 0.0 and nodes[-1] == 2.0
        assert np.all(np.diff(nodes) > 0)
        # grading concentrates nodes near zero
        assert nodes[1] < 2.0 / 10

    def test_validation(self):
        with pytest.raises(ss.DomainError):
            measures._time_grid(1.0, 1.5, 1)

