"""Coupled simulation: determinism, coupling exactness, functionals."""

import hashlib
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablesde as ss
from stablesde.coefficients import (_PAIRS, Perturbed, drift_sequence, make_family,
                                    make_pair, split)
from stablesde import parallel, simulate
from stablesde.simulate import LegEnsemble, SimConfig, wilson_interval

from oracles import stable_cdf


@pytest.fixture(scope="module")
def law15():
    return ss.make_stable_law(1.5)


@pytest.fixture(scope="module")
def small_cfg():
    return SimConfig(T=1.0, n_steps=128, n_paths=3000, seed=424242)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"T": 0.0}, {"T": -1.0}, {"n_steps": 0}, {"n_paths": 0},
        {"x_clip": -1.0}, {"x_clip": math.nan},
    ])
    def test_validation(self, kw):
        base = dict(T=1.0, n_steps=10, n_paths=10, seed=0)
        base.update(kw)
        with pytest.raises(ss.DomainError):
            SimConfig(**base)


class TestCoupling:
    def test_identical_pair_bitwise_zero(self, law15, small_cfg):
        pair = make_pair("identical", {})
        ens = ss.simulate_coupled(small_cfg, pair, law15)
        assert ens.y_max.max() == 0.0
        assert np.all(ens.abs_diff == 0.0)
        curve = ss.distance_moment_curve(ens, 0.5)
        assert curve.sup == 0.0
        assert ss.tail_probability(ens, 0.1).prob == 0.0

    def test_identical_pair_any_seed(self, law15):
        for seed in (1, 2, 987654321):
            cfg = SimConfig(T=0.5, n_steps=32, n_paths=500, seed=seed)
            ens = ss.simulate_coupled(cfg, make_pair("identical", {}), law15)
            assert ens.y_max.max() == 0.0

    def test_initial_values(self, law15, small_cfg):
        pair = make_pair("initial_gap", {"x0_gap": 0.25})
        ens = ss.simulate_coupled(small_cfg, pair, law15)
        assert ens.retained_times[0] == 0.0
        assert np.all(ens.abs_diff[0, 0] == 0.25)

    def test_bit_reproducible(self, law15, small_cfg):
        pair = make_pair("jump_bump", {"amp": 0.3})
        cfg = replace(small_cfg, keep_paths=True)
        a = ss.simulate_coupled(cfg, pair, law15, digest=True)
        b = ss.simulate_coupled(cfg, pair, law15, digest=True)
        assert np.array_equal(a.abs_diff, b.abs_diff)
        assert np.array_equal(a.paths[:, -1], b.paths[:, -1])
        assert a.increments_digest is not None
        assert a.increments_digest == b.increments_digest

    def test_digest_only_on_request(self, law15, small_cfg):
        pair = make_pair("jump_bump", {"amp": 0.3})
        assert ss.simulate_coupled(small_cfg, pair, law15).increments_digest is None

    def test_block_structure_does_not_change_results_with_path_count(
            self, law15):
        # leading paths are identical when the ensemble grows (block streams)
        pair = make_pair("initial_gap", {"x0_gap": 0.1})
        small = SimConfig(T=1.0, n_steps=16, n_paths=4096, seed=5, keep_paths=True)
        big = SimConfig(T=1.0, n_steps=16, n_paths=8192, seed=5, keep_paths=True)
        e1 = ss.simulate_coupled(small, pair, law15)
        e2 = ss.simulate_coupled(big, pair, law15)
        assert np.array_equal(e1.paths[0, -1], e2.paths[0, -1][:4096])


class TestEulerExactness:
    def test_constant_coefficients_match_stable_law(self, law15):
        # b = 0, sigma = 1: the Euler scheme is exact; X_T - x0 is stable
        # with scale T^(1/alpha)
        pair = make_pair("identical", {"b_amp": 0.0, "s0": 1.0, "s1": 0.0})
        cfg = SimConfig(T=1.0, n_steps=64, n_paths=20000, seed=77, keep_paths=True)
        ens = ss.simulate_coupled(cfg, pair, law15)
        xs = np.sort(ens.paths[0, -1][ens.ok])
        idx = np.linspace(200, xs.size - 200, 400).astype(int)
        cdf = np.array([stable_cdf(law15, x) for x in xs[idx]])
        emp = (idx + 1.0) / xs.size
        assert np.max(np.abs(cdf - emp)) < 0.015

    def test_self_similarity(self, law15):
        # X_T - x0 has scale T^(1/alpha) for b = 0, sigma = 1: the slope of
        # log median |X_T - x0| against log T is 1/alpha
        from stablesde.quadrature import ols_loglog
        pair = make_pair("identical", {"b_amp": 0.0, "s0": 1.0, "s1": 0.0})
        Ts = [0.25, 1.0, 4.0]
        meds = []
        for T in Ts:
            cfg = SimConfig(T=T, n_steps=32, n_paths=20000, seed=13, keep_paths=True)
            ens = ss.simulate_coupled(cfg, pair, law15)
            meds.append(np.median(np.abs(ens.paths[0, -1][ens.ok] - pair.x0)))
        slope, _, _ = ols_loglog(np.array(Ts), np.array(meds))
        assert slope == pytest.approx(1.0 / 1.5, abs=0.05)


class TestMomentCurve:
    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5, 2.0])
    def test_q_domain(self, q, law15, small_cfg):
        pair = make_pair("initial_gap", {"x0_gap": 0.1})
        ens = ss.simulate_coupled(small_cfg, pair, law15)
        with pytest.raises(ss.DomainError):
            ss.distance_moment_curve(ens, q)

    def test_gap_only_scaling(self, law15):
        # sup_t E|Y_t|^(a-1) scales like gap^(a-1) under identical
        # Lipschitz coefficients
        from stablesde.quadrature import ols_loglog
        gaps = [0.01, 0.04, 0.16]
        sups = []
        for i, gap in enumerate(gaps):
            cfg = SimConfig(T=1.0, n_steps=100, n_paths=20000, seed=3,
                            stream_label=f"gap-{i}")
            pair = make_pair("initial_gap", {"x0_gap": gap})
            ens = ss.simulate_coupled(cfg, pair, law15)
            sups.append(ss.distance_moment_curve(ens, 0.5).sup)
        slope, _, _ = ols_loglog(np.array(gaps), np.array(sups))
        assert slope == pytest.approx(0.5, abs=0.15)

    @pytest.mark.parametrize("n_paths, n_flagged", [(3, 2), (4, 2), (5000, 40)],
                             ids=["one_ok", "two_ok", "many_ok"])
    def test_bits_of_the_array_formula(self, n_paths, n_flagged):
        """Mean and stderr are bitwise those of mean/std over the whole
        selection abs_diff[i][:, ok] ** q."""
        rng = np.random.default_rng(n_paths)
        flagged = np.zeros(n_paths, dtype=bool)
        flagged[rng.choice(n_paths, n_flagged, replace=False)] = True
        ens = LegEnsemble(
            alpha=1.5, retained_idx=np.arange(129),
            retained_times=np.linspace(0.0, 1.0, 129),
            abs_diff=np.abs(rng.standard_cauchy((2, 129, n_paths))),
            y_max=None, abs_max=None, flagged=flagged,
            integral=None, paths=None)
        for i in (0, 1):
            vals = ens.abs_diff[i][:, ens.ok] ** 0.5
            n = vals.shape[1]
            mean = vals.mean(axis=1)
            stderr = (vals.std(axis=1, ddof=1) / math.sqrt(n) if n > 1
                      else np.zeros_like(mean))
            curve = ss.distance_moment_curve(ens, 0.5, i)
            assert curve.mean.tobytes() == mean.tobytes()
            assert curve.stderr.tobytes() == stderr.tobytes()


class TestTailProbability:
    def test_h_domain(self, law15, small_cfg):
        pair = make_pair("identical", {})
        ens = ss.simulate_coupled(small_cfg, pair, law15)
        with pytest.raises(ss.DomainError):
            ss.tail_probability(ens, 0.0)

    def test_small_h_saturates(self, law15, small_cfg):
        pair = make_pair("initial_gap", {"x0_gap": 0.2})
        ens = ss.simulate_coupled(small_cfg, pair, law15)
        te = ss.tail_probability(ens, 1e-6)
        assert te.prob == 1.0
        assert te.wilson_low < 1.0 <= te.wilson_high

    def test_wilson_interval_known_value(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4901625, abs=1e-6)
        assert hi == pytest.approx(0.9433178, abs=1e-6)

    def test_monotone_in_h(self, law15, small_cfg):
        pair = make_pair("jump_bump", {"amp": 0.3})
        ens = ss.simulate_coupled(small_cfg, pair, law15)
        probs = [ss.tail_probability(ens, h).prob for h in (0.05, 0.1, 0.2, 0.4)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestUniformLp:
    def test_identical_members_pass(self, law15, small_cfg):
        pair = make_pair("identical", {})
        ens = ss.simulate_coupled(small_cfg, pair, law15)
        sups = [ens.abs_max[0][ens.ok]] * 4
        rep = ss.uniform_lp_check(sups, 1.5)
        assert rep.p == 1.25 and rep.max_abs_dev_in_se <= 3.0

    def test_trending_members_fail(self):
        rng = np.random.default_rng(0)
        sups = [np.abs(rng.normal(1.0 + 0.5 * n, 0.01, size=4000))
                for n in range(5)]
        rep = ss.uniform_lp_check(sups, 1.5)
        assert rep.max_abs_dev_in_se > 3.0


class TestGuards:
    def test_explosive_paths_raise_ensemble_error(self, law15):
        # a tiny clip turns most heavy-jump paths into flagged ones
        pair = make_pair("identical", {})
        cfg = SimConfig(T=1.0, n_steps=64, n_paths=2000, seed=9, x_clip=0.05)
        with pytest.raises(ss.NumericError):
            ss.simulate_coupled(cfg, pair, law15)

    def test_keep_paths(self, law15):
        pair = make_pair("initial_gap", {"x0_gap": 0.1})
        cfg = SimConfig(T=1.0, n_steps=16, n_paths=50, seed=2, keep_paths=True)
        ens = ss.simulate_coupled(cfg, pair, law15)
        assert ens.paths[0].shape == (17, 50)
        assert np.all(ens.paths[0][0] == 0.0)
        assert np.all(ens.paths[1][0] == 0.1)
        # retained |Y| agrees with the full paths
        diff = np.abs(ens.paths[0] - ens.paths[1])
        assert np.allclose(ens.abs_diff, diff[ens.retained_idx])
        assert np.allclose(ens.y_max, diff.max(axis=0))

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=10, deadline=None)
    def test_identical_pair_bitwise_equal_any_seed(self, seed):
        law = ss.make_stable_law(1.5)
        cfg = SimConfig(T=0.5, n_steps=8, n_paths=64, seed=seed)
        ens = ss.simulate_coupled(cfg, make_pair("identical", {}), law)
        assert ens.y_max.max() == 0.0


class TestThreadedBlocks:
    """Blocks run on a thread pool; outputs must not depend on its size."""

    RAGGED = 3 * 4096 + 123

    def _run(self, monkeypatch, n_threads, **cfg):
        monkeypatch.setattr(parallel, "workers", lambda: n_threads)
        law = ss.make_stable_law(1.5)
        pair = make_pair("jump_bump", {"amp": 0.3})
        legs = [(pair.x0, pair.b, pair.sigma),
                (pair.x0_tilde, pair.b_tilde, pair.sigma_tilde),
                (pair.x0 + 0.1, pair.b_tilde, pair.sigma_tilde)]
        config = SimConfig(**{"T": 1.0, "n_steps": 24, "n_paths": self.RAGGED,
                              "seed": 8080, **cfg})
        return simulate.simulate_legs(config, law, legs,
                                      integrands=[lambda t, x, b, s: np.abs(x) ** 0.5],
                                      digest=True)

    @pytest.mark.parametrize("cfg", [{"keep_paths": True}, {"x_clip": 25.0}],
                             ids=["keep_paths", "clipped"])
    def test_one_and_two_threads_bitwise_equal(self, monkeypatch, cfg):
        one = self._run(monkeypatch, 1, **cfg)
        two = self._run(monkeypatch, 2, **cfg)
        if "x_clip" in cfg:
            assert 0 < one.n_flagged <= 0.01 * self.RAGGED
        for name in ("abs_diff", "y_max", "abs_max", "flagged", "integral",
                     "paths"):
            a, b = getattr(one, name), getattr(two, name)
            if a is None:
                assert b is None
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert one.increments_digest == two.increments_digest

    @pytest.mark.parametrize("rows", [1, 7, 25, 40])
    def test_chunk_rows_bitwise_neutral(self, monkeypatch, rows):
        """Increments streamed in chunks of any number of rows give the
        outputs and digest of one sampler call per block. 25 steps x 123
        columns is 3075 uniforms, 3 past a Philox counter step."""
        cfg = {"n_steps": 25, "n_paths": 4096 + 123, "keep_paths": True}
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", 25)
        whole = self._run(monkeypatch, 2, **cfg)
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", rows)
        chunked = self._run(monkeypatch, 2, **cfg)
        for name in ("abs_diff", "y_max", "abs_max", "flagged", "integral",
                     "paths"):
            a, b = getattr(whole, name), getattr(chunked, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        # the digest hashes what one call over a whole block draws
        law, config = ss.make_stable_law(1.5), SimConfig(T=1.0, seed=8080, **cfg)
        hasher = hashlib.blake2b(digest_size=16)
        for _, cols, stream in simulate._blocks(config):
            hasher.update(simulate.sample_increments(
                law, 1.0 / 25, (25, cols.stop - cols.start), stream))
        assert chunked.increments_digest == whole.increments_digest
        assert chunked.increments_digest == hasher.hexdigest()

    def test_block_error_is_raised_and_pending_blocks_cancelled(self, monkeypatch):
        """The exception a block raises reaches the caller as the same
        object; blocks that had not started never run."""
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        err = RuntimeError("drift failed")
        starts = []

        def drift(t, x):
            if t == 0.0:
                starts.append(x.size)
                if len(starts) == 1:
                    raise err
                time.sleep(0.2)     # lets the caller cancel the queued blocks
            return np.zeros_like(x)

        law = ss.make_stable_law(1.5)
        config = SimConfig(T=1.0, n_steps=2, n_paths=8 * 4096, seed=1)
        with pytest.raises(RuntimeError) as info:
            simulate.simulate_legs(config, law, [(0.0, drift, lambda t, x: 1.0)])
        assert info.value is err
        # block 0 raised; at most the block already taken by the worker ran
        assert 1 <= len(starts) <= 2


def reference_legs(config, law, legs, integrands=()):
    """The per-leg Euler loop that the stacked engine replaced, one block
    after another: each leg evaluates its own coefficients, and each
    integrand f(t, x) is evaluated on leg 0's state alone. The increments of
    a block are drawn in one call, which draws the numbers of the engine's
    chunks (TestThreadedBlocks.test_chunk_rows_bitwise_neutral)."""
    n, npth, nl = config.n_steps, config.n_paths, len(legs)
    dt = config.T / n
    times = dt * np.arange(n + 1)
    ridx = np.unique(np.round(np.linspace(
        0, n, min(simulate._RETAIN_GRID_MAX, n + 1))).astype(int))
    rpos = {k: i for i, k in enumerate(ridx)}
    x0 = np.array([[leg[0]] for leg in legs], dtype=float)
    run = LegEnsemble(
        alpha=law.alpha, retained_idx=ridx, retained_times=times[ridx],
        abs_diff=np.empty((nl - 1, ridx.size, npth)),
        y_max=np.full((nl - 1, npth), np.nan), abs_max=np.full((nl, npth), np.nan),
        flagged=np.zeros(npth, dtype=bool),
        integral=np.zeros((len(integrands), npth)),
        paths=np.empty((nl, n + 1, npth)) if config.keep_paths else None)
    hasher = hashlib.blake2b(digest_size=16)
    for _, cols, stream in simulate._blocks(config):
        width = cols.stop - cols.start
        dz = simulate.sample_increments(law, dt, (n, width), stream)
        hasher.update(dz)
        x = np.repeat(x0, width, axis=1)
        flagged, tot = run.flagged[cols], run.integral[:, cols]
        y_max, x_max = run.y_max[:, cols], run.abs_max[:, cols]
        for k in range(n + 1):
            with np.errstate(invalid="ignore"):
                diff = np.abs(x[:-1] - x[1:])
                np.fmax(y_max, diff, out=y_max)
                np.fmax(x_max, np.abs(x), out=x_max)
            if k in rpos:
                run.abs_diff[:, rpos[k], cols] = diff
            if run.paths is not None:
                run.paths[:, k, cols] = x
            if k == n:
                break
            t_k = times[k]
            np.copyto(x, 0.0, where=flagged)
            for tot_i, f in zip(tot, integrands):
                tot_i += f(t_k, x[0]) * dt
            dz_k = dz[k]
            for xj, (_, drift, jump) in zip(x, legs):
                xj[...] = xj + drift(t_k, xj) * dt + jump(t_k, xj) * dz_k
                flagged |= ~np.isfinite(xj) | (np.abs(xj) > config.x_clip)
            np.copyto(x, np.nan, where=flagged)
    run.increments_digest = hasher.hexdigest()
    return run


# the required parameter of each catalog pair that has one
_REQUIRED = {"drift_shift": {"shift": 0.2}, "jump_shift": {"shift": 0.2},
             "drift_bump": {"amp": 0.2}, "jump_bump": {"amp": 0.2},
             "jump_kink": {"amp": 0.2, "eta_tilde": 0.8},
             "mollified_kink": {"h": 0.1}, "initial_gap": {"x0_gap": 0.3}}
_FIELDS = ("abs_diff", "y_max", "abs_max", "flagged", "integral", "paths")


class TestStackedLegs:
    """The stacked engine gives every output bit of the per-leg loop, at any
    thread count, with flagged paths and kept paths."""

    RAGGED = 4096 + 123

    def _config(self, **kw):
        return SimConfig(**{"T": 1.0, "n_steps": 24, "n_paths": self.RAGGED,
                            "seed": 2024, "x_clip": 25.0, "keep_paths": True, **kw})

    def _assert_same(self, reference, run):
        for name in _FIELDS:
            a, b = getattr(reference, name), getattr(run, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert run.increments_digest == reference.increments_digest

    def _check(self, monkeypatch, run, reference):
        """run(config) at 1 and 2 threads against the reference's outputs."""
        for threads in (1, 2):
            monkeypatch.setattr(parallel, "workers", lambda: threads)
            self._assert_same(reference, run())

    @pytest.mark.parametrize("name", sorted(_PAIRS))
    def test_catalog_pair_coupled(self, monkeypatch, law15, name):
        pair = make_pair(name, _REQUIRED.get(name, {}))
        config = self._config()
        legs = [(pair.x0, pair.b, pair.sigma),
                (pair.x0_tilde, pair.b_tilde, pair.sigma_tilde)]
        reference = reference_legs(config, law15, legs)
        assert 0 < reference.n_flagged <= 0.01 * self.RAGGED
        self._check(monkeypatch, lambda: ss.simulate_coupled(
            config, pair, law15, digest=True), reference)

    def test_convergence_legs(self, monkeypatch, law15):
        """The legs of convergence_experiment: one drift per member and the
        limit, all on the first member's sigma."""
        family = make_family("drift_mollification", {"n_stop": 4})
        base = family.pairs[0]
        legs = [(base.x0, b, base.sigma)
                for b in drift_sequence(family, "test")]
        config = self._config()
        reference = reference_legs(config, law15, legs)
        assert reference.n_flagged > 0
        self._check(monkeypatch, lambda: simulate.simulate_legs(
            config, law15, legs, digest=True), reference)

    @pytest.mark.parametrize("name", ["drift_bump", "jump_bump", "jump_kink",
                                      "drift_shift", "mollified_kink"])
    def test_empirical_gap_integrands(self, monkeypatch, law15, name):
        """The integrands of the empirical distances, given the step's b and
        sigma, against the gaps evaluating both coefficients again."""
        pair = make_pair(name, _REQUIRED[name])
        config = self._config()
        reference = reference_legs(
            config, law15, [(pair.x0, pair.b, pair.sigma)],
            [lambda t, x: pair.drift_gap(t, x) ** 1.0,
             lambda t, x: pair.jump_gap(t, x) ** 1.5])
        assert np.any(reference.integral != 0.0)
        self._check(monkeypatch, lambda: simulate.simulate_legs(
            config, law15, [(pair.x0, pair.b, pair.sigma)],
            [lambda t, x, b, s: pair.drift_gap(t, x, b) ** 1.0,
             lambda t, x, b, s: pair.jump_gap(t, x, s) ** 1.5], digest=True),
            reference)

    def test_scalar_and_non_adjacent_coefficients(self, monkeypatch, law15):
        """Coefficients returning a scalar broadcast over their rows, and a
        base shared by legs that are not adjacent runs on those rows only."""
        pair = make_pair("drift_bump", {"amp": 0.2})
        one = lambda t, x: 1.0
        legs = [(0.0, pair.b, one), (0.1, lambda t, x: 0.0, pair.sigma),
                (0.2, pair.b_tilde, one),
                (0.3, pair.b, Perturbed(one, lambda t, x: 0.5 * np.cos(x)))]
        config = self._config()
        reference = reference_legs(config, law15, legs,
                                   [lambda t, x: np.abs(x) ** 0.5])
        self._check(monkeypatch, lambda: simulate.simulate_legs(
            config, law15, legs, [lambda t, x, b, s: np.abs(x) ** 0.5],
            digest=True), reference)


class _Counted:
    """A coefficient that counts the calls and the elements it is evaluated on."""

    def __init__(self, f):
        self.f, self.calls, self.elements = f, 0, 0
        self._lock = threading.Lock()

    def __call__(self, t, x):
        with self._lock:
            self.calls += 1
            self.elements += np.size(x)
        return self.f(t, x)


def _counted(pair):
    """pair with its baseline b and sigma counted, also where b_tilde and
    sigma_tilde are built from them."""
    b, sigma = _Counted(pair.b), _Counted(pair.sigma)

    def rebuilt(tilde, old, new):
        base, term = split(tilde)
        if base is not old:
            return tilde
        return new if term is None else Perturbed(new, term)

    return replace(pair, b=b, sigma=sigma,
                   b_tilde=rebuilt(pair.b_tilde, pair.b, b),
                   sigma_tilde=rebuilt(pair.sigma_tilde, pair.sigma, sigma))


class TestCoefficientCounts:
    """Each baseline coefficient is evaluated once per path-step of each leg
    that runs it, in one call per block and step."""

    def test_empirical_run_evaluates_b_and_sigma_once(self, law15):
        pair = _counted(make_pair("drift_bump", {"amp": 0.2}))
        cfg = SimConfig(T=1.0, n_steps=10, n_paths=5000, seed=3)
        emp = ss.DensityModel(mode="empirical", law=law15, sim_config=cfg)
        assert ss.distance_B(pair, emp, 1.0) > 0
        ss.distance_S(pair, emp, 1.0)
        for f in (pair.b, pair.sigma):
            assert f.elements == 10 * 5000
            assert f.calls == 10 * 2    # 2 blocks

    @pytest.mark.parametrize("name", ["drift_bump", "jump_bump"])
    def test_coupled_run_evaluates_b_once_per_step(self, law15, name):
        pair = _counted(make_pair(name, {"amp": 0.2}))
        cfg = SimConfig(T=1.0, n_steps=10, n_paths=5000, seed=3)
        ss.simulate_coupled(cfg, pair, law15)
        for f in (pair.b, pair.sigma):
            assert f.elements == 2 * 10 * 5000
            assert f.calls == 10 * 2


class TestMemory:
    """Transient memory does not grow with the step or path count; numpy's
    array buffers are traced by tracemalloc."""

    def test_coupled_run_and_moment_curve_peak(self, monkeypatch, law15):
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        pair = make_pair("jump_bump", {"amp": 0.3})
        cfg = SimConfig(T=1.0, n_steps=400, n_paths=8192, seed=3)
        tracemalloc.start()
        try:
            ens = ss.simulate_coupled(cfg, pair, law15)
            _, run_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            ss.distance_moment_curve(ens, 0.5)
            _, curve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # outputs besides abs_diff are a few (n_paths,) rows
        assert run_peak < ens.abs_diff.nbytes + 16 * 2 ** 20
        # a few rows of abs_diff, not copies of it
        assert curve_peak - held < 8 * ens.abs_diff[0, 0].nbytes
