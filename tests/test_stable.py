"""Stable law core: constants, density, envelope, sampling, generator.

Expected values tagged "oracle" were computed with mpmath at 25 digits:
the density by quadosc of (1/pi) int cos(xt) exp(-t^alpha) dt, the CDF by
the sine analogue, constants from their closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln

import stablesde as ss
from stablesde import stable
from stablesde.stable import _density_series, density_total_mass

from oracles import second_difference_route, stable_cdf

ORACLE_C_ALPHA = {1.2: 0.33354942991224811, 1.5: 0.29920671030107451,
                  1.8: 0.16490493881830272}
ORACLE_BIG_C = {1.2: 0.56745949021079875, 1.5: 1.2533141373155003,
                1.8: 1.7715972091246255}
ORACLE_G0 = {1.2: 0.29942005917982891, 1.5: 0.28735275145216445,
             1.8: 0.28306875859161901}
ORACLE_G15 = {0.5: 0.26229684036390461, 1.0: 0.20203815960957512,
              2.0: 0.084539623126444225, 3.0: 0.031509423616436235,
              5.0: 0.0071117360476858432}
ORACLE_G12 = {1.0: 0.18096537442436876, 3.0: 0.032309557796928249}
ORACLE_G18 = {1.0: 0.21418871210513797, 3.0: 0.030244348676961759}
ORACLE_CDF15 = {0.5: 0.6394042264861789, 1.0: 0.7563420244010055,
                2.0: 0.8949601703457842, 5.0: 0.979330912860039,
                10.0: 0.9933601908022864}
ORACLE_TAIL_RATIO = {1.2: 1.0075401503914, 1.5: 1.009079527614,
                     1.8: 1.0066881776724}


@pytest.fixture(scope="module")
def law15():
    return ss.make_stable_law(1.5)


class TestConstants:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_c_alpha(self, alpha):
        law = ss.make_stable_law(alpha)
        assert law.c_alpha == pytest.approx(ORACLE_C_ALPHA[alpha], rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_generator_identity_constant(self, alpha):
        law = ss.make_stable_law(alpha)
        assert law.big_C_alpha == pytest.approx(ORACLE_BIG_C[alpha], rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.3, -1.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ss.DomainError):
            ss.make_stable_law(alpha)

    def test_identity_constant_positive_sweep(self):
        for alpha in np.arange(1.05, 1.96, 0.05):
            assert ss.make_stable_law(float(alpha)).big_C_alpha > 0.0


class TestDensity:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_center_value(self, alpha):
        law = ss.make_stable_law(alpha)
        assert ss.stable_density(law, 0.0) == pytest.approx(ORACLE_G0[alpha],
                                                            abs=1e-9)

    def test_oracle_values(self, law15):
        for x, ref in ORACLE_G15.items():
            assert ss.stable_density(law15, x) == pytest.approx(ref, rel=1e-8)
        law12 = ss.make_stable_law(1.2)
        law18 = ss.make_stable_law(1.8)
        for x, ref in ORACLE_G12.items():
            assert ss.stable_density(law12, x) == pytest.approx(ref, rel=1e-8)
        for x, ref in ORACLE_G18.items():
            assert ss.stable_density(law18, x) == pytest.approx(ref, rel=1e-8)

    def test_symmetry(self, law15):
        xs = np.linspace(0.01, 30.0, 157)
        for x in xs[::13]:
            assert ss.stable_density(law15, -x) == pytest.approx(
                ss.stable_density(law15, x), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_total_mass(self, alpha):
        law = ss.make_stable_law(alpha)
        assert abs(density_total_mass(law) - 1.0) < 1e-5

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_tail_ratio(self, alpha):
        law = ss.make_stable_law(alpha)
        ratio = ss.stable_density(law, 50.0) / (law.c_alpha * 50.0 ** (-1 - alpha))
        assert ratio == pytest.approx(ORACLE_TAIL_RATIO[alpha], rel=1e-6)
        assert 0.98 <= ratio <= 1.02

    def test_fast_grid_agrees_with_quadrature(self, law15):
        xs = np.concatenate([np.linspace(-8, 8, 41), [25.0, -33.0]])
        fast = ss.density_grid(law15, xs)
        slow = np.array([ss.stable_density(law15, x) for x in xs])
        assert np.max(np.abs(fast - slow)) < 1e-8

    def test_cdf_oracle(self, law15):
        for x, ref in ORACLE_CDF15.items():
            assert stable_cdf(law15, x) == pytest.approx(ref, abs=1e-9)
        assert stable_cdf(law15, 0.0) == 0.5
        assert stable_cdf(law15, -2.0) == pytest.approx(
            1.0 - ORACLE_CDF15[2.0], abs=1e-9)

    def test_cdf_monotone_and_tail_consistent(self, law15):
        xs = np.linspace(-30, 30, 41)
        vals = np.array([stable_cdf(law15, x) for x in xs])
        assert np.all(np.diff(vals) > 0)
        # series tail beyond the cutoff must splice continuously
        a, b = stable_cdf(law15, 19.9), stable_cdf(law15, 20.1)
        assert 0 < b - a < 1e-4


def _plain_density_quad(law, x):
    """The density quadrature with a fresh lambda as its integrand: the
    oracle of the memoised one."""
    spec = law.density_quadrature
    a = law.alpha
    weight = {} if x == 0.0 else {"weight": "cos", "wvar": abs(x)}
    val = integrate.quad(lambda t: math.exp(-t ** a), 0.0, law.t_max,
                         epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                         limit=spec.max_subdivisions, **weight)[0]
    return val / math.pi


class _CountingMath:
    """The math module with a count of its exp calls."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, v):
        self.exp_calls += 1
        return math.exp(v)


class TestIntegrandMemo:
    """Every density quadrature of one alpha reads exp(-t^alpha) from one
    memo keyed by t; the values are bitwise those of a plain integrand."""

    def test_memo_is_bitwise_plain_and_shared_per_alpha(self, monkeypatch):
        cut = ss.QuadratureSpec().oscillatory_cutoff
        xs = [0.0, 1e-3, 0.5, 2.0, 7.3, math.nextafter(cut, 0.0)]
        alphas = (1.2, 1.5, 1.8)
        want = {(a, x): _plain_density_quad(ss.make_stable_law(a), x)
                for a in alphas for x in xs}
        counting = _CountingMath()
        monkeypatch.setattr(stable, "math", counting)
        stable._exp_memo.cache_clear()
        laws = []       # held, so that no two calls see a law at one address
        for rnd in ("cold", "warm"):
            before = counting.exp_calls
            for x in xs:
                for a in alphas:
                    # a new law object each call: the memo belongs to alpha
                    laws.append(ss.make_stable_law(a))
                    got = stable._density_quad(laws[-1], x)
                    assert got.hex() == want[a, x].hex(), (rnd, a, x)
            if rnd == "cold":
                assert counting.exp_calls > before
            else:
                assert counting.exp_calls == before
        # one exp per distinct abscissa: a few hundred per alpha
        for a in alphas:
            assert 0 < len(stable._exp_memo(a)) <= 2000
        assert counting.exp_calls == sum(len(stable._exp_memo(a)) for a in alphas)


class TestEnvelope:
    def test_plateau_and_power(self, law15):
        assert ss.density_envelope(law15, 0.5) == 1.0
        assert ss.density_envelope(law15, 2.0) == pytest.approx(2.0 ** -2.5)
        assert ss.density_envelope(law15, -2.0) == ss.density_envelope(law15, 2.0)

    def test_comparability_band(self, law15):
        lo, hi = ss.envelope_comparability_check(
            law15, np.arange(-50.0, 50.0 + 0.05, 0.1))
        assert 0.0 < lo <= hi < math.inf
        assert lo > 0.2

    def test_single_point(self, law15):
        lo, hi = ss.envelope_comparability_check(law15, [0.0])
        assert lo == hi == pytest.approx(ORACLE_G0[1.5], abs=1e-9)

    def test_empty_grid(self, law15):
        with pytest.raises(ss.DomainError):
            ss.envelope_comparability_check(law15, [])

    @given(x=st.floats(-1e6, 1e6, allow_nan=False))
    def test_envelope_even_and_bounded(self, x):
        law = ss.make_stable_law(1.5)
        v = ss.density_envelope(law, x)
        assert v == ss.density_envelope(law, -x)
        assert 0.0 < v <= 1.0


class TestSampler:
    def test_deterministic(self, law15):
        a = ss.sample_increments(law15, 1.0, 64, ss.RngStream(7).substream("s"))
        b = ss.sample_increments(law15, 1.0, 64, ss.RngStream(7).substream("s"))
        assert np.array_equal(a, b)

    def test_substreams_differ(self, law15):
        a = ss.sample_increments(law15, 1.0, 64, ss.RngStream(7).substream("a"))
        b = ss.sample_increments(law15, 1.0, 64, ss.RngStream(7).substream("b"))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [1.01, 1.2, 1.5, 1.8, 1.99])
    @pytest.mark.parametrize("shape", [1001, (7, 13), (500, 4096)])
    def test_matches_cms_expression(self, alpha, shape):
        """The in-place sampler is bitwise the Chambers-Mallows-Stuck
        expression evaluated directly."""
        law = ss.make_stable_law(alpha)
        dt = 0.37
        stream = ss.RngStream(31).substream("cms", alpha)
        u = stream.uniform(shape)
        w = stream.exponential(shape)
        theta = np.pi * (u - 0.5)
        xi = (np.sin(alpha * theta) / np.cos(theta) ** (1.0 / alpha)
              * (np.cos((alpha - 1.0) * theta) / w) ** ((1.0 - alpha) / alpha))
        want = dt ** (1.0 / alpha) * xi
        got = ss.sample_increments(law, dt, shape, ss.RngStream(31).substream("cms", alpha))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_dt_domain(self, law15):
        with pytest.raises(ss.DomainError):
            ss.sample_increments(law15, 0.0, 1, ss.RngStream(1))

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6, 7, 3075, 102400])
    @pytest.mark.parametrize("drawn", [0, 1, 3])
    def test_after_uniforms(self, drawn, m):
        """After `drawn` uniforms, the copy after_uniforms(m) draws the
        exponentials that follow m more uniforms, for every m % 4, and the
        stream itself does not move."""
        ref = ss.RngStream(5).substream("after", m)
        ref.uniform(drawn + m)
        want = ref.exponential(64).tobytes()
        stream = ss.RngStream(5).substream("after", m)
        stream.uniform(drawn)
        twin = stream.after_uniforms(m)
        assert twin.exponential(64).tobytes() == want
        stream.uniform(m)
        assert stream.exponential(64).tobytes() == want

    def test_self_similarity_exponent(self, law15):
        # dt^(1/alpha) scaling of the sample scale, via medians
        stream = ss.RngStream(11)
        meds = []
        dts = [1.0, 4.0, 16.0, 64.0]
        for i, dt in enumerate(dts):
            xs = ss.sample_increments(law15, dt, 20000, stream.substream(i))
            meds.append(np.median(np.abs(xs)))
        from stablesde.quadrature import ols_loglog
        slope, _, _ = ols_loglog(np.array(dts), np.array(meds))
        assert slope == pytest.approx(1.0 / 1.5, abs=0.05)

    @given(seed=st.integers(min_value=0, max_value=2 ** 62))
    @settings(max_examples=20, deadline=None)
    def test_determinism_property(self, seed):
        law = ss.make_stable_law(1.5)
        a = ss.sample_increments(law, 0.5, 8, ss.RngStream(seed).substream(0))
        b = ss.sample_increments(law, 0.5, 8, ss.RngStream(seed).substream(0))
        assert np.array_equal(a, b)


class TestGenerator:
    """The symbol, linearity and null space on the second-difference
    oracle, which validates it; the package route against the oracle and
    against a Fourier integral."""

    def test_constant_vanishes(self, law15):
        assert abs(second_difference_route(law15, lambda x: 3.0, 0.7)) < 1e-12

    def test_linear_vanishes(self, law15):
        assert abs(second_difference_route(law15, lambda x: float(x), 0.3)) < 1e-5

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_cosine_symbol(self, alpha):
        # L_alpha cos(u .)(x) = -|u|^alpha cos(u x)
        law = ss.make_stable_law(alpha)
        assert second_difference_route(law, math.cos, 0.0) == pytest.approx(
            -1.0, abs=1e-6)

    def test_cosine_frequency_and_shift(self, law15):
        val = second_difference_route(law15, lambda x: math.cos(2.0 * x), 0.0)
        assert val == pytest.approx(-(2.0 ** 1.5), rel=1e-6)
        val = second_difference_route(law15, math.cos, 0.7)
        assert val == pytest.approx(-math.cos(0.7), rel=1e-5)

    def test_linearity(self, law15):
        f = lambda x: math.cos(x)
        g = lambda x: math.exp(-x * x)
        combo = lambda x: 2.0 * f(x) - 0.5 * g(x)
        lhs = second_difference_route(law15, combo, 0.4)
        rhs = (2.0 * second_difference_route(law15, f, 0.4)
               - 0.5 * second_difference_route(law15, g, 0.4))
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_routes_agree_on_gaussian(self, law15):
        g = lambda x: np.exp(-np.asarray(x) ** 2)
        g2 = lambda x: (4.0 * np.asarray(x) ** 2 - 2.0) * np.exp(-np.asarray(x) ** 2)
        a = second_difference_route(law15, g, 0.3)
        b = ss.generator_apply(law15, g2, 0.3)
        assert a == pytest.approx(b, abs=2e-5)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_gaussian_matches_fourier_integral(self, alpha):
        # f = exp(-x^2/2) has Fourier transform sqrt(2 pi) exp(-u^2/2), so
        # L f(x) = -(sqrt(2 pi)/pi) int_0^inf u^alpha exp(-u^2/2) cos(u x) du
        law = ss.make_stable_law(alpha)
        f2 = lambda x: (np.asarray(x) ** 2 - 1.0) * np.exp(-np.asarray(x) ** 2 / 2.0)
        for x in (0.0, 0.025, 0.1, 0.2, 1.0, 3.0):
            integral, _ = integrate.quad(
                lambda u: u ** alpha * math.exp(-u * u / 2.0) * math.cos(u * x),
                0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
            ref = -math.sqrt(2.0 * math.pi) / math.pi * integral
            assert ss.generator_apply(law, f2, x) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e8, 1e10])
    def test_tails_kept_at_large_x(self, law15, scale):
        # f_s(y) = s^2 f(y/s) has L f_s(s x) = s^(2-alpha) L f(x); f'' decays
        # like y^-2, so the tails beyond +-60 (1 + |x|) carry about 1e-3 of
        # L f(1), which the route must still integrate at x = 1e8 and 1e10
        f2 = lambda y: 1.0 / (1.0 + np.asarray(y) ** 2)
        ref = ss.generator_apply(law15, f2, 1.0)
        scaled = ss.generator_apply(law15, lambda y: f2(np.asarray(y) / scale), scale)
        assert scaled / scale ** 0.5 == pytest.approx(ref, rel=1e-6)


class TestNumericErrorContract:
    def test_carries_estimate_and_error_bound(self):
        err = ss.NumericError("quadrature stalled", estimate=1.23,
                              error_bound=4.5e-3)
        assert err.estimate == 1.23
        assert err.error_bound == 4.5e-3


def _scalar_tail_series(law, x):
    """The per-point tail series the array version replaced: the oracle.
    Returns (value, number of terms summed)."""
    a = law.alpha
    k = np.arange(1, 81, dtype=float)
    s = np.sin(k * a * np.pi / 2.0)
    sign = np.where(k % 2 == 1, 1.0, -1.0) * np.sign(s)
    logmag = (gammaln(k * a + 1.0) - gammaln(k + 1.0)
              + np.log(np.abs(s) + 1e-300))
    terms = sign * np.exp(logmag - (k * a + 1.0) * math.log(abs(x)))
    mags = np.abs(terms)
    stop = int(np.argmin(mags)) + 1
    val = float(np.sum(terms[:stop])) / math.pi
    err = mags[min(stop, 79)] / math.pi
    if err > max(law.density_quadrature.abs_tol, 1e-8 * abs(val)):
        raise ss.NumericError(f"tail series not converged at x={x}",
                              estimate=val, error_bound=float(err))
    return val, stop


class TestTailSeriesArray:
    """The array tail series is bitwise the per-point series."""

    @pytest.mark.parametrize("alpha, stop_1e5", [(1.2, 55), (1.5, 48), (1.8, 42)])
    def test_bitwise_per_point(self, alpha, stop_1e5):
        law = ss.make_stable_law(alpha)
        # 35.7520475 and 281.734615: np.log and math.log differ in the last bit
        xs = np.array([np.nextafter(20.0, 21.0), 20.5, 35.7520475, 50.0, -50.0,
                       281.734615, 1e3, 1e5])
        ref = [_scalar_tail_series(law, x) for x in xs]
        assert ref[-1][1] == stop_1e5       # truncated before the 80th term
        got = _density_series(law, xs)
        assert np.array_equal(got, [v for v, _ in ref])
        scalar = _density_series(law, 1e5)
        assert type(scalar) is float and scalar == ref[-1][0]

    def test_density_grid_tail_points(self, law15):
        xs = np.concatenate([np.linspace(-200.0, 200.0, 801), [1e4, -3e5]])
        tail = np.abs(xs) > 20.0
        got = ss.density_grid(law15, xs)[tail]
        assert np.array_equal(got, [_scalar_tail_series(law15, x)[0]
                                    for x in xs[tail]])

    def test_first_failing_point_raises(self):
        law = ss.make_stable_law(1.5)
        with pytest.raises(ss.NumericError) as info:
            _density_series(law, [6.0, 3.5, 10.0])
        with pytest.raises(ss.NumericError) as ref:
            _scalar_tail_series(law, 3.5)
        assert str(info.value) == str(ref.value) == "tail series not converged at x=3.5"
        assert info.value.estimate == ref.value.estimate == pytest.approx(
            0.020473569448, rel=1e-10)
        assert info.value.error_bound == ref.value.error_bound == pytest.approx(
            1.3726e-4, rel=1e-4)


class TestTailMassTruncation:
    """The tail mass keeps the tail series' truncation-error rule."""

    def test_unconverged_series_raises(self):
        law = ss.make_stable_law(1.95)
        with pytest.raises(ss.NumericError) as info:
            ss.stable_tail_mass(law, 2.0)
        assert str(info.value) == "tail series not converged at x=2.0"
        # the first omitted term is about 1.4 times the truncated sum
        assert info.value.estimate == pytest.approx(0.0063337, rel=1e-4)
        assert info.value.error_bound / info.value.estimate == pytest.approx(1.395, rel=1e-3)

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 1.999])
    def test_shipped_range_converges(self, alpha):
        # the CDF oracle calls it above x = 20, the space integral above x = 80
        law = ss.make_stable_law(alpha)
        for x in (np.nextafter(20.0, 21.0), 80.0, 1e4):
            assert 0.0 < ss.stable_tail_mass(law, x) < 0.5

    def test_bitwise_the_series_of_its_own(self):
        """The tail mass sums the density's truncated series code: bitwise
        its former own copy of that code, kept here as the oracle, at 2,100
        (alpha, x) points, raising where it raised."""
        def own_series(law, x):
            _, logmag, sign = stable._tail_rows(law.alpha)
            ka = np.arange(1, 81, dtype=float) * law.alpha
            terms = sign * np.exp(logmag - ka * math.log(x) - np.log(ka))
            mags = np.abs(terms)
            stop = int(np.argmin(mags)) + 1
            val = float(np.sum(terms[:stop])) / math.pi
            err = mags[min(stop, 79)] / math.pi
            if err > max(law.density_quadrature.abs_tol, 1e-8 * abs(val)):
                return "tail series not converged"
            return val.hex()

        checked = raised = 0
        for alpha in np.linspace(1.01, 1.99, 21):
            law = ss.make_stable_law(alpha)
            for x in np.geomspace(2.0, 1e5, 100):
                want = own_series(law, x)
                try:
                    got = ss.stable_tail_mass(law, x).hex()
                except ss.NumericError as exc:
                    got = str(exc).split(" at ")[0]
                    raised += 1
                assert got == want, (alpha, x)
                checked += 1
        assert checked == 2100 and 0 < raised < 2100
