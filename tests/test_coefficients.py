"""The coefficient-pair catalog: positivity, boundedness and the regularity
each pair declares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesde.coefficients import _PAIRS, make_pair, smooth_bump

# the required parameter of each pair that has one
_REQUIRED = {"drift_shift": {"shift": 0.2}, "jump_shift": {"shift": 0.2},
             "drift_bump": {"amp": 0.2}, "jump_bump": {"amp": 0.2},
             "jump_kink": {"amp": 0.2, "eta_tilde": 0.8},
             "mollified_kink": {"h": 0.1}}


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_catalog_pairs_are_bounded_with_positive_sigma(name):
    pair = make_pair(name, _REQUIRED.get(name, {}))
    ys = np.linspace(-50.0, 50.0, 20001)
    for t in (0.0, 0.7):
        for f in (pair.b(t, ys), pair.sigma(t, ys), pair.b_tilde(t, ys),
                  pair.sigma_tilde(t, ys)):
            assert np.all(np.isfinite(f))
        # defaults s0 = 1, s1 = 0.1 keep sigma in [0.9, 1.1]
        assert np.min(pair.sigma(t, ys)) >= 0.9 - 1e-12
        assert np.min(pair.sigma_tilde(t, ys)) >= 0.9 - 1e-12
        assert np.max(pair.drift_gap(t, ys)) <= 0.2 + 1e-12
        assert np.max(pair.jump_gap(t, ys)) <= 0.2 + 1e-12


def test_jump_kink_is_exactly_eta_tilde_holder():
    pair = make_pair("jump_kink", {"amp": 0.2, "eta_tilde": 0.8})
    assert pair.eta_tilde == 0.8
    assert make_pair("jump_bump", {"amp": 0.2}).eta_tilde == 1.0
    d = np.geomspace(1e-8, 1e-2, 13)
    rise = np.abs(pair.sigma_tilde(0.0, pair.x0 + d) - pair.sigma_tilde(0.0, pair.x0))
    # amp |d / width|^eta_tilde at the kink, plus the Lipschitz baseline sigma
    assert np.all(rise / d ** 0.8 <= 0.2 + 0.1 * d ** 0.2 + 1e-9)
    # not Lipschitz: the difference quotient grows like d^(eta_tilde - 1)
    assert rise[0] / d[0] > 0.9 * 0.2 * d[0] ** -0.2


@given(amp=st.floats(0.01, 0.5), width=st.floats(0.5, 3.0))
@settings(max_examples=10, deadline=None)
def test_drift_bump_gap_is_the_bump(amp, width):
    pair = make_pair("drift_bump", {"amp": amp, "width": width})
    ys = pair.x0 + np.linspace(-5.0, 5.0, 2001)
    gap = pair.drift_gap(0.3, ys)
    assert pair.drift_gap(0.3, np.array([pair.x0]))[0] == pytest.approx(amp, rel=1e-12)
    assert np.max(gap) <= amp * (1.0 + 1e-12)
    assert np.all(gap[np.abs(ys - pair.x0) >= width] == 0.0)
    assert np.all(pair.jump_gap(0.3, ys) == 0.0)


def _oracle_smooth_bump(z):
    """exp(1 - 1/(1 - z^2)) on |z| < 1, else 0: the masked formula the
    one-call smooth_bump replaced."""
    z = np.asarray(z, dtype=float)
    inside = np.abs(z) < 1.0
    zm = np.where(inside, z, 0.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        val = np.exp(1.0 - 1.0 / np.maximum(1.0 - zm * zm, 1e-300))
    return np.where(inside, val, 0.0)


def test_smooth_bump_is_the_masked_formula():
    z = np.random.default_rng(11).uniform(-1.5, 1.5, 1_000_000)
    near_one = np.nextafter(np.repeat([1.0, -1.0], 2), [0.0, 2.0, 0.0, -2.0])
    edges = np.concatenate([[0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
                             1e300, -1e300, 1e154, 5e-324], near_one,
                            np.random.default_rng(12).uniform(-1e-3, 1e-3, 100_000)])
    for arg in (z, edges):
        assert smooth_bump(arg).tobytes() == _oracle_smooth_bump(arg).tobytes()
        for amp in (-0.2, 0.35):
            assert (amp * smooth_bump(arg)).tobytes() == \
                (amp * _oracle_smooth_bump(arg)).tobytes()
