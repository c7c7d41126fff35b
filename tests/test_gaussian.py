import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpower.gaussian import (binorm_cdf, gaussian_copula, norm_cdf, norm_pdf,
                              norm_ppf, normal_quadrature, rng_stream)
from oracle_sv import binorm_ref

# Frozen references: mpmath (dps=30) evaluation of the conditional
# single integral  int_{-inf}^h phi(u) Phi((k - rho u)/sqrt(1-rho^2)) du.
_PHI2_CASES = [
    (0.0, 0.0, 0.3, 0.29849334201033914),
    (0.0, 0.0, -0.95, 0.050541312052129957),
    (0.0, 1.2, -0.7, 0.39193336181827581),
    (-0.5, 0.0, 0.9, 0.29690728229850573),
    (1.0, -1.0, 0.99, 0.15865525393145705),
    (2.0, 2.0, -0.99, 0.95449973610364161),
    (-3.0, 0.5, 0.5, 0.0013402175704412744),
    (1.5, 1.5, 0.0, 0.87084879960366158),
    (-2.0, -2.0, 0.8, 0.0098251026100958995),
    (4.0, -4.0, 0.6, 3.1671241833119913e-5),
    (0.3, -0.3, -0.45, 0.16710995393585414),
    (0.548, -1.872, 0.714, 0.030556739808521261),
    (1.693, -3.512, 0.946, 0.00022237399950943832),
    (0.23, -0.569, -0.74, 0.056618687747466555),
    (-1.535, 1.583, 0.849, 0.062391913754310925),
    (0.119, 2.029, -0.113, 0.53350860161505811),
    (-1.547, 0.664, -0.868, 0.001931875304550179),
    (1.581, -0.09, 0.514, 0.45841130598806564),
    (-1.226, 2.201, 0.782, 0.11009933289429384),
    (-0.771, -0.634, -0.066, 0.0516813106348117),
    (0.658, 0.743, 0.364, 0.61336766405633133),
    (3.855, -0.732, -0.347, 0.23203989563458349),
    (-1.465, 1.109, -0.618, 0.033440678567873586),
    (-0.205, -1.512, -0.543, 0.0046740366058393821),
    (0.5, 0.7, 0.97, 0.68190556989424162),
    (-1.2, 0.3, -0.985, 9.5810186792667132e-10),
    (2.1, 2.4, 0.999, 0.98213557943718145),
    (-0.4, 0.6, -0.9995, 0.070325140639815796),
]


@pytest.mark.parametrize("h,k,rho,expected", _PHI2_CASES)
def test_binorm_cdf_against_frozen_reference(h, k, rho, expected):
    assert binorm_cdf(h, k, rho) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("h,k,rho,expected", _PHI2_CASES)
def test_owens_t_route_against_frozen_reference(h, k, rho, expected):
    # keeps the test oracle itself honest
    assert binorm_ref(h, k, rho) == pytest.approx(expected, abs=1e-12)


def test_binorm_cdf_matches_owens_t_route_broadly():
    rng = np.random.default_rng(7)
    h = rng.normal(scale=2.0, size=10_000)
    k = rng.normal(scale=2.0, size=10_000)
    rho = rng.uniform(-0.999, 0.999, size=10_000)
    got = binorm_cdf(h, k, rho)
    ref = np.array([binorm_ref(a, b, r) for a, b, r in zip(h, k, rho)])
    assert np.max(np.abs(got - ref)) < 1e-10


# the node-count band edges, a hair to either side, and the high-|rho|
# branch up to the Frechet clamp
_KERNEL_RHOS = sorted({e + d for e in (0.3, 0.75, 0.925) for d in (-1e-9, 0.0, 1e-9)}
                      | {0.97, 0.99, 0.999, 1.0 - 2e-10})


@pytest.mark.parametrize("rho", [s * r for r in _KERNEL_RHOS for s in (1.0, -1.0)])
def test_binorm_cdf_matches_owens_t_route_to_1e_14(rho):
    rng = np.random.default_rng(11)
    h, k = rng.uniform(-5.0, 5.0, size=(2, 400))
    ref = np.array([binorm_ref(a, b, rho) for a, b in zip(h, k)])
    assert np.max(np.abs(binorm_cdf(h, k, rho) - ref)) <= 1e-14


@pytest.mark.parametrize("r", [0.2, 0.6, 0.9, 0.99])
def test_binorm_cdf_mixed_sign_call_equals_scalar_calls(r):
    # the likelihood's shape: one |rho|, the sign varying by observation
    rng = np.random.default_rng(5)
    h, k = rng.normal(scale=2.0, size=(2, 300))
    rho = r * np.where(rng.random(300) < 0.5, -1.0, 1.0)
    got = binorm_cdf(h, k, rho)
    one_by_one = np.array([binorm_cdf(a, b, c) for a, b, c in zip(h, k, rho)])
    assert np.max(np.abs(got - one_by_one)) <= 1e-16


@settings(max_examples=300, deadline=None)
@given(st.floats(-8, 8), st.floats(-8, 8), st.floats(-0.9999, 0.9999))
def test_binorm_cdf_reflection_identity(h, k, rho):
    # Phi2(h, k; -rho) = Phi(h) - Phi2(h, -k; rho)
    assert binorm_cdf(h, k, -rho) == pytest.approx(
        norm_cdf(h) - binorm_cdf(h, -k, rho), abs=1e-14)


def test_binorm_cdf_zero_zero_closed_form():
    for rho in np.arange(-0.9, 0.95, 0.1):
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert binorm_cdf(0.0, 0.0, rho) == pytest.approx(want, abs=1e-14)


# |rho| a hair below 1, where Phi2 parts from its Frechet limit by about
# sqrt(2 (1 - |rho|)) / (2 pi) on the diagonal: frozen mpmath (dps=40)
# values of Phi(h) - 2 T(h, sqrt((1 - rho)/(1 + rho))) and, for negative
# rho, Phi(h) - Phi2(h, h; -rho)
_NEAR_ONE = (5e-11, 1e-12, 1e-14, 2.0 ** -52)
_NEAR_ONE_CASES = [
    (0.7, 0.7, 1.0 - 5e-11, 0.75803510206391302),
    (0.7, -0.7, -(1.0 - 5e-11), 1.2457130139545499e-6),
    (-1.3, -1.3, 1.0 - 5e-11, 0.096799800923813037),
    (-1.3, 1.3, -(1.0 - 5e-11), 6.8366179728859894e-7),
    (0.7, 0.7, 1.0 - 1e-12, 0.75803617160845895),
    (0.7, -0.7, -(1.0 - 1e-12), 1.7616846802024751e-7),
    (-1.3, -1.3, 1.0 - 1e-12, 0.096800387902305163),
    (-1.3, 1.3, -(1.0 - 1e-12), 9.6683305162360535e-8),
    (0.7, 0.7, 1.0 - 1e-14, 0.75803633016692717),
    (0.7, -0.7, -(1.0 - 1e-14), 1.7609999799871259e-8),
    (-1.3, -1.3, 1.0 - 1e-14, 0.096800474921037524),
    (-1.3, 1.3, -(1.0 - 1e-14), 9.6645728017828132e-9),
    (0.7, 0.7, 1.0 - 2.0 ** -52, 0.7580363451517832),
    (0.7, -0.7, -(1.0 - 2.0 ** -52), 2.6251437757513207e-9),
    (-1.3, -1.3, 1.0 - 2.0 ** -52, 0.096800483144900875),
    (-1.3, 1.3, -(1.0 - 2.0 ** -52), 1.4407094505521322e-9),
]


@pytest.mark.parametrize("h,k,rho,expected", _NEAR_ONE_CASES)
def test_binorm_cdf_near_unit_correlation_against_frozen_reference(h, k, rho, expected):
    assert abs(binorm_cdf(h, k, rho) - expected) <= 1.1e-16


@pytest.mark.parametrize("rho", [s * (1.0 - d) for d in _NEAR_ONE for s in (1.0, -1.0)])
def test_binorm_cdf_zero_zero_closed_form_near_unit_correlation(rho):
    want = 0.25 + math.asin(rho) / (2.0 * math.pi)
    assert abs(binorm_cdf(0.0, 0.0, rho) - want) <= 1.1e-16


def test_binorm_cdf_limits_and_sentinels():
    assert binorm_cdf(np.inf, 0.7, 0.3) == pytest.approx(norm_cdf(0.7), abs=1e-15)
    assert binorm_cdf(-0.2, np.inf, -0.6) == pytest.approx(norm_cdf(-0.2), abs=1e-15)
    assert binorm_cdf(-np.inf, 1.0, 0.5) == 0.0
    assert binorm_cdf(2.0, -np.inf, 0.5) == 0.0
    # close to the comonotone / countermonotone limits
    assert binorm_cdf(0.4, 1.3, 1.0 - 1e-12) == pytest.approx(norm_cdf(0.4), abs=1e-12)
    assert binorm_cdf(0.4, -0.1, -1.0 + 1e-12) == pytest.approx(
        max(0.0, norm_cdf(0.4) + norm_cdf(-0.1) - 1.0), abs=1e-12)
    with pytest.raises(ValueError):
        binorm_cdf(0.0, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(-6, 6), st.floats(-6, 6), st.floats(-0.999, 0.999))
def test_binorm_cdf_frechet_bounds(h, k, rho):
    v = binorm_cdf(h, k, rho)
    lo = max(0.0, norm_cdf(h) + norm_cdf(k) - 1.0)
    hi = min(norm_cdf(h), norm_cdf(k))
    assert lo - 1e-12 <= v <= hi + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4), st.floats(-0.99, 0.99))
def test_binorm_cdf_monotone_in_first_argument(a, a2, b, rho):
    lo, hi = min(a, a2), max(a, a2)
    assert binorm_cdf(lo, b, rho) <= binorm_cdf(hi, b, rho) + 1e-14


def test_gaussian_copula_concordance_ordering():
    us = np.linspace(0.05, 0.95, 7)
    rhos = np.linspace(-0.95, 0.95, 13)
    for u1 in us:
        for u2 in us:
            vals = [gaussian_copula(u1, u2, r) for r in rhos]
            assert np.all(np.diff(vals) >= -1e-12)


def test_gaussian_copula_uniform_margins():
    for u in (0.1, 0.5, 0.93):
        assert gaussian_copula(u, 1.0, 0.4) == pytest.approx(u, abs=1e-12)
        assert gaussian_copula(1.0, u, -0.7) == pytest.approx(u, abs=1e-12)
        assert gaussian_copula(u, 0.0, 0.4) == 0.0


def test_norm_functions_pinned_values():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-10, 1.0 - 1e-10))
def test_norm_ppf_round_trip(u):
    assert norm_cdf(norm_ppf(u)) == pytest.approx(u, rel=1e-9, abs=1e-12)


def test_normal_quadrature_moments():
    nodes, weights = normal_quadrature(mean=0.5, sd=2.0, order=32)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(weights, nodes) == pytest.approx(0.5, abs=1e-10)
    assert np.dot(weights, (nodes - 0.5) ** 2) == pytest.approx(4.0, abs=1e-9)
    assert np.dot(weights, (nodes - 0.5) ** 4) == pytest.approx(3.0 * 16.0, rel=1e-9)


def test_rng_stream_reproducible_and_distinct():
    a = rng_stream(123, 4).standard_normal(5)
    b = rng_stream(123, 4).standard_normal(5)
    c = rng_stream(123, 5).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
