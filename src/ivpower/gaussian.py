"""Gaussian numerical primitives.

The bivariate standard-normal CDF, the Gaussian copula, the normal
density and inverse CDF, and seeded RNG streams: the one place a child
stream is derived from a seed.  Everything is vectorized over numpy
arrays and pure (no module state beyond cached quadrature nodes).

The bivariate CDF `binorm_cdf` follows A. Genz, "Numerical computation
of rectangular bivariate and trivariate normal and t probabilities",
Statistics and Computing 14 (2004).  For |rho| <= 0.925 it integrates
Drezner's single-integral form with 6, 12 or 20 Gauss-Legendre nodes
for |rho| up to 0.3, 0.75 or 0.925; above that it integrates the
transformed high-correlation form of Drezner & Wesolowsky (1990) with
20 nodes.  The node terms depend on |rho| alone and are computed once
per distinct value, so every (point, node) pair costs one exponential
(two in the high-|rho| branch).  Against the Owen's-T route of the test
oracle the absolute error measured at most 4.4e-16 (3,000 points in
[-5, 5]^2 at each band edge and at |rho| = 0.97, 0.99, 0.999, 1 - 2e-10),
and against mpmath at most 1.1e-16 at |rho| = 1 - 5e-11, 1 - 1e-12,
1 - 1e-14 and 1 - 2**-52, so no |rho| < 1 needs a limit formula.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "norm_pdf",
    "norm_ppf",
    "binorm_cdf",
    "gaussian_copula",
    "rng_stream",
    "stream_seed",
]

# Gauss-Legendre node counts by |rho| band (Genz 2004); past the last
# edge the high-|rho| branch takes over
_BANDS = ((0.3, 6), (0.75, 12), (0.925, 20))
_RHO_HIGH = _BANDS[-1][0]
_NODES_HIGH = 20


def norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def norm_ppf(p):
    """Inverse standard normal CDF on the open interval (0,1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("norm_ppf requires 0 < p < 1")
    return ndtri(p)


@lru_cache(maxsize=8)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _exp(e):
    """exp in place, with exponents raised to -600 first: terms below
    1e-260 are nil for a probability, while subnormal and underflowing
    results send exp, and arithmetic on them, down slow paths."""
    np.maximum(e, -600.0, out=e)
    return np.exp(e, out=e)


def _nodes_first(t, ndim):
    """Node terms (n, *rho.shape) aligned against ``ndim``-dimensional
    point arrays, the node axis in front."""
    return t.reshape(t.shape[:1] + (1,) * (ndim + 1 - t.ndim) + t.shape[1:])


def _genz_low(h, k, sign, r, ph, pk):
    # Phi2(h, k; rho) = Phi(h) Phi(k)
    #   + (1/2pi) int_0^{asin rho} exp((hk sin t - (h^2 + k^2)/2) / cos^2 t) dt
    # sin t is odd in rho, so the nodes are taken at |rho| and the sign
    # rides on hk and on the interval length
    x, w = _leggauss(next(n for edge, n in _BANDS if np.max(r, initial=0.0) <= edge))
    asr = np.arcsin(r)
    sn = np.sin(np.multiply.outer(0.5 * (x + 1.0), asr))
    q = 1.0 / (1.0 - sn * sn)
    hk = h * k * sign
    sn, q, log_w = (_nodes_first(t, hk.ndim) for t in (sn, q, np.log(w)))
    e = sn * hk
    e -= 0.5 * (h * h + k * k)
    e *= q
    e += log_w
    _exp(e)
    # summed node by node, so a point's value does not depend on the
    # shape of the call it comes in
    total = e[0].copy()
    for term in e[1:]:
        total += term
    return ph * pk + total * (sign * asr / (4.0 * math.pi))


def _genz_high(h, k, sign, r, ph, pk):
    # Genz's BVND for |rho| > 0.925 in upper-orthant variables
    # (-h, -sign*k), which reduces a negative rho to a positive one
    x, w = _leggauss(_NODES_HIGH)
    hk = h * k * sign
    bs = h - sign * k
    bs *= bs
    a2 = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a2)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    bvn = a * np.exp(-0.5 * (bs / a2 + hk)) * (
        1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0)
    b = np.sqrt(bs)
    # exp(-hk/2) is capped where Phi(-b/a) underflows anyway
    bvn -= (np.exp(-0.5 * np.maximum(hk, -100.0)) * math.sqrt(2.0 * math.pi)
            * ndtr(-b / a) * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
    # 15 operations per (point, node) pair: a loop over the nodes keeps
    # the temporaries point-sized
    half = 0.5 * a
    xs = np.multiply.outer(1.0 + x, half)
    xs *= xs
    rs = np.sqrt(1.0 - xs)
    hb, hh, cd = -0.5 * bs, -0.5 * hk, c * d
    for xs_j, rs_j, w_j in zip(xs, rs, w):
        # both exponents are <= 0 for every finite h, k
        t = hb / xs_j
        e1 = hk / (1.0 + rs_j)
        np.subtract(t, e1, out=e1)
        _exp(e1)
        e1 /= rs_j
        t += hh
        e2 = _exp(t)
        poly = cd * xs_j
        poly += c
        poly *= xs_j
        poly += 1.0
        e2 *= poly
        e1 -= e2
        e1 *= w_j * half
        bvn += e1
    bvn /= -2.0 * math.pi
    # rho > 0: Phi(min(h, k)) + bvn; rho < 0: the lower Frechet part - bvn
    low = np.where(h + k > 0.0,
                   np.where(h > 0.0, pk - ndtr(-h), ph - ndtr(-k)), 0.0)
    return np.where(sign > 0.0, np.minimum(ph, pk) + bvn, low - bvn)


def binorm_cdf(a, b, rho):
    """Bivariate standard normal CDF Pr[A <= a, B <= b] with corr(A,B)=rho.

    Genz's (2004) method: Gauss-Legendre quadrature of Drezner's single
    integral with 6, 12 or 20 nodes for |rho| up to 0.3, 0.75 or 0.925,
    and the transformed Drezner-Wesolowsky integrand at 20 nodes above
    0.925.  Node terms are computed per element of rho's own
    (unbroadcast) array, and once for the whole call when |rho| takes a
    single value and only its sign varies, as in a likelihood.  Within
    one call the |rho| <= 0.925 points share the node count of the
    largest of them.

    Parameters
    ----------
    a, b : array_like
        Evaluation points; +-inf sentinels reduce to the marginal CDF.
    rho : array_like
        Correlation(s), |rho| < 1.

    Returns
    -------
    ndarray or float
        Joint probability; the absolute error measured at most 4.4e-16
        against the Owen's-T route, and 1.1e-16 against mpmath near
        |rho| = 1.
    """
    a, b, rho = (np.asarray(v, dtype=float) for v in (a, b, rho))
    scalar = np.broadcast_shapes(a.shape, b.shape, rho.shape) == ()
    # at least 1-d, so every temporary is an array the kernel can update
    a, b, rho = np.atleast_1d(a, b, rho)
    r = np.abs(rho)
    # written so that a NaN correlation fails the check too
    if not np.all(r < 1.0):
        raise ValueError("binorm_cdf requires |rho| < 1")
    sign = np.where(rho < 0.0, -1.0, 1.0)
    if r.size > 1 and r.min() == r.max():
        r = r.reshape(-1)[0]
    pa, pb = ndtr(a), ndtr(b)
    finite = np.isfinite(a).all() and np.isfinite(b).all()
    if not finite:
        # the integrands take finite stand-ins; the sentinels are set below
        fa, fb = np.isfinite(a), np.isfinite(b)
        a, b = np.where(fa, a, 0.0), np.where(fb, b, 0.0)

    high = r > _RHO_HIGH
    if not np.any(high):
        out = _genz_low(a, b, sign, r, pa, pb)
    elif np.all(high):
        out = _genz_high(a, b, sign, r, pa, pb)
    else:
        # rho's own array straddles the branch edge: split the points once
        a, b, sign, r, pa, pb = np.broadcast_arrays(a, b, sign, r, pa, pb)
        high = r > _RHO_HIGH
        out = np.empty(a.shape)
        low = ~high
        out[low] = _genz_low(a[low], b[low], sign[low], r[low], pa[low], pb[low])
        out[high] = _genz_high(a[high], b[high], sign[high], r[high], pa[high], pb[high])

    if not finite:
        # an infinite argument makes the upper Frechet bound exact
        out = np.where(fa & fb, out, np.minimum(pa, pb))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def gaussian_copula(u1, u2, rho):
    """Gaussian copula C(u1, u2; rho) = Phi2(Phi^-1(u1), Phi^-1(u2); rho).

    ndtri maps the edges 0 and 1 to -inf and +inf, where `binorm_cdf`
    returns C(u, 0) = 0 and C(u, 1) = u.
    """
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    if np.any((u1 < 0) | (u1 > 1) | (u2 < 0) | (u2 > 1)):
        raise ValueError("copula arguments must lie in [0,1]")
    return binorm_cdf(ndtri(u1), ndtri(u2), rho)


def rng_stream(seed, *key):
    """Independent, reproducible generator for (seed, *key); no key is
    the key (0,)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key or (0,)))


def stream_seed(seed, *key):
    """A 64-bit integer seed drawn from the (seed, *key) stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])
