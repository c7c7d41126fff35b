"""Reference computations written apart from ivpower.

Nothing here imports the package under test.  The bivariate normal CDF
takes the Owen's-T route instead of the package's single-integral
quadrature, cells are computed from latent indices directly instead of
through the Gaussian copula, and the bounds follow Shaikh & Vytlacil
(2011) from the cells at the two propensity extremes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, owens_t

_RHO_MAX = 1.0 - 1e-12


def _owens_t(h, a):
    # T(0, a) = atan(a) / 2pi covers a = +-inf, which owens_t also does,
    # but keeps the h = 0 branch free of 0/0 in the argument
    return np.where(h == 0.0, np.arctan(a) / (2.0 * np.pi), owens_t(h, a))


def binorm_cdf(h, k, rho):
    """Pr[A <= h, B <= k] for standard normals with correlation rho.

    Phi2(h, k; rho) = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta
    with a_h = (k - rho h) / (h s), a_k = (h - rho k) / (k s),
    s = sqrt(1 - rho^2), and beta = 1/2 unless hk > 0 or (hk = 0 and
    h + k >= 0).  At h = k = 0 both arguments take their limit along
    h = k, sqrt((1 - rho) / (1 + rho)).
    """
    h, k, rho = np.broadcast_arrays(np.asarray(h, dtype=float),
                                    np.asarray(k, dtype=float),
                                    np.asarray(rho, dtype=float))
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(k))):
        raise ValueError("reference binorm_cdf takes finite points only")
    if np.any(np.abs(rho) >= 1.0):
        raise ValueError("reference binorm_cdf requires |rho| < 1")
    s = np.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_h = (k - rho * h) / (h * s)
        a_k = (h - rho * k) / (k * s)
    origin = (h == 0.0) & (k == 0.0)
    a_0 = np.sqrt((1.0 - rho) / (1.0 + rho))
    a_h = np.where(origin, a_0, np.where(h == 0.0, np.copysign(np.inf, k), a_h))
    a_k = np.where(origin, a_0, np.where(k == 0.0, np.copysign(np.inf, h), a_k))
    hk = h * k
    beta = np.where((hk > 0.0) | ((hk == 0.0) & (h + k >= 0.0)), 0.0, 0.5)
    out = 0.5 * ndtr(h) + 0.5 * ndtr(k) - _owens_t(h, a_h) - _owens_t(k, a_k) - beta
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# population bounds
# ---------------------------------------------------------------------------

def support(iv_dists):
    """Raw instrument support of independent discrete marginals:
    (S, m) points and (S,) masses."""
    points = np.zeros((1, 0))
    mass = np.ones(1)
    for dist in iv_dists:
        values = np.asarray(dist["values"], dtype=float)
        probs = np.asarray(dist["probs"], dtype=float)
        points = np.hstack([np.repeat(points, values.size, axis=0),
                            np.tile(values, points.shape[0])[:, None]])
        mass = np.repeat(mass, values.size) * np.tile(probs, mass.size)
    return points, mass


def used_columns(z, use, recode):
    """Columns ``use`` of z, with "gt0" columns replaced by 1[z > 0]."""
    cols = [(z[:, i] > 0).astype(float) if tag == "gt0" else z[:, i].astype(float)
            for i, tag in zip(use, recode)]
    return np.column_stack(cols)


def bounds_from_cells(p, p11, p10, mass, keys):
    """Manski bounds, widest bounds and IIP from raw-support cells.

    ``keys`` (S, u) are the used-instrument values of each raw point; the
    points sharing a key form one group whose cells are the mass-weighted
    mixture over the omitted instruments.  Returns a dict of floats with
    ``irrelevant`` and ``sign`` alongside.
    """
    big_p, big11, big10 = mass @ p, mass @ p11, mass @ p10
    manski = (-(big10 + (big_p - big11)), big11 + (1.0 - big_p - big10))
    _, group = np.unique(keys, axis=0, return_inverse=True)
    group = group.ravel()
    gmass = np.bincount(group, weights=mass)
    gp = np.bincount(group, weights=mass * p) / gmass
    g11 = np.bincount(group, weights=mass * p11) / gmass
    g10 = np.bincount(group, weights=mass * p10) / gmass
    out = {"manski": manski}
    if gp.max() - gp.min() <= 1e-12:
        out.update(irrelevant=True, sign=None, widest=manski, iip=0.0)
        return out
    lo, hi = int(np.argmin(gp)), int(np.argmax(gp))
    gap = (g11[hi] + g10[hi]) - (g11[lo] + g10[lo])
    sign = int(np.sign(gap))
    if sign > 0:
        widest = (gap, g11[hi] + (1.0 - gp[hi]) - g10[lo])
    elif sign < 0:
        widest = (g11[hi] - g10[lo] - gp[lo], gap)
    else:
        widest = (0.0, 0.0)
    iip = (manski[1] - manski[0]) - (widest[1] - widest[0])
    out.update(irrelevant=False, sign=sign, widest=widest, iip=iip)
    return out


def cells(v1, v0, nu2, rho):
    """Raw-point cells Pr[D=1], Pr[Y=1, D=1], Pr[Y=1, D=0] from the
    latent indices nu1(1, x), nu1(0, x) and nu2(x, z)."""
    p = ndtr(nu2)
    p11 = binorm_cdf(v1, nu2, rho)
    p10 = ndtr(v0) - binorm_cdf(v0, nu2, rho)
    return p, p11, p10


def population_bounds(spec, x, use, recode=None):
    """Bounds of a spec document (independent discrete instruments) at
    covariate point x under the instrument subset ``use``."""
    recode = recode or ("raw",) * len(use)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z, mass = support(spec["iv_dists"])
    v0 = float(np.dot(spec["beta"], x))
    v1 = spec["alpha"] + v0
    nu2 = float(np.dot(spec["pi"], x)) + z @ np.asarray(spec["gamma"], dtype=float)
    p, p11, p10 = cells(v1, v0, nu2, spec["rho"])
    out = bounds_from_cells(p, p11, p10, mass, used_columns(z, use, recode))
    out["ate"] = float(ndtr(v1) - ndtr(v0))
    return out


# ---------------------------------------------------------------------------
# bivariate probit
# ---------------------------------------------------------------------------

def split_params(theta, k, m):
    """(alpha, beta (k+1,), pi (k+1,), gamma (m,), rho) from the fit layout
    (alpha, beta0..k, pi0..k, gamma1..m, rho_z)."""
    theta = np.asarray(theta, dtype=float)
    alpha = theta[0]
    beta = theta[1:2 + k]
    pi = theta[2 + k:3 + 2 * k]
    gamma = theta[3 + 2 * k:3 + 2 * k + m]
    rho = float(np.clip(np.tanh(theta[-1]), -_RHO_MAX, _RHO_MAX))
    return alpha, beta, pi, gamma, rho


def biprobit_loglik(theta, y, d, x, z):
    """Sum of log Pr[Y=y, D=d | x, z] under the joint probit model."""
    x = np.atleast_2d(x.T).T
    k, m = x.shape[1], z.shape[1]
    alpha, beta, pi, gamma, rho = split_params(theta, k, m)
    w1 = alpha * d + beta[0] + x @ beta[1:]
    w2 = pi[0] + x @ pi[1:] + z @ gamma
    q1, q2 = 2.0 * y - 1.0, 2.0 * d - 1.0
    prob = binorm_cdf(q1 * w1, q2 * w2, q1 * q2 * rho)
    return float(np.sum(np.log(np.maximum(prob, 1e-300))))


def loglik_gradient(theta, y, d, x, z, rel_step=1e-5):
    """Central-difference gradient of `biprobit_loglik`."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for j in range(theta.size):
        h = rel_step * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (biprobit_loglik(up, y, d, x, z) - biprobit_loglik(dn, y, d, x, z)) / (2 * h)
    return grad


def plugin_bounds(theta, x_eval, z):
    """Plug-in Manski and widest bounds and IIP of fitted parameters at
    covariate value ``x_eval``, with the instruments at their empirical
    joint distribution ``z`` (already restricted and recoded)."""
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    k, m = x_eval.size, z.shape[1]
    alpha, beta, pi, gamma, rho = split_params(theta, k, m)
    rows, counts = np.unique(z, axis=0, return_counts=True)
    v0 = beta[0] + float(x_eval @ beta[1:])
    v1 = alpha + v0
    nu2 = pi[0] + float(x_eval @ pi[1:]) + rows @ gamma
    p, p11, p10 = cells(v1, v0, nu2, rho)
    return bounds_from_cells(p, p11, p10, counts / counts.sum(), rows)
