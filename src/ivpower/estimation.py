"""Maximum-likelihood estimation and corrected bound estimates.

Every finite-sample result takes one path.  `fit_set` fits the joint
threshold-crossing model by maximum likelihood on an instrument set's
columns and maps the fit to a plug-in `DgpSpec` whose covariate row is
(1, x) (`with_intercept`), so the intercepts ride along as a constant
covariate; `unpack_params` is the one reading of the parameter layout, for
the estimate and for parameter draws alike.  The two-layer bounds use the
1%-99% quantile grid (`GRID_LEVELS`) of the covariate.  The bound engine in
`bounds` evaluates the plug-in families at the estimate and at draws from
its asymptotic normal, and `_corrected_steps` shifts every sup/inf step
outward to its half-median-unbiased value, with the family memberships and
the ATE sign frozen at the estimate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_ndtr, ndtr

from .bounds import (
    Interval,
    MatchConfig,
    assemble,
    ate_signs,
    build_structure,
    evaluate_draws,
    population_report,
)
from .dgp import DgpSpec, JointDiscrete, Normal, identity_iv_set, true_ate
from .gaussian import binorm_cdf, norm_pdf, rng_stream

__all__ = [
    "Dataset",
    "FitResult",
    "HmueConfig",
    "EstimatedReport",
    "BootstrapResult",
    "read_dataset_csv",
    "write_dataset_csv",
    "GRID_LEVELS",
    "with_intercept",
    "fit_probit",
    "fit_bivariate_probit",
    "biprobit_loglik",
    "unpack_params",
    "fitted_spec",
    "fit_set",
    "estimated_report",
    "hausdorff_interval",
    "bootstrap_dispersion",
]

_SEPARATION_LIMIT = 1e3
_PROBIT_TOL = 1e-8
_JOINT_MAX_ITER = 500
_HESSIAN_REL_STEP = 1e-5
_RHO_MAX = 1.0 - 1e-12
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# quantile levels of the covariate grids: the estimation grid and the
# empirical pipeline's propensity-index grid
GRID_LEVELS = np.linspace(0.01, 0.99, 99)


@dataclass(frozen=True)
class Dataset:
    """Sample of (y, d, x, z); y and d binary, no missing entries."""

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        d = np.asarray(self.d, dtype=float).ravel()
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        n = y.size
        if n < 1:
            raise ValueError("dataset is empty")
        if d.size != n or x.shape[0] != n or z.shape[0] != n:
            raise ValueError("column lengths differ")
        for name, arr in (("y", y), ("d", d), ("x", x), ("z", z)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"missing or non-finite values in {name}")
        for name, arr in (("y", y), ("d", d)):
            if not np.all((arr == 0.0) | (arr == 1.0)):
                raise ValueError(f"{name} must be binary")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self):
        return self.y.size

    @property
    def n_covariates(self):
        return self.x.shape[1]

    @property
    def n_instruments(self):
        return self.z.shape[1]


def _numbered_columns(header, prefix):
    found = {}
    for name in header:
        tail = name[len(prefix):]
        if name.startswith(prefix) and tail.isdigit():
            found[int(tail)] = name
    return [found[i] for i in sorted(found)]


def read_dataset_csv(path):
    """Load a headered CSV with columns y, d, x1..xk, z1..zm.

    Binding is by column name, so the column order does not matter and
    extra columns are ignored.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    for required in ("y", "d"):
        if required not in header:
            raise ValueError(f"{path}: missing column '{required}'")
    index = {name: i for i, name in enumerate(header)}

    def pull(name):
        out = np.empty(len(rows))
        for r, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {r + 2} has {len(row)} fields, "
                                 f"expected {len(header)}")
            cell = row[index[name]].strip()
            if not cell:
                raise ValueError(f"{path}: missing value for '{name}' in row {r + 2}")
            out[r] = float(cell)
        return out

    xcols = _numbered_columns(header, "x")
    zcols = _numbered_columns(header, "z")
    n = len(rows)
    x = np.column_stack([pull(c) for c in xcols]) if xcols else np.empty((n, 0))
    z = np.column_stack([pull(c) for c in zcols]) if zcols else np.empty((n, 0))
    return Dataset(y=pull("y"), d=pull("d"), x=x, z=z)


def write_dataset_csv(data, path):
    """Write the dataset in the same headered layout `read_dataset_csv` reads."""
    header = (["y", "d"]
              + [f"x{j}" for j in range(1, data.n_covariates + 1)]
              + [f"z{j}" for j in range(1, data.n_instruments + 1)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [int(data.y[i]), int(data.d[i])]
            row += [f"{v:.17g}" for v in data.x[i]]
            row += [f"{v:.17g}" for v in data.z[i]]
            writer.writerow(row)


@dataclass(frozen=True)
class FitResult:
    """MLE output in the optimizer's parameterization.

    For the joint fit the layout is (alpha, beta0..k, pi0..k, gamma1..m,
    rho_z) with rho_z the unconstrained dependence parameter, rho =
    tanh(rho_z); ``vcov`` is the inverse observed information in that
    space.
    """

    params: np.ndarray
    names: tuple
    loglik: float
    vcov: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        vcov = np.asarray(self.vcov, dtype=float)
        if vcov.shape != (params.size, params.size):
            raise ValueError("vcov shape does not match params")
        if not np.max(np.abs(vcov - vcov.T), initial=0.0) <= 1e-10:
            raise ValueError("vcov is not symmetric")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "vcov", vcov)
        object.__setattr__(self, "names", tuple(self.names))

    def se(self):
        return np.sqrt(np.clip(np.diag(self.vcov), 0.0, None))


@dataclass(frozen=True)
class HmueConfig:
    """Simulation settings for the half-median-unbiased corrections."""

    n_sim: int = 1000
    levels: tuple = (0.5, 0.90, 0.95, 0.99)
    seed: int = 0

    def __post_init__(self):
        if self.n_sim < 100:
            raise ValueError("n_sim must be at least 100")
        levels = tuple(sorted({float(q) for q in self.levels}))
        if any(not 0.0 < q < 1.0 for q in levels):
            raise ValueError("levels must lie in (0, 1)")
        object.__setattr__(self, "levels", levels)


# ---------------------------------------------------------------------------
# probit
# ---------------------------------------------------------------------------

def with_intercept(points):
    """Plug-in covariate rows (1, x) for one point (k,) or rows (N, k).

    The fitted intercepts ride along as a constant leading covariate, in
    the plug-in spec and in every design.
    """
    points = np.asarray(points, dtype=float)
    return np.concatenate([np.ones(points.shape[:-1] + (1,)), points], axis=-1)


def _ensure_psd(mat):
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] >= 0.0:
        return mat
    fixed = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return 0.5 * (fixed + fixed.T)


def fit_probit(y, design, names, max_iter=100):
    """Probit MLE of binary ``y`` on the columns of ``design``.

    Newton iteration with step halving; raises on separation and on a
    singular design.
    """
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    q = 2.0 * y - 1.0

    def newton_terms(coef):
        w = design @ coef
        lam = q * np.exp(-0.5 * w * w - _LOG_SQRT_2PI - log_ndtr(q * w))
        curv = lam * (lam + w)  # negative Hessian weights, always positive
        return design.T @ lam, design.T @ (design * curv[:, None])

    coef = np.zeros(design.shape[1])
    ll = float(np.sum(log_ndtr(q * (design @ coef))))
    grad, neg_hess = newton_terms(coef)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(grad)) < _PROBIT_TOL:
            break
        try:
            step = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            raise RuntimeError("singular design in probit fit") from None
        scale = 1.0
        while True:
            cand = coef + scale * step
            ll_new = float(np.sum(log_ndtr(q * (design @ cand))))
            if ll_new >= ll - 1e-12 or scale < 1e-6:
                break
            scale *= 0.5
        coef, ll = cand, ll_new
        if np.max(np.abs(coef)) > _SEPARATION_LIMIT:
            raise RuntimeError("separation: probit coefficients diverged")
        grad, neg_hess = newton_terms(coef)
    try:
        vcov = np.linalg.inv(neg_hess)
    except np.linalg.LinAlgError:
        raise RuntimeError("singular design in probit fit") from None
    vcov = _ensure_psd(0.5 * (vcov + vcov.T))
    return FitResult(
        params=coef, names=tuple(names), loglik=ll,
        vcov=vcov, converged=bool(np.max(np.abs(grad)) < _PROBIT_TOL),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# bivariate probit
# ---------------------------------------------------------------------------

def _binorm_pdf(a, b, r):
    det = 1.0 - r * r
    quad = (a * a - 2.0 * r * a * b + b * b) / det
    return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))


def _joint_designs(data):
    """Likelihood inputs (r1, r2, s1, s2): the outcome design [d, 1, x], the
    treatment design [1, x, z] and the two responses as signs 2y - 1, 2d - 1."""
    cov = with_intercept(data.x)
    return (np.hstack([data.d[:, None], cov]), np.hstack([cov, data.z]),
            2.0 * data.y - 1.0, 2.0 * data.d - 1.0)


def _biprobit_ll(theta, r1, r2, s1, s2):
    p1 = r1.shape[1]
    w1 = r1 @ theta[:p1]
    w2 = r2 @ theta[p1:-1]
    rho = float(np.clip(np.tanh(theta[-1]), -_RHO_MAX, _RHO_MAX))
    a = s1 * w1
    b = s2 * w2
    r = s1 * s2 * rho
    prob = np.clip(binorm_cdf(a, b, r), 1e-300, 1.0)
    ll = float(np.sum(np.log(prob)))
    root = math.sqrt(1.0 - rho * rho)
    ga = norm_pdf(a) * ndtr((b - r * a) / root) / prob
    gb = norm_pdf(b) * ndtr((a - r * b) / root) / prob
    gr = _binorm_pdf(a, b, r) / prob
    g1 = r1.T @ (ga * s1)
    g2 = r2.T @ (gb * s2)
    gz = float(np.sum(gr * s1 * s2)) * (1.0 - rho * rho)
    return ll, np.concatenate([g1, g2, [gz]])


def biprobit_loglik(theta, data):
    """Joint log-likelihood and its analytic gradient.

    Parameter layout: (alpha, beta0..k, pi0..k, gamma1..m, rho_z).
    """
    return _biprobit_ll(np.asarray(theta, dtype=float), *_joint_designs(data))


def _hessian_from_gradient(grad_fn, theta):
    p = theta.size
    hess = np.empty((p, p))
    for j in range(p):
        h = _HESSIAN_REL_STEP * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        hess[:, j] = (grad_fn(up) - grad_fn(dn)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def fit_bivariate_probit(data):
    """Joint MLE of the outcome and treatment threshold equations.

    The dependence parameter is optimized as rho_z with rho = tanh(rho_z)
    so the search is unconstrained; starting values come from the two
    marginal probits.  The covariance is the inverse observed
    information, with the Hessian taken by central differences of the
    analytic gradient.
    """
    if data.n_instruments < 1:
        raise ValueError("at least one instrument column is required")
    k = data.n_covariates
    names = (("alpha",)
             + tuple(f"beta{j}" for j in range(k + 1))
             + tuple(f"pi{j}" for j in range(k + 1))
             + tuple(f"gamma{j}" for j in range(1, data.n_instruments + 1))
             + ("rho_z",))
    r1, r2, s1, s2 = _joint_designs(data)
    f1 = fit_probit(data.y, r1, names[:k + 2])
    f2 = fit_probit(data.d, r2, names[k + 2:-1])
    start = np.concatenate([f1.params, f2.params, [0.0]])

    def negated(theta):
        ll, grad = _biprobit_ll(theta, r1, r2, s1, s2)
        return -ll, -grad

    res = minimize(negated, start, jac=True, method="L-BFGS-B",
                   options={"maxiter": _JOINT_MAX_ITER, "ftol": 1e-12, "gtol": 1e-8})
    theta = res.x
    if np.max(np.abs(theta[:-1])) > _SEPARATION_LIMIT:
        raise RuntimeError("separation: joint fit coefficients diverged")
    hess = _hessian_from_gradient(lambda t: _biprobit_ll(t, r1, r2, s1, s2)[1], theta)
    try:
        vcov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        raise RuntimeError("observed information is singular") from None
    vcov = _ensure_psd(0.5 * (vcov + vcov.T))
    ll = -float(res.fun)
    return FitResult(params=theta, names=names, loglik=ll, vcov=vcov,
                     converged=bool(res.success) and math.isfinite(ll),
                     iterations=int(res.nit))


def unpack_params(theta, n_covariates):
    """(alpha, beta, pi, gamma, rho) from the joint parameter layout.

    Works along the last axis, so one parameter vector (P,) gives scalars
    and vectors and R draws (R, P) give (R,) and (R, .) arrays.  beta and
    pi include the intercept; rho = tanh(rho_z), clipped inside (-1, 1).
    """
    theta = np.asarray(theta, dtype=float)
    k1 = n_covariates + 1
    return (theta[..., 0], theta[..., 1:1 + k1], theta[..., 1 + k1:1 + 2 * k1],
            theta[..., 1 + 2 * k1:-1],
            np.clip(np.tanh(theta[..., -1]), -_RHO_MAX, _RHO_MAX))


def fitted_spec(fit, data):
    """Plug-in DgpSpec from a joint fit on ``data``.

    The intercepts ride along as a constant covariate: the returned
    spec's covariate vector is (1, x), beta = (beta0, beta') and pi = (pi0,
    pi').  The instruments keep their empirical joint distribution with
    an identity instrument set.  The covariate-distribution slot is a
    placeholder; estimated evaluation always supplies an explicit grid.
    """
    alpha, beta, pi, gamma, rho = unpack_params(fit.params, data.n_covariates)
    zvals, counts = np.unique(data.z, axis=0, return_counts=True)
    iv = JointDiscrete(values=tuple(tuple(v) for v in zvals),
                       probs=tuple(counts / data.n))
    spec = DgpSpec(alpha=float(alpha), beta=tuple(beta), pi=tuple(pi),
                   gamma=tuple(gamma), rho=float(rho),
                   covariate_dist=Normal(), iv_dists=iv)
    return spec, identity_iv_set(data.n_instruments)


def fit_set(data, ivset):
    """The one fit-and-plug-in: the joint fit on ``ivset``'s instrument
    columns and its plug-in spec.

    Returns (fit, spec, identity instrument set); raises RuntimeError,
    naming the set, when the fit did not converge.
    """
    sub = Dataset(y=data.y, d=data.d, x=data.x, z=ivset.columns(data.z))
    fit = fit_bivariate_probit(sub)
    if not fit.converged:
        raise RuntimeError(f"joint fit did not converge for {ivset.name}")
    return (fit, *fitted_spec(fit, sub))


# ---------------------------------------------------------------------------
# corrected bound estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatedReport:
    """Corrected bound estimates at one covariate value.

    The headline fields mirror the population report and carry the
    half-median-unbiased values (level 0.5); the plug-in estimates are
    kept under ``point_*``.  ``levels`` maps each configured level to
    outward-corrected intervals, ``flip_rate`` is the share of parameter
    draws whose implied ATE sign disagrees with the frozen
    point-estimate sign.
    """

    x: tuple
    sign: object
    irrelevant: bool
    manski: Interval
    widest: Interval
    sv: Interval
    c1: float
    c2: float
    c3: float
    c4: float
    iip: float
    cps_lo: float
    cps_hi: float
    ate_model: float
    point_manski: Interval
    point_widest: Interval
    point_sv: Interval
    point_iip: float
    levels: dict
    flip_rate: float
    fit: FitResult
    spec: DgpSpec
    iv_name: str


def _corrected_steps(structure, point_vals, fam_draws, quantiles):
    """Bias-corrected sup/inf step values: quantile -> family -> value.

    Within each family the member spread over the parameter draws gives
    a standard error s_j; the critical value k is the requested quantile
    of the simulated maximal outward deviation (V_rj - v_j)/s_j over the
    members within two standard errors of the extremum, clamped at zero.
    A sup step reports max_j(v_j - k s_j), an inf step min_j(v_j + k
    s_j), so every intersection step moves outward and an isolated
    member is left nearly untouched.
    """
    out = {q: {} for q in quantiles}
    for name, fam in structure.families.items():
        if fam.form in ("p_lo", "p_hi"):
            continue
        v = point_vals[name]
        draws = fam_draws[name]
        s = np.maximum(draws.std(axis=0, ddof=1), 1e-12)
        if fam.role == "sup":
            active = v >= v.max() - 2.0 * s
            dev = (draws[:, active] - v[active]) / s[active]
        else:
            active = v <= v.min() + 2.0 * s
            dev = (v[active] - draws[:, active]) / s[active]
        maxdev = dev.max(axis=1)
        for q in quantiles:
            k = max(0.0, float(np.quantile(maxdev, q)))
            if fam.role == "sup":
                out[q][name] = float(np.max(v - k * s))
            else:
                out[q][name] = float(np.min(v + k * s))
    return out


def _step_quantile(level):
    # the half-median-unbiased level corrects each side at its median;
    # other levels are two-sided, so each side takes the outward tail
    return 0.5 if level == 0.5 else 0.5 * (1.0 + level)


def _intervals(parts):
    return {k: parts[k] for k in ("manski", "widest", "sv")}


def _estimation_grid(data, x_eval, match, include_sv):
    if match.covariate_grid is not None:
        raw = np.atleast_2d(np.asarray(match.covariate_grid, dtype=float))
    elif not include_sv or data.n_covariates == 0:
        raw = x_eval[None, :]
    elif data.n_covariates == 1:
        raw = np.unique(np.quantile(data.x[:, 0], GRID_LEVELS))[:, None]
    else:
        raise ValueError("an explicit covariate grid is required "
                         "with more than one covariate")
    return with_intercept(raw)


def estimated_report(data, ivset=None, x_eval=(), match=None, hmue=None,
                     include_sv=True):
    """Fit, plug in, and correct the bounds at covariate value ``x_eval``.

    Every sup/inf step is re-evaluated at ``hmue.n_sim`` draws from the
    asymptotic normal of the fitted parameters and shifted outward by a
    simulated critical value (see `_corrected_steps`), at the median for
    the half-median-unbiased headline numbers and at the outward tail
    for the other configured levels.  The decomposition uses the
    corrected widths, so c1 + c2 + c3 + c4 equals the corrected
    benchmark width by construction.  Family memberships, matching, and
    the ATE sign stay frozen at the point estimate.

    With ``include_sv=False`` the covariate grid collapses to the
    evaluation point, which is enough for the benchmark and widest
    quantities (the two-layer interval then equals the widest one).
    Degenerate fitted CPS support is reported as irrelevant instruments
    with the plug-in benchmark at every level and no corrections.
    """
    ivset = ivset or identity_iv_set(data.n_instruments)
    match = match or MatchConfig()
    hmue = hmue or HmueConfig()
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    if x_eval.size != data.n_covariates:
        raise ValueError("x_eval dimension does not match the data")

    fit, spec_hat, iv_id = fit_set(data, ivset)
    x_aug = with_intercept(x_eval)
    grid = _estimation_grid(data, x_eval, match, include_sv)
    structure = build_structure(spec_hat, x_aug, iv_id, MatchConfig(match.tolerance_c, grid))
    sign = structure.sign
    point_vals = structure.values
    point = assemble(point_vals, sign, include_sv)
    common = dict(
        x=tuple(x_eval), sign=sign, irrelevant=sign is None,
        cps_lo=structure.support.p_lo, cps_hi=structure.support.p_hi,
        ate_model=true_ate(spec_hat, x_aug),
        point_manski=point["manski"], point_widest=point["widest"],
        point_sv=point["sv"], point_iip=point["iip"],
        fit=fit, spec=spec_hat, iv_name=ivset.name,
    )
    if sign is None:
        return EstimatedReport(**common, **point, flip_rate=0.0,
                               levels={q: _intervals(point) for q in hmue.levels})

    rng = rng_stream(hmue.seed)
    draws = rng.multivariate_normal(fit.params, fit.vcov,
                                    size=hmue.n_sim, method="eigh")
    fam_draws = evaluate_draws(structure, *unpack_params(draws, data.n_covariates))
    flip_rate = float(np.mean(ate_signs(structure, fam_draws) != sign))

    quantiles = sorted({_step_quantile(q) for q in hmue.levels} | {0.5})
    steps = _corrected_steps(structure, point_vals, fam_draws, quantiles)
    levels = {q: _intervals(assemble(steps[_step_quantile(q)], sign, include_sv))
              for q in hmue.levels}
    return EstimatedReport(**common, **assemble(steps[0.5], sign, include_sv),
                           levels=levels, flip_rate=flip_rate)


# ---------------------------------------------------------------------------
# distance helper
# ---------------------------------------------------------------------------

def hausdorff_interval(a, b):
    """Hausdorff distance between two closed intervals.

    An empty interval (lower > upper) is at infinite distance from
    anything.  Emptiness allows 1e-12 of float noise so that
    point-identified intervals are not misread as empty.
    """
    lo_a, up_a = (a.lower, a.upper) if isinstance(a, Interval) else (float(a[0]), float(a[1]))
    lo_b, up_b = (b.lower, b.upper) if isinstance(b, Interval) else (float(b[0]), float(b[1]))
    if lo_a > up_a + 1e-12 or lo_b > up_b + 1e-12:
        return math.inf
    return max(abs(lo_a - lo_b), abs(up_a - up_b))


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    """Successful replicate estimates plus the failure count."""

    estimates: np.ndarray
    n_failed: int

    @property
    def sd(self):
        if self.estimates.size < 2:
            return math.nan
        return float(np.std(self.estimates, ddof=1))


def bootstrap_dispersion(data, ivset=None, x_eval=(), n_boot=200, seed=0,
                         match=None):
    """Bootstrap spread of the plug-in identification-power estimate.

    Each replicate refits on rows resampled with replacement and records
    the plug-in IIP at ``x_eval``; replicates whose fit fails are dropped
    and counted.
    """
    if n_boot < 50:
        raise ValueError("at least 50 bootstrap replicates are required")
    ivset = ivset or identity_iv_set(data.n_instruments)
    match = match or MatchConfig()
    x_aug = with_intercept(np.atleast_1d(np.asarray(x_eval, dtype=float)))
    estimates = []
    n_failed = 0
    for b in range(n_boot):
        idx = rng_stream(seed, b).integers(0, data.n, size=data.n)
        rep = Dataset(y=data.y[idx], d=data.d[idx], x=data.x[idx], z=data.z[idx])
        try:
            _, spec_hat, iv_id = fit_set(rep, ivset)
            estimates.append(
                population_report(spec_hat, x_aug, iv_id, match, include_sv=False).iip)
        except (RuntimeError, ValueError):
            n_failed += 1
    return BootstrapResult(estimates=np.asarray(estimates, dtype=float),
                           n_failed=n_failed)
