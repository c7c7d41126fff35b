"""Maximum-likelihood estimation and corrected bound estimates.

Every likelihood is maximized by `_newton` on closed-form terms (the
probit's, and Greene's bivariate-probit Hessian in `_biprobit_terms`),
which runs up to `_MAX_ITER` steps and returns the `FitResult`; a fit
that fails raises instead of being repaired.

Every finite-sample result takes one path.  `fit_set` fits the joint
threshold-crossing model by maximum likelihood on an instrument set's
columns and maps the fit to a plug-in `DgpSpec` whose covariate row is
(1, x) (`with_intercept`), so the intercepts ride along as a constant
covariate, and whose instruments are exactly the set's columns, so the
bound engine evaluates it with its default set, every instrument;
`unpack_params` is the one reading of the parameter layout, for the
estimate and for parameter draws alike.  The two-layer bounds use the
1%-99% quantile grid of the covariate (`quantile_grid`).  The bound engine in
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
from scipy.special import log_ndtr, ndtr

from .bounds import (
    BoundsReport,
    Interval,
    assemble,
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
    "quantile_grid",
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
_GRAD_TOL = 1e-8
_MAX_ITER = 100
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
            if found.setdefault(int(tail), name) != name:
                raise ValueError(f"columns '{found[int(tail)]}' and '{name}' "
                                 f"are both {prefix}{int(tail)}")
    return [found[i] for i in sorted(found)]


def read_dataset_csv(path):
    """Load a headered CSV with columns y, d, x1..xk, z1..zm.

    Binding is by column name, so the column order does not matter and
    extra columns are ignored; a column bound twice (a repeated name, or
    x1 and x01) is an error.  Error messages leave the path to the
    caller, which knows it.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError("empty file") from None
        rows = [row for row in reader if row]
    for required in ("y", "d"):
        if required not in header:
            raise ValueError(f"missing column '{required}'")
    xcols = _numbered_columns(header, "x")
    zcols = _numbered_columns(header, "z")
    for name in ("y", "d", *xcols, *zcols):
        if header.count(name) > 1:
            raise ValueError(f"column '{name}' is named more than once")
    index = {name: i for i, name in enumerate(header)}

    def pull(name):
        out = np.empty(len(rows))
        for r, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(f"row {r + 2} has {len(row)} fields, expected {len(header)}")
            cell = row[index[name]].strip()
            if not cell:
                raise ValueError(f"missing value for '{name}' in row {r + 2}")
            out[r] = float(cell)
        return out

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

    names: tuple
    params: np.ndarray
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
# Newton fits; probit
# ---------------------------------------------------------------------------

def with_intercept(points):
    """Plug-in covariate rows (1, x) for one point (k,) or rows (N, k).

    The fitted intercepts ride along as a constant leading covariate, in
    the plug-in spec and in every design.
    """
    points = np.asarray(points, dtype=float)
    return np.concatenate([np.ones(points.shape[:-1] + (1,)), points], axis=-1)


def _newton(terms, start, names):
    """Maximize a log-likelihood by up to `_MAX_ITER` Newton steps from
    ``start`` and return the `FitResult` with parameter ``names``.

    ``terms(coef)`` gives (log-likelihood, gradient, information).  A step
    solves against the information with its eigenvalues in absolute value
    (Newton where the likelihood is concave, ascent at a saddle) and is
    halved until the trial terms are finite and the log-likelihood does
    not fall; the search stops after 20 failed trials or at a step that
    is not finite (a zero eigenvalue).  The record is converged when
    max|grad| < 1e-8; its vcov is the Cholesky inverse of the information.
    """
    coef = np.asarray(start, dtype=float)
    # overflow at a far trial point is caught as non-finite terms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll, grad, info = terms(coef)
        if not _finite((ll, grad, info)):
            raise RuntimeError("non-finite likelihood terms at the start values")
        iterations = 0
        for iterations in range(1, _MAX_ITER + 1):
            if np.max(np.abs(grad)) < _GRAD_TOL:
                break
            vals, vecs = np.linalg.eigh(info)
            step = vecs @ ((vecs.T @ grad) / np.abs(vals))
            if not np.isfinite(step).all():
                break
            for halvings in range(20):
                cand = coef + 0.5 ** halvings * step
                trial = terms(cand)
                if _finite(trial) and _not_below(trial[0], ll):
                    break
            else:
                break
            coef, (ll, grad, info) = cand, trial
            if np.max(np.abs(coef)) > _SEPARATION_LIMIT:
                raise RuntimeError("separation: coefficients diverged")
    try:
        root = np.linalg.inv(np.linalg.cholesky(info))
    except np.linalg.LinAlgError:
        raise RuntimeError("singular or indefinite information at the fit: the maximum is "
                           "on the boundary or the model is not identified") from None
    return FitResult(names=names, params=coef, loglik=ll, vcov=root.T @ root,
                     converged=bool(np.max(np.abs(grad)) < _GRAD_TOL), iterations=iterations)


def _finite(terms):
    return all(np.isfinite(t).all() for t in terms)


def _not_below(ll, ref):
    """ll is at least ref, up to the rounding of a sum of log terms."""
    return ll >= ref - 1e-12 * (1.0 + abs(ref))


def fit_probit(y, design, names):
    """Probit MLE of binary ``y`` on the columns of ``design`` by `_newton`."""
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    q = 2.0 * y - 1.0

    def terms(coef):
        w = design @ coef
        log_p = log_ndtr(q * w)
        lam = q * np.exp(-0.5 * w * w - _LOG_SQRT_2PI - log_p)
        curv = lam * (lam + w)  # negative Hessian weights, always positive
        return float(np.sum(log_p)), design.T @ lam, design.T @ (design * curv[:, None])

    return _newton(terms, np.zeros(design.shape[1]), names)


# ---------------------------------------------------------------------------
# bivariate probit
# ---------------------------------------------------------------------------

def _joint_designs(data):
    """Likelihood inputs (r1, r2, s1, s2): the outcome design [d, 1, x], the
    treatment design [1, x, z] and the two responses as signs 2y - 1, 2d - 1."""
    cov = with_intercept(data.x)
    return (np.hstack([data.d[:, None], cov]), np.hstack([cov, data.z]),
            2.0 * data.y - 1.0, 2.0 * data.d - 1.0)


def _biprobit_terms(theta, r1, r2, s1, s2):
    """Log-likelihood, gradient and information.

    An observation adds log F, F = Phi2(a, b; r), a = s1 w1, b = s2 w2,
    r = s1 s2 rho.  With ga = F_a/F, gb = F_b/F, gr = phi2/F, D = 1 - r^2
    and Q = (a^2 - 2rab + b^2)/D, Greene's (Econometric Analysis) second
    derivatives of log F are aa -a ga - r gr - ga^2, bb -b gb - r gr - gb^2,
    ab gr - ga gb, ar -gr (a - rb)/D - ga gr, br -gr (b - ra)/D - gb gr and
    rr gr (r (1 - Q) + ab)/D - gr^2, chained through da = s1 r1, db = s2 r2
    and dr/drho_z = s1 s2 (1 - rho^2).  One `binorm_cdf` call.
    """
    p1 = r1.shape[1]
    rho = float(np.clip(np.tanh(theta[-1]), -_RHO_MAX, _RHO_MAX))
    a, b = s1 * (r1 @ theta[:p1]), s2 * (r2 @ theta[p1:-1])
    s12 = s1 * s2
    r = s12 * rho
    prob = np.clip(binorm_cdf(a, b, r), 1e-300, 1.0)
    ll = float(np.sum(np.log(prob)))
    det = 1.0 - rho * rho
    root = math.sqrt(det)
    ga = norm_pdf(a) * ndtr((b - r * a) / root) / prob
    gb = norm_pdf(b) * ndtr((a - r * b) / root) / prob
    quad = (a * a - 2.0 * r * a * b + b * b) / det
    gr = np.exp(-0.5 * quad) / (2.0 * math.pi * root) / prob
    grad = np.concatenate([r1.T @ (ga * s1), r2.T @ (gb * s2),
                           [float(gr @ s12) * det]])
    h_aa = -a * ga - r * gr - ga * ga
    h_bb = -b * gb - r * gr - gb * gb
    h_ab = (gr - ga * gb) * s12
    h_ar = (-gr * (a - r * b) / det - ga * gr) * s2 * det
    h_br = (-gr * (b - r * a) / det - gb * gr) * s1 * det
    h_rr = (gr * (r * (1.0 - quad) + a * b) / det - gr * gr) * det * det
    h_zz = float(np.sum(h_rr)) - 2.0 * rho * float(gr @ s12) * det
    h_12 = r1.T @ (r2 * h_ab[:, None])
    hess = np.block([
        [r1.T @ (r1 * h_aa[:, None]), h_12, (r1.T @ h_ar)[:, None]],
        [h_12.T, r2.T @ (r2 * h_bb[:, None]), (r2.T @ h_br)[:, None]],
        [r1.T @ h_ar, r2.T @ h_br, h_zz],
    ])
    return ll, grad, -hess


def biprobit_loglik(theta, data):
    """Joint log-likelihood and its analytic gradient at ``theta``, laid
    out as (alpha, beta0..k, pi0..k, gamma1..m, rho_z)."""
    return _biprobit_terms(np.asarray(theta, dtype=float), *_joint_designs(data))[:2]


def _lpm_start(y, design, intercept):
    """Probit start values from the linear-probability fit of ``y``.

    Amemiya (1981, Journal of Economic Literature 19): probit slopes are
    about 2.5 times the LPM slopes and the intercept about 2.5 times the
    LPM intercept minus 1.25, close enough for Newton's quadratic basin.
    The p x p normal equations are solved, not the n x p least-squares
    problem, whose LAPACK routine (`lstsq`) wakes BLAS threads that
    busy-wait in forked workers.  Dependent columns (a duplicated or
    constant one) raise RuntimeError here: the information is then
    singular, but `_newton`'s Cholesky test can pass on its rounding.
    """
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise RuntimeError("singular or indefinite information: the design columns are "
                           "linearly dependent, so the model is not identified")
    coef = 2.5 * np.linalg.solve(gram, design.T @ y)
    coef[intercept] -= 1.25
    return coef


def fit_bivariate_probit(data):
    """Joint MLE of the outcome and treatment threshold equations.

    The dependence parameter is optimized as rho_z with rho = tanh(rho_z)
    so the search is unconstrained; it starts from each equation's
    rescaled linear-probability fit (`_lpm_start`) and rho_z = 0.  Raises
    RuntimeError when a design's columns are linearly dependent, when
    `_newton` fails and when the likelihood at rho = +-1 is as high as at
    the fit (an MLE on the boundary, which tanh reaches only as rho_z ->
    +-inf).
    """
    if data.n_instruments < 1:
        raise ValueError("at least one instrument column is required")
    k = data.n_covariates
    names = ("alpha", *(f"beta{j}" for j in range(k + 1)), *(f"pi{j}" for j in range(k + 1)),
             *(f"gamma{j}" for j in range(1, data.n_instruments + 1)), "rho_z")
    r1, r2, s1, s2 = _joint_designs(data)
    start = np.concatenate([_lpm_start(data.y, r1, 1), _lpm_start(data.d, r2, 0), [0.0]])
    fit = _newton(lambda t: _biprobit_terms(t, r1, r2, s1, s2), start, names)
    theta = fit.params
    # the likelihood at rho = sign(rho_z), where Phi2 is a Frechet bound
    a, b = s1 * (r1 @ theta[:k + 2]), s2 * (r2 @ theta[k + 2:-1])
    edge = np.where(s1 * s2 * theta[-1] > 0.0, ndtr(np.minimum(a, b)),
                    np.maximum(ndtr(a) - ndtr(-b), 0.0))
    with np.errstate(divide="ignore"):
        at_edge = _not_below(float(np.sum(np.log(edge))), fit.loglik)
    if at_edge:
        raise RuntimeError(
            f"the MLE is on the boundary rho = {math.copysign(1.0, theta[-1]):+.0f}: "
            f"the likelihood there is as high as at the fit (rho_z = {theta[-1]:.4g})")
    return fit


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


def _distinct_rows(z):
    """``np.unique(z, axis=0, return_counts=True)`` from integer row codes built
    column by column, each re-ranked after its column so it stays below n."""
    code = np.zeros(len(z), dtype=np.int64)
    for col in z.T:
        _, inv = np.unique(col, return_inverse=True)
        _, code = np.unique(code * (inv.max() + 1) + inv, return_inverse=True)
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    return z[first], counts


def fitted_spec(fit, data):
    """Plug-in DgpSpec from a joint fit on ``data``.

    The intercepts ride along as a constant covariate: the returned
    spec's covariate vector is (1, x), beta = (beta0, beta') and pi = (pi0,
    pi').  The instruments keep their empirical joint distribution, and
    the spec is evaluated with the bound engine's default set, every
    instrument.  The covariate-distribution slot is a placeholder;
    estimated evaluation always supplies an explicit grid.
    """
    alpha, beta, pi, gamma, rho = unpack_params(fit.params, data.n_covariates)
    zvals, counts = _distinct_rows(data.z)
    iv = JointDiscrete(values=tuple(tuple(v) for v in zvals),
                       probs=tuple(counts / data.n))
    return DgpSpec(alpha=float(alpha), beta=tuple(beta), pi=tuple(pi),
                   gamma=tuple(gamma), rho=float(rho),
                   covariate_dist=Normal(), iv_dists=iv)


def fit_set(data, ivset):
    """The one fit-and-plug-in: the joint fit on ``ivset``'s instrument
    columns and its plug-in spec.

    Returns (fit, spec); raises RuntimeError, naming the set, when the
    fit fails or did not converge.
    """
    sub = Dataset(y=data.y, d=data.d, x=data.x, z=ivset.columns(data.z))
    try:
        fit = fit_bivariate_probit(sub)
    except RuntimeError as exc:
        raise RuntimeError(f"joint fit for {ivset.name}: {exc}") from None
    if not fit.converged:
        raise RuntimeError(f"joint fit did not converge for {ivset.name}")
    return fit, fitted_spec(fit, sub)


# ---------------------------------------------------------------------------
# corrected bound estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatedReport(BoundsReport):
    """Corrected bound estimates at one covariate value.

    The `BoundsReport` fields carry the half-median-unbiased values
    (level 0.5); the plug-in estimates are kept under ``point_*``.
    ``levels`` maps each configured level to outward-corrected intervals,
    ``flip_rate`` is the share of parameter draws whose implied ATE sign
    disagrees with the frozen point-estimate sign.
    """

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
        v = point_vals[name]
        draws = fam_draws[name]
        s = np.maximum(draws.std(axis=0, ddof=1), 1e-12)
        if fam.role == "sup":
            active = v >= v.max() - 2.0 * s
            dev = (draws[:, active] - v[active]) / s[active]
        else:
            active = v <= v.min() + 2.0 * s
            dev = (v[active] - draws[:, active]) / s[active]
        for q, k in zip(quantiles, np.quantile(dev.max(axis=1), quantiles)):
            k = max(0.0, float(k))
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


def quantile_grid(x):
    """The 1%-99% sample-quantile grid (`GRID_LEVELS`) of one covariate
    column, as plug-in rows (1, x')."""
    return with_intercept(np.unique(np.quantile(x, GRID_LEVELS))[:, None])


def estimated_report(data, ivset=None, x_eval=(), match=None, hmue=None, grid=None):
    """Fit, plug in, and correct the bounds at covariate value ``x_eval``.

    Every sup/inf step is re-evaluated at ``hmue.n_sim`` draws from the
    asymptotic normal of the fitted parameters and shifted outward by a
    simulated critical value (see `_corrected_steps`), at the median for
    the half-median-unbiased headline numbers and at the outward tail
    for the other configured levels.  The decomposition uses the
    corrected widths, so c1 + c2 + c3 + c4 equals the corrected
    benchmark width by construction.  Family memberships, matching, and
    the ATE sign stay frozen at the point estimate.

    ``grid`` holds the candidate covariate rows x' in the data's
    covariate space; None is the `quantile_grid` of a single covariate.
    With ``grid=x_eval`` only the benchmark and widest quantities are
    computed (the two-layer interval then equals the widest one).
    Degenerate fitted CPS support is reported as irrelevant instruments
    with the plug-in benchmark at every level and no corrections.
    """
    ivset = ivset or identity_iv_set(data.n_instruments)
    hmue = hmue or HmueConfig()
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    if x_eval.size != data.n_covariates:
        raise ValueError("x_eval dimension does not match the data")

    fit, spec_hat = fit_set(data, ivset)
    x_aug = with_intercept(x_eval)
    if grid is not None:
        grid = with_intercept(np.atleast_2d(np.asarray(grid, dtype=float)))
    elif data.n_covariates == 0:
        grid = x_aug
    elif data.n_covariates == 1:
        grid = quantile_grid(data.x[:, 0])
    else:
        raise ValueError("an explicit covariate grid is required "
                         "with more than one covariate")
    structure = build_structure(spec_hat, x_aug, match=match, grid=grid)
    sign = structure.sign
    point_vals = structure.values
    point = assemble(point_vals, sign)
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
    fam_draws, signs = evaluate_draws(structure, *unpack_params(draws, data.n_covariates))
    flip_rate = float(np.mean(signs != sign))

    quantiles = sorted({_step_quantile(q) for q in hmue.levels} | {0.5})
    steps = _corrected_steps(structure, point_vals, fam_draws, quantiles)
    levels = {q: _intervals(assemble(steps[_step_quantile(q)], sign))
              for q in hmue.levels}
    return EstimatedReport(**common, **assemble(steps[0.5], sign),
                           levels=levels, flip_rate=flip_rate)


# ---------------------------------------------------------------------------
# distance helper
# ---------------------------------------------------------------------------

def hausdorff_interval(a, b):
    """Hausdorff distance between two closed `Interval`s.

    An empty interval (lower > upper) is at infinite distance from
    anything.  Emptiness allows 1e-12 of float noise so that
    point-identified intervals are not misread as empty.
    """
    if a.lower > a.upper + 1e-12 or b.lower > b.upper + 1e-12:
        return math.inf
    return max(abs(a.lower - b.lower), abs(a.upper - b.upper))


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


def bootstrap_dispersion(data, ivset=None, x_eval=(), n_boot=200, seed=0):
    """Bootstrap spread of the plug-in identification-power estimate.

    Each replicate refits on rows resampled with replacement and records
    the plug-in IIP at ``x_eval``; replicates whose fit fails are dropped
    and counted.
    """
    if n_boot < 50:
        raise ValueError("at least 50 bootstrap replicates are required")
    ivset = ivset or identity_iv_set(data.n_instruments)
    x_aug = with_intercept(np.atleast_1d(np.asarray(x_eval, dtype=float)))
    estimates = []
    n_failed = 0
    for b in range(n_boot):
        idx = rng_stream(seed, b).integers(0, data.n, size=data.n)
        rep = Dataset(y=data.y[idx], d=data.d[idx], x=data.x[idx], z=data.z[idx])
        try:
            _, spec_hat = fit_set(rep, ivset)
            estimates.append(population_report(spec_hat, x_aug, grid=x_aug).iip)
        except (RuntimeError, ValueError):
            n_failed += 1
    return BootstrapResult(estimates=np.asarray(estimates, dtype=float),
                           n_failed=n_failed)
