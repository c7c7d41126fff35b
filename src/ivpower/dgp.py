"""Data-generating process specification and exact population quantities.

A DGP is a joint threshold-crossing model for a binary outcome y and a
binary treatment d,

    y = 1[ nu1(d, x) > eps1 ]      nu1(d, x) = alpha*d + beta'x
    d = 1[ nu2(x, z) > eps2 ]      nu2(x, z) = pi'x + gamma'z

with standard-normal marginals for (eps1, eps2) coupled by a Gaussian
copula with dependence rho.  This module evaluates latent indices, the
conditional propensity score (CPS) and its support under an instrument
subset, the four (y,d) cell probabilities at a given propensity, and the
true conditional ATE.  `SupportPartition` groups the instrument support
under a subset and gives the group cells for batches of parameter values;
the bound engine in `bounds` and `cps_support` both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .gaussian import binorm_cdf

__all__ = [
    "Discrete",
    "JointDiscrete",
    "Normal",
    "DgpSpec",
    "IvSet",
    "CpsSupport",
    "SupportPartition",
    "nu1",
    "iv_support",
    "cps_support",
    "cell_probs_arrays",
    "true_ate",
    "to_dict",
    "spec_from_dict",
]

_PROB_TOL = 1e-12
# propensities closer than this are one CPS support point
_TIE = 1e-12


@dataclass(frozen=True)
class Discrete:
    """Discrete scalar distribution with explicit masses."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs length mismatch")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")


@dataclass(frozen=True)
class JointDiscrete:
    """Joint discrete distribution over instrument vectors.

    Used for empirical instrument distributions, where independence
    across instruments cannot be assumed.
    """

    values: tuple  # tuple of z-vectors (tuples)
    probs: tuple

    def __post_init__(self):
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs length mismatch")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")


@dataclass(frozen=True)
class Normal:
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be positive")


@dataclass(frozen=True)
class DgpSpec:
    """Linear-index specification of the joint threshold-crossing model.

    ``beta`` and ``pi`` have one entry per covariate; ``gamma`` one entry
    per raw instrument.  ``iv_dists`` is either a list of independent
    per-instrument ``Discrete`` distributions or a single
    ``JointDiscrete`` over full instrument vectors.
    """

    alpha: float
    beta: tuple
    pi: tuple
    gamma: tuple
    rho: float
    covariate_dist: object = Normal()
    iv_dists: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in np.atleast_1d(self.beta)))
        object.__setattr__(self, "pi", tuple(float(p) for p in np.atleast_1d(self.pi)))
        object.__setattr__(self, "gamma", tuple(float(g) for g in np.atleast_1d(self.gamma)))
        if len(self.beta) != len(self.pi):
            raise ValueError("beta and pi must have the same covariate dimension")
        if not np.all(np.isfinite([self.alpha, *self.beta, *self.pi, *self.gamma])):
            raise ValueError("alpha, beta, pi and gamma must be finite")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if isinstance(self.iv_dists, JointDiscrete):
            n_iv = len(self.iv_dists.values[0]) if self.iv_dists.values else 0
        else:
            object.__setattr__(self, "iv_dists", tuple(self.iv_dists))
            n_iv = len(self.iv_dists)
        if len(self.gamma) != n_iv:
            raise ValueError("gamma dimension must equal the number of instruments")

    @property
    def n_covariates(self):
        return len(self.beta)

    @property
    def n_instruments(self):
        return len(self.gamma)


@dataclass(frozen=True)
class IvSet:
    """Instrument subset with optional per-column recoding.

    ``use`` holds indices into the raw instrument vector; ``recode``
    holds one tag per used column: "raw" keeps the value, "gt0" replaces
    it by the indicator 1[z > 0].
    """

    name: str
    use: tuple
    recode: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "use", tuple(self.use))
        recode = tuple(self.recode) if self.recode else ("raw",) * len(self.use)
        if len(recode) != len(self.use):
            raise ValueError("recode must match use length")
        if any(r not in ("raw", "gt0") for r in recode):
            raise ValueError("unknown recode tag")
        object.__setattr__(self, "recode", recode)

    def columns(self, z_matrix):
        """Design-matrix columns (n, len(use)) from raw draws (n, m)."""
        cols = []
        for idx, tag in zip(self.use, self.recode):
            col = np.asarray(z_matrix)[:, idx].astype(float)
            cols.append((col > 0).astype(float) if tag == "gt0" else col)
        return np.column_stack(cols)


def identity_iv_set(n_instruments, name="all"):
    return IvSet(name, use=tuple(range(n_instruments)))


@dataclass(frozen=True)
class CpsSupport:
    """Support of the CPS at a covariate point: (p, mass) pairs, sorted."""

    points: tuple  # tuple of (p, mass)

    def __post_init__(self):
        total = sum(m for _, m in self.points)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"support masses sum to {total}")
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    @classmethod
    def merged(cls, p, mass):
        """Support of group propensities ``p`` with masses ``mass``: a
        propensity within 1e-12 of a point's smallest one joins it."""
        points = []
        for k in np.argsort(p, kind="stable"):
            if points and p[k] - points[-1][0] <= _TIE:
                points[-1][1] += float(mass[k])
            else:
                points.append([float(p[k]), float(mass[k])])
        return cls(points=tuple((q, m) for q, m in points))

    @property
    def p_lo(self):
        return self.points[0][0]

    @property
    def p_hi(self):
        return self.points[-1][0]

    @property
    def degenerate(self):
        return len(self.points) == 1

def _as_vector(v, dim, what):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"{what} has dimension {arr.shape}, expected ({dim},)")
    return arr


def nu1(spec, d, x):
    """Outcome latent index nu1(d, x) = alpha*d + beta'x."""
    x = _as_vector(x, spec.n_covariates, "x")
    return spec.alpha * d + float(np.dot(spec.beta, x))


def iv_support(spec):
    """Enumerate the raw instrument support as (z-vector, mass) pairs."""
    if isinstance(spec.iv_dists, JointDiscrete):
        return [(tuple(v), float(m)) for v, m in zip(spec.iv_dists.values, spec.iv_dists.probs)]
    points = [()]
    masses = [1.0]
    for dist in spec.iv_dists:
        points = [pt + (v,) for pt in points for v in dist.values]
        masses = [m * q for m in masses for q in dist.probs]
    return list(zip(points, masses))


class SupportPartition:
    """Raw instrument support grouped by the used-instrument key.

    The grouping depends neither on the covariate value nor on the
    parameters, so one partition serves the evaluation point, every
    covariate grid point and every parameter draw; only the normal-CDF
    values change.
    """

    def __init__(self, spec, ivset):
        pts = iv_support(spec)
        if not pts:
            raise ValueError("instrument support is empty")
        self.z_raw = np.array([z for z, _ in pts], dtype=float)
        mass = np.array([m for _, m in pts], dtype=float)
        keys = {}
        group = [keys.setdefault(tuple(row), len(keys))
                 for row in ivset.columns(self.z_raw).tolist()]
        member = np.zeros((len(pts), len(keys)))
        member[np.arange(len(pts)), group] = 1.0
        self.gmass = mass @ member
        # (S, T) mixture weights of each raw point within its group
        self.weights = member * mass[:, None] / self.gmass

    @property
    def n_groups(self):
        return self.gmass.size

    def group_cells(self, alpha, beta, pi, gamma, rho, points):
        """Observable cells per group for R parameter values at N
        covariate points: (R, N, T) arrays (p11, p10, p).

        ``alpha`` and ``rho`` are (R,), ``beta`` and ``pi`` (R, k),
        ``gamma`` (R, m) and ``points`` (N, k).  Conditioning on a
        used-instrument group leaves the omitted instruments random, so
        each cell is the mass-weighted mixture of cells over the group's
        raw support, not the cell at the averaged propensity.
        """
        v0 = beta @ points.T
        q = ndtr((pi @ points.T)[..., None] + (gamma @ self.z_raw.T)[:, None, :])
        c11, c10, _, _ = cell_probs_arrays((alpha[:, None] + v0)[..., None], v0[..., None],
                                           q, rho[:, None, None])
        return c11 @ self.weights, c10 @ self.weights, q @ self.weights

    def spec_cells(self, spec, points):
        """`group_cells` at the parameters of ``spec``: (N, T) arrays."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != spec.n_covariates:
            raise ValueError(f"covariate points have {points.shape[1]} coordinates, "
                             f"the model has {spec.n_covariates}")
        cells = self.group_cells(np.array([spec.alpha]), np.array([spec.beta]),
                                 np.array([spec.pi]), np.array([spec.gamma]),
                                 np.array([spec.rho]), points)
        return tuple(c[0] for c in cells)


def cps_support(spec, x, ivset=None):
    """CPS support under an instrument subset, with exact masses.

    For a strict subset the score conditions only on the used columns, so
    each support point is the mass-weighted mixture average of Phi(nu2)
    over the omitted instruments.  Identical p values (within 1e-12) are
    merged.
    """
    partition = SupportPartition(spec, ivset or identity_iv_set(spec.n_instruments))
    _, _, p = partition.spec_cells(spec, _as_vector(x, spec.n_covariates, "x"))
    return CpsSupport.merged(p[0], partition.gmass)


def cell_probs_arrays(v1, v0, p, rho):
    """Vectorized cell probabilities from latent indices.

    Parameters
    ----------
    v1, v0 : array_like
        nu1(1, x) and nu1(0, x), broadcastable against ``p``.
    p : array_like
        Conditioning propensities in [0, 1].
    rho : float or array_like
        Copula dependence.

    Returns
    -------
    (p11, p10, p01, p00) arrays; sums are exactly 1 by construction.
    """
    v1, v0 = np.broadcast_arrays(np.asarray(v1, dtype=float), np.asarray(v0, dtype=float))
    p = np.asarray(p, dtype=float)
    # the two columns on a leading axis, in front of every axis of p and rho
    pad = max(p.ndim - v1.ndim, np.ndim(rho) - v1.ndim, 0)
    v = np.stack([v1, v0]).reshape((2,) + (1,) * pad + v1.shape)
    u0 = ndtr(v0)
    # both copula columns C(Phi(v), p) in one kernel call, the latent
    # indices taken as they are; ndtri maps p = 0 and 1 to -inf and +inf,
    # where the kernel returns C(u, 0) = 0 and C(u, 1) = u
    c1, c0 = binorm_cdf(v, ndtri(np.clip(p, 0.0, 1.0)), rho)
    p11 = np.minimum(c1, p)
    p00 = np.clip(1.0 - u0 - p + c0, 0.0, 1.0)
    p01 = np.clip(p - p11, 0.0, 1.0)
    p10 = np.clip(1.0 - p - p00, 0.0, 1.0)
    return p11, p10, p01, p00


def true_ate(spec, x):
    """Population conditional ATE: Phi(nu1(1,x)) - Phi(nu1(0,x))."""
    return float(ndtr(nu1(spec, 1, x)) - ndtr(nu1(spec, 0, x)))


# ---------------------------------------------------------------------------
# JSON: a record is written as its fields (`to_dict`); a spec document is
# read back with validation (`spec_from_dict`)
# ---------------------------------------------------------------------------

# the "type" tag of each distribution in a spec document
_DIST_TYPES = {Normal: "normal", Discrete: "discrete", JointDiscrete: "joint_discrete"}


def to_dict(record):
    """JSON-ready form of a record: a dataclass is an object of its fields
    in declaration order, led by ``"type"`` for a distribution; a dict stays
    a dict, a tuple (a NamedTuple such as `bounds.Interval` too) or list
    becomes a list, and an array or numpy scalar its Python value."""
    if is_dataclass(record):
        out = {"type": _DIST_TYPES[type(record)]} if type(record) in _DIST_TYPES else {}
        out.update((f.name, to_dict(getattr(record, f.name))) for f in fields(record))
        return out
    if isinstance(record, dict):
        return {key: to_dict(value) for key, value in record.items()}
    if isinstance(record, (tuple, list)):
        return [to_dict(value) for value in record]
    if isinstance(record, (np.ndarray, np.generic)):
        return record.tolist()
    return record


def _dist_from_dict(doc, where):
    try:
        kind = doc["type"]
    except (TypeError, KeyError):
        raise ValueError(f"{where}: missing 'type'") from None
    if kind == _DIST_TYPES[Normal]:
        return Normal(mean=float(doc.get("mean", 0.0)), sd=float(doc.get("sd", 1.0)))
    if kind == _DIST_TYPES[Discrete]:
        return Discrete(values=tuple(doc["values"]), probs=tuple(doc["probs"]))
    if kind == _DIST_TYPES[JointDiscrete]:
        return JointDiscrete(values=tuple(tuple(v) for v in doc["values"]),
                             probs=tuple(doc["probs"]))
    raise ValueError(f"{where}: unknown distribution type {kind!r}")


def spec_from_dict(doc):
    for key in ("alpha", "beta", "pi", "gamma", "rho", "covariate_dist", "iv_dists"):
        if key not in doc:
            raise ValueError(f"spec document: missing field '{key}'")
    iv_doc = doc["iv_dists"]
    if isinstance(iv_doc, dict):
        iv_dists = _dist_from_dict(iv_doc, "iv_dists")
    else:
        iv_dists = tuple(
            _dist_from_dict(d, f"iv_dists[{i}]") for i, d in enumerate(iv_doc)
        )
    return DgpSpec(
        alpha=float(doc["alpha"]),
        beta=tuple(doc["beta"]),
        pi=tuple(doc["pi"]),
        gamma=tuple(doc["gamma"]),
        rho=float(doc["rho"]),
        covariate_dist=_dist_from_dict(doc["covariate_dist"], "covariate_dist"),
        iv_dists=iv_dists,
    )
