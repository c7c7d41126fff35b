"""Partial-identification bounds for the conditional ATE.

Implements, for the joint threshold-crossing model in `dgp`:

* benchmark bounds from the marginal (y, d) cells (width one by
  construction),
* the sign of the conditional ATE recovered from the outcome probability
  at the extreme propensities,
* two-layer intersection bounds that match covariate points x' where a
  nearby propensity value is attainable,
* widest bounds: the two-layer bounds over x' = x alone, which use only
  the two CPS extremes at the evaluation point,
* the additive decomposition of the identification gain into instrument
  validity (C1), instrument strength (C2), covariate matching (C3) and
  the remaining interval width (C4), and the instrument identification
  power IIP = C1 + C2.

Every quantity comes out of one bound engine, in five steps:

1. grouping: `dgp.SupportPartition` groups the raw instrument support by
   the used-instrument key, once per report;
2. cells: `SupportPartition.group_cells` gives the observable group cells
   for a batch of R parameter values at the evaluation point and the
   covariate grid, the candidate rows x' the caller passes as ``grid``;
3. families: `_solve` matches propensities across the grid and flattens
   every sup/inf bounding step into a family of member values
   (`BoundsStructure`), with the CPS support and the ATE sign; the
   matching, the family construction and the pairwise sign check are
   array operations over the T own-support groups and G grid rows.
   Endpoint rows: where pi'x' is the same on every grid row, each
   member is an own-point term plus a nonnegative multiple of a matched
   cell that increases in beta'x', and the sign check's forward
   (reverse) contrast increases (decreases) in beta'x'; so the solve
   keeps, per pattern of set flags and strict latent signs, the rows of
   lowest and highest beta'x' plus x, and every sup, inf and check
   violation of the full grid is among them;
4. evaluation: `_family_values` holds the member formulas; it evaluates
   the families on the solve's own cells (population values) and, in
   `evaluate_draws`, at R parameter draws with the structure frozen (a
   point estimate is a batch of one);
5. assembly: `assemble` turns the sup/inf steps into the benchmark,
   widest and two-layer intervals and C1-C4, for population reports,
   plug-in estimates and corrected estimates alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgp import (
    _TIE,
    CpsSupport,
    Discrete,
    Normal,
    SupportPartition,
    identity_iv_set,
    true_ate,
)
from .gaussian import normal_quadrature

__all__ = [
    "Interval",
    "MatchConfig",
    "BoundsReport",
    "REPORT_COLUMNS",
    "report_columns",
    "SupportPartition",
    "default_covariate_grid",
    "manski_bounds",
    "identify_sign",
    "widest_bounds",
    "h_func",
    "sv_bounds",
    "iip",
    "iip_average",
    "population_report",
    "build_structure",
    "evaluate_structure",
    "evaluate_draws",
    "ate_signs",
    "intervals_from_values",
    "assemble",
]

# default covariate lattice for a normal covariate: mean +/- 4 sd in 0.01 steps
_GRID_STEP = 0.01
_GRID_SPAN_SD = 4.0
# parameter draws evaluated together; bounds the kernel's temporaries
_DRAW_CHUNK = 128
# Gauss-Hermite nodes of iip_average over a normal covariate
_IIP_NODES = 64


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, other, slack=0.0):
        """True if ``other`` (Interval or scalar) lies inside, up to slack."""
        if isinstance(other, Interval):
            return other.lower >= self.lower - slack and other.upper <= self.upper + slack
        return self.lower - slack <= other <= self.upper + slack


@dataclass(frozen=True)
class MatchConfig:
    """Covariate-matching configuration for the two-layer bounds.

    ``tolerance_c`` is the largest |p' - p| accepted when matching a
    propensity at another covariate point; it must be finite and >= 0.
    """

    tolerance_c: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.tolerance_c) and self.tolerance_c >= 0.0):
            raise ValueError(f"tolerance_c must be finite and >= 0, got {self.tolerance_c}")


def default_covariate_grid(spec):
    """Candidate x' points: the support for discrete covariates, a
    mean +/- 4 sd lattice for normal ones."""
    dist = spec.covariate_dist
    if isinstance(dist, Discrete):
        return np.array([np.atleast_1d(v) for v in dist.values], dtype=float)
    if isinstance(dist, Normal):
        lo = dist.mean - _GRID_SPAN_SD * dist.sd
        hi = dist.mean + _GRID_SPAN_SD * dist.sd
        n = int(round((hi - lo) / _GRID_STEP))
        return np.linspace(lo, hi, n + 1).reshape(-1, 1)
    raise ValueError(f"no default grid for covariate distribution {dist!r}")


def _nearest(p_rows, p):
    """Index along the last (group) axis of ``p_rows`` of the attainable
    propensity nearest to ``p``; ties go to the smaller value."""
    d = np.abs(p_rows - p)
    return np.argmin(np.where(d <= d.min(axis=-1, keepdims=True), p_rows, np.inf), axis=-1)


# ---------------------------------------------------------------------------
# families of sup/inf members
# ---------------------------------------------------------------------------

@dataclass
class _Family:
    """One sup or inf step: member values are rebuilt per parameter draw.

    ``t`` indexes the own-support group, ``g`` the grid row (-1 for the
    empty-set member), ``j`` the matched support group at that row.
    """

    role: str  # "sup" or "inf"
    form: str  # "L1", "U0", "U1", "L0", "marg_L", "marg_U", "p_lo", "p_hi"
    t: np.ndarray
    g: np.ndarray
    j: np.ndarray


@dataclass
class BoundsStructure:
    """Everything needed to re-evaluate the bound families at new
    parameter values with the membership and matching fixed.

    ``sign`` is None when the CPS support at ``x`` is degenerate; the
    structure then holds only the benchmark families.  ``values`` holds
    each family's member values at the parameters it was built at.
    """

    x: np.ndarray
    grid: np.ndarray
    partition: SupportPartition
    sign: object
    support: CpsSupport
    families: dict
    values: dict = None


def _build_families(grid_ok, pstar, jstar, sets, own_idx):
    """Flatten the nested sup/inf terms into the two-layer (``sv_``) and
    widest (``w_``) member families.

    ``grid_ok[t, g]`` marks admissible matches, ``pstar``/``jstar`` the
    matched propensity and its group index.  Every family carries a bare
    member per outer propensity covering the empty-set convention.  The
    widest families are the two-layer ones restricted to the own row
    ``own_idx`` (x' = x).
    """
    # a leading column holds the bare member, so nonzero runs t-major,
    # bare member first, then ascending grid row
    bare = np.ones((jstar.shape[0], 1), dtype=bool)
    j_ext = np.hstack([np.full(bare.shape, -1), jstar])
    in_tie = (pstar > _TIE) & (pstar < 1.0 - _TIE)
    sv, widest = {}, {}
    for form, role, member_set, conditional in (
            ("L1", "sup", sets["x1p"], False), ("U0", "inf", sets["x0p"], True),
            ("U1", "inf", sets["x1m"], True), ("L0", "sup", sets["x0m"], False)):
        keep = grid_ok & member_set[None, :]
        if conditional:
            keep &= in_tie
        t, col = np.nonzero(np.hstack([bare, keep]))
        g, j = col - 1, j_ext[t, col]
        own = (g < 0) | (g == own_idx)
        sv["sv_" + form] = _Family(role, form, t, g, j)
        widest["w_" + form] = _Family(role, form, t[own], g[own], j[own])
    return {**sv, **widest}


def _family_values(fam, own, grid, pos, gmass):
    """Member values (R, members) of one family at R parameter points.

    ``own`` holds the (R, T) own-point group cells (p11, p10, p);
    ``grid`` the (R, N, T) cells at the grid rows that ``pos`` maps a
    structure row to.  These are the only copies of the member formulas.
    """
    p11o, p10o, pown = own
    if fam.form == "marg_L":
        return (-(p10o @ gmass) - ((pown - p11o) @ gmass))[:, None]
    if fam.form == "marg_U":
        return ((p11o @ gmass) + ((1.0 - p10o - pown) @ gmass))[:, None]
    if fam.form in ("p_lo", "p_hi"):
        return pown.copy()
    t, m = fam.t, fam.g >= 0
    g, j = pos[fam.g[m]], fam.j[m]
    # the bare member is the empty matched set: it adds 0 to a sup step's
    # own cell and puts a conditional probability of 1 in an inf step's
    term = np.full((pown.shape[0], t.size), 0.0 if fam.role == "sup" else 1.0)
    if fam.form == "L1":
        term[:, m] = grid[1][:, g, j]
        return p11o[:, t] + term
    if fam.form == "L0":
        term[:, m] = grid[0][:, g, j]
        return p10o[:, t] + term
    ps = np.clip(grid[2][:, g, j], _TIE, 1.0 - _TIE)
    if fam.form == "U0":
        term[:, m] = grid[0][:, g, j] / ps
        return p10o[:, t] + pown[:, t] * term
    term[:, m] = grid[1][:, g, j] / (1.0 - ps)
    return p11o[:, t] + (1.0 - pown[:, t]) * term


def _values(structure, own, grid, pos):
    gmass = structure.partition.gmass
    return {name: _family_values(fam, own, grid, pos, gmass)
            for name, fam in structure.families.items()}


def _solve(spec, x, ivset, match, grid=None):
    """The engine's one pass at x: grouping, cells, CPS support, sign,
    matching and families, with the families' values at ``spec``.

    ``grid`` holds the candidate covariate rows x' (a 1-D array is one
    row; None is `default_covariate_grid`); x is appended when missing,
    and where pi'x' is constant over the rows only the endpoint rows stay
    in ``structure.grid``.  With ``grid=x`` the two-layer families are
    the widest ones.  Returns the structure, its ``values`` as name ->
    member array.  Raises RuntimeError when the pairwise expectation
    contradicts a set membership.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if grid is not None:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        if grid.shape[1] != x.size:
            raise ValueError("covariate grid dimension mismatch")
    partition = SupportPartition(spec, ivset)
    one = partition.spec_cells(spec, x)  # (1, T) cells: a batch of one
    p11o, p10o, pown = (c[0] for c in one)
    support = CpsSupport.merged(pown, partition.gmass)
    T = pown.size
    fams = {form: _Family(role, form, np.arange(n), np.full(n, -1), np.full(n, -1))
            for form, role, n in (("marg_L", "sup", 1), ("marg_U", "inf", 1),
                                  ("p_lo", "inf", T), ("p_hi", "sup", T))}
    if support.degenerate:
        structure = BoundsStructure(x, x[None], partition, None, support, fams)
        structure.values = {k: v[0] for k, v in _values(structure, one, None, None).items()}
        return structure

    if grid is None:
        grid = default_covariate_grid(spec)
    own_row = np.where(np.all(np.abs(grid - x) <= _TIE, axis=1))[0]
    if len(own_row) == 0:
        grid = np.vstack([grid, x])
        own_idx = grid.shape[0] - 1
    else:
        own_idx = int(own_row[0])

    beta = np.asarray(spec.beta)
    v1x = spec.alpha + float(np.dot(beta, x))
    v0x = float(np.dot(beta, x))
    v1g = spec.alpha + grid @ beta
    v0g = grid @ beta
    sets = {
        "x0p": v1g >= v0x - _TIE,
        "x0m": v1g <= v0x + _TIE,
        "x1p": v1x >= v0g - _TIE,
        "x1m": v1x <= v0g + _TIE,
    }
    if grid.shape[0] > 1 and np.ptp(np.array([spec.pi]) @ grid.T) == 0.0:
        # endpoint rows (module docstring): per pattern of set flags and
        # strict latent signs, the lowest and highest beta'x' and x; a
        # one-row grid (the widest-only report) has none to drop
        signs = [s for gap in (v1g - v0x, v1x - v0g) for s in (gap < -_TIE, gap > _TIE)]
        flags = np.column_stack([*sets.values(), *signs])
        pattern = flags @ (1 << np.arange(flags.shape[1]))
        order = np.lexsort((v0g, pattern))
        cut = np.flatnonzero(np.diff(pattern[order])) + 1
        keep = np.unique(np.r_[order[np.r_[0, cut]], order[np.r_[cut - 1, -1]], own_idx])
        grid, v1g, v0g = grid[keep], v1g[keep], v0g[keep]
        sets = {name: member[keep] for name, member in sets.items()}
        own_idx = int(np.searchsorted(keep, own_idx))

    p11G, p10G, p_grid = partition.spec_cells(spec, grid)  # all (G, T)
    G = grid.shape[0]
    # nearest attainable propensity per (outer group t, grid row), over
    # the (T, G, T) distances; ties go to the smaller value
    jstar = _nearest(p_grid[None], pown[:, None, None])
    pstar = p_grid[np.arange(G), jstar]
    grid_ok = np.abs(pstar - pown[:, None]) <= match.tolerance_c

    fams.update(_build_families(grid_ok, pstar, jstar, sets, own_idx))

    structure = BoundsStructure(x, grid, partition, None, support, fams)
    arrays = {
        "pown": pown, "p11o": p11o, "p10o": p10o,
        "pstar": pstar, "p11G": p11G, "p10G": p10G,
        "grid_ok": grid_ok, "jstar": jstar,
        "v1g": v1g, "v0g": v0g, "v1x": v1x, "v0x": v0x,
    }
    mism = _h_sign_check(structure, arrays)
    if mism:
        raise RuntimeError(f"sign of pairwise expectation disagrees with "
                           f"the latent comparison at grid rows {mism[:3]}")
    cells = (p11G[None], p10G[None], p_grid[None])
    values = _values(structure, one, cells, np.arange(G))
    structure.sign = int(ate_signs(structure, values)[0])
    structure.values = {k: v[0] for k, v in values.items()}
    return structure


def ate_signs(structure, values):
    """ATE sign at each of R parameter points, the families fixed:
    the sign of Pr[Y=1 | x, p] at the largest propensity minus that at
    the smallest, 0 within 1e-12.  ``values`` holds (R, members) family
    values; the bare sv_L1 and sv_L0 members are the own cells p11, p10."""
    p11 = values["sv_L1"][:, structure.families["sv_L1"].g < 0]
    p10 = values["sv_L0"][:, structure.families["sv_L0"].g < 0]
    pown = values["p_lo"]
    rows = np.arange(pown.shape[0])
    pry1 = p11 + p10
    diff = pry1[rows, pown.argmax(axis=1)] - pry1[rows, pown.argmin(axis=1)]
    return np.where(np.abs(diff) <= 1e-12, 0, np.sign(diff)).astype(int)


def _h_sign_check(structure, arrays):
    """Population consistency check: the numeric pairwise expectation H
    must share the sign of the latent-index comparison that defined the
    set memberships.  Returns the offending grid rows as (row, H, latent)
    tuples in row order.

    The rectangle contrast is evaluated at approximately matched
    propensities, which perturbs it by at most the matching slack, so a
    sign disagreement only counts when |H| exceeds that slack.
    """
    pown = arrays["pown"]
    gmass = structure.partition.gmass
    p11o, p10o = arrays["p11o"], arrays["p10o"]
    pstar, jstar = arrays["pstar"], arrays["jstar"]
    p11G, p10G = arrays["p11G"], arrays["p10G"]
    ok = arrays["grid_ok"]
    v1g, v0g = arrays["v1g"], arrays["v0g"]
    v1x, v0x = arrays["v1x"], arrays["v0x"]
    G = ok.shape[1]
    rows = np.arange(G)
    # matched grid cells per (t, g)
    m11 = p11G[rows[None, :], jstar]  # (T, G)
    m10 = p10G[rows[None, :], jstar]
    slack_t = np.abs(pstar - pown[:, None])  # (T, G)
    # pair (t, s) with p_t above p_s, both matched at the grid row
    order = (pown[:, None] > pown[None, :] + _TIE)
    valid = (order[:, :, None]
             & ok[:, None, :] & ok[None, :, :]
             & (pstar[:, None, :] > pstar[None, :, :] + _TIE))
    w = (gmass[:, None] * gmass[None, :])[:, :, None] * valid
    wsum = w.sum(axis=(0, 1))
    h_fwd = (m11[:, None, :] - m11[None, :, :]
             + (p10o[:, None] - p10o[None, :])[:, :, None])
    h_rev = ((p11o[:, None] - p11o[None, :])[:, :, None]
             + m10[:, None, :] - m10[None, :, :])
    pair_slack = slack_t[:, None, :] + slack_t[None, :, :]
    live = np.nonzero(wsum > 0)[0]

    def mean(arr):
        # weighted mean over the (t, s) pairs, every live grid row at once
        return np.einsum("tsg,tsg->g", w, arr)[live] / wsum[live]

    tol = mean(pair_slack) + 1e-10
    mism = []
    for hval, lat in ((mean(h_fwd), v1g[live] - v0x), (mean(h_rev), v1x - v0g[live])):
        bad = ((hval > tol) & (lat < -_TIE)) | ((hval < -tol) & (lat > _TIE))
        mism += zip(live[bad].tolist(), hval[bad].tolist(), lat[bad].tolist())
    # row order; at a shared row the forward contrast comes first
    return sorted(mism, key=lambda m: m[0])


# ---------------------------------------------------------------------------
# assembly and reports
# ---------------------------------------------------------------------------

# the tabulated quantities of a report, in output column order
REPORT_COLUMNS = ("L_M", "U_M", "L_bar", "U_bar", "L_SV", "U_SV",
                  "sign", "C1", "C2", "C3", "C4", "IIP")


@dataclass(frozen=True)
class BoundsReport:
    x: tuple
    sign: object  # 1, -1, 0, or None when instruments are irrelevant
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


def report_columns(rep):
    """REPORT_COLUMNS name -> value for a population or estimated report;
    ``sign`` stays None for irrelevant instruments."""
    return dict(zip(REPORT_COLUMNS, (
        rep.manski.lower, rep.manski.upper, rep.widest.lower, rep.widest.upper,
        rep.sv.lower, rep.sv.upper, rep.sign, rep.c1, rep.c2, rep.c3, rep.c4, rep.iip)))


def assemble(steps, sign):
    """Benchmark, widest and two-layer intervals with C1-C4 and IIP.

    ``steps`` maps each family name to its member values (a point
    evaluation) or to its step value already taken (a corrected
    estimate): a sup step is the largest entry, an inf step the
    smallest.  ``sign`` None marks irrelevant instruments, where every
    interval is the benchmark one; at sign 0 the widest and two-layer
    intervals are both [0, 0].  Returns the fields of a report as a dict.
    """
    def intersection(prefix):
        return Interval(
            float(np.max(steps[prefix + "L1"])) - float(np.min(steps[prefix + "U0"])),
            float(np.min(steps[prefix + "U1"])) - float(np.max(steps[prefix + "L0"])))

    manski = Interval(float(np.max(steps["marg_L"])), float(np.min(steps["marg_U"])))
    if sign is None:
        return dict(manski=manski, widest=manski, sv=manski,
                    c1=0.0, c2=0.0, c3=0.0, c4=manski.width, iip=0.0)
    if sign == 0:
        widest = sv = Interval(0.0, 0.0)
    else:
        widest, sv = intersection("w_"), intersection("sv_")
    c1 = (manski.upper if sign <= 0 else 0.0) - (manski.lower if sign >= 0 else 0.0)
    c2 = manski.width - widest.width - c1
    return dict(manski=manski, widest=widest, sv=sv,
                c1=c1, c2=c2, c3=widest.width - sv.width, c4=sv.width, iip=c1 + c2)


def intervals_from_values(values, sign):
    """Assemble benchmark/widest/two-layer intervals from family values."""
    parts = assemble(values, sign)
    return parts["manski"], parts["widest"], parts["sv"]


def population_report(spec, x, ivset=None, match=None, grid=None):
    """Full report at x: all bounds, decomposition, IIP, CPS range.

    ``grid`` holds the candidate covariate rows x' (see `_solve`); with
    ``grid=x`` the two-layer interval is the widest one.
    """
    ivset = ivset or identity_iv_set(spec.n_instruments)
    match = match or MatchConfig()
    structure = _solve(spec, x, ivset, match, grid)
    return BoundsReport(
        x=tuple(structure.x), sign=structure.sign, irrelevant=structure.sign is None,
        **assemble(structure.values, structure.sign),
        cps_lo=structure.support.p_lo, cps_hi=structure.support.p_hi,
        ate_model=true_ate(spec, structure.x),
    )


def _relevant(report):
    if report.irrelevant:
        raise ValueError("irrelevant instruments: CPS support at x is degenerate")
    return report


def manski_bounds(spec, x, ivset=None):
    """Bounds from the marginal cells alone; width is exactly one."""
    return population_report(spec, x, ivset, grid=x).manski


def identify_sign(spec, x, ivset=None):
    """Sign of the conditional ATE from Pr[Y=1 | x, p] at the CPS extremes.

    Raises ValueError when the CPS support at x is a single point, in
    which case the instruments carry no identifying variation.
    """
    return _relevant(population_report(spec, x, ivset, grid=x)).sign


def widest_bounds(spec, x, ivset=None):
    """Bounds using only the two CPS extremes at the evaluation point.

    These are the widest the two-layer bounds can be; their width depends
    on the instruments solely through the extreme propensities.
    """
    return _relevant(population_report(spec, x, ivset, grid=x)).widest


def sv_bounds(spec, x, ivset=None, match=None):
    """Two-layer intersection bounds at x.

    The outer layer intersects over the CPS support at x; the inner layer
    matches covariate points x' on the grid where a propensity within
    ``tolerance_c`` of the outer value is attainable.  Supremum over an
    empty set is 0, infimum is 1.
    """
    return _relevant(population_report(spec, x, ivset, match)).sv


def h_func(spec, x, xprime, p, pprime, ivset=None, match=None):
    """Observable rectangle contrast h(x, x', p, p').

    Both propensities must be attainable (within the matching tolerance)
    at both covariate points, else the conditional probabilities are not
    well defined.
    """
    ivset = ivset or identity_iv_set(spec.n_instruments)
    match = match or MatchConfig()
    partition = SupportPartition(spec, ivset)

    def cells_at(point, prob):
        p11, p10, row = partition.spec_cells(spec, point)
        j = int(_nearest(row[0], prob))
        if abs(float(row[0, j]) - prob) > match.tolerance_c:
            raise ValueError("probabilities not well defined: propensity "
                             f"{prob} unattainable at covariate point {point}")
        return float(p11[0, j]), float(p10[0, j])

    p11_hi, _ = cells_at(xprime, p)
    p11_lo, _ = cells_at(xprime, pprime)
    _, p10_hi = cells_at(x, p)
    _, p10_lo = cells_at(x, pprime)
    return p11_hi - p11_lo - p10_lo + p10_hi


def iip(spec, x, ivset=None):
    """Instrument identification power at x: benchmark width minus the
    widest-bound width; zero when the instruments are irrelevant."""
    return population_report(spec, x, ivset, grid=x).iip


def iip_average(spec, ivset=None, x_weights=None):
    """Weighted average of iip over x points.

    ``x_weights`` is a sequence of (x, weight) pairs whose weights sum to
    one.  When omitted, the points come from the covariate distribution:
    the support for a discrete covariate, Gauss-Hermite nodes for a
    normal one.
    """
    if x_weights is None:
        dist = spec.covariate_dist
        if isinstance(dist, Discrete):
            x_weights = list(zip(dist.values, dist.probs))
        elif isinstance(dist, Normal):
            nodes, wts = normal_quadrature(dist.mean, dist.sd, _IIP_NODES)
            x_weights = list(zip(nodes, wts))
        else:
            raise ValueError(f"cannot average over {dist!r}")
    wts = np.asarray([w for _, w in x_weights], dtype=float)
    if abs(wts.sum() - 1.0) > 1e-8:
        raise ValueError("weights must sum to 1")
    vals = np.array([iip(spec, np.atleast_1d(p), ivset) for p, _ in x_weights])
    return float(np.dot(wts, vals))


# ---------------------------------------------------------------------------
# re-evaluation at new parameter values (used by estimation)
# ---------------------------------------------------------------------------

def build_structure(spec, x, ivset=None, match=None, grid=None):
    """Fixed family structure for draw-based re-evaluation.

    Membership, matching and the ATE sign are frozen at ``spec``; the
    sign is None when the CPS support at x is degenerate.  ``grid`` holds
    the candidate covariate rows x' (see `_solve`).  The structure's
    ``values`` are the families evaluated at ``spec``.
    """
    ivset = ivset or identity_iv_set(spec.n_instruments)
    return _solve(spec, x, ivset, match or MatchConfig(), grid)


def evaluate_draws(structure, alphas, betas, pis, gammas, rhos):
    """Member values of every family at R parameter draws.

    ``alphas`` and ``rhos`` are (R,), ``betas`` and ``pis`` (R, k) and
    ``gammas`` (R, m).  Returns dict name -> (R, members).  Only the grid
    rows some family references are evaluated, in chunks of draws.
    """
    G = structure.grid.shape[0]
    rows = np.unique(np.concatenate([f.g[f.g >= 0] for f in structure.families.values()]))
    pos = np.full(G, -1)
    pos[rows] = np.arange(rows.size)
    points = np.vstack([structure.x, structure.grid[rows]])
    R = alphas.size
    out = {name: np.empty((R, fam.t.size)) for name, fam in structure.families.items()}
    for lo in range(0, R, _DRAW_CHUNK):
        sl = slice(lo, lo + _DRAW_CHUNK)
        cells = structure.partition.group_cells(
            alphas[sl], betas[sl], pis[sl], gammas[sl], rhos[sl], points)
        own = tuple(c[:, 0] for c in cells)
        grid = tuple(c[:, 1:] for c in cells)
        for name, vals in _values(structure, own, grid, pos).items():
            out[name][sl] = vals
    return out


def evaluate_structure(structure, alpha, beta, pi, gamma, rho):
    """Member values of every family at one parameter point."""
    values = evaluate_draws(
        structure, np.array([float(alpha)]), np.array([beta], dtype=float),
        np.array([pi], dtype=float), np.array([gamma], dtype=float),
        np.array([float(rho)]))
    return {name: vals[0] for name, vals in values.items()}
