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
2. cells: `SupportPartition.spec_propensity` gives the group propensities,
   from which the CPS support at x and its degeneracy follow with no
   bivariate kernel; `SupportPartition.group_cells` then gives the
   observable group cells in one call per solve: at x alone when the
   support is degenerate, else at x followed by the grid rows, the
   candidate rows x' the caller passes as ``grid``;
3. families: `build_structure` picks its grid rows from the latent
   indices alone, matches propensities across them and holds every
   sup/inf bounding step as a family (`BoundsStructure`), with the CPS
   support and the ATE sign.  A family is a (T, G + 1) admission mask
   over the T own-support groups: column 0 is the bare member, column
   g + 1 the member at grid row g.  Endpoint rows: where pi'x' is the
   same on every grid row, the matches are the same on every row and
   each member is an own-point term plus a nonnegative multiple of a
   matched cell that increases in beta'x'; so the solve keeps, per
   pattern of the four set flags, the rows of lowest and highest beta'x'
   plus x, and every sup and inf of the full grid is among them.  The
   pairwise sign identity that the memberships rest on (Shaikh &
   Vytlacil 2011) holds for every spec and is checked by the tests, not
   by the solve;
4. evaluation: `_member_values` holds the member formulas, element-wise.
   The solve evaluates each form once as a dense (T, G + 1) array on its
   own cells and takes each family's members through its mask; a sup or
   inf step is one max or min over them.  `evaluate_draws` gathers the
   members' cells at R parameter draws with the structure frozen (a
   point estimate is a batch of one), each member's matched group from
   the structure's one matching array ``jstar``, and returns each
   draw's ATE sign from that draw's own-point cells;
5. assembly: `assemble` turns the sup/inf steps into the benchmark,
   widest and two-layer intervals and C1-C4, for population reports,
   plug-in estimates and corrected estimates alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

__all__ = [
    "Interval",
    "MatchConfig",
    "BoundsReport",
    "REPORT_COLUMNS",
    "NUMERIC_COLUMNS",
    "report_columns",
    "SupportPartition",
    "default_covariate_grid",
    "manski_bounds",
    "identify_sign",
    "widest_bounds",
    "sv_bounds",
    "iip",
    "iip_average",
    "population_report",
    "build_structure",
    "evaluate_structure",
    "evaluate_draws",
    "assemble",
]

# default covariate lattice for a normal covariate: mean +/- 4 sd in 0.01 steps
_GRID_STEP = 0.01
_GRID_SPAN_SD = 4.0
# parameter draws evaluated together; bounds the (draws, rows, groups)
# cells of each `group_cells` call in `evaluate_draws`
_DRAW_CHUNK = 128


class Interval(NamedTuple):
    lower: float
    upper: float

    @property
    def width(self):
        return self.upper - self.lower


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
    """One sup or inf step.

    ``mask[t, c]`` marks its members: column 0 is the bare member of outer
    group t, column g + 1 the member at grid row g.  ``t`` and ``g`` are
    the `np.nonzero` view of the mask, t-major, with ``g`` -1 for the bare
    member; they are built on first use.
    """

    role: str  # "sup" or "inf"
    form: str  # "L1", "U0", "U1", "L0", "marg_L", "marg_U"
    mask: np.ndarray

    @cached_property
    def members(self):
        t, col = np.nonzero(self.mask)
        return t, col - 1

    t = property(lambda self: self.members[0])
    g = property(lambda self: self.members[1])


@dataclass
class BoundsStructure:
    """Everything needed to re-evaluate the bound families at new
    parameter values with the membership and matching fixed.

    ``sign`` is None when the CPS support at ``x`` is degenerate; the
    structure then holds only the benchmark families and ``jstar`` is
    None.  ``values`` holds each family's member values at the parameters
    it was built at, in the order of its ``t`` and ``g``.  ``jstar[t, c]``
    is the support group matched to outer group t in column c of every
    two-layer family's mask.
    """

    x: np.ndarray
    grid: np.ndarray
    partition: SupportPartition
    sign: object
    support: CpsSupport
    families: dict
    values: dict
    jstar: object


# the benchmark forms, which read the own-point cells alone, by role
_OWN_FORMS = {"marg_L": "sup", "marg_U": "inf"}
# the two-layer forms: (form, role, set flag, conditional), where a
# conditional member needs an interior matched propensity
_TWO_LAYER_FORMS = (("L1", "sup", "x1p", False), ("U0", "inf", "x0p", True),
                    ("U1", "inf", "x1m", True), ("L0", "sup", "x0m", False))


def _own_values(form, own, gmass):
    """Values (R, 1) of a benchmark form from the (R, T) own-point group
    cells ``own`` (p11, p10, p)."""
    p11, p10, p = own
    if form == "marg_L":
        return (-(p10 @ gmass) - ((p - p11) @ gmass))[:, None]
    return ((p11 @ gmass) + ((1.0 - p10 - p) @ gmass))[:, None]


def _member_values(form, own, matched, bare):
    """Values of two-layer members, element-wise: the cells ``own``
    (p11, p10, p) of each member's outer group at x, and ``matched`` at
    its matched grid row and group.  A ``bare`` member is the empty
    matched set: it adds 0 to a sup step's own cell and puts a
    conditional probability of 1 in an inf step's.  These are the only
    copies of the member formulas."""
    p11, p10, p = own
    m11, m10, mp = matched
    if form == "L1":
        return p11 + np.where(bare, 0.0, m10)
    if form == "L0":
        return p10 + np.where(bare, 0.0, m11)
    ps = np.clip(mp, _TIE, 1.0 - _TIE)
    if form == "U0":
        return p10 + p * np.where(bare, 1.0, m11 / ps)
    return p11 + (1.0 - p) * np.where(bare, 1.0, m10 / (1.0 - ps))


def _signs(p11, p10, p):
    """ATE sign per row of (R, T) own-point cells: the sign of
    Pr[Y=1 | x, p] at the largest propensity minus that at the smallest,
    0 within 1e-12."""
    rows = np.arange(p.shape[0])
    pry1 = p11 + p10
    diff = pry1[rows, p.argmax(axis=1)] - pry1[rows, p.argmin(axis=1)]
    return np.where(np.abs(diff) <= 1e-12, 0, np.sign(diff)).astype(int)


def _solve_rows(spec, x, grid):
    """The solve's grid rows, the own row's index among them and each
    row's set flags, from the latent indices alone."""
    if grid is None:
        grid = default_covariate_grid(spec)
    own_row = np.flatnonzero(np.all(np.abs(grid - x) <= _TIE, axis=1))
    if own_row.size == 0:
        grid = np.vstack([grid, x])
        own_idx = grid.shape[0] - 1
    else:
        own_idx = int(own_row[0])
    beta = np.asarray(spec.beta)
    v1x = spec.alpha + float(np.dot(beta, x))
    v0x = float(np.dot(beta, x))
    v0g = grid @ beta
    v1g = spec.alpha + v0g
    sets = {
        "x0p": v1g >= v0x - _TIE,
        "x0m": v1g <= v0x + _TIE,
        "x1p": v1x >= v0g - _TIE,
        "x1m": v1x <= v0g + _TIE,
    }
    if grid.shape[0] > 1 and np.ptp(np.array([spec.pi]) @ grid.T) == 0.0:
        # endpoint rows (module docstring): per pattern of set flags, the
        # rows of lowest and highest beta'x', and x; a one-row grid (the
        # widest-only report) has none to drop
        pattern = sets["x0p"] + 2 * sets["x0m"] + 4 * sets["x1p"] + 8 * sets["x1m"]
        order = np.lexsort((v0g, pattern))
        change = np.diff(pattern[order]) != 0
        # the first and the last row of each pattern in that order
        edge = np.ones(order.size, dtype=bool)
        edge[1:-1] = change[:-1] | change[1:]
        keep = np.zeros(order.size, dtype=bool)
        keep[order[edge]] = True
        keep[own_idx] = True
        own_idx = int(np.count_nonzero(keep[:own_idx]))
        grid = grid[keep]
        sets = {name: flag[keep] for name, flag in sets.items()}
    return grid, own_idx, sets


def build_structure(spec, x, ivset=None, match=None, grid=None):
    """The engine's one pass at x: grouping, CPS support, grid rows,
    cells, matching and families, with the families' values at ``spec``.

    Membership, matching and the ATE sign are frozen at ``spec``, so
    `evaluate_draws` can re-evaluate the families at new parameters; the
    sign is None when the CPS support at x is degenerate.  ``ivset``
    defaults to every instrument, ``match`` to `MatchConfig()`.
    ``grid`` holds the candidate covariate rows x' (a 1-D array is one
    row; None is `default_covariate_grid`); x is appended when missing,
    and where pi'x' is constant over the rows only the endpoint rows stay
    in ``structure.grid``.  With ``grid=x`` the two-layer families are
    the widest ones.  The group cells come from one `group_cells` call:
    at x alone when the support is degenerate, else at x followed by
    the grid rows.
    """
    ivset = ivset or identity_iv_set(spec.n_instruments)
    match = match or MatchConfig()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if grid is not None:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        if grid.shape[1] != x.size:
            raise ValueError("covariate grid dimension mismatch")
    partition = SupportPartition(spec, ivset)
    support = CpsSupport.merged(partition.spec_propensity(spec, x)[0], partition.gmass)
    if support.degenerate:
        grid = points = x[None]
    else:
        grid, own_idx, sets = _solve_rows(spec, x, grid)
        points = np.vstack([x, grid])
    # (N, T) cells at x, then at the grid rows of a relevant solve
    c11, c10, cp = partition.spec_cells(spec, points)
    own = (c11[:1], c10[:1], cp[:1])  # (1, T): a batch of one
    fams, values = {}, {}
    for form, role in _OWN_FORMS.items():
        fams[form] = _Family(role, form, np.ones((1, 1), dtype=bool))
        values[form] = _own_values(form, own, partition.gmass)[0]
    if support.degenerate:
        return BoundsStructure(x, grid, partition, None, support, fams, values, None)

    pown = cp[0]
    # nearest attainable propensity per (outer group t, column c), ties
    # to the smaller value, one outer group at a time over its (G + 1, T)
    # distances; column 0 is x, where it stands in for the bare member
    jstar = np.array([_nearest(cp, p_t) for p_t in pown])
    cols = np.arange(cp.shape[0])
    pstar = cp[cols, jstar]
    grid_ok = np.abs(pstar - pown[:, None]) <= match.tolerance_c
    in_tie = (pstar > _TIE) & (pstar < 1.0 - _TIE)
    own_t = tuple(c[0][:, None] for c in own)
    matched = (c11[cols, jstar], c10[cols, jstar], pstar)
    bare = cols == 0
    own_cols = bare | (cols == own_idx + 1)
    for form, role, flag, conditional in _TWO_LAYER_FORMS:
        mask = grid_ok & in_tie if conditional else grid_ok.copy()
        mask[:, 1:] &= sets[flag]
        mask[:, 0] = True  # the bare member
        member = _member_values(form, own_t, matched, bare)
        # the widest families are the two-layer ones over x' = x alone
        for name, admit in (("sv_" + form, mask), ("w_" + form, mask & own_cols)):
            fams[name] = _Family(role, form, admit)
            values[name] = member[admit]
    return BoundsStructure(x, grid, partition, int(_signs(*own)[0]), support, fams, values, jstar)


# ---------------------------------------------------------------------------
# assembly and reports
# ---------------------------------------------------------------------------

# the tabulated quantities of a report, in output column order
REPORT_COLUMNS = ("L_M", "U_M", "L_bar", "U_bar", "L_SV", "U_SV",
                  "sign", "C1", "C2", "C3", "C4", "IIP")
# the report columns that average, over replicates or along a curve
NUMERIC_COLUMNS = tuple(c for c in REPORT_COLUMNS if c != "sign")


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


def population_report(spec, x, ivset=None, match=None, grid=None):
    """Full report at x: all bounds, decomposition, IIP, CPS range.

    ``grid`` holds the candidate covariate rows x' (see `build_structure`);
    with ``grid=x`` the two-layer interval is the widest one.
    """
    structure = build_structure(spec, x, ivset, match, grid)
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


def iip(spec, x, ivset=None):
    """Instrument identification power at x: benchmark width minus the
    widest-bound width; zero when the instruments are irrelevant."""
    return population_report(spec, x, ivset, grid=x).iip


def iip_average(spec, ivset, x_weights):
    """Weighted average of iip over x points.

    ``x_weights`` is a sequence of (x, weight) pairs whose weights sum to
    one.
    """
    wts = np.asarray([w for _, w in x_weights], dtype=float)
    if abs(wts.sum() - 1.0) > 1e-8:
        raise ValueError("weights must sum to 1")
    vals = np.array([iip(spec, np.atleast_1d(p), ivset) for p, _ in x_weights])
    return float(np.dot(wts, vals))


# ---------------------------------------------------------------------------
# re-evaluation at new parameter values (used by estimation)
# ---------------------------------------------------------------------------

def evaluate_draws(structure, alphas, betas, pis, gammas, rhos):
    """Member values of every family, and the ATE sign, at R parameter
    draws.

    ``alphas`` and ``rhos`` are (R,), ``betas`` and ``pis`` (R, k) and
    ``gammas`` (R, m).  Returns (dict name -> (R, members), (R,) signs),
    each draw's sign from its own-point cells (see `_signs`).  Only the
    grid rows some family references are evaluated, in chunks of draws.
    """
    families = structure.families
    rows = np.unique(np.concatenate([f.g[f.g >= 0] for f in families.values()]))
    # the point of each member column: x for the bare member, else its row
    at = np.zeros(structure.grid.shape[0] + 1, dtype=int)
    at[rows + 1] = np.arange(1, rows.size + 1)
    points = np.vstack([structure.x, structure.grid[rows]])
    gmass = structure.partition.gmass
    R = alphas.size
    out = {name: np.empty((R, fam.t.size)) for name, fam in families.items()}
    signs = np.empty(R, dtype=int)
    for lo in range(0, R, _DRAW_CHUNK):
        sl = slice(lo, lo + _DRAW_CHUNK)
        cells = structure.partition.group_cells(
            alphas[sl], betas[sl], pis[sl], gammas[sl], rhos[sl], points)
        own = tuple(c[:, 0] for c in cells)
        signs[sl] = _signs(*own)
        for name, fam in families.items():
            if fam.form in _OWN_FORMS:
                out[name][sl] = _own_values(fam.form, own, gmass)
            else:
                t, g = fam.members
                out[name][sl] = _member_values(
                    fam.form, tuple(c[:, t] for c in own),
                    tuple(c[:, at[g + 1], structure.jstar[t, g + 1]] for c in cells), g < 0)
    return out, signs


def evaluate_structure(structure, alpha, beta, pi, gamma, rho):
    """Member values of every family at one parameter point."""
    values, _ = evaluate_draws(
        structure, np.array([float(alpha)]), np.array([beta], dtype=float),
        np.array([pi], dtype=float), np.array([gamma], dtype=float),
        np.array([float(rho)]))
    return {name: vals[0] for name, vals in values.items()}
