"""Identities of the population bounds over random discrete designs.

The designs are drawn by `hypothesis`: 1-3 independent discrete
instruments with 2-4 support points each, a discrete covariate with 2-4
equally weighted points, standard-scale coefficients and a random
non-empty instrument subset, with x on the covariate support.  The runs
are derandomized with a fixed example count, so every run checks the
same designs.  Each identity holds to 1e-12 on every such design.  Every
report whose sign is not 0 agrees with the enumeration oracle of
`tests/oracle_sv.py` to 1e-9, and appending a gamma-0 instrument leaves
every field to 1e-12; both comparisons pass through the conditional
members, which divide by a matched propensity p' or by 1 - p', so their
tolerance adds `_ULPS` over the smallest such divisor.  ATE in SV and the
y -> 1 - y mirror are not asserted here; a sign-0 report whose widest
interval misses the ATE is pinned as an expected failure of ROADMAP item 7.

Hypothesis mixes numeric constants of the loaded test modules into its
draws, so the derandomized designs differ between a run of this file
alone and a run of the whole suite.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivpower.bounds import MatchConfig, build_structure, population_report
from ivpower.dgp import DgpSpec, Discrete, IvSet
from test_bounds import assert_report_matches_oracle

_TOL = 1e-12
# a few ulps of a cell probability: the rounding a conditional member
# divides by its matched propensity p' (U0) or by 1 - p' (U1)
_ULPS = 1e-15
_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _coef():
    return st.floats(-3.0, 3.0, allow_nan=False)


def _alpha():
    # |alpha| >= 0.05 keeps the ATE off 0, where the sign is 0
    return st.builds(lambda m, neg: -m if neg else m, st.floats(0.05, 3.0), st.booleans())


@st.composite
def _points(draw, lo, hi):
    """2-4 distinct support points on a 1e-3 lattice in [lo, hi]."""
    k = draw(st.integers(2, 4))
    return tuple(v / 1000 for v in draw(st.lists(
        st.integers(int(lo * 1000), int(hi * 1000)), min_size=k, max_size=k, unique=True)))


@st.composite
def designs(draw):
    """(spec, x, ivset): a random discrete design, an evaluation point on
    the covariate support and a non-empty raw instrument subset."""
    ivs = []
    for _ in range(draw(st.integers(1, 3))):
        values = draw(_points(-4.5, 4.5))
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(values),
                                         max_size=len(values))))
        ivs.append(Discrete(values, tuple(float(w) for w in weights / weights.sum())))
    xs = draw(_points(-3.0, 3.0))
    spec = DgpSpec(alpha=draw(_alpha()), beta=draw(_coef()), pi=draw(_coef()),
                   gamma=tuple(draw(_coef()) for _ in ivs),
                   rho=draw(st.floats(-0.95, 0.95)),
                   covariate_dist=Discrete(xs, (1.0 / len(xs),) * len(xs)),
                   iv_dists=tuple(ivs))
    use = draw(st.lists(st.integers(0, len(ivs) - 1), min_size=1, max_size=len(ivs),
                        unique=True))
    return spec, np.array([draw(st.sampled_from(xs))]), IvSet("s", use=tuple(use))


def _within(inner, outer):
    return outer.lower - _TOL <= inner.lower and inner.upper <= outer.upper + _TOL


@_SETTINGS
@given(designs())
def test_decomposition_nesting_and_sign(design):
    rep = population_report(*design)
    assert rep.c1 + rep.c2 + rep.c3 + rep.c4 == pytest.approx(rep.manski.width, abs=_TOL)
    assert _within(rep.sv, rep.widest)
    assert _within(rep.widest, rep.manski)
    if rep.sign not in (0, None):
        assert rep.sign == np.sign(rep.ate_model)
        assert rep.widest.lower - _TOL <= rep.ate_model <= rep.widest.upper + _TOL


_FIELDS = ("manski", "widest", "sv", "c1", "c2", "c3", "c4", "iip",
           "cps_lo", "cps_hi", "ate_model")


@_SETTINGS
@given(designs(), st.data())
def test_permuting_instrument_columns_leaves_the_report(design, data):
    spec, x, ivset = design
    order = data.draw(st.permutations(range(spec.n_instruments)))
    # new column i holds old column order[i]; the set follows its columns
    where = {old: new for new, old in enumerate(order)}
    permuted = DgpSpec(alpha=spec.alpha, beta=spec.beta, pi=spec.pi,
                       gamma=tuple(spec.gamma[j] for j in order), rho=spec.rho,
                       covariate_dist=spec.covariate_dist,
                       iv_dists=tuple(spec.iv_dists[j] for j in order))
    rep = population_report(spec, x, ivset)
    got = population_report(permuted, x, IvSet("s", use=tuple(where[u] for u in ivset.use)))
    assert (got.sign, got.irrelevant) == (rep.sign, rep.irrelevant)
    for name in _FIELDS:
        np.testing.assert_allclose(np.ravel(getattr(got, name)), np.ravel(getattr(rep, name)),
                                   rtol=0, atol=_TOL, err_msg=name)


def _divisor(spec, x, ivset):
    """The smallest divisor of an admitted conditional member: p' of a U0
    match or 1 - p' of a U1 match; 1 when there is none."""
    structure = build_structure(spec, x, ivset)
    if structure.jstar is None:
        return 1.0
    cp = structure.partition.spec_cells(spec, np.vstack([structure.x, structure.grid]))[2]
    out = 1.0
    for form in ("U0", "U1"):
        fam = structure.families["sv_" + form]
        t, g = fam.t[fam.g >= 0], fam.g[fam.g >= 0]
        ps = cp[g + 1, structure.jstar[t, g + 1]]
        out = min(out, float(np.min(ps if form == "U0" else 1.0 - ps, initial=1.0)))
    return out


@_SETTINGS
@given(designs())
@example((DgpSpec(alpha=1.0, beta=(1.0,), pi=(1.0,), gamma=(-2.5, 0.0, 3.0), rho=-0.5,
                  covariate_dist=Discrete((-0.053, 0.237), (0.5, 0.5)),
                  iv_dists=(Discrete((0.0, 0.001, -0.001, 2.539), (0.25,) * 4),
                            Discrete((0.0, 0.001), (0.5, 0.5)),
                            Discrete((0.0, -0.757), (0.5, 0.5)))),
          np.array([-0.053]), IvSet("s", use=(2, 0))))
def test_reports_with_a_sign_match_the_oracle(design):
    if population_report(*design).sign != 0:
        # the oracle's Owen's-T cells carry ulps of absolute error, 2.4e-9 at
        # a matched propensity of 5e-10 in the U0 member
        assert_report_matches_oracle(*design, MatchConfig(),
                                     tol=1e-9 + _ULPS / _divisor(*design))


@_SETTINGS
@given(designs())
@example((DgpSpec(alpha=1.0, beta=(-3.0,), pi=(-1.0,), gamma=(0.0, 2.0), rho=0.0,
                  covariate_dist=Discrete((2.209, -0.14), (0.5, 0.5)),
                  iv_dists=(Discrete((0.0, 0.001, -0.001, 0.002), (2 / 7, 2 / 7, 1 / 7, 2 / 7)),
                            Discrete((0.0, 2.424), (0.5, 0.5)))),
          np.array([2.209]), IvSet("s", use=(1,))))
def test_appending_a_gamma_0_instrument_leaves_the_report(design):
    spec, x, ivset = design
    extended = DgpSpec(alpha=spec.alpha, beta=spec.beta, pi=spec.pi,
                       gamma=spec.gamma + (0.0,), rho=spec.rho,
                       covariate_dist=spec.covariate_dist,
                       iv_dists=spec.iv_dists + (Discrete((0.0, 1.0), (0.5, 0.5)),))
    rep = population_report(spec, x, ivset)
    got = population_report(extended, x, IvSet("s", use=ivset.use + (spec.n_instruments,)))
    # the longer index sum can round one ulp apart: 1.0e-12 in SV through a
    # U1 member's 1 - p' = 3.05e-7
    tol = _TOL + _ULPS / _divisor(spec, x, ivset)
    assert (got.sign, got.irrelevant) == (rep.sign, rep.irrelevant)
    for name in _FIELDS:
        np.testing.assert_allclose(np.ravel(getattr(got, name)), np.ravel(getattr(rep, name)),
                                   rtol=0, atol=tol, err_msg=name)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: a propensity gap below 1e-12 "
                                       "gives sign 0 and widest [0, 0]")
def test_sign_0_widest_interval_holds_the_ate():
    # the report has sign 0 and widest [0, 0] while the model ATE is -5.36e-9
    # (CPS range [0.371208, 0.371406])
    spec = DgpSpec(alpha=-2.3528800854553653, beta=(2.239209410956212,),
                   pi=(-1.0025396618898954,), gamma=(-2.698497096157185, 2.501723728752058),
                   rho=0.01188161423051426, covariate_dist=Discrete((1.792, -2.554), (0.5, 0.5)),
                   iv_dists=(Discrete((0.693, 1.398), (0.7321712876410448, 0.2678287123589552)),
                             Discrete((1.792, -2.554), (0.3714065101904233, 0.6285934898095767))))
    rep = population_report(spec, np.array([-2.554]), IvSet("s", use=(0,)))
    assert rep.widest.lower <= rep.ate_model <= rep.widest.upper

