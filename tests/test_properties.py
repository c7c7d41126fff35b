"""Identities of the population bounds over random discrete designs.

The designs are drawn by `hypothesis`: 1-3 independent discrete
instruments with 2-4 support points each, a discrete covariate with 2-4
equally weighted points, standard-scale coefficients and a random
non-empty instrument subset, with x on the covariate support.  The runs
are derandomized with a fixed example count, so every run checks the
same designs.  Each identity holds to 1e-12 on every such design; ATE in
SV, the y -> 1 - y mirror and the sign-0 reports are not asserted here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpower.bounds import population_report
from ivpower.dgp import DgpSpec, Discrete, IvSet

_TOL = 1e-12
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
