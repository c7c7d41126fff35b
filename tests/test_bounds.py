import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from ivpower.bounds import (Interval, MatchConfig, assemble, build_structure,
                            default_covariate_grid, evaluate_structure,
                            identify_sign, iip, iip_average, manski_bounds,
                            population_report, sv_bounds, widest_bounds)
from ivpower.dgp import (DgpSpec, Discrete, IvSet, JointDiscrete, Normal,
                         SupportPartition, identity_iv_set, true_ate)
from ivpower.simulation import model2_spec, model3_spec, standard_iv_sets
from oracle_sv import oracle_report
from test_solve_arrays import lattice_with, loop_grid_stage, loop_h_sign_check

X0 = np.array([0.0])

# True-DGP table rows at x=0 (tolerance 2e-3).  The benchmark and widest
# intervals depend on the covariate distribution only through the grid,
# so they are shared across the two covariate cases.
_TRUE_ROWS = {
    # (covariate, rho): (manski, sv, (c1, c2, c3, c4))
    ("normal", 0.5): ((-0.179, 0.821), (0.341, 0.341), (0.179, 0.446, 0.375, 0.0)),
    ("normal", 0.8): ((-0.096, 0.904), (0.341, 0.341), (0.096, 0.498, 0.406, 0.0)),
    ("bernoulli", 0.5): ((-0.179, 0.821), (0.283, 0.547), (0.179, 0.446, 0.111, 0.264)),
    ("bernoulli", 0.8): ((-0.096, 0.904), (0.319, 0.593), (0.096, 0.498, 0.132, 0.274)),
}

_IIP_BY_SET = {
    0.5: (0.305, 0.493, 0.456, 0.625, 0.625),
    0.8: (0.232, 0.443, 0.403, 0.594, 0.594),
}


def nested(outer, inner, slack=0.0):
    """True if Interval ``inner`` lies inside ``outer``, up to slack."""
    return outer.lower - slack <= inner.lower and inner.upper <= outer.upper + slack


def random_micro_case(rng, i):
    """One random fully discrete data-generating process and subset.

    Kept deliberately small (at most 4 covariate and 8 instrument support
    points) so the reference enumerator stays exact and fast.
    """
    ncov = int(rng.integers(2, 5))
    xvals = np.round(np.sort(rng.uniform(-1.5, 1.5, ncov)), 3)
    xprobs = rng.dirichlet(np.ones(ncov))
    cov = Discrete(tuple(xvals), tuple(xprobs / xprobs.sum()))
    if i % 3 == 2:
        m = int(rng.integers(1, 4))
        npt = int(rng.integers(2, 9))
        rows = np.round(rng.uniform(-2, 2, (npt, m)), 2)
        probs = rng.dirichlet(np.ones(npt))
        ivd = JointDiscrete(tuple(tuple(r) for r in rows), tuple(probs))
        nz = m
    else:
        nz = int(rng.integers(1, 4))
        dists, total = [], 1
        for _ in range(nz):
            cap = 8 // total
            if cap < 2:
                break
            k = int(rng.integers(2, min(3, cap) + 1))
            total *= k
            vals = np.round(np.sort(rng.uniform(-2, 2, k)), 2)
            pr = rng.dirichlet(np.ones(k))
            dists.append(Discrete(tuple(vals), tuple(pr)))
        nz = len(dists)
        ivd = tuple(dists)
    gamma = (tuple(0.0 for _ in range(nz)) if i % 5 == 4 else
             tuple(float(np.round(rng.uniform(-1.2, 1.2), 3)) for _ in range(nz)))
    spec = DgpSpec(
        alpha=float(np.round(rng.uniform(-1.5, 1.5), 3)),
        beta=float(np.round(rng.uniform(-1, 1), 3)),
        pi=0.0 if i % 4 == 0 else float(np.round(rng.uniform(-1, 1), 3)),
        gamma=gamma,
        rho=float(np.round(rng.uniform(-0.9, 0.9), 3)),
        covariate_dist=cov, iv_dists=ivd)
    nuse = int(rng.integers(1, nz + 1))
    use = tuple(sorted(rng.choice(nz, nuse, replace=False).tolist()))
    recode = tuple(str(rng.choice(["raw", "gt0"])) for _ in use)
    return spec, IvSet("s", use=use, recode=recode)


def assert_report_matches_oracle(spec, x, ivset, match, tol=1e-9):
    rep = population_report(spec, x, ivset, match)
    grid = [g for g in default_covariate_grid(spec)]
    orc = oracle_report(spec, x, ivset, grid, tolerance_c=match.tolerance_c)
    assert rep.irrelevant == orc["irrelevant"]
    assert rep.sign == orc["sign"]
    np.testing.assert_allclose(
        [rep.manski.lower, rep.manski.upper], orc["manski"], atol=tol)
    np.testing.assert_allclose(
        [rep.widest.lower, rep.widest.upper], orc["widest"], atol=tol)
    np.testing.assert_allclose([rep.sv.lower, rep.sv.upper], orc["sv"], atol=tol)
    np.testing.assert_allclose(
        [rep.c1, rep.c2, rep.c3, rep.c4], orc["c"], atol=tol)
    assert rep.iip == pytest.approx(orc["iip"], abs=tol)
    if not orc["irrelevant"]:
        # the own-row member families must agree with the closed forms
        np.testing.assert_allclose(orc["widest_members"], orc["widest"], atol=tol)


def test_micro_dgps_match_reference_enumerator():
    rng = np.random.default_rng(311)
    for i in range(50):
        spec, ivset = random_micro_case(rng, i)
        xv = spec.covariate_dist.values
        x = np.array([xv[int(rng.integers(len(xv)))]])
        assert_report_matches_oracle(spec, x, ivset, MatchConfig())


def test_model3_reports_match_reference_enumerator():
    for cov, rho in (("normal", 0.5), ("bernoulli", 0.8)):
        spec = model3_spec(rho=rho, covariate=cov)
        for ivset in (standard_iv_sets()[0], standard_iv_sets()[3]):
            assert_report_matches_oracle(spec, X0, ivset, MatchConfig())


def test_model2_endpoint_rows_match_the_full_lattice():
    # with pi = 0 the solve keeps a few endpoint rows of the 801-row
    # lattice; the oracle enumerates every row, and the sign identity
    # holds on the whole lattice.  beta 0.25, alpha 1, x = 0 puts a zero
    # forward gap at x' = -4; x = 0.005 is off the lattice
    match = MatchConfig()
    ivset = identity_iv_set(1)
    for beta, alpha, (gamma, rho), x in itertools.product(
            (-0.3, 0.0, 0.25), (1.0, -1.0),
            ((1.0, 0.5), (0.0, 0.5), (-2.0, -0.95), (1.0, 0.97)), (0.0, 0.005, -1.0)):
        spec = replace(model2_spec(beta=beta, gamma=gamma, rho=rho), alpha=alpha)
        x = np.array([x])
        assert_report_matches_oracle(spec, x, ivset, match, tol=1e-12)
        structure, _, arrays = loop_grid_stage(spec, x, ivset, lattice_with(spec, x))
        if arrays is not None:
            assert structure.grid.shape[0] <= 7
            assert loop_h_sign_check(structure, arrays) == []


@pytest.mark.parametrize("cov,rho", list(_TRUE_ROWS))
def test_true_dgp_table_rows(cov, rho):
    spec = model3_spec(rho=rho, covariate=cov)
    rep = population_report(spec, X0, standard_iv_sets()[3], MatchConfig())
    manski, sv, comp = _TRUE_ROWS[cov, rho]
    assert rep.manski.lower == pytest.approx(manski[0], abs=2e-3)
    assert rep.manski.upper == pytest.approx(manski[1], abs=2e-3)
    assert rep.sv.lower == pytest.approx(sv[0], abs=2e-3)
    assert rep.sv.upper == pytest.approx(sv[1], abs=2e-3)
    np.testing.assert_allclose([rep.c1, rep.c2, rep.c3, rep.c4], comp, atol=2e-3)
    assert rep.iip == pytest.approx(comp[0] + comp[1], abs=4e-3)
    assert rep.sign == 1
    assert rep.ate_model == pytest.approx(true_ate(spec, X0), abs=1e-12)


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_identification_power_by_set(rho):
    spec = model3_spec(rho=rho)
    for ivset, want in zip(standard_iv_sets(), _IIP_BY_SET[rho]):
        assert iip(spec, X0, ivset) == pytest.approx(want, abs=1e-3)


def test_manski_width_is_one():
    spec = model3_spec(rho=0.5)
    for ivset in standard_iv_sets():
        b = manski_bounds(spec, X0, ivset)
        assert b.width == pytest.approx(1.0, abs=1e-12)
    micro = DgpSpec(alpha=-0.4, beta=0.6, pi=0.3, gamma=0.7, rho=-0.3,
                    covariate_dist=Discrete((0.0, 1.0), (0.5, 0.5)),
                    iv_dists=(Discrete((-1.0, 1.0), (0.5, 0.5)),))
    assert manski_bounds(micro, np.array([1.0])).width == pytest.approx(1.0, abs=1e-12)


def test_bound_nesting_with_matching_slack():
    # matched members can overshoot by the matching tolerance, no more
    match = MatchConfig()
    slack = match.tolerance_c + 1e-9
    for cov in ("normal", "bernoulli"):
        spec = model3_spec(rho=0.5, covariate=cov)
        rep = population_report(spec, X0, standard_iv_sets()[3], match)
        assert nested(rep.manski, rep.widest, slack=1e-12)
        assert nested(rep.widest, rep.sv, slack=slack)
        assert rep.sv.lower - slack <= rep.ate_model <= rep.sv.upper + slack


def test_identify_sign():
    assert identify_sign(model3_spec(rho=0.5), X0, standard_iv_sets()[3]) == 1
    neg = DgpSpec(alpha=-1.0, beta=1.0, pi=-1.0, gamma=(0.5,), rho=0.5,
                  covariate_dist=Normal(0.0, 1.0),
                  iv_dists=(Discrete((0.0, 1.0), (0.5, 0.5)),))
    assert identify_sign(neg, X0) == -1
    flat = DgpSpec(alpha=1.0, beta=1.0, pi=0.0, gamma=(0.0,), rho=0.5,
                   covariate_dist=Normal(0.0, 1.0),
                   iv_dists=(Discrete((0.0, 1.0), (0.5, 0.5)),))
    with pytest.raises(ValueError, match="irrelevant"):
        identify_sign(flat, X0)


def test_population_report_irrelevant_instruments():
    spec = DgpSpec(alpha=1.0, beta=1.0, pi=-1.0, gamma=(0.0, 0.0, 0.0), rho=0.5,
                   covariate_dist=Normal(0.0, 1.0),
                   iv_dists=model3_spec().iv_dists)
    rep = population_report(spec, X0, standard_iv_sets()[3])
    assert rep.irrelevant and rep.sign is None
    assert rep.iip == 0.0
    assert (rep.c1, rep.c2, rep.c3) == (0.0, 0.0, 0.0)
    assert rep.c4 == pytest.approx(rep.manski.width, abs=1e-12)
    assert rep.widest == rep.manski == rep.sv
    assert iip(spec, X0, standard_iv_sets()[3]) == 0.0
    with pytest.raises(ValueError, match="dimension"):
        population_report(spec, X0, grid=[[0.0, 1.0]])


def test_perfect_prediction_gives_full_power():
    spec = DgpSpec(alpha=1.0, beta=1.0, pi=0.0, gamma=(40.0,), rho=0.5,
                   covariate_dist=Normal(0.0, 1.0),
                   iv_dists=(Discrete((-1.0, 1.0), (0.5, 0.5)),))
    rep = population_report(spec, X0, grid=X0)
    assert rep.cps_lo < 1e-12 and rep.cps_hi > 1.0 - 1e-12
    assert rep.widest.width == pytest.approx(0.0, abs=1e-12)
    assert rep.iip == pytest.approx(1.0, abs=1e-12)


def test_degenerate_outcome_index_keeps_widest_width():
    # with beta = 0 the covariate layer has nothing to add
    spec = DgpSpec(alpha=0.8, beta=0.0, pi=0.0, gamma=(0.9,), rho=0.4,
                   covariate_dist=Discrete((-1.0, 0.0, 1.0), (0.3, 0.4, 0.3)),
                   iv_dists=(Discrete((-1.0, 0.0, 1.0), (0.2, 0.5, 0.3)),))
    w = widest_bounds(spec, X0)
    s = sv_bounds(spec, X0)
    assert s.width == pytest.approx(w.width, abs=1e-12)


def test_h_nonnegative_on_shared_point():
    # at x' = x the rectangle contrast h(x, x, p_hi, p_lo) is
    # Pr[Y=1 | x, p_hi] - Pr[Y=1 | x, p_lo], of the ATE's sign (here +)
    spec = model3_spec(rho=0.5)
    ivset = standard_iv_sets()[3]
    p11, p10, p = (c[0] for c in SupportPartition(spec, ivset).spec_cells(spec, X0))
    pr_y1 = p11 + p10
    assert pr_y1[p.argmax()] - pr_y1[p.argmin()] >= -1e-12
    assert population_report(spec, X0, ivset).sign == 1


def test_default_covariate_grid():
    spec = model3_spec(rho=0.5)
    grid = default_covariate_grid(spec)
    assert grid.shape == (801, 1)
    assert grid[0, 0] == pytest.approx(-4.0, abs=1e-12)
    assert grid[-1, 0] == pytest.approx(4.0, abs=1e-12)
    steps = np.diff(grid[:, 0])
    np.testing.assert_allclose(steps, 0.01, atol=1e-12)
    disc = model3_spec(rho=0.5, covariate="bernoulli")
    np.testing.assert_allclose(default_covariate_grid(disc),
                               [[0.0], [1.0]], atol=0)


def test_structure_evaluation_reproduces_population_point():
    spec = model3_spec(rho=0.8, covariate="bernoulli")
    ivset = standard_iv_sets()[3]
    match = MatchConfig()
    rep = population_report(spec, X0, ivset, match)
    structure = build_structure(spec, X0, ivset, match)
    values = evaluate_structure(structure, spec.alpha, spec.beta, spec.pi,
                                spec.gamma, spec.rho)
    parts = assemble(values, structure.sign)
    manski, widest, sv = parts["manski"], parts["widest"], parts["sv"]
    assert manski.lower == pytest.approx(rep.manski.lower, abs=1e-12)
    assert manski.upper == pytest.approx(rep.manski.upper, abs=1e-12)
    assert widest.lower == pytest.approx(rep.widest.lower, abs=1e-12)
    assert widest.upper == pytest.approx(rep.widest.upper, abs=1e-12)
    assert sv.lower == pytest.approx(rep.sv.lower, abs=1e-12)
    assert sv.upper == pytest.approx(rep.sv.upper, abs=1e-12)


def test_iip_average_weighted_points():
    spec = model3_spec(rho=0.5, covariate="bernoulli")
    ivset = standard_iv_sets()[3]
    pts = [(np.array([0.0]), 0.5), (np.array([1.0]), 0.5)]
    want = 0.5 * iip(spec, X0, ivset) + 0.5 * iip(spec, np.array([1.0]), ivset)
    assert iip_average(spec, ivset, x_weights=pts) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match="sum to 1"):
        iip_average(spec, ivset, x_weights=[(np.array([0.0]), 0.7)])


def test_interval_helpers():
    assert Interval(-0.2, 0.8).width == pytest.approx(1.0, abs=1e-15)


def test_widest_width_monotone_in_rho_for_positive_sign():
    widths = []
    for rho in (0.2, 0.5, 0.8):
        spec = model2_spec(beta=0.25, gamma=1.0, rho=rho)
        widths.append(widest_bounds(spec, X0).width)
    assert widths[0] <= widths[1] + 1e-12 <= widths[2] + 2e-12


def test_sv_width_monotone_in_instrument_strength():
    widths = []
    for gamma in (0.5, 1.0, 2.0):
        spec = model2_spec(beta=0.25, gamma=gamma, rho=0.5)
        widths.append(sv_bounds(spec, X0).width)
    assert widths[0] >= widths[1] - 1e-12 >= widths[2] - 2e-12


def test_zero_treatment_effect_sign():
    spec = DgpSpec(alpha=0.0, beta=0.7, pi=0.2, gamma=(0.8,), rho=0.3,
                   covariate_dist=Discrete((-0.5, 0.5), (0.5, 0.5)),
                   iv_dists=(Discrete((-1.0, 1.0), (0.4, 0.6)),))
    # at rho 0.97, x = -2 the model-3 two-layer members once gave a
    # nonzero interval under a sign of 0, so C3 came out negative
    cases = ((spec, np.array([0.5]), None),
             (model3_spec(rho=0.97, covariate="normal"), np.array([-2.0]), IvSet("z1", use=(0,))))
    for spec, x, ivset in cases:
        assert identify_sign(spec, x, ivset) == 0
        w = widest_bounds(spec, x, ivset)
        assert (w.lower, w.upper) == (0.0, 0.0)
        s = sv_bounds(spec, x, ivset)
        assert (s.lower, s.upper) == (0.0, 0.0)
        rep = population_report(spec, x, ivset)
        assert rep.iip == pytest.approx(1.0, abs=1e-12)
        assert rep.c3 == rep.c4 == 0.0


@pytest.mark.parametrize("spec, ivsets", [
    (model2_spec(gamma=1.0, rho=0.5), (None,)),
    (model3_spec(rho=0.5, covariate="normal"), standard_iv_sets()),
    (model3_spec(rho=-0.5, covariate="bernoulli"), standard_iv_sets()),
], ids=["model2", "model3-normal", "model3-bernoulli"])
def test_grid_at_x_gives_the_widest_only_report(spec, ivsets):
    # the widest bounds are the two-layer bounds over {x}
    for ivset in ivsets:
        for x in (-1.0, 0.0, 1.0):
            x = np.array([x])
            rep = population_report(spec, x, ivset, grid=x)
            assert rep.sv == rep.widest
            assert rep.c3 == 0.0 and rep.c4 == rep.widest.width
            full = population_report(spec, x, ivset)
            assert rep.sign == full.sign
            np.testing.assert_allclose([rep.widest.lower, rep.widest.upper],
                                       [full.widest.lower, full.widest.upper], atol=1e-12)


def test_match_config_defaults():
    match = MatchConfig()
    assert match.tolerance_c == 0.01
    assert [f.name for f in fields(MatchConfig)] == ["tolerance_c"]
    assert MatchConfig(0.0).tolerance_c == 0.0
    for bad in (-1.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance_c"):
            MatchConfig(bad)


# ---------------------------------------------------------------------------
# identities the model implies
# ---------------------------------------------------------------------------

_FLOAT_FIELDS = ("c1", "c2", "c3", "c4", "iip", "cps_lo", "cps_hi")


def _relabel_y(spec):
    """The model for 1 - y: (alpha, beta, rho) -> (-alpha, -beta, -rho)."""
    return replace(spec, alpha=-spec.alpha, beta=tuple(-b for b in spec.beta),
                   rho=-spec.rho)


@pytest.mark.parametrize("spec, ivset, sv_slack", [
    (model2_spec(beta=0.25, gamma=1.0, rho=0.5), None, 1e-12),
    (model3_spec(rho=0.5, covariate="bernoulli"), standard_iv_sets()[3], 1e-12),
    # with a normal covariate the grid matches propensities only within
    # tolerance_c, and the L members use the matched cells unscaled while
    # the U members rescale them, so the mirror holds only to that slack
    (model3_spec(rho=-0.5, covariate="normal"), standard_iv_sets()[0],
     MatchConfig().tolerance_c),
])
def test_relabelling_outcome_mirrors_every_interval(spec, ivset, sv_slack):
    x = np.array([0.5])
    rep = population_report(spec, x, ivset)
    mirror = population_report(_relabel_y(spec), x, ivset)
    assert mirror.sign == -rep.sign
    for name, tol in (("manski", 1e-12), ("widest", 1e-12), ("sv", sv_slack)):
        a, b = getattr(rep, name), getattr(mirror, name)
        assert b.lower == pytest.approx(-a.upper, abs=tol)
        assert b.upper == pytest.approx(-a.lower, abs=tol)
    for name in ("c1", "c2", "iip", "cps_lo", "cps_hi"):
        assert getattr(mirror, name) == pytest.approx(getattr(rep, name), abs=1e-12)


@pytest.mark.parametrize("use_extra", [False, True])
@pytest.mark.parametrize("base", [model2_spec(beta=0.25, gamma=1.0, rho=0.5),
                                  model3_spec(rho=0.5, covariate="bernoulli")])
def test_irrelevant_extra_instrument_leaves_report_unchanged(base, use_extra):
    m = base.n_instruments
    extra = replace(base, gamma=base.gamma + (0.0,),
                    iv_dists=base.iv_dists + (Discrete((0.0, 1.0), (0.3, 0.7)),))
    rep = population_report(base, X0, IvSet("z1", use=(0,)))
    got = population_report(extra, X0, IvSet("z1+", use=(0, m) if use_extra else (0,)))
    assert got.sign == rep.sign and got.irrelevant == rep.irrelevant
    for name in ("manski", "widest", "sv"):
        a, b = getattr(rep, name), getattr(got, name)
        assert b.lower == pytest.approx(a.lower, abs=1e-12)
        assert b.upper == pytest.approx(a.upper, abs=1e-12)
    for name in _FLOAT_FIELDS:
        assert getattr(got, name) == pytest.approx(getattr(rep, name), abs=1e-12)


def _permute_instruments(spec, ivset, perm):
    """The same model with raw instrument j moved to column perm.index(j)."""
    moved = replace(spec, gamma=tuple(spec.gamma[j] for j in perm),
                    iv_dists=tuple(spec.iv_dists[j] for j in perm))
    return moved, IvSet(ivset.name, use=tuple(perm.index(u) for u in ivset.use),
                        recode=ivset.recode)


@pytest.mark.parametrize("rho", [0.5, -0.5])
@pytest.mark.parametrize("covariate", ["normal", "bernoulli"])
def test_permuting_instrument_columns_leaves_reports_unchanged(covariate, rho):
    spec = model3_spec(rho=rho, covariate=covariate)
    worst = 0.0
    for perm in ((2, 0, 1), (1, 0, 2)):
        for ivset in standard_iv_sets():
            moved, moved_set = _permute_instruments(spec, ivset, perm)
            for x in (-1.0, 0.0, 1.0):
                rep = population_report(spec, np.array([x]), ivset)
                got = population_report(moved, np.array([x]), moved_set)
                assert (got.sign, got.irrelevant) == (rep.sign, rep.irrelevant)
                for name in ("manski", "widest", "sv"):
                    a, b = getattr(rep, name), getattr(got, name)
                    worst = max(worst, abs(b.lower - a.lower), abs(b.upper - a.upper))
                for name in _FLOAT_FIELDS:
                    worst = max(worst, abs(getattr(got, name) - getattr(rep, name)))
    assert worst <= 1e-15


def _scale_instruments(spec, c):
    """The same model with every instrument value times c and gamma / c."""
    return replace(spec, gamma=tuple(g / c for g in spec.gamma),
                   iv_dists=tuple(Discrete(tuple(c * v for v in d.values), d.probs)
                                  for d in spec.iv_dists))


@pytest.mark.parametrize("c", [0.5, 3.0])
@pytest.mark.parametrize("covariate", ["normal", "bernoulli"])
def test_scaling_instruments_against_gamma_leaves_reports_unchanged(covariate, c):
    # c > 0 keeps every sign, so the raw-coded sets and the gt0 recode
    # group the support as before; only gamma'z is rounded differently
    spec = model3_spec(rho=0.5, covariate=covariate)
    scaled = _scale_instruments(spec, c)
    worst = 0.0
    for ivset in standard_iv_sets():
        for x in (-1.0, 0.0, 1.0):
            rep = population_report(spec, np.array([x]), ivset)
            got = population_report(scaled, np.array([x]), ivset)
            assert (got.sign, got.irrelevant) == (rep.sign, rep.irrelevant)
            for name in ("manski", "widest", "sv"):
                a, b = getattr(rep, name), getattr(got, name)
                worst = max(worst, abs(b.lower - a.lower), abs(b.upper - a.upper))
            for name in _FLOAT_FIELDS:
                worst = max(worst, abs(getattr(got, name) - getattr(rep, name)))
    print(f"instrument scale {c}, {covariate} covariate: largest difference {worst:.3e}")
    assert worst <= 1e-12
