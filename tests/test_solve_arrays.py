"""The array-built solve against plain-loop copies, and the identity
behind its memberships.

`bounds.build_structure` matches propensities one outer group at a time
and builds the sup/inf families as whole-array operations over the T
own-support groups and G grid rows.  The loops below are the per-row
formulation they replaced, kept as the reference: on the cells of the
solve's own `group_cells` call the family (t, g, j) arrays must come out
identical.  The tests at the end hold the row blocks of `group_cells`
and the per-group matching to the whole-array results.

`loop_h_sign_check` is the pairwise sign identity of the two-layer bounds
(Shaikh & Vytlacil 2011, Econometrica 79): each pairwise expectation H
has the sign of the latent-index comparison that set the memberships.
It holds for every `DgpSpec`, so the solve does not run it; the tests
below assert that no row disagrees.
"""

import contextlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from ivpower.bounds import (MatchConfig, _nearest, build_structure, default_covariate_grid,
                            population_report)
from ivpower.dgp import _BLOCK_POINTS, _TIE, IvSet, SupportPartition, identity_iv_set
from ivpower.simulation import model2_spec, model3_spec, standard_iv_sets


@contextlib.contextmanager
def group_cells_calls():
    """Every `SupportPartition.group_cells` call made inside the block, as
    (points, cells) pairs."""
    calls = []
    group_cells = SupportPartition.group_cells

    def recording(self, alpha, beta, pi, gamma, rho, points):
        cells = group_cells(self, alpha, beta, pi, gamma, rho, points)
        calls.append((points, cells))
        return cells

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SupportPartition, "group_cells", recording)
        yield calls


def loop_match(p_grid, pown):
    """Nearest attainable propensity per (t, g); ties go to the smaller."""
    G, T = p_grid.shape
    pstar = np.empty((T, G))
    jstar = np.empty((T, G), dtype=int)
    for t in range(T):
        d = np.abs(p_grid - pown[t])
        dmin = d.min(axis=1)
        cand = np.where(d <= dmin[:, None], p_grid, np.inf)
        jstar[t] = np.argmin(cand, axis=1)
        pstar[t] = p_grid[np.arange(G), jstar[t]]
    return pstar, jstar


def loop_collect(grid_ok, pstar, jstar, member_set, conditional):
    """One family's (t, g, j): per t the bare member, then matched rows."""
    T, G = grid_ok.shape
    ts, gs, js = [], [], []
    for t in range(T):
        ts.append(t)
        gs.append(-1)
        js.append(-1)
        for g in range(G):
            if not (grid_ok[t, g] and member_set[g]):
                continue
            if conditional and not (_TIE < pstar[t, g] < 1.0 - _TIE):
                continue
            ts.append(t)
            gs.append(g)
            js.append(jstar[t, g])
    return np.array(ts), np.array(gs), np.array(js)


def loop_families(prefix, grid_ok, pstar, jstar, sets):
    return {f"{prefix}{form}": loop_collect(grid_ok, pstar, jstar, sets[key], cond)
            for form, key, cond in (("L1", "x1p", False), ("U0", "x0p", True),
                                    ("U1", "x1m", True), ("L0", "x0m", False))}


def loop_h_sign_check(structure, arrays):
    """The per-row pairwise sign check."""
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
    m11 = p11G[rows[None, :], jstar]
    m10 = p10G[rows[None, :], jstar]
    slack_t = np.abs(pstar - pown[:, None])
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
    mism = []
    for g in np.where(wsum > 0)[0]:
        tol = (w[:, :, g] * pair_slack[:, :, g]).sum() / wsum[g] + 1e-10
        for hval, lat in (((w[:, :, g] * h_fwd[:, :, g]).sum() / wsum[g], v1g[g] - v0x),
                          ((w[:, :, g] * h_rev[:, :, g]).sum() / wsum[g], v1x - v0g[g])):
            if (hval > tol and lat < -_TIE) or (hval < -tol and lat > _TIE):
                mism.append((int(g), float(hval), float(lat)))
    return mism


def loop_grid_stage(spec, x, ivset, grid=None):
    """A solved structure, with the loop families and the sign check's
    arrays rebuilt from the cells of its one `group_cells` call (x, then
    its grid rows); a ``grid`` (rows holding x) takes its cells from a
    call of its own."""
    match = MatchConfig()
    with group_cells_calls() as calls:
        structure = build_structure(spec, x, ivset, match)
    assert len(calls) == 1
    points, cells = calls[0]
    if structure.sign is None:
        return structure, None, None
    np.testing.assert_array_equal(points, np.vstack([x, structure.grid]))
    c11, c10, cp = (c[0] for c in cells)
    p11o, p10o, pown = c11[0], c10[0], cp[0]
    if grid is None:
        grid = structure.grid
        p11G, p10G, p_grid = c11[1:], c10[1:], cp[1:]
    else:
        p11G, p10G, p_grid = structure.partition.spec_cells(spec, grid)
    pstar, jstar = loop_match(p_grid, pown)
    grid_ok = np.abs(pstar - pown[:, None]) <= match.tolerance_c
    beta = np.asarray(spec.beta)
    v1x, v0x = spec.alpha + float(np.dot(beta, x)), float(np.dot(beta, x))
    v1g, v0g = spec.alpha + grid @ beta, grid @ beta
    sets = {"x0p": v1g >= v0x - _TIE, "x0m": v1g <= v0x + _TIE,
            "x1p": v1x >= v0g - _TIE, "x1m": v1x <= v0g + _TIE}
    own_only = np.zeros(grid.shape[0], dtype=bool)
    own_only[np.nonzero(np.all(np.abs(grid - x) <= _TIE, axis=1))[0][0]] = True
    fams = loop_families("sv_", grid_ok, pstar, jstar, sets)
    fams.update(loop_families("w_", grid_ok & own_only[None, :], pstar, jstar,
                              {k: v & own_only for k, v in sets.items()}))
    arrays = {"pown": pown, "p11o": p11o, "p10o": p10o,
              "pstar": pstar, "p11G": p11G, "p10G": p10G,
              "grid_ok": grid_ok, "jstar": jstar,
              "v1g": v1g, "v0g": v0g, "v1x": v1x, "v0x": v0x}
    return structure, fams, arrays


def lattice_with(spec, x):
    """The default covariate grid, with x appended when it is off it."""
    lattice = default_covariate_grid(spec)
    if not np.any(np.all(np.abs(lattice - x) <= _TIE, axis=1)):
        lattice = np.vstack([lattice, x])
    return lattice


def _cases():
    for gamma in (-2.0, 0.0, 2.0):
        for rho in (-0.95, 0.5, 0.97):
            yield (f"model2-g{gamma}-r{rho}", model2_spec(gamma=gamma, rho=rho),
                   (identity_iv_set(1),))
    for cov in ("normal", "bernoulli"):
        for rho in (-0.5, 0.5, 0.9):
            yield f"model3-{cov}-r{rho}", model3_spec(rho=rho, covariate=cov), standard_iv_sets()


_CASES = list(_cases())


@pytest.mark.parametrize("spec, ivsets", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES])
def test_grid_stage_matches_the_loops(spec, ivsets):
    for ivset in ivsets:
        for x in (-1.0, 0.0, 1.0):
            x = np.array([x])
            structure, fams, arrays = loop_grid_stage(spec, x, ivset)
            if fams is None:
                assert not any(name.startswith(("sv_", "w_")) for name in structure.families)
                continue
            assert set(structure.families) == set(fams) | {"marg_L", "marg_U"}
            for name, want in fams.items():
                fam = structure.families[name]
                j = np.where(fam.g >= 0, structure.jstar[fam.t, fam.g + 1], -1)
                for got, exp in zip((fam.t, fam.g, j), want):
                    assert got.dtype == exp.dtype
                    np.testing.assert_array_equal(got, exp)
            assert loop_h_sign_check(structure, arrays) == []


def test_sign_identity_holds_on_the_criterion_7_corners():
    # the corners of the `surface` lattice, and the mirrored design, with
    # the check built on the full 801-row lattice, not the endpoint rows
    x = np.array([0.0])
    for beta, gamma, rho, alpha in itertools.product(
            (0.05, 0.45), (-4.0, 4.0), (-0.99, 0.99), (1.0, -1.0)):
        spec = replace(model2_spec(beta=beta, gamma=gamma, rho=rho), alpha=alpha)
        structure, _, arrays = loop_grid_stage(
            spec, x, identity_iv_set(1), lattice_with(spec, x))
        assert loop_h_sign_check(structure, arrays) == []
        # not vacuous: with every latent index negated, each comparison
        # behind a membership reverses and rows disagree
        flipped = dict(arrays, **{k: -np.asarray(arrays[k])
                                  for k in ("v1g", "v0g", "v1x", "v0x")})
        assert loop_h_sign_check(structure, flipped)


def test_sign_identity_holds_on_the_model3_sweep():
    # model 3 with a normal covariate: rho from -0.95 to 0.85, x in
    # {-1, 0, 1}, the five standard sets, 195 reports on the 802-row grid
    for rho in np.round(np.arange(-0.95, 0.86, 0.15), 10):
        spec = model3_spec(rho=float(rho))
        for x, ivset in itertools.product((-1.0, 0.0, 1.0), standard_iv_sets()):
            structure, _, arrays = loop_grid_stage(spec, np.array([x]), ivset)
            assert loop_h_sign_check(structure, arrays) == []


def test_a_relevant_report_makes_one_kernel_call():
    # model 2 on the 801-row lattice: one call at x and at most 9
    # endpoint rows
    x = np.array([0.0])
    with group_cells_calls() as calls:
        rep = population_report(model2_spec(), x)
    assert rep.sign == 1
    assert len(calls) == 1
    points, cells = calls[0]
    assert 2 <= points.shape[0] <= 10
    np.testing.assert_array_equal(points[0], x)
    assert all(c.shape == (1, points.shape[0], 2) for c in cells)


def test_an_irrelevant_report_makes_one_kernel_call_at_x():
    # z3 has gamma 0, so its CPS support is one point; the solve decides
    # that from the propensities and evaluates the cells at x alone, not
    # on the 802-row grid
    x = np.array([0.5])
    with group_cells_calls() as calls:
        rep = population_report(model3_spec(rho=0.5), x, IvSet("z3", use=(2,)))
    assert rep.irrelevant and rep.iip == 0.0
    assert len(calls) == 1
    points, _ = calls[0]
    np.testing.assert_array_equal(points, x[None])


def _model3_draws(R, seed):
    """R parameter draws around model 3, as (alpha, beta, pi, gamma, rho)."""
    rng = np.random.default_rng(seed)
    return (1.0 + 0.1 * rng.standard_normal(R), 1.0 + 0.1 * rng.standard_normal((R, 1)),
            -1.0 + 0.1 * rng.standard_normal((R, 1)),
            np.array([0.5, 0.2, 0.0]) + 0.1 * rng.standard_normal((R, 3)),
            np.clip(0.5 + 0.1 * rng.standard_normal(R), -0.9, 0.9))


@pytest.mark.parametrize("R", [1, 130])
def test_group_cells_blocks_equal_row_by_row_calls(R):
    # model 3 on the lattice, x first: 802 rows against 28 raw support
    # points, so the call runs in blocks; every row must come out as it
    # does when evaluated alone
    spec = model3_spec(rho=0.5)
    partition = SupportPartition(spec, standard_iv_sets()[4])
    points = np.vstack([[0.0], default_covariate_grid(spec)])
    assert R * points.shape[0] * partition.z_raw.shape[0] > _BLOCK_POINTS
    draws = _model3_draws(R, seed=R)
    cells = partition.group_cells(*draws, points)
    assert all(c.shape == (R, points.shape[0], partition.n_groups) for c in cells)
    for i in range(points.shape[0]):
        alone = partition.group_cells(*draws, points[i:i + 1])
        for got, want in zip(cells, alone):
            np.testing.assert_allclose(got[:, i:i + 1], want, rtol=0, atol=1e-15)


def test_per_group_matching_equals_the_distance_cube():
    # item-1 sweep: the matched group of each (outer group, column) found
    # one outer group at a time equals the (T, G + 1, T) cube's
    for rho in np.round(np.arange(-0.95, 0.86, 0.15), 10):
        spec = model3_spec(rho=float(rho))
        for x, ivset in itertools.product((-1.0, 0.0, 1.0), standard_iv_sets()):
            with group_cells_calls() as calls:
                structure = build_structure(spec, np.array([x]), ivset)
            if structure.sign is None:
                continue
            cp = calls[0][1][2][0]
            cube = _nearest(cp[None], cp[0][:, None, None])
            np.testing.assert_array_equal(structure.jstar, cube)

