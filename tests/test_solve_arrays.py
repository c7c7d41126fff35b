"""The array-built grid stage of the solve against plain-loop copies.

`bounds._solve` matches propensities, builds the sup/inf families and
runs the pairwise sign check as whole-array operations over the T
own-support groups and G grid rows.  The loops below are the per-row
formulation they replaced, kept as the reference: on the same inputs the
family (t, g, j) arrays and the mismatch list must come out identical.
"""

import numpy as np
import pytest

from ivpower import bounds
from ivpower.bounds import MatchConfig, build_structure, default_covariate_grid
from ivpower.dgp import _TIE, identity_iv_set
from ivpower.simulation import model2_spec, model3_spec, standard_iv_sets


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
    """A solved structure, with the loop families and the check's arrays
    rebuilt from its partition on ``grid`` (rows holding x; None is the
    structure's own grid)."""
    match = MatchConfig()
    structure = build_structure(spec, x, ivset, match)
    if structure.sign is None:
        return structure, None, None
    partition = structure.partition
    grid = structure.grid if grid is None else grid
    p11o, p10o, pown = (c[0] for c in partition.spec_cells(spec, x))
    p11G, p10G, p_grid = partition.spec_cells(spec, grid)
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
            assert set(structure.families) == set(fams) | {"marg_L", "marg_U", "p_lo", "p_hi"}
            for name, want in fams.items():
                fam = structure.families[name]
                for got, exp in zip((fam.t, fam.g, fam.j), want):
                    assert got.dtype == exp.dtype
                    np.testing.assert_array_equal(got, exp)
            assert bounds._h_sign_check(structure, arrays) == loop_h_sign_check(structure, arrays)


def _flip_latent(arrays):
    """Every latent index negated: each comparison behind a set
    membership reverses, while the observable contrasts stay."""
    return dict(arrays, **{k: -np.asarray(arrays[k]) for k in ("v1g", "v0g", "v1x", "v0x")})


_MODEL2 = model2_spec(beta=0.25, gamma=1.0, rho=0.5)


@pytest.mark.parametrize("spec, x, grid, want_rows", [
    # Bernoulli covariate, grid {0, 1}, x = 0, latent gaps v1g - v0x = 1 + g
    # and v1x - v0g = 1 - g: the forward contrast fails at both rows, the
    # reverse one only at row 0, where its gap is not zero
    (model3_spec(rho=0.5, covariate="bernoulli"), 0.0, None, [0, 0, 1]),
    # model 2 on the full 801-row lattice (x = 0 is row 400), not the
    # solve's endpoint rows: the forward gap 1 + 0.25 x' is zero only at
    # x' = -4 (row 0), the reverse gap 1 - 0.25 x' only at x' = 4 (row 800)
    (_MODEL2, 0.0, default_covariate_grid(_MODEL2),
     [0] + [g for g in range(1, 800) for _ in range(2)] + [800]),
], ids=["model3-bernoulli", "model2-lattice"])
def test_h_sign_check_reports_every_flipped_row(spec, x, grid, want_rows):
    ivset = identity_iv_set(spec.n_instruments)
    structure, _, arrays = loop_grid_stage(spec, np.array([x]), ivset, grid)
    assert bounds._h_sign_check(structure, arrays) == []
    flipped = _flip_latent(arrays)
    mism = bounds._h_sign_check(structure, flipped)
    assert [row for row, _, _ in mism] == want_rows
    # each offending H has the sign the flipped latent comparison denies
    assert all(h * lat < 0 for _, h, lat in mism)
    want = loop_h_sign_check(structure, flipped)
    assert [(row, lat) for row, _, lat in mism] == [(row, lat) for row, _, lat in want]
    np.testing.assert_allclose([h for _, h, _ in mism], [h for _, h, _ in want],
                               rtol=1e-12, atol=0)


def test_solve_raises_when_the_sign_check_fails(monkeypatch):
    check = bounds._h_sign_check
    monkeypatch.setattr(bounds, "_h_sign_check",
                        lambda structure, arrays: check(structure, _flip_latent(arrays)))
    spec = model3_spec(rho=0.5, covariate="bernoulli")
    with pytest.raises(RuntimeError, match=r"grid rows \[\(0, "):
        bounds.population_report(spec, np.array([0.0]), standard_iv_sets()[3])
