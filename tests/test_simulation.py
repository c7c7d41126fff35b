import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

import ivpower.simulation as sim
from ivpower.bounds import report_columns
from ivpower.dgp import DgpSpec, Discrete, IvSet, Normal
from ivpower.estimation import HmueConfig
from ivpower.gaussian import rng_stream
from ivpower.simulation import (McDesign, McResult, compare_iip_distributions,
                                generate_sample, mc_replicate, model2_spec,
                                model3_spec, rank_entries, rank_iv_sets,
                                run_monte_carlo, standard_iv_sets, surface_grid,
                                table_rows)
from oracle_sv import oracle_cells, oracle_raw_support


def test_model2_spec_parameters():
    spec = model2_spec(beta=0.45, gamma=-2.2, rho=0.8)
    assert spec.alpha == 1.0
    assert spec.beta == (0.45,)
    assert spec.pi == (0.0,)
    assert spec.gamma == (-2.2,)
    assert spec.rho == 0.8
    assert spec.iv_dists[0].values == (-1.0, 1.0)
    assert spec.iv_dists[0].probs == (0.5, 0.5)


def test_model3_spec_parameters():
    spec = model3_spec(rho=0.5, covariate="normal")
    assert (spec.alpha, spec.beta, spec.pi) == (1.0, (1.0,), (-1.0,))
    assert spec.gamma == (0.5, 0.2, 0.0)
    assert isinstance(spec.covariate_dist, Normal)
    z2 = spec.iv_dists[1]
    assert z2.values == (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    assert z2.probs == (0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1)
    assert spec.iv_dists[2].probs == (1.0 / 3.0, 2.0 / 3.0)
    bern = model3_spec(covariate="bernoulli")
    assert bern.covariate_dist.values == (0.0, 1.0)
    with pytest.raises(ValueError, match="covariate"):
        model3_spec(covariate="uniform")


def test_standard_iv_sets_shapes():
    sets = standard_iv_sets()
    assert [s.name for s in sets] == ["z1", "z2", "z1,z2>0", "z1,z2", "z1,z2,z3"]
    assert [s.use for s in sets] == [(0,), (1,), (0, 1), (0, 1), (0, 1, 2)]
    assert sets[2].recode == ("raw", "gt0")
    assert sets[3].recode == ("raw", "raw")


def test_generate_sample_matches_population_moments():
    spec = model3_spec(rho=0.5, covariate="bernoulli")
    ey = ed = eyd = 0.0
    for z, mass in oracle_raw_support(spec):
        for x, px in ((0.0, 0.5), (1.0, 0.5)):
            p11, p10, p01, _ = oracle_cells(spec, np.array([x]), np.array(z))
            ey += mass * px * (p11 + p10)
            ed += mass * px * (p11 + p01)
            eyd += mass * px * p11
    data = generate_sample(spec, 200_000, rng_stream(42))
    assert data.y.mean() == pytest.approx(ey, abs=4e-3)
    assert data.d.mean() == pytest.approx(ed, abs=4e-3)
    assert (data.y * data.d).mean() == pytest.approx(eyd, abs=4e-3)
    assert data.x.mean() == pytest.approx(0.5, abs=1e-2)
    assert set(np.unique(data.z[:, 0])) <= {0.0, 1.0}
    assert set(np.unique(data.z[:, 1])) <= {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}


def test_generate_sample_is_stream_deterministic():
    spec = model3_spec()
    a = generate_sample(spec, 1000, rng_stream(9))
    b = generate_sample(spec, 1000, rng_stream(9))
    c = generate_sample(spec, 1000, rng_stream(10))
    for field in ("y", "d", "x", "z"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.y, c.y)


def test_generate_sample_rejects_bad_inputs():
    spec = model3_spec()
    with pytest.raises(ValueError, match="positive"):
        generate_sample(spec, 0, rng_stream(0))
    wide = DgpSpec(alpha=1.0, beta=(1.0, 1.0), pi=(0.0, 0.0), gamma=(1.0,),
                   rho=0.5, covariate_dist=Normal(),
                   iv_dists=(Discrete(values=(-1.0, 1.0), probs=(0.5, 0.5)),))
    with pytest.raises(ValueError, match="at most one covariate"):
        generate_sample(wide, 100, rng_stream(0))


def test_mc_design_validation():
    spec = model3_spec()
    sets = standard_iv_sets()[:1]
    with pytest.raises(ValueError, match="replications"):
        McDesign(spec=spec, iv_sets=sets, sample_sizes=(100,), replications=0)
    with pytest.raises(ValueError, match="instrument set"):
        McDesign(spec=spec, iv_sets=(), sample_sizes=(100,), replications=1)
    with pytest.raises(ValueError, match="sample sizes"):
        McDesign(spec=spec, iv_sets=sets, sample_sizes=(100, 0), replications=1)
    with pytest.raises(ValueError, match="unique"):
        McDesign(spec=spec, iv_sets=(IvSet("a", use=(0,)), IvSet("a", use=(1,))),
                 sample_sizes=(100,), replications=1)


@pytest.mark.parametrize("sizes", [(300.9,), (100, 2.5), (math.inf,), (math.nan,)])
def test_mc_design_rejects_sample_sizes_that_are_not_whole(sizes):
    # 300.9 was truncated to n = 300 without a word
    with pytest.raises(ValueError, match="whole numbers"):
        McDesign(spec=model3_spec(), iv_sets=standard_iv_sets()[:1],
                 sample_sizes=sizes, replications=1)
    assert McDesign(spec=model3_spec(), iv_sets=standard_iv_sets()[:1],
                    sample_sizes=(300.0, np.int64(600)), replications=1).sample_sizes == (300, 600)


def _small_design(replications=3):
    return McDesign(spec=model3_spec(rho=0.5, covariate="normal"),
                    iv_sets=standard_iv_sets()[:2], sample_sizes=(400,),
                    replications=replications, seed=3,
                    hmue=HmueConfig(n_sim=100, seed=0))


def _assert_identical(a, b, path="record"):
    """Exact equality down to every float bit, NaN included."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_identical(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), path
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _assert_identical(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, float):
        assert a == b or (math.isnan(a) and math.isnan(b)), path
    else:
        assert a == b, path


def _assert_same_results(res, ref):
    # not ==: a NaN mean such as dH_SV without the covariate layer is a
    # fresh float, and dict == matches NaN only by identity
    _assert_identical(table_rows(res), table_rows(ref), "rows")
    assert res.failure_alarm == ref.failure_alarm
    assert len(res.records) == len(ref.records)
    for rec, want in zip(res.records, ref.records):
        _assert_identical(rec, want)


def test_run_monte_carlo_worker_count_does_not_change_results():
    design = _small_design()
    res1 = run_monte_carlo(design, workers=1)
    for workers in (2, 3):
        _assert_same_results(run_monte_carlo(design, workers=workers), res1)
    assert not res1.failure_alarm
    cell = res1.cells["z1", 400]
    assert cell.n_ok == 3 and cell.n_failed == 0
    assert cell.iip_draws.shape == (3,)

    # any record is regenerated exactly from its (size, replicate, set) stream
    rep = mc_replicate(design, 0, 1, 1)
    rec = [r for r in res1.records if r.replicate == 1 and r.iv_name == "z2"][0]
    assert rec.report.iip == rep.iip
    assert rec.report.manski == rep.manski
    assert rec.report.sv == rep.sv
    assert rec.report.flip_rate == rep.flip_rate

    # cell means are plain averages of the per-replicate reports
    reps = [r.report for r in res1.records if r.iv_name == "z1"]
    assert cell.means["IIP"] == pytest.approx(np.mean([s.iip for s in reps]), rel=1e-15)
    assert cell.mean_iip == cell.means["IIP"]
    assert cell.means["L_SV"] == pytest.approx(
        np.mean([s.sv.lower for s in reps]), rel=1e-15)

    ks = compare_iip_distributions(res1, "z1", "z2", 400)
    direct = ks_2samp(res1.cells["z1", 400].iip_draws,
                      res1.cells["z2", 400].iip_draws)
    assert ks.statistic == direct.statistic
    assert ks.pvalue == direct.pvalue


def test_run_monte_carlo_does_not_read_the_hmue_seed():
    # each task draws its correction seed from the design's stream, so
    # the seed inside `hmue` changes nothing
    design = dataclasses.replace(_small_design(replications=2), record_sv=False)
    other = dataclasses.replace(design, hmue=HmueConfig(n_sim=100, seed=12345))
    _assert_identical(table_rows(run_monte_carlo(other)), table_rows(run_monte_carlo(design)),
                      "rows")


def test_failed_tasks_cross_the_worker_boundary_unchanged():
    # at n = 30 most joint MLEs sit on the rho = +-1 boundary or have a
    # singular information, so the fit fails inside the worker
    design = McDesign(spec=model3_spec(rho=0.5, covariate="normal"),
                      iv_sets=standard_iv_sets()[:2], sample_sizes=(30,),
                      replications=3, seed=3, hmue=HmueConfig(n_sim=100, seed=0),
                      record_sv=False)
    with pytest.warns(RuntimeWarning, match="replicate fits failed"):
        res1 = run_monte_carlo(design, workers=1)
    failed = [rec for rec in res1.records if rec.failed]
    assert 0 < len(failed) < len(res1.records)
    assert any("boundary rho" in rec.error for rec in failed)
    assert any("singular or indefinite information" in rec.error for rec in failed)
    for workers in (2, 3):
        with pytest.warns(RuntimeWarning, match="replicate fits failed"):
            _assert_same_results(run_monte_carlo(design, workers=workers), res1)


def test_run_monte_carlo_rejects_fewer_than_one_worker():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_monte_carlo(_small_design(replications=1), workers=workers)


class _SerialPool:
    """Stands in for the process pool: records its size, maps in order."""

    sizes = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        assert chunksize >= 1
        return map(fn, items)


@pytest.mark.parametrize("cpus", [os.cpu_count() or 1, 8, 1])
def test_pool_size_is_capped_by_tasks_and_cpus(monkeypatch, cpus):
    # no real process starts here: the pool is a serial stand-in
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    design = _small_design(replications=1)  # two tasks
    res = run_monte_carlo(design, workers=10_000)
    size = min(2, cpus)
    assert _SerialPool.sizes == ([size] if size > 1 else [])
    assert len(res.records) == 2 and not any(rec.failed for rec in res.records)


def test_run_monte_carlo_failure_accounting(monkeypatch):
    design = McDesign(spec=model3_spec(), iv_sets=standard_iv_sets()[:1],
                      sample_sizes=(400,), replications=60, seed=3,
                      hmue=HmueConfig(n_sim=100, seed=0))
    rep0 = mc_replicate(design, 0, 0, 0)

    def flaky(design_, n_index, replicate, iv_index, bad=frozenset()):
        if replicate in bad:
            raise RuntimeError("injected fit failure")
        return rep0

    # 2 of 60 failures crosses the 2 percent alarm line
    monkeypatch.setattr(sim, "mc_replicate",
                        lambda d, ni, r, si: flaky(d, ni, r, si, bad={0, 1}))
    with pytest.warns(RuntimeWarning, match="2 of 60"):
        res = run_monte_carlo(design)
    assert res.failure_alarm
    cell = res.cells["z1", 400]
    assert (cell.n_ok, cell.n_failed) == (58, 2)
    assert cell.iip_draws.shape == (58,)
    assert cell.means["IIP"] == pytest.approx(rep0.iip, rel=1e-15)
    failed = [r for r in res.records if r.failed]
    assert len(failed) == 2
    assert all(r.error == "injected fit failure" for r in failed)
    assert all(math.isnan(r.hausdorff_manski) for r in failed)

    # a single failure stays under the alarm threshold
    monkeypatch.setattr(sim, "mc_replicate",
                        lambda d, ni, r, si: flaky(d, ni, r, si, bad={0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_monte_carlo(design)
    assert not res.failure_alarm
    assert res.cells["z1", 400].n_failed == 1

    # nothing to compare once every replicate failed
    monkeypatch.setattr(sim, "mc_replicate",
                        lambda d, ni, r, si: flaky(d, ni, r, si,
                                                   bad=frozenset(range(60))))
    with pytest.warns(RuntimeWarning):
        res = run_monte_carlo(design)
    means = res.cells["z1", 400].means
    assert list(means) == list(sim.CELL_COLUMNS)
    assert all(math.isnan(v) for v in means.values())
    with pytest.raises(ValueError, match="no successful replicates"):
        compare_iip_distributions(res, "z1", "z1", 400)


def test_table_rows_columns():
    design = _small_design(replications=2)
    result = run_monte_carlo(design)
    rows = table_rows(result)
    assert len(rows) == 2
    expected = ["iv_set", "n", "replications", "failures", "L_M", "U_M",
                "L_bar", "U_bar", "L_SV", "U_SV", "C1", "C2", "C3", "C4",
                "IIP", "IIP_point", "dH_M", "dH_SV", "flip_rate"]
    assert [list(row) for row in rows] == [expected, expected]
    assert {row["iv_set"] for row in rows} == {"z1", "z2"}
    for row in rows:
        assert row["replications"] == 2 and row["failures"] == 0
        assert row["L_M"] <= row["L_bar"] <= row["U_bar"] <= row["U_M"]
        # each mean is the plain average of the successful reports' columns
        reps = [rec.report for rec in result.records if rec.iv_name == row["iv_set"]]
        for col in sim.NUMERIC_COLUMNS:
            assert row[col] == float(np.mean([report_columns(r)[col] for r in reps])), col
        assert row["IIP_point"] == float(np.mean([r.point_iip for r in reps]))
        assert row["flip_rate"] == float(np.mean([r.flip_rate for r in reps]))


def test_rank_entries_tie_breaks():
    entries = [("b", 0.5, 0.2), ("a", 0.5, 0.1), ("c", 0.7, 0.9),
               ("d", 0.5, 0.1)]
    assert rank_entries(entries) == [("c", 0.7, 0.9), ("a", 0.5, 0.1),
                                     ("d", 0.5, 0.1), ("b", 0.5, 0.2)]


def test_rank_iv_sets_needs_explicit_n_for_multiple_sizes():
    sets = (IvSet("a", use=(0,)), IvSet("b", use=(1,)))
    design = McDesign(spec=model3_spec(), iv_sets=sets,
                      sample_sizes=(100, 200), replications=1)
    def cell(name, n, iip, width):
        means = dict.fromkeys(sim.CELL_COLUMNS, 0.0)
        means.update(L_M=-0.2, U_M=0.8, L_bar=-0.2, U_bar=0.8, L_SV=0.0, U_SV=width,
                     C1=0.1, C2=0.1, C3=0.1, C4=width, IIP=iip, IIP_point=iip)
        return sim.McCell(iv_name=name, n=n, n_ok=1, n_failed=0, means=means,
                          iip_draws=np.array([iip]))

    cells = {("a", 100): cell("a", 100, 0.2, 0.5),
             ("b", 100): cell("b", 100, 0.6, 0.3),
             ("a", 200): cell("a", 200, 0.7, 0.4),
             ("b", 200): cell("b", 200, 0.1, 0.6)}
    result = McResult(design=design, records=(), cells=cells, truth={},
                      failure_alarm=False)
    assert [e[0] for e in rank_iv_sets(result, 100)] == ["b", "a"]
    assert [e[0] for e in rank_iv_sets(result, 200)] == ["a", "b"]


def test_surface_grid_irrelevant_node_and_invariances():
    rows = surface_grid(model2_spec(), [0.0, 1.0], [0.5], [0.05, 0.45], (0.0,))
    assert len(rows) == 2 * 1 * 2 * 12
    by_node = {}
    for row in rows:
        by_node.setdefault((row["gamma"], row["beta"]), {})[row["quantity"]] = row["value"]

    # gamma 0 removes all instrument variation: benchmark bounds, zero power
    node = by_node[(0.0, 0.05)]
    assert node["IIP"] == 0.0
    assert math.isnan(node["sign"])
    assert node["L_SV"] == node["L_bar"] == node["L_M"]
    assert node["U_SV"] == node["U_bar"] == node["U_M"]

    # at x = 0 the outcome index ignores beta, so everything that only
    # uses own-row cells is beta-invariant; the covariate layer is not
    low, high = by_node[(1.0, 0.05)], by_node[(1.0, 0.45)]
    for quantity in ("L_M", "U_M", "L_bar", "U_bar", "sign", "C1", "C2", "IIP"):
        assert low[quantity] == high[quantity]
    assert low["C3"] != high["C3"]

    with pytest.raises(ValueError, match="nonempty"):
        surface_grid(model2_spec(), [], [0.5], [0.25], (0.0,))
