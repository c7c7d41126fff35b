import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import ivpower.cli as cli
from ivpower.cli import (ConfigError, ROW_COLUMNS, _collect_ivsets,
                         _parse_ivset, _parse_values, fit_from_dict,
                         fit_to_dict, kernel_weights, main, report_from_dict,
                         report_row, report_to_dict, silverman_bandwidth,
                         write_csv)
from ivpower.bounds import Interval, population_report
from ivpower.dgp import spec_to_dict
from ivpower.estimation import (Dataset, FitResult, HmueConfig, estimated_report,
                                fit_bivariate_probit, write_dataset_csv)
from ivpower.gaussian import rng_stream
from ivpower.simulation import generate_sample, model2_spec, model3_spec

SPEC = model3_spec(rho=0.5, covariate="normal")


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "model.json"
    path.write_text(json.dumps(spec_to_dict(SPEC)))
    return str(path)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    data = generate_sample(SPEC, 800, rng_stream(21))
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    write_dataset_csv(data, str(path))
    return str(path)


@pytest.fixture(scope="module")
def sample_report(data_path):
    from ivpower.estimation import read_dataset_csv
    data = read_dataset_csv(data_path)
    return estimated_report(data, x_eval=(0.0,),
                            hmue=HmueConfig(n_sim=100, seed=4))


def test_parse_values_list_and_lattice():
    assert _parse_values("1, 2,3") == [1.0, 2.0, 3.0]
    assert _parse_values("0:0.5:2") == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(_parse_values("-4:0.2:4")) == 41
    assert len(_parse_values("-0.99:0.05:0.99")) == 40
    with pytest.raises(ConfigError, match="bad grid"):
        _parse_values("0:0:1")
    with pytest.raises(ConfigError, match="bad grid"):
        _parse_values("1:0.5:0")
    with pytest.raises(ConfigError, match="cannot parse"):
        _parse_values("1,junk")


def test_parse_ivset():
    ivs = _parse_ivset("pair:1,2", 3)
    assert (ivs.name, ivs.use, ivs.recode) == ("pair", (0, 1), ("raw", "raw"))
    ivs = _parse_ivset("coarse:1,2:raw,gt0", 3)
    assert ivs.recode == ("raw", "gt0")
    with pytest.raises(ConfigError, match="expected"):
        _parse_ivset("noname", 3)
    with pytest.raises(ConfigError, match="integers"):
        _parse_ivset("a:one", 3)
    with pytest.raises(ConfigError, match="1..3"):
        _parse_ivset("a:4", 3)
    with pytest.raises(ConfigError, match="recode"):
        _parse_ivset("a:1:bogus", 3)


def test_collect_ivsets():
    ns = lambda **kw: type("NS", (), kw)()
    sets = _collect_ivsets(ns(standard_sets=True, iv_set=None), 3)
    assert [s.name for s in sets] == ["z1", "z2", "z1,z2>0", "z1,z2", "z1,z2,z3"]
    with pytest.raises(ConfigError, match="exactly 3"):
        _collect_ivsets(ns(standard_sets=True, iv_set=None), 2)
    sets = _collect_ivsets(ns(standard_sets=False, iv_set=None), 2)
    assert [s.name for s in sets] == ["all"]
    assert sets[0].use == (0, 1)
    with pytest.raises(ConfigError, match="unique"):
        _collect_ivsets(ns(standard_sets=False, iv_set=["a:1", "a:2"]), 3)


def test_population_report_round_trips_through_json():
    rep = population_report(SPEC, (0.0,))
    back = report_from_dict(json.loads(json.dumps(report_to_dict(rep))))
    assert type(back).__name__ == "BoundsReport"
    assert back.manski == rep.manski
    assert back.sv == rep.sv
    assert back.sign == rep.sign
    assert (back.c1, back.c2, back.c3, back.c4) == (rep.c1, rep.c2, rep.c3, rep.c4)
    assert back.iip == rep.iip


def test_estimated_report_round_trips_through_json(sample_report):
    rep = sample_report
    back = report_from_dict(json.loads(json.dumps(report_to_dict(rep))))
    assert back.sv == rep.sv
    assert back.point_sv == rep.point_sv
    assert back.flip_rate == rep.flip_rate
    assert back.iv_name == rep.iv_name
    assert set(back.levels) == set(rep.levels)
    for q in rep.levels:
        assert back.levels[q] == rep.levels[q]
    np.testing.assert_array_equal(back.fit.params, rep.fit.params)
    assert back.spec == rep.spec
    with pytest.raises(ConfigError, match="unknown report kind"):
        report_from_dict({"kind": "mystery"})


def test_fit_round_trips_through_json(sample_report):
    fit = sample_report.fit
    back = fit_from_dict(json.loads(json.dumps(fit_to_dict(fit))))
    assert back.names == fit.names
    np.testing.assert_array_equal(back.params, fit.params)
    np.testing.assert_array_equal(back.vcov, fit.vcov)
    assert back.loglik == fit.loglik
    assert back.converged == fit.converged


def test_fit_from_dict_rejects_asymmetric_vcov():
    doc = {"names": ["a", "b"], "params": [0.1, 0.2], "loglik": -1.0,
           "vcov": [[1.0, 0.5], [0.4, 1.0]], "converged": True, "iterations": 3}
    with pytest.raises(ValueError, match="symmetric"):
        fit_from_dict(doc)


def test_report_row_columns():
    rep = population_report(SPEC, (0.0,))
    row = report_row(rep)
    assert set(row) == set(ROW_COLUMNS)
    assert row["sign"] == 1
    assert row["x"] == "0.0"


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b", "c", "d"),
              [{"a": 1.0 / 3.0, "b": True, "c": 7, "d": "text"}])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "0.3333333333333333,1,7,text"


def test_kernel_weights_and_bandwidth():
    rng = np.random.default_rng(0)
    values = rng.normal(size=400)
    assert silverman_bandwidth(values) > 0.0
    grid = np.linspace(-2, 2, 25)
    w = kernel_weights(values, grid, 0.3)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert (w > 0).all()
    with pytest.raises(ConfigError, match="positive"):
        kernel_weights(values, grid, 0.0)
    with pytest.raises(ConfigError, match="vanished"):
        kernel_weights(values, np.array([1e6]), 1e-3)


def test_dgp_bounds_command_is_reproducible(tmp_path, spec_path, capsys):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["dgp-bounds", "--spec", spec_path, "--x", "0",
                     "--x", "0.5", "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "bounds.csv").read_bytes() == (outs[1] / "bounds.csv").read_bytes()
    assert (outs[0] / "bounds.json").read_bytes() == (outs[1] / "bounds.json").read_bytes()
    header = (outs[0] / "bounds.csv").read_text().splitlines()[0]
    assert header == ",".join(ROW_COLUMNS)
    payload = json.loads((outs[0] / "bounds.json").read_text())
    assert len(payload) == 2
    assert payload[0]["kind"] == "population"
    assert "sign=+" in capsys.readouterr().out


def test_dgp_bounds_with_iv_subset(tmp_path, spec_path):
    out = tmp_path / "sub"
    assert main(["dgp-bounds", "--spec", spec_path, "--iv-set", "z1:1",
                 "--out", str(out)]) == 0
    row = (out / "bounds.csv").read_text().splitlines()[1].split(",")
    iip = float(row[ROW_COLUMNS.index("IIP")])
    assert iip == pytest.approx(0.305, abs=1e-3)


def test_config_file_supplies_defaults(tmp_path, spec_path):
    out = tmp_path / "from_config"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(out)}))
    assert main(["dgp-bounds", "--spec", spec_path, "--config", str(config)]) == 0
    assert (out / "bounds.csv").exists()

    # explicit flags take precedence over the config file
    override = tmp_path / "override"
    assert main(["dgp-bounds", "--spec", spec_path, "--config", str(config),
                 "--out", str(override)]) == 0
    assert (override / "bounds.csv").exists()


def test_config_errors_exit_2(tmp_path, spec_path, capsys):
    assert main(["dgp-bounds", "--spec", str(tmp_path / "no.json")]) == 2
    assert "cannot read spec file" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dgp-bounds", "--spec", str(bad)]) == 2

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"alpha": 1.0}))
    assert main(["dgp-bounds", "--spec", str(incomplete)]) == 2
    assert "missing field" in capsys.readouterr().err

    assert main(["dgp-bounds", "--spec", spec_path,
                 "--config", str(tmp_path / "no_config.json")]) == 2
    listcfg = tmp_path / "list.json"
    listcfg.write_text("[1, 2]")
    assert main(["dgp-bounds", "--spec", spec_path, "--config", str(listcfg)]) == 2
    assert "JSON object" in capsys.readouterr().err

    assert main(["dgp-bounds", "--spec", spec_path, "--x", "0,0"]) == 2

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _model2_spec_file(tmp_path, **fields):
    """A model-2 spec document with ``fields`` overridden."""
    doc = dict(spec_to_dict(model2_spec()), **fields)
    path = tmp_path / "model2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_rho_at_one_exits_2(tmp_path, capsys):
    assert main(["dgp-bounds", "--spec", _model2_spec_file(tmp_path, rho=1.0)]) == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_bad_matching_tolerance_exits_2(tmp_path, spec_path, tolerance, capsys):
    # a negative or NaN tolerance stops the own row from matching; an
    # infinite one admits every row and can invert the two-layer interval
    assert main(["dgp-bounds", "--spec", spec_path, "--iv-set", "z12:1,2", "--x", "0",
                 f"--tolerance-c={tolerance}", "--out", str(tmp_path)]) == 2
    assert "tolerance_c" in capsys.readouterr().err
    assert not (tmp_path / "bounds.csv").exists()


@pytest.mark.parametrize("rho", [0.99999999999, -0.99999999999])
def test_rho_inside_the_kernel_clamp_gives_nested_bounds(tmp_path, rho):
    # |rho| within 1e-10 of 1, where the kernel's high-|rho| branch holds
    out = tmp_path / "out"
    assert main(["dgp-bounds", "--spec", _model2_spec_file(tmp_path, rho=rho),
                 "--x", "0", "--x", "1", "--out", str(out)]) == 0
    rows = (out / "bounds.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for line in rows:
        row = dict(zip(ROW_COLUMNS, map(float, line.split(","))))
        assert all(math.isfinite(v) for v in row.values())
        manski = Interval(row["L_M"], row["U_M"])
        widest = Interval(row["L_bar"], row["U_bar"])
        sv = Interval(row["L_SV"], row["U_SV"])
        assert sv.lower <= sv.upper + 1e-12
        assert widest.contains(sv, 1e-12)
        assert manski.contains(widest, 1e-12)


def test_data_errors_exit_3(tmp_path, capsys):
    assert main(["estimate", "--data", str(tmp_path / "no.csv")]) == 3
    assert "cannot read dataset" in capsys.readouterr().err
    broken = tmp_path / "broken.csv"
    broken.write_text("a,b\n1,2\n")
    assert main(["estimate", "--data", str(broken)]) == 3
    assert "missing column" in capsys.readouterr().err


def test_non_finite_cell_exits_3(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("y,d,x1,z1\n1,0,0.5,1\n0,1,nan,0\n1,1,-0.2,1\n")
    assert main(["estimate", "--data", str(path), "--out", str(tmp_path)]) == 3
    assert "non-finite values in x" in capsys.readouterr().err


def test_perfectly_separated_data_exits_4(tmp_path, capsys):
    # y = d: the outcome equation predicts y exactly from d, so the
    # likelihood has no interior maximum
    data = generate_sample(SPEC, 400, rng_stream(5))
    path = tmp_path / "separated.csv"
    write_dataset_csv(Dataset(y=data.d, d=data.d, x=data.x, z=data.z), str(path))
    assert main(["estimate", "--data", str(path), "--hmue-sims", "100",
                 "--out", str(tmp_path / "out")]) == 4
    assert "joint fit for all: singular or indefinite information" in capsys.readouterr().err


def test_numerical_failure_exits_4(tmp_path, data_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("joint fit did not converge")

    monkeypatch.setattr(cli, "estimated_report", boom)
    assert main(["estimate", "--data", data_path, "--out", str(tmp_path)]) == 4
    assert "did not converge" in capsys.readouterr().err


def test_estimate_command_is_reproducible(tmp_path, data_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["estimate", "--data", data_path, "--iv-set", "z12:1,2",
                     "--hmue-sims", "100", "--x", "0",
                     "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "estimate.csv").read_bytes() == (outs[1] / "estimate.csv").read_bytes()
    assert (outs[0] / "estimate.json").read_bytes() == (outs[1] / "estimate.json").read_bytes()
    header = (outs[0] / "estimate.csv").read_text().splitlines()[0]
    assert header == ",".join(("iv_set",) + ROW_COLUMNS)
    payload = json.loads((outs[0] / "estimate.json").read_text())
    assert payload[0]["kind"] == "estimated"
    assert payload[0]["iv_name"] == "z12"


def test_simulate_command(tmp_path, spec_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", spec_path, "--iv-set", "z1:1",
                 "--sizes", "300", "--replications", "2",
                 "--hmue-sims", "100", "--no-sv", "--out", str(out)]) == 0
    payload = json.loads((out / "simulation.json").read_text())
    assert payload["replications"] == 2
    assert payload["sample_sizes"] == [300]
    assert payload["failure_alarm"] is False
    assert payload["cells"][0]["iv_set"] == "z1"
    assert "z1" in payload["truth"]
    lines = (out / "simulation_wide.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus one cell

    assert main(["simulate", "--spec", spec_path, "--replications", "0"]) == 2


def test_surface_command(tmp_path):
    template = tmp_path / "model2.json"
    template.write_text(json.dumps(spec_to_dict(model2_spec())))
    out = tmp_path / "surf"
    assert main(["surface", "--spec", str(template), "--gamma", "0,1",
                 "--rho", "0.5", "--beta", "0.25", "--out", str(out)]) == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert lines[0] == "gamma,rho,beta,quantity,value"
    assert len(lines) == 1 + 2 * 1 * 1 * 12


def test_surface_rejects_multi_instrument_template(tmp_path, spec_path):
    assert main(["surface", "--spec", spec_path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, flags", [
    ("surface", ["--gamma=nan"]),
    ("surface", ["--beta=nan"]),
    ("surface", ["--beta=inf"]),
    ("surface", ["--x=nan"]),
    ("dgp-bounds", ["--x=inf"]),
    ("dgp-bounds", ["--x=-inf"]),
])
def test_non_finite_model_inputs_exit_2(tmp_path, command, flags, capsys):
    # these wrote NaN bounds and a garbage sign, and exited 0
    out = tmp_path / "out"
    assert main([command, "--spec", _model2_spec_file(tmp_path), *flags,
                 "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("beta", [math.inf]), ("pi", [-math.inf]), ("gamma", [math.nan])])
def test_non_finite_spec_file_exits_2(tmp_path, field, value, capsys):
    spec = _model2_spec_file(tmp_path, **{field: value})
    assert main(["dgp-bounds", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "bounds.csv").exists()


def test_surface_takes_one_evaluation_point(tmp_path, capsys):
    # a second --x was dropped without a word
    out = tmp_path / "out"
    assert main(["surface", "--spec", _model2_spec_file(tmp_path), "--x=0", "--x=1",
                 "--gamma", "1", "--rho", "0.5", "--beta", "0.25", "--out", str(out)]) == 2
    assert "--x" in capsys.readouterr().err
    assert not (out / "surface.csv").exists()


def test_rank_ivs_command(tmp_path, data_path):
    out = tmp_path / "rank"
    assert main(["rank-ivs", "--data", data_path, "--iv-set", "z1:1",
                 "--iv-set", "z12:1,2", "--n-boot", "50",
                 "--hmue-sims", "100", "--out", str(out)]) == 0
    rows = json.loads((out / "ranking.json").read_text())
    assert [row["rank"] for row in rows] == [1, 2]
    assert {row["iv_set"] for row in rows} == {"z1", "z12"}
    assert all(row["ci_lo"] <= row["ci_hi"] for row in rows)
    header = (out / "ranking.csv").read_text().splitlines()[0]
    assert header.startswith("rank,iv_set,IIP")


def test_rank_ivs_breaks_iip_ties_by_interval_width(tmp_path, data_path, monkeypatch):
    # equal identification power: the narrower widest interval ranks first,
    # even when its set name sorts last
    widest = {"a": Interval(-0.2, 0.3), "b": Interval(0.0, 0.2)}

    def report(data, ivset, *args, **kwargs):
        fit = FitResult(params=np.array([10.0]), names=("gamma1",), loglik=-1.0,
                        vcov=np.eye(1), converged=True, iterations=1)
        return SimpleNamespace(iip=0.4, point_iip=0.4, fit=fit,
                               widest=widest[ivset.name], sv=widest[ivset.name])

    monkeypatch.setattr(cli, "estimated_report", report)
    monkeypatch.setattr(cli, "bootstrap_dispersion", lambda *a, **k: SimpleNamespace(
        sd=0.01, n_failed=0))
    out = tmp_path / "tie"
    assert main(["rank-ivs", "--data", data_path, "--iv-set", "a:1",
                 "--iv-set", "b:2", "--out", str(out)]) == 0
    rows = json.loads((out / "ranking.json").read_text())
    assert [row["iv_set"] for row in rows] == ["b", "a"]
    assert set(rows[0]) == {"rank", "iv_set", "IIP", "IIP_point", "boot_sd", "ci_lo",
                            "ci_hi", "relevance_p", "boot_failures",
                            "possibly_irrelevant"}


def test_empirical_command(tmp_path, data_path):
    out = tmp_path / "emp"
    assert main(["empirical", "--data", data_path, "--iv-set", "z1:1",
                 "--iv-set", "z12:1,2", "--out", str(out)]) == 0
    payload = json.loads((out / "empirical.json").read_text())
    assert payload["bandwidth"] > 0.0
    assert len(payload["weights"]) == len(payload["grid"])
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)
    summary = {row["iv_set"]: row for row in payload["summary"]}
    # benchmark columns come from the instrument-free agreement probit,
    # so they cannot differ across instrument sets
    assert summary["z1"]["L_M"] == summary["z12"]["L_M"]
    assert summary["z1"]["U_M"] == summary["z12"]["U_M"]
    for row in summary.values():
        assert row["L_M"] <= row["L_bar"] <= row["U_bar"] <= row["U_M"]
    curves = (out / "empirical_curves.csv").read_text().splitlines()
    assert curves[0] == ",".join(cli._CURVE_COLUMNS)

    assert main(["empirical", "--data", data_path, "--bandwidth", "junk"]) == 2
    assert main(["empirical", "--data", data_path, "--bandwidth", "-1"]) == 2
