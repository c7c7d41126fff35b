import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import ivpower.cli as cli
from ivpower.cli import (ConfigError, ROW_COLUMNS, _collect_ivsets,
                         _parse_ivset, _parse_values, _relevance_pvalue, kernel_weights,
                         main, report_row, report_to_dict, silverman_bandwidth, write_csv)
from ivpower.bounds import Interval, population_report
from ivpower.dgp import spec_from_dict, to_dict
from ivpower.estimation import (Dataset, FitResult, HmueConfig, estimated_report,
                                fit_bivariate_probit, write_dataset_csv)
from ivpower.gaussian import rng_stream
from ivpower.simulation import generate_sample, model2_spec, model3_spec
from test_bounds import nested

SPEC = model3_spec(rho=0.5, covariate="normal")


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "model.json"
    path.write_text(json.dumps(to_dict(SPEC)))
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


_REPORT_FLOATS = ("c1", "c2", "c3", "c4", "iip", "cps_lo", "cps_hi", "ate_model")
# the JSON keys in the order report_to_dict writes them
_POPULATION_KEYS = ["kind", "x", "sign", "irrelevant", "manski", "widest", "sv",
                    *_REPORT_FLOATS]
_ESTIMATED_KEYS = _POPULATION_KEYS + ["point_manski", "point_widest", "point_sv",
                                      "point_iip", "levels", "flip_rate", "fit", "spec",
                                      "iv_name"]


def _json(obj):
    return json.loads(json.dumps(obj))


def _assert_intervals(doc, rep, names):
    for name in names:
        iv = getattr(rep, name)
        assert doc[name] == [iv.lower, iv.upper], name


def _assert_scalars(doc, rep, names):
    for name in names:
        assert doc[name] == getattr(rep, name), name


def test_population_report_json_fields():
    rep = population_report(SPEC, (0.0,))
    doc = _json(report_to_dict(rep))
    assert list(doc) == _POPULATION_KEYS
    assert doc["kind"] == "population"
    assert doc["x"] == list(rep.x)
    assert (doc["sign"], doc["irrelevant"]) == (rep.sign, rep.irrelevant)
    _assert_intervals(doc, rep, ("manski", "widest", "sv"))
    _assert_scalars(doc, rep, _REPORT_FLOATS)


def test_estimated_report_json_fields(sample_report):
    rep = sample_report
    doc = _json(report_to_dict(rep))
    assert list(doc) == _ESTIMATED_KEYS
    assert [f.name for f in dataclasses.fields(rep)] == _ESTIMATED_KEYS[1:]
    assert doc["kind"] == "estimated"
    assert doc["x"] == list(rep.x)
    assert (doc["sign"], doc["irrelevant"]) == (rep.sign, rep.irrelevant)
    _assert_intervals(doc, rep, ("manski", "widest", "sv",
                                 "point_manski", "point_widest", "point_sv"))
    _assert_scalars(doc, rep, _REPORT_FLOATS + ("point_iip", "flip_rate", "iv_name"))
    assert doc["levels"] == {repr(q): {k: [v.lower, v.upper] for k, v in iv.items()}
                             for q, iv in rep.levels.items()}
    assert doc["fit"] == _json(to_dict(rep.fit))
    assert spec_from_dict(doc["spec"]) == rep.spec


def test_fit_json_fields(sample_report):
    fit = sample_report.fit
    doc = _json(to_dict(fit))
    assert list(doc) == ["names", "params", "loglik", "vcov", "converged", "iterations"]
    assert doc["names"] == list(fit.names)
    assert doc["params"] == fit.params.tolist()
    assert doc["vcov"] == fit.vcov.tolist()
    assert doc["loglik"] == fit.loglik
    assert (doc["converged"], doc["iterations"]) == (fit.converged, fit.iterations)


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
    doc = dict(to_dict(model2_spec()), **fields)
    path = tmp_path / "model2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_dgp_bounds_takes_one_instrument_set(tmp_path, spec_path, capsys):
    # every --iv-set but the last was dropped without a word
    out = tmp_path / "out"
    assert main(["dgp-bounds", "--spec", spec_path, "--iv-set", "z1:1",
                 "--iv-set", "z12:1,2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "dgp-bounds takes one instrument set: give --iv-set once" in err
    assert not out.exists()


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
        assert nested(widest, sv, 1e-12)
        assert nested(manski, widest, 1e-12)


def test_data_errors_exit_3(tmp_path, capsys):
    assert main(["estimate", "--data", str(tmp_path / "no.csv")]) == 3
    assert "cannot read dataset" in capsys.readouterr().err
    broken = tmp_path / "broken.csv"
    broken.write_text("a,b\n1,2\n")
    assert main(["estimate", "--data", str(broken)]) == 3
    assert "missing column" in capsys.readouterr().err
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("y,d,x1,x1,z1\n1,0,1,9,1\n0,1,2,8,0\n1,1,3,7,1\n")
    assert main(["estimate", "--data", str(repeated)]) == 3
    assert "column 'x1' is named more than once" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("y,d,x1,x1,z1\n1,0,1,9,1\n", "column 'x1' is named more than once"),
    ("y,x1,z1\n1,0.5,1\n", "missing column 'd'"),
    ("y,d,x1,z1\n1,0,0.5,1\n0,1,0.2\n", "row 3 has 3 fields, expected 4"),
    ("y,d,x1,z1\n1,0,,1\n", "missing value for 'x1' in row 2"),
    ("y,d,x1,z1\n2,0,0.5,1\n0,1,0.2,0\n", "y must be binary"),
    (None, "No such file or directory"),
])
def test_data_error_names_the_file_once(tmp_path, capsys, text, message):
    path = tmp_path / "data.csv"
    if text is not None:
        path.write_text(text)
    assert main(["estimate", "--data", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert err.count(str(path)) == 1, err


def test_non_finite_cell_exits_3(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("y,d,x1,z1\n1,0,0.5,1\n0,1,nan,0\n1,1,-0.2,1\n")
    assert main(["estimate", "--data", str(path), "--out", str(tmp_path)]) == 3
    assert "non-finite values in x" in capsys.readouterr().err


def _estimate_separated(tmp_path, flip):
    data = generate_sample(SPEC, 400, rng_stream(5))
    path = tmp_path / "separated.csv"
    y = 1.0 - data.d if flip else data.d
    write_dataset_csv(Dataset(y=y, d=data.d, x=data.x, z=data.z), str(path))
    return main(["estimate", "--data", str(path), "--hmue-sims", "100",
                 "--out", str(tmp_path / "out")])


def test_perfectly_separated_data_exits_4(tmp_path, capsys):
    # y = d: the outcome equation predicts y exactly from d, so the
    # likelihood has no interior maximum; it rises all the way to rho = +1
    assert _estimate_separated(tmp_path, flip=False) == 4
    assert ("joint fit for all: the MLE is on the boundary rho = +1"
            in capsys.readouterr().err)


def test_mirrored_separated_data_exits_4(tmp_path, capsys):
    # y = 1 - d: the mirror, whose likelihood rises to rho = -1
    assert _estimate_separated(tmp_path, flip=True) == 4
    assert ("joint fit for all: the MLE is on the boundary rho = -1"
            in capsys.readouterr().err)


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


def _strict_json(path):
    """The JSON document at ``path``; a bare NaN or Infinity token raises."""
    def reject(token):
        raise AssertionError(f"{token} is not a JSON value")

    return json.loads(path.read_text(), parse_constant=reject)


def test_simulate_command(tmp_path, spec_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", spec_path, "--iv-set", "z1:1",
                 "--sizes", "300", "--replications", "2",
                 "--hmue-sims", "100", "--no-sv", "--out", str(out)]) == 0
    payload = _strict_json(out / "simulation.json")
    # dH_SV is undefined without the covariate layer: simulation.json held a
    # bare NaN token, which RFC 8259 forbids; the CSV keeps nan
    assert payload["cells"][0]["dH_SV"] is None
    assert payload["replications"] == 2
    assert payload["sample_sizes"] == [300]
    assert payload["failure_alarm"] is False
    assert payload["cells"][0]["iv_set"] == "z1"
    assert "z1" in payload["truth"]
    lines = (out / "simulation_wide.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus one cell
    header, row = (line.split(",") for line in lines)
    assert row[header.index("dH_SV")] == "nan"

    assert main(["simulate", "--spec", spec_path, "--replications", "0"]) == 2


def test_surface_command(tmp_path):
    template = tmp_path / "model2.json"
    template.write_text(json.dumps(to_dict(model2_spec())))
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


_DISCRETE_IV = {"type": "discrete", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}


@pytest.mark.parametrize("field, dist, message", [
    ("iv_dists", [dict(_DISCRETE_IV, values=[-1.0, math.nan])], "Discrete values"),
    ("iv_dists", [dict(_DISCRETE_IV, probs=[math.nan, 0.5])], "Discrete probs"),
    ("iv_dists", {"type": "joint_discrete", "values": [[-1.0], [math.inf]],
                  "probs": [0.5, 0.5]}, "JointDiscrete values"),
    ("covariate_dist", {"type": "normal", "mean": 0.0, "sd": math.nan}, "Normal sd"),
    ("covariate_dist", {"type": "normal", "mean": math.inf, "sd": 1.0}, "Normal mean"),
])
def test_non_finite_distribution_in_spec_file_exits_2(tmp_path, field, dist, message,
                                                      capsys):
    # a NaN support point wrote NaN bounds and then crashed on the sign
    out = tmp_path / "out"
    spec = _model2_spec_file(tmp_path, **{field: dist})
    assert main(["dgp-bounds", "--spec", spec, "--out", str(out)]) == 2
    assert f"{message} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_surface_takes_one_evaluation_point(tmp_path, capsys):
    # a second --x was dropped without a word
    out = tmp_path / "out"
    assert main(["surface", "--spec", _model2_spec_file(tmp_path), "--x=0", "--x=1",
                 "--gamma", "1", "--rho", "0.5", "--beta", "0.25", "--out", str(out)]) == 2
    assert "--x" in capsys.readouterr().err
    assert not (out / "surface.csv").exists()


def test_simulate_and_rank_ivs_take_one_evaluation_point(tmp_path, spec_path,
                                                         data_path, capsys):
    # both used the first --x and dropped the rest without a word
    out = tmp_path / "out"
    assert main(["simulate", "--spec", spec_path, "--iv-set", "z1:1", "--sizes", "300",
                 "--replications", "1", "--hmue-sims", "100", "--no-sv",
                 "--x=0", "--x=1", "--out", str(out)]) == 2
    assert "simulate takes one evaluation point: give --x once" in capsys.readouterr().err
    assert main(["rank-ivs", "--data", data_path, "--iv-set", "z1:1", "--n-boot", "50",
                 "--hmue-sims", "100", "--x=0", "--x=1", "--out", str(out)]) == 2
    assert "rank-ivs takes one evaluation point: give --x once" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("workers", ["--workers=0", "--workers=-1"])
def test_simulate_needs_a_worker(tmp_path, spec_path, workers, capsys):
    # fewer than one worker ran serially without a word
    out = tmp_path / "out"
    assert main(["simulate", "--spec", spec_path, "--iv-set", "z1:1", "--sizes", "300",
                 "--replications", "1", "--hmue-sims", "100", "--no-sv", workers,
                 "--out", str(out)]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


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


def test_rank_ivs_writes_null_for_an_undefined_bootstrap_sd(tmp_path, data_path,
                                                           monkeypatch):
    # fewer than two successful bootstrap fits: the sd is nan and the
    # interval infinite, which ranking.json held as NaN and +-Infinity tokens
    monkeypatch.setattr(cli, "bootstrap_dispersion", lambda *a, **k: SimpleNamespace(
        sd=math.nan, n_failed=49))
    out = tmp_path / "undefined"
    assert main(["rank-ivs", "--data", data_path, "--iv-set", "a:1", "--n-boot=50",
                 "--hmue-sims=100", "--out", str(out)]) == 0
    row = _strict_json(out / "ranking.json")[0]
    assert (row["boot_sd"], row["ci_lo"], row["ci_hi"]) == (None, None, None)
    header, cells = (line.split(",") for line in
                     (out / "ranking.csv").read_text().splitlines())
    assert [cells[header.index(k)] for k in ("boot_sd", "ci_lo", "ci_hi")] == [
        "nan", "-inf", "inf"]


def _wald_fit(stat, df):
    """A fit whose df gamma coefficients have the Wald statistic ``stat``:
    coef (stat, 0, ...) with vcov diag(stat, 1, ...) solves to exactly
    stat, and coef (1e200, 0, ...) with the identity overflows to inf."""
    params = np.zeros(df + 1)
    vcov = np.eye(df + 1)
    if math.isinf(stat):
        params[1] = 1e200
    elif stat > 0.0:
        params[1] = vcov[1, 1] = stat
    coef, block = params[1:], vcov[1:, 1:]
    with np.errstate(over="ignore"):
        assert coef @ np.linalg.solve(block, coef) == stat
    return FitResult(params=params,
                     names=("alpha",) + tuple(f"gamma{j + 1}" for j in range(df)),
                     loglik=-1.0, vcov=vcov, converged=True, iterations=1)


@pytest.mark.parametrize("df", [1, 2, 3, 4])
def test_relevance_pvalue_matches_chi2_sf(df):
    from scipy.stats import chi2
    for stat in (0.0, 1e-300, 1e-3, 1.0, 10.0, 700.0, 1e4, math.inf):
        fit = _wald_fit(stat, df)
        with np.errstate(over="ignore"):
            assert _relevance_pvalue(fit) == chi2.sf(stat, df), stat


def test_relevance_pvalue_of_a_stat_that_rounds_below_zero():
    # an indefinite vcov block can give a Wald stat just below 0; chi2.sf
    # reads that as 1, and so must the p-value, where bare chdtrc gives NaN
    from scipy.special import chdtrc
    from scipy.stats import chi2
    fit = FitResult(params=np.array([0.3, 1e-8, 0.0]), names=("alpha", "gamma1", "gamma2"),
                    loglik=-1.0, vcov=np.diag([1.0, -1.0, 1.0]), converged=True,
                    iterations=1)
    stat = fit.params[1:] @ np.linalg.solve(fit.vcov[1:, 1:], fit.params[1:])
    assert -1e-15 < stat < 0.0
    assert math.isnan(chdtrc(2, stat))
    assert _relevance_pvalue(fit) == chi2.sf(stat, 2) == 1.0


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


# each subcommand's flag dests besides help, config and out
COMMAND_FLAGS = {
    "dgp-bounds": {"spec", "x", "iv_set", "tolerance_c"},
    "surface": {"spec", "x", "gamma", "rho", "beta", "tolerance_c"},
    "simulate": {"spec", "x", "iv_set", "standard_sets", "sizes", "replications",
                 "hmue_sims", "seed", "workers", "no_sv", "tolerance_c"},
    "estimate": {"data", "x", "iv_set", "standard_sets", "hmue_sims", "seed", "levels",
                 "no_sv", "tolerance_c"},
    "rank-ivs": {"data", "x", "iv_set", "standard_sets", "hmue_sims", "seed", "n_boot"},
    "empirical": {"data", "iv_set", "standard_sets", "bandwidth", "tolerance_c"},
}


def test_each_command_takes_only_the_flags_it_reads():
    _, commands = cli._build_parser()
    assert set(commands) == set(COMMAND_FLAGS)
    for name, parser in commands.items():
        dests = {action.dest for action in parser._actions}
        assert dests == COMMAND_FLAGS[name] | {"help", "config", "out"}, name


def _source(command, spec_path, data_path):
    if "spec" in COMMAND_FLAGS[command]:
        return ["--spec", spec_path]
    return ["--data", data_path]


@pytest.mark.parametrize("command, flag", [
    ("dgp-bounds", "--seed=1"), ("surface", "--seed=1"), ("empirical", "--seed=1"),
    ("dgp-bounds", "--levels=0.5"), ("surface", "--levels=0.5"),
    ("empirical", "--levels=0.5"), ("simulate", "--levels=0.5"),
    ("rank-ivs", "--levels=0.5"), ("rank-ivs", "--tolerance-c=0.3"),
])
def test_flags_a_command_does_not_read_exit_2(command, flag, spec_path, data_path,
                                              tmp_path, capsys):
    # these were accepted and changed no output byte
    with pytest.raises(SystemExit) as exc:
        main([command, *_source(command, spec_path, data_path), flag,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _outputs(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _run(argv, out, capsys):
    assert main(argv + ["--out", str(out)]) == 0
    return _outputs(out), capsys.readouterr().out


def _config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command, flags, config", [
    ("dgp-bounds", ["--x=-1", "--x=0.5", "--iv-set=z12:1,2"],
     {"x": ["-1", 0.5], "iv_set": ["z12:1,2"]}),
    ("estimate", ["--standard-sets", "--no-sv", "--hmue-sims=100", "--x=0", "--seed=3"],
     {"standard_sets": True, "no_sv": True, "hmue_sims": 100, "x": [0], "seed": 3}),
    ("simulate", ["--iv-set=z1:1", "--iv-set=z12:1,2", "--sizes=300", "--replications=1",
                  "--hmue-sims=100", "--no-sv", "--tolerance-c=0.3"],
     {"iv_set": ["z1:1", "z12:1,2"], "sizes": 300, "replications": 1, "hmue_sims": 100,
      "no_sv": True, "tolerance_c": 0.3}),
])
def test_config_gives_the_bytes_of_the_flags(command, flags, config, spec_path, data_path,
                                            tmp_path, capsys):
    source = _source(command, spec_path, data_path)
    want = _run([command, *source, *flags], tmp_path / "flags", capsys)
    # the spec or data file comes from the config too
    path = _config(tmp_path, "config.json", {**config, source[0][2:]: source[1]})
    assert _run([command, "--config", path], tmp_path / "config", capsys) == want


def test_command_line_replaces_the_config_list(tmp_path, spec_path, capsys):
    path = _config(tmp_path, "config.json", {"spec": spec_path, "x": ["0", "0.5"]})
    want = _run(["dgp-bounds", "--spec", spec_path, "--x=1"], tmp_path / "flags", capsys)
    assert _run(["dgp-bounds", "--config", path, "--x=1"], tmp_path / "config",
                capsys) == want
    assert [doc["x"] for doc in json.loads(want[0]["bounds.json"])] == [[1.0]]


@pytest.mark.parametrize("command, config, message", [
    ("dgp-bounds", {"toleranse_c": 0.3}, "unknown key 'toleranse_c'"),
    ("dgp-bounds", {"seed": 1}, "unknown key 'seed'"),
    ("dgp-bounds", {"config": "other.json"}, "unknown key 'config'"),
    ("rank-ivs", {"tolerance_c": 0.3}, "unknown key 'tolerance_c'"),
    ("dgp-bounds", {"tolerance_c": "abc"}, "'abc' is not a value of --tolerance-c"),
    ("dgp-bounds", {"tolerance_c": True}, "True is not a value of --tolerance-c"),
    ("dgp-bounds", {"x": "0"}, "'0' is not a value of --x"),
    ("dgp-bounds", {"x": [[0]]}, "[[0]] is not a value of --x"),
    ("dgp-bounds", {"iv_set": "z1:1"}, "'z1:1' is not a value of --iv-set"),
    ("dgp-bounds", {"out": None}, "None is not a value of --out"),
    ("simulate", {"seed": 1.5}, "1.5 is not a value of --seed"),
    ("simulate", {"no_sv": "true"}, "'true' is not a value of --no-sv"),
    ("dgp-bounds", {"tolerance_c": -1}, "tolerance_c must be finite and >= 0"),
])
def test_bad_config_keys_and_values_exit_2(command, config, message, spec_path, data_path,
                                           tmp_path, capsys):
    path = _config(tmp_path, "config.json", config)
    out = tmp_path / "out"
    assert main([command, *_source(command, spec_path, data_path), "--config", path,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("sizes", ["300.9", "300,600.5", "inf", "nan"])
def test_simulate_sizes_must_be_whole(sizes, spec_path, tmp_path, capsys):
    # 300.9 ran n = 300 and recorded [300] in simulation.json
    out = tmp_path / "out"
    assert main(["simulate", "--spec", spec_path, "--iv-set=z1:1", f"--sizes={sizes}",
                 "--replications=1", "--hmue-sims=100", "--no-sv", "--out", str(out)]) == 2
    got = tuple(float(v) for v in sizes.split(","))
    assert f"sample sizes must be whole numbers, got {got}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bandwidth", ["nan", "inf"])
def test_empirical_bandwidth_must_be_finite(bandwidth, data_path, tmp_path, capsys):
    # nan wrote NaN weights and summaries and exited 0
    out = tmp_path / "out"
    assert main(["empirical", "--data", data_path, f"--bandwidth={bandwidth}",
                 "--out", str(out)]) == 2
    assert "--bandwidth must be positive and finite" in capsys.readouterr().err
    assert not out.exists()
