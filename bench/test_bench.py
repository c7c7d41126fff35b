"""Tests of the benchmark itself: `python3 -m pytest bench`.

The reference computations are checked against mpmath and closed forms,
every check that compares an output value with the reference is shown
to fail when that value moves by 1e-6, and the command is run end to
end in both modes and in a tree without the package.
"""

import contextlib
import copy
import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import reference as ref
import run
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
BUMP = 1e-6


def _mp_binorm(h, k, rho):
    """Phi2 as a one-dimensional integral in 40-digit arithmetic."""
    mpmath.mp.dps = 40
    h, k, rho = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
    s = mpmath.sqrt(1 - rho * rho)
    return mpmath.quad(lambda t: mpmath.npdf(t) * mpmath.ncdf((k - rho * t) / s),
                       [-mpmath.inf, min(h, k / rho if rho else h), h])


@pytest.mark.parametrize("seed", range(4))
def test_binorm_matches_mpmath(seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(-4.0, 4.0, 12)
    k = rng.uniform(-4.0, 4.0, 12)
    rho = rng.choice([-0.99, -0.95, -0.6, -0.1, 0.0, 0.3, 0.8, 0.93, 0.97, 0.999], 12)
    got = ref.binorm_cdf(h, k, rho)
    for i in range(h.size):
        want = float(_mp_binorm(h[i], k[i], rho[i]))
        assert abs(got[i] - want) <= 1e-14, (h[i], k[i], rho[i])


def test_binorm_axes_match_mpmath():
    for h, k, rho in ((0.0, 1.3, 0.5), (0.0, -1.3, 0.5), (-0.7, 0.0, -0.8), (2.0, 0.0, 0.95)):
        assert abs(float(ref.binorm_cdf(h, k, rho)) - float(_mp_binorm(h, k, rho))) <= 1e-14


def test_binorm_closed_form_at_origin():
    rho = np.linspace(-0.999, 0.999, 201)
    closed = 0.25 + np.arcsin(rho) / (2.0 * math.pi)
    assert np.max(np.abs(ref.binorm_cdf(0.0, 0.0, rho) - closed)) <= 1e-15


def test_population_bounds_paper_values():
    for name, want in W.PAPER_IIP.items():
        cols, recode = W.SETS[name]
        got = ref.population_bounds(W.MODEL3, [0.0], [c - 1 for c in cols], recode)
        assert got["iip"] == pytest.approx(want, abs=1e-3)
        assert got["ate"] == pytest.approx(0.341, abs=5e-4)


def test_loglik_and_gradient_agree_with_the_analytic_ones():
    # the program's closed-form gradient against this file's differences
    from ivpower.estimation import Dataset, biprobit_loglik

    rng = np.random.default_rng(5)
    y, d, x, z = W.draw_model3(W.MODEL3, 400, rng)
    data = Dataset(y=y, d=d, x=x, z=z[:, :2])
    for _ in range(5):
        theta = rng.normal(scale=0.35, size=8)
        ll, grad = biprobit_loglik(theta, data)
        assert ref.biprobit_loglik(theta, y, d, x, z[:, :2]) == pytest.approx(ll, abs=1e-9)
        np.testing.assert_allclose(ref.loglik_gradient(theta, y, d, x, z[:, :2]), grad,
                                   rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One round of every workload (seed 1): its plan and output bytes."""
    cli = run._import_package()
    done = {}
    for name, (make, _) in W.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        plan = make(1, str(work))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(plan.calls[0] + ["--out", str(work / "out")]) == 0
        done[name] = (plan, {f: (work / "out" / f).read_bytes() for f in plan.outputs})
    return done


def _check(outputs, name, files=None):
    plan, original = outputs[name]
    return W.WORKLOADS[name][1](plan, files or original)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_unperturbed_outputs_pass(outputs, name):
    assert _check(outputs, name) == []


def _bump_json(files, fname, path):
    doc = json.loads(files[fname])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += BUMP
    return {**files, fname: json.dumps(doc).encode()}


@pytest.mark.parametrize("quantity", ["L_M", "U_M", "L_bar", "U_bar", "IIP"])
def test_surface_check_sees_a_bump(outputs, quantity):
    plan, files = outputs["population_surface"]
    rows = list(csv.reader(files["surface.csv"].decode().splitlines()))
    target = next(i for i, row in enumerate(rows)
                  if row[3] == quantity and float(row[0]) != 0.0 and float(row[1]) > 0.9)
    rows[target][4] = repr(float(rows[target][4]) + BUMP)
    text = "\n".join(",".join(row) for row in rows) + "\n"
    assert _check(outputs, "population_surface", {"surface.csv": text.encode()})


def test_surface_check_sees_iip_at_gamma_zero(outputs):
    plan, files = outputs["population_surface"]
    rows = list(csv.reader(files["surface.csv"].decode().splitlines()))
    target = next(i for i, row in enumerate(rows) if row[3] == "IIP" and float(row[0]) == 0.0)
    rows[target][4] = repr(BUMP)
    text = "\n".join(",".join(row) for row in rows) + "\n"
    errors = _check(outputs, "population_surface", {"surface.csv": text.encode()})
    assert any("gamma = 0" in e for e in errors)


@pytest.mark.parametrize("path", [
    (0, "fit", "loglik"), (0, "fit", "params", 0), (4, "fit", "params", 6),
    (2, "point_widest", 0), (2, "point_widest", 1), (3, "point_manski", 1),
    (1, "point_iip"), (1, "manski", 0), (3, "levels", "0.5", "sv", 1),
])
def test_estimate_check_sees_a_bump(outputs, path):
    _, files = outputs["estimate_sv"]
    assert _check(outputs, "estimate_sv", _bump_json(files, "estimate.json", path))


def test_estimate_check_sees_a_level_inside_the_plugin(outputs):
    _, files = outputs["estimate_sv"]
    doc = json.loads(files["estimate.json"])
    level = doc[0]["levels"]["0.99"]["widest"]
    level[0] = doc[0]["point_widest"][0] + BUMP
    errors = _check(outputs, "estimate_sv", {**files, "estimate.json": json.dumps(doc).encode()})
    assert any("excludes the plug-in" in e for e in errors)


@pytest.mark.parametrize("path", [
    ("truth", "z1", "iip"), ("truth", "z2", "widest", 0), ("truth", "z1,z2", "manski", 1),
])
def test_monte_carlo_check_sees_a_bump(outputs, path):
    _, files = outputs["monte_carlo"]
    assert _check(outputs, "monte_carlo", _bump_json(files, "simulation.json", path))


def test_monte_carlo_check_sees_a_swapped_order(outputs):
    _, files = outputs["monte_carlo"]
    doc = json.loads(files["simulation.json"])
    cells = {row["iv_set"]: row for row in doc["cells"]}
    cells["z2"]["IIP"], cells["z1,z2>0"]["IIP"] = cells["z1,z2>0"]["IIP"], cells["z2"]["IIP"]
    errors = _check(outputs, "monte_carlo", {**files, "simulation.json": json.dumps(doc).encode()})
    assert any("population order" in e for e in errors)


@pytest.mark.parametrize("field", ["IIP_point", "boot_sd", "ci_lo", "ci_hi"])
def test_rank_check_sees_a_bump(outputs, field):
    _, files = outputs["rank_ivs"]
    assert _check(outputs, "rank_ivs", _bump_json(files, "ranking.json", (1, field)))


def test_rank_check_sees_an_irrelevant_set(outputs):
    _, files = outputs["rank_ivs"]
    doc = json.loads(files["ranking.json"])
    doc[0]["relevance_p"] = 0.2
    errors = _check(outputs, "rank_ivs", {**files, "ranking.json": json.dumps(doc).encode()})
    assert any("relevance" in e for e in errors)


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(cwd, *args):
    cmd = _bench()["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _command(ROOT, "--workload", "population_surface", "--seed", "3",
                    "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in _bench()[kind]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "1":
        assert values["gaussian.binorm_cdf.points_high_rho"] > 0
        nodes = ((2 * W.SURFACE_GAMMAS_PER_SIDE + 1) * sum(W.SURFACE_RHOS)
                 * W.SURFACE_BETAS)
        assert values["bounds.population_report.calls"] == nodes
        assert 0 <= values["trace.unattributed_s"] < values["cli.main.total_s"]
    else:
        assert all(v > 0 for v in values.values())


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in _bench()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _command(tmp_path, "--workload", "rank_ivs", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _FakeCli:
    """A CLI whose calls return the given codes in turn (an exception is
    raised) and write out.txt when they succeed."""

    def __init__(self, *results):
        self.results = list(results)

    def main(self, argv):
        result = self.results.pop(0)
        if isinstance(result, Exception):
            raise result
        if result == 0:
            Path(argv[-1]).mkdir(exist_ok=True)
            (Path(argv[-1]) / "out.txt").write_text("same")
        return result


def _runner(cli, tmp_path):
    plan = W.Plan(calls=[["call"]], outputs=["out.txt"])
    return run.Runner(cli, plan, lambda plan, files: [], str(tmp_path / "out"))


def test_failed_rounds_are_neither_timed_nor_checked(tmp_path):
    runner = _runner(_FakeCli(1, RuntimeError("crash")), tmp_path)
    runner.round()
    runner.round()
    assert (runner.attempted, runner.failed, runner.ok_times) == (2, 2, [])
    assert not runner.verify()


def test_only_complete_rounds_are_timed(tmp_path):
    runner = _runner(_FakeCli(0, 1, 0), tmp_path)
    times = [runner.round() for _ in range(3)]
    assert runner.ok_times == [times[0], times[2]]
    assert (runner.attempted, runner.failed) == (3, 1)
    assert runner.verify()


def test_tracer_restores_the_package():
    cli = run._import_package()
    import tracer as tracing
    modules = {name: sys.modules[f"ivpower.{name}"]
               for name in ("gaussian", "dgp", "bounds", "estimation", "simulation", "cli")}
    before = {name: copy.copy(vars(mod)) for name, mod in modules.items()}
    t = tracing.Tracer()
    t.install(modules)
    assert modules["estimation"].binorm_cdf is not before["estimation"]["binorm_cdf"]
    t.uninstall()
    for name, mod in modules.items():
        assert all(vars(mod)[k] is v for k, v in before[name].items())
    assert cli.main is before["cli"]["main"]
