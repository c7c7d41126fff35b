"""The benchmark's workloads: inputs made from a seed, the CLI calls of
one round, and the checks of their outputs.

Every input is generated here: spec documents come from dicts held in
this file and samples are drawn with this file's own numpy code, so a
change to the program's sampler cannot change a workload's data.  The
checks compare the program's output files with `reference`, which does
not import the program.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

import reference as ref

# the criterion-7 lattice that `surface` sweeps by default
GAMMA_LATTICE = np.round(np.arange(-4.0, 4.0001, 0.2), 10)
RHO_LATTICE = np.round(np.arange(-0.99, 0.9901, 0.05), 10)
BETA_LATTICE = (0.05, 0.25, 0.45)
HIGH_RHO = 0.925  # the kernel switches to its dense rule past this |rho|

# per-round sizes, chosen from the steadiness runs (see README.md); the
# surface draws its rhos in the lattice's proportion (3 of 40 are high)
# so that each kernel branch takes the share of a round that it takes of
# a full criterion-7 surface
SURFACE_GAMMAS_PER_SIDE = 2
SURFACE_RHOS = (1, 12)  # (|rho| > HIGH_RHO, |rho| <= HIGH_RHO)
SURFACE_BETAS = 2
ESTIMATE_N = 8000
MC_N = 5000
MC_REPLICATIONS = 5
MC_DRAWS = 200
MC_WORKERS = 2
MC_IIP_BAND = 0.05
RANK_N = 1000
RANK_BOOT = 50

# population IIP of model 3 at rho = 0.5 and x = 0 (the paper's table)
PAPER_IIP = {"z1": 0.305, "z2": 0.493, "z1,z2>0": 0.456, "z1,z2": 0.625}
MC_ORDER = ("z1", "z1,z2>0", "z2", "z1,z2")  # ascending population IIP

# instrument sets as (1-based CLI columns, recode); the standard five
SETS = {
    "z1": ((1,), ("raw",)),
    "z2": ((2,), ("raw",)),
    "z1,z2>0": ((1, 2), ("raw", "gt0")),
    "z1,z2": ((1, 2), ("raw", "raw")),
    "z1,z2,z3": ((1, 2, 3), ("raw", "raw", "raw")),
}

MODEL2 = {
    "alpha": 1.0, "beta": [0.25], "pi": [0.0], "gamma": [1.0], "rho": 0.5,
    "covariate_dist": {"type": "normal", "mean": 0.0, "sd": 1.0},
    "iv_dists": [{"type": "discrete", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}],
}

MODEL3 = {
    "alpha": 1.0, "beta": [1.0], "pi": [-1.0], "gamma": [0.5, 0.2, 0.0], "rho": 0.5,
    "covariate_dist": {"type": "normal", "mean": 0.0, "sd": 1.0},
    "iv_dists": [
        {"type": "discrete", "values": [0.0, 1.0], "probs": [0.5, 0.5]},
        {"type": "discrete", "values": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
         "probs": [0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1]},
        {"type": "discrete", "values": [0.0, 1.0], "probs": [1.0 / 3.0, 2.0 / 3.0]},
    ],
}

# slack for interval containment between quantities computed in
# different orders
_SLACK = 1e-9
# agreement with the reference; a 1e-6 change of a checked value fails
_MATCH = 1e-9
_LOGLIK_MATCH = 1e-7
# largest |d loglik / d theta| accepted at the reported optimum
_GRAD_MAX = 1e-2


@dataclass
class Plan:
    """One workload instance: the argv of each CLI call in a round, the
    output files the round writes, and what the checks need."""

    calls: list
    outputs: list
    context: dict = field(default_factory=dict)


def _rng(seed, workload):
    return np.random.default_rng([int(seed), workload])


def _program_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _iv_flag(name):
    cols, recode = SETS[name]
    text = f"{name}:{','.join(str(c) for c in cols)}"
    if "gt0" in recode:
        text += ":" + ",".join(recode)
    return f"--iv-set={text}"


def draw_model3(spec, n, rng):
    """(y, d, x, z) from the joint threshold-crossing model of a spec
    document with one covariate and independent discrete instruments."""
    cov = spec["covariate_dist"]
    x = rng.normal(cov["mean"], cov["sd"], size=n)
    z = np.column_stack([rng.choice(np.asarray(dist["values"], dtype=float), size=n,
                                    p=np.asarray(dist["probs"], dtype=float))
                         for dist in spec["iv_dists"]])
    e1 = rng.standard_normal(n)
    e2 = spec["rho"] * e1 + math.sqrt(1.0 - spec["rho"] ** 2) * rng.standard_normal(n)
    d = (spec["pi"][0] * x + z @ np.asarray(spec["gamma"]) > e2).astype(float)
    y = (spec["alpha"] * d + spec["beta"][0] * x > e1).astype(float)
    return y, d, x, z


def write_sample(path, y, d, x, z):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "d", "x1"] + [f"z{j}" for j in range(1, z.shape[1] + 1)])
        for i in range(y.size):
            writer.writerow([int(y[i]), int(d[i]), repr(float(x[i]))]
                            + [repr(float(v)) for v in z[i]])


def _sample_plan(seed, workload, n, work):
    rng = _rng(seed, workload)
    y, d, x, z = draw_model3(MODEL3, n, rng)
    data = os.path.join(work, "sample.csv")
    write_sample(data, y, d, x, z)
    return rng, data, {"y": y, "d": d, "x": x, "z": z}


def _load(files, name):
    return json.loads(files[name])


def _within(inner, outer, slack=_SLACK):
    return outer[0] - slack <= inner[0] and inner[1] <= outer[1] + slack


# ---------------------------------------------------------------------------
# population_surface
# ---------------------------------------------------------------------------

def plan_population_surface(seed, work):
    """`surface` on a model-2 grid drawn from the criterion-7 lattice:
    gamma = 0 with a fixed count of nodes on each half-line, a fixed
    count of |rho| > 0.925 nodes and of the others, and a subset of the
    betas, so every seed does the same amount of each kind of work."""
    rng = _rng(seed, 0)
    pos = GAMMA_LATTICE[GAMMA_LATTICE > 0]
    neg = GAMMA_LATTICE[GAMMA_LATTICE < 0]
    gammas = np.sort(np.concatenate([
        rng.choice(neg, SURFACE_GAMMAS_PER_SIDE, replace=False), [0.0],
        rng.choice(pos, SURFACE_GAMMAS_PER_SIDE, replace=False)]))
    high = RHO_LATTICE[np.abs(RHO_LATTICE) > HIGH_RHO]
    low = RHO_LATTICE[np.abs(RHO_LATTICE) <= HIGH_RHO]
    rhos = np.sort(np.concatenate([rng.choice(high, SURFACE_RHOS[0], replace=False),
                                   rng.choice(low, SURFACE_RHOS[1], replace=False)]))
    betas = np.sort(rng.choice(BETA_LATTICE, SURFACE_BETAS, replace=False))
    spec = os.path.join(work, "model2.json")
    _write_json(spec, MODEL2)

    def values(arr):
        return ",".join(repr(float(v)) for v in arr)

    argv = ["surface", "--spec", spec, "--x=0.0",
            f"--gamma={values(gammas)}", f"--rho={values(rhos)}", f"--beta={values(betas)}"]
    return Plan(calls=[argv], outputs=["surface.csv"],
                context={"gammas": gammas, "rhos": rhos, "betas": betas})


def check_population_surface(plan, files):
    nodes = defaultdict(dict)
    reader = csv.DictReader(files["surface.csv"].decode().splitlines())
    for row in reader:
        key = (float(row["gamma"]), float(row["rho"]), float(row["beta"]))
        nodes[key][row["quantity"]] = float(row["value"])
    ctx = plan.context
    errors = []
    want = {(float(g), float(r), float(b))
            for b in ctx["betas"] for g in ctx["gammas"] for r in ctx["rhos"]}
    if set(nodes) != want:
        return [f"surface.csv covers {len(nodes)} nodes, expected {len(want)}"]
    widths = {}
    for (gamma, rho, beta), q in sorted(nodes.items()):
        where = f"node gamma={gamma} rho={rho} beta={beta}"
        spec = dict(MODEL2, beta=[beta], gamma=[gamma], rho=rho)
        r = ref.population_bounds(spec, [0.0], (0,))
        for label, got, exp in (("L_M", q["L_M"], r["manski"][0]),
                                ("U_M", q["U_M"], r["manski"][1]),
                                ("L_bar", q["L_bar"], r["widest"][0]),
                                ("U_bar", q["U_bar"], r["widest"][1]),
                                ("IIP", q["IIP"], r["iip"])):
            if not abs(got - exp) <= _MATCH:
                errors.append(f"{where}: {label} {got!r} != reference {exp!r}")
        manski, widest, sv = ((q["L_M"], q["U_M"]), (q["L_bar"], q["U_bar"]),
                              (q["L_SV"], q["U_SV"]))
        if not (sv[0] - _SLACK <= r["ate"] <= sv[1] + _SLACK):
            errors.append(f"{where}: ATE {r['ate']!r} outside SV {sv}")
        if not (_within(sv, widest) and _within(widest, manski)):
            errors.append(f"{where}: SV {sv} / widest {widest} / Manski {manski} do not nest")
        if gamma == 0.0 and q["IIP"] != 0.0:
            errors.append(f"{where}: IIP {q['IIP']!r} at gamma = 0")
        widths[gamma, rho, beta] = (sv[1] - sv[0], widest[1] - widest[0])
    gammas = sorted(ctx["gammas"])
    for beta in ctx["betas"]:
        for rho in ctx["rhos"]:
            for side in ([g for g in gammas if g >= 0], [g for g in gammas[::-1] if g <= 0]):
                for g_in, g_out in zip(side, side[1:]):
                    w_in = widths[g_in, float(rho), float(beta)]
                    w_out = widths[g_out, float(rho), float(beta)]
                    if w_out[0] > w_in[0] + _SLACK or w_out[1] > w_in[1] + _SLACK:
                        errors.append(f"rho={rho} beta={beta}: widths {w_out} at gamma={g_out} "
                                      f"exceed {w_in} at gamma={g_in}")
    return errors


# ---------------------------------------------------------------------------
# estimate_sv
# ---------------------------------------------------------------------------

def plan_estimate_sv(seed, work):
    """`estimate --standard-sets` with the covariate layer and the
    default 1000 draws on a model-3 sample (normal covariate, rho 0.5)."""
    rng, data, sample = _sample_plan(seed, 1, ESTIMATE_N, work)
    argv = ["estimate", "--data", data, "--standard-sets", "--x=0.0",
            f"--seed={_program_seed(rng)}"]
    return Plan(calls=[argv], outputs=["estimate.csv", "estimate.json"], context=sample)


def _fit_inputs(sample, name):
    cols, recode = SETS[name]
    z = ref.used_columns(sample["z"], [c - 1 for c in cols], recode)
    return sample["y"], sample["d"], sample["x"], z


def check_estimate_sv(plan, files):
    reports = _load(files, "estimate.json")
    errors = []
    if sorted(r["iv_name"] for r in reports) != sorted(SETS):
        return [f"estimate.json holds sets {[r['iv_name'] for r in reports]}"]
    for rep in reports:
        name = rep["iv_name"]
        y, d, x, z = _fit_inputs(plan.context, name)
        theta = np.asarray(rep["fit"]["params"], dtype=float)
        ll = ref.biprobit_loglik(theta, y, d, x, z)
        if not abs(ll - rep["fit"]["loglik"]) <= _LOGLIK_MATCH:
            errors.append(f"{name}: loglik {rep['fit']['loglik']!r} != reference {ll!r}")
        grad = ref.loglik_gradient(theta, y, d, x, z)
        if not np.max(np.abs(grad)) <= _GRAD_MAX:
            errors.append(f"{name}: reference gradient {np.max(np.abs(grad)):.3g} "
                          f"at the reported optimum")
        plug = ref.plugin_bounds(theta, rep["x"], z)
        for label, got, exp in (("point_manski", rep["point_manski"], plug["manski"]),
                                ("point_widest", rep["point_widest"], plug["widest"])):
            if not (abs(got[0] - exp[0]) <= _MATCH and abs(got[1] - exp[1]) <= _MATCH):
                errors.append(f"{name}: {label} {got} != reference {list(exp)}")
        if not abs(rep["point_iip"] - plug["iip"]) <= _MATCH:
            errors.append(f"{name}: point_iip {rep['point_iip']!r} != reference {plug['iip']!r}")
        levels = sorted(rep["levels"].items(), key=lambda kv: float(kv[0]))
        for kind in ("manski", "widest", "sv"):
            point = rep[f"point_{kind}"]
            if rep["levels"]["0.5"][kind] != rep[kind]:
                errors.append(f"{name}: headline {kind} differs from level 0.5")
            prev = point
            for level, ivs in levels:
                if not _within(point, ivs[kind], 1e-12):
                    errors.append(f"{name}: {kind} at level {level} {ivs[kind]} "
                                  f"excludes the plug-in {point}")
                if not _within(prev, ivs[kind], 1e-12):
                    errors.append(f"{name}: {kind} at level {level} {ivs[kind]} "
                                  f"is inside the previous level {prev}")
                prev = ivs[kind]
    return errors


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

def plan_monte_carlo(seed, work):
    """`simulate --no-sv --workers 2` on model 3 at one large n with the
    sets z1, z2, z1,z2>0 and z1,z2 (acceptance criterion 8)."""
    rng = _rng(seed, 2)
    spec = os.path.join(work, "model3.json")
    _write_json(spec, MODEL3)
    argv = (["simulate", "--spec", spec] + [_iv_flag(name) for name in MC_ORDER]
            + [f"--sizes={MC_N}", f"--replications={MC_REPLICATIONS}",
               f"--hmue-sims={MC_DRAWS}", f"--workers={MC_WORKERS}", "--no-sv",
               "--x=0.0", f"--seed={_program_seed(rng)}"])
    return Plan(calls=[argv], outputs=["simulation_wide.csv", "simulation.json"])


def check_monte_carlo(plan, files):
    payload = _load(files, "simulation.json")
    errors = []
    cells = {row["iv_set"]: row for row in payload["cells"]}
    if sorted(cells) != sorted(MC_ORDER):
        return [f"simulation.json holds sets {sorted(cells)}"]
    for name in MC_ORDER:
        cols, recode = SETS[name]
        r = ref.population_bounds(MODEL3, [0.0], [c - 1 for c in cols], recode)
        truth = payload["truth"][name]
        for label, got, exp in (("manski", truth["manski"], r["manski"]),
                                ("widest", truth["widest"], r["widest"])):
            if not (abs(got[0] - exp[0]) <= _MATCH and abs(got[1] - exp[1]) <= _MATCH):
                errors.append(f"{name}: truth {label} {got} != reference {list(exp)}")
        if not abs(truth["iip"] - r["iip"]) <= _MATCH:
            errors.append(f"{name}: truth IIP {truth['iip']!r} != reference {r['iip']!r}")
        if not abs(truth["iip"] - PAPER_IIP[name]) <= 1e-3:
            errors.append(f"{name}: truth IIP {truth['iip']:.4f} != paper {PAPER_IIP[name]}")
        cell = cells[name]
        if cell["failures"] != 0 or cell["replications"] != MC_REPLICATIONS:
            errors.append(f"{name}: {cell['replications']} replications, "
                          f"{cell['failures']} failures")
        if not abs(cell["IIP"] - truth["iip"]) <= MC_IIP_BAND:
            errors.append(f"{name}: mean IIP {cell['IIP']:.4f} is more than {MC_IIP_BAND} "
                          f"from the truth {truth['iip']:.4f}")
    means = [cells[name]["IIP"] for name in MC_ORDER]
    if not all(a < b for a, b in zip(means, means[1:])):
        errors.append(f"mean IIP {dict(zip(MC_ORDER, means))} out of the population order")
    return errors


# ---------------------------------------------------------------------------
# rank_ivs
# ---------------------------------------------------------------------------

RANK_SETS = ("z1,z2", "z1,z2,z3")


def plan_rank_ivs(seed, work):
    """`rank-ivs` on the irrelevant-instrument pair z1,z2 and z1,z2,z3
    with the minimum of 50 bootstrap replicates."""
    rng, data, _ = _sample_plan(seed, 3, RANK_N, work)
    argv = (["rank-ivs", "--data", data] + [_iv_flag(name) for name in RANK_SETS]
            + [f"--n-boot={RANK_BOOT}", "--x=0.0", f"--seed={_program_seed(rng)}"])
    return Plan(calls=[argv], outputs=["ranking.csv", "ranking.json"])


def check_rank_ivs(plan, files):
    rows = _load(files, "ranking.json")
    errors = []
    if sorted(row["iv_set"] for row in rows) != sorted(RANK_SETS):
        return [f"ranking.json holds sets {[row['iv_set'] for row in rows]}"]
    z975 = float(ndtri(0.975))
    for rank, row in enumerate(rows, start=1):
        name, sd, point = row["iv_set"], row["boot_sd"], row["IIP_point"]
        cols, recode = SETS[name]
        pop = ref.population_bounds(MODEL3, [0.0], [c - 1 for c in cols], recode)["iip"]
        if row["rank"] != rank:
            errors.append(f"{name}: rank {row['rank']} in row {rank}")
        if not row["relevance_p"] < 0.05:
            errors.append(f"{name}: relevance p-value {row['relevance_p']!r}")
        if not (math.isfinite(sd) and sd > 0.0):
            errors.append(f"{name}: boot_sd {sd!r}")
            continue
        if not abs(point - pop) <= 4.0 * sd:
            errors.append(f"{name}: IIP_point {point:.4f} is more than 4 boot_sd "
                          f"({sd:.4f}) from the population {pop:.4f}")
        if not (abs(row["ci_lo"] - (point - z975 * sd)) <= 1e-12
                and abs(row["ci_hi"] - (point + z975 * sd)) <= 1e-12):
            errors.append(f"{name}: ci [{row['ci_lo']!r}, {row['ci_hi']!r}] is not "
                          f"IIP_point +- {z975:.4f} boot_sd")
        if row["possibly_irrelevant"] != (row["ci_lo"] <= 0.0):
            errors.append(f"{name}: possibly_irrelevant disagrees with ci_lo")
    iips = [row["IIP"] for row in rows]
    if iips != sorted(iips, reverse=True):
        errors.append(f"ranking is not by descending IIP: {iips}")
    return errors


# BENCHMARK.json measures the first two; the others run by name only,
# because their figures did not repeat between runs (see README.md)
WORKLOADS = {
    "population_surface": (plan_population_surface, check_population_surface),
    "monte_carlo": (plan_monte_carlo, check_monte_carlo),
    "estimate_sv": (plan_estimate_sv, check_estimate_sv),
    "rank_ivs": (plan_rank_ivs, check_rank_ivs),
}
