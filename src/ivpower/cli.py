"""Command-line interface and report I/O.

Subcommands: population reports from a model spec (dgp-bounds), grid
surfaces (surface), Monte Carlo replications (simulate), estimation from
a dataset (estimate), instrument-set ranking with bootstrap dispersion
(rank-ivs), and the two-stage empirical pipeline that reduces covariates
to a propensity index and averages bounds with kernel-density weights
(empirical).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np
from scipy.special import ndtr
from scipy.stats import chi2

from .bounds import REPORT_COLUMNS, MatchConfig, population_report, report_columns
from .dgp import IvSet, spec_from_dict, spec_to_dict
from .estimation import (
    GRID_LEVELS, Dataset, EstimatedReport, HmueConfig,
    bootstrap_dispersion, estimated_report, fit_probit, fit_set,
    quantile_grid, read_dataset_csv, with_intercept,
)
from .gaussian import norm_ppf
from .simulation import (
    McDesign, rank_entries, rank_iv_sets, run_monte_carlo, standard_iv_sets,
    surface_grid, table_rows,
)

# a report's CSV row: the evaluation point, then the report columns
ROW_COLUMNS = ("x",) + REPORT_COLUMNS


class ConfigError(Exception):
    """Bad flags, config file, or model spec (exit code 2)."""


class DataError(Exception):
    """Unreadable or malformed dataset (exit code 3)."""


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _interval_out(iv):
    return [float(iv.lower), float(iv.upper)]


def fit_to_dict(fit):
    return {
        "names": list(fit.names),
        "params": [float(v) for v in fit.params],
        "loglik": float(fit.loglik),
        "vcov": [[float(v) for v in row] for row in fit.vcov],
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
    }


def report_to_dict(rep):
    """JSON-ready dict for a population or estimated report."""
    out = {
        "kind": "estimated" if isinstance(rep, EstimatedReport) else "population",
        "x": [float(v) for v in rep.x],
        "sign": None if rep.sign is None else int(rep.sign),
        "irrelevant": bool(rep.irrelevant),
        "manski": _interval_out(rep.manski),
        "widest": _interval_out(rep.widest),
        "sv": _interval_out(rep.sv),
        "c1": float(rep.c1), "c2": float(rep.c2),
        "c3": float(rep.c3), "c4": float(rep.c4),
        "iip": float(rep.iip),
        "cps_lo": float(rep.cps_lo), "cps_hi": float(rep.cps_hi),
        "ate_model": float(rep.ate_model),
    }
    if isinstance(rep, EstimatedReport):
        out["point_manski"] = _interval_out(rep.point_manski)
        out["point_widest"] = _interval_out(rep.point_widest)
        out["point_sv"] = _interval_out(rep.point_sv)
        out["point_iip"] = float(rep.point_iip)
        out["levels"] = {
            repr(float(q)): {k: _interval_out(v) for k, v in iv.items()}
            for q, iv in rep.levels.items()
        }
        out["flip_rate"] = float(rep.flip_rate)
        out["fit"] = fit_to_dict(rep.fit)
        out["spec"] = spec_to_dict(rep.spec)
        out["iv_name"] = rep.iv_name
    return out


def _sign_cell(sign):
    return "" if sign is None else int(sign)


def report_row(rep):
    """One wide CSV row (ROW_COLUMNS order) from a report."""
    return {**report_columns(rep), "x": ";".join(repr(float(v)) for v in rep.x),
            "sign": _sign_cell(rep.sign)}


# ---------------------------------------------------------------------------
# file and flag plumbing
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    """Rows are dicts keyed by header names; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in header])


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None


def load_spec(path):
    payload = _load_json(path, "spec file")
    try:
        return spec_from_dict(payload)
    except KeyError as exc:
        raise ConfigError(f"spec file {path!r}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spec file {path!r}: {exc}") from None


def _read_data(path):
    try:
        return read_dataset_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path!r}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"dataset {path!r}: {exc}") from None


def _parse_values(text):
    """Comma list of floats, or an inclusive start:step:stop lattice."""
    text = text.strip()
    try:
        if ":" in text:
            start, step, stop = (float(t) for t in text.split(":"))
            if step == 0.0 or (stop - start) * step < 0.0:
                raise ConfigError(f"bad grid {text!r}")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + i * step for i in range(count)]
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse numbers in {text!r}") from None


def _parse_points(texts, k):
    if not texts:
        return [tuple(0.0 for _ in range(k))]
    points = []
    for text in texts:
        point = tuple(_parse_values(text))
        if len(point) != k:
            raise ConfigError(
                f"evaluation point {text!r} has {len(point)} coordinates, "
                f"the model has {k} covariates")
        if not all(math.isfinite(v) for v in point):
            raise ConfigError(f"evaluation point {text!r} is not finite")
        points.append(point)
    return points


def _one_point(args, k):
    """The single evaluation point of a command that takes one --x."""
    if len(args.x or ()) > 1:
        raise ConfigError(f"{args.command} takes one evaluation point: give --x once")
    return _parse_points(args.x, k)[0]


def _parse_ivset(text, n_instruments):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(
            f"iv set {text!r}: expected 'NAME:COL[,COL...]' or "
            f"'NAME:COL,...:RECODE,...' with 1-based instrument columns")
    name = parts[0].strip()
    try:
        use = tuple(int(t) - 1 for t in parts[1].split(","))
    except ValueError:
        raise ConfigError(f"iv set {text!r}: columns must be integers") from None
    if any(not 0 <= u < n_instruments for u in use):
        raise ConfigError(f"iv set {text!r}: instrument columns are 1..{n_instruments}")
    recode = tuple(t.strip() for t in parts[2].split(",")) if len(parts) == 3 else None
    try:
        if recode is None:
            return IvSet(name, use=use)
        return IvSet(name, use=use, recode=recode)
    except ValueError as exc:
        raise ConfigError(f"iv set {text!r}: {exc}") from None


def _collect_ivsets(args, n_instruments):
    sets = []
    if getattr(args, "standard_sets", False):
        if n_instruments != 3:
            raise ConfigError("--standard-sets needs exactly 3 instrument columns")
        sets.extend(standard_iv_sets())
    for text in args.iv_set or ():
        sets.append(_parse_ivset(text, n_instruments))
    if not sets:
        sets.append(IvSet("all", use=tuple(range(n_instruments))))
    names = [s.name for s in sets]
    if len(set(names)) != len(names):
        raise ConfigError("instrument set names must be unique")
    return tuple(sets)


def _opt(args, name, default):
    value = getattr(args, name, None)
    if value is None:
        value = args._config.get(name)
    return default if value is None else value


def _match_config(args):
    return MatchConfig(tolerance_c=float(_opt(args, "tolerance_c", 0.01)))


def _hmue_config(args, seed):
    levels = _opt(args, "levels", None)
    kwargs = {"n_sim": int(_opt(args, "hmue_sims", 1000)), "seed": seed}
    if levels is not None:
        kwargs["levels"] = tuple(float(v) for v in _parse_values(levels))
    try:
        return HmueConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _out_dir(args):
    out = _opt(args, "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _echo_report(rep, label):
    def span(iv):
        return f"[{iv.lower: .4f},{iv.upper: .4f}]"

    sign = {None: "none", 1: "+", -1: "-", 0: "0"}[rep.sign]
    print(f"{label}  sign={sign}  manski={span(rep.manski)}  "
          f"widest={span(rep.widest)}  sv={span(rep.sv)}")
    print(f"{'':{len(label)}}  C=({rep.c1:.4f}, {rep.c2:.4f}, "
          f"{rep.c3:.4f}, {rep.c4:.4f})  IIP={rep.iip:.4f}"
          + ("  [irrelevant instruments]" if rep.irrelevant else ""))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dgp_bounds(args):
    spec = load_spec(args.spec)
    match = _match_config(args)
    ivset = None
    if args.iv_set:
        ivset = _parse_ivset(args.iv_set, spec.n_instruments)
    points = _parse_points(args.x, spec.n_covariates)
    out = _out_dir(args)

    reports = [population_report(spec, x, ivset, match) for x in points]
    write_csv(os.path.join(out, "bounds.csv"), ROW_COLUMNS,
              [report_row(rep) for rep in reports])
    write_json(os.path.join(out, "bounds.json"),
               [report_to_dict(rep) for rep in reports])
    for rep in reports:
        _echo_report(rep, f"x={','.join(repr(float(v)) for v in rep.x)}")
    return 0


def cmd_surface(args):
    spec = load_spec(args.spec)
    if spec.n_instruments != 1 or spec.n_covariates != 1:
        raise ConfigError("surface sweeps need a one-covariate, "
                          "one-instrument spec template")
    gammas = _parse_values(_opt(args, "gamma", "-4:0.2:4"))
    rhos = _parse_values(_opt(args, "rho", "-0.99:0.05:0.99"))
    betas = _parse_values(_opt(args, "beta", "0.05,0.25,0.45"))
    x = _one_point(args, 1)
    out = _out_dir(args)

    rows = surface_grid(spec, gammas, rhos, betas, x, match=_match_config(args))
    write_csv(os.path.join(out, "surface.csv"),
              ("gamma", "rho", "beta", "quantity", "value"), rows)
    print(f"surface.csv: {len(rows)} rows "
          f"({len(betas)} beta x {len(gammas)} gamma x {len(rhos)} rho)")
    return 0


def cmd_simulate(args):
    spec = load_spec(args.spec)
    iv_sets = _collect_ivsets(args, spec.n_instruments)
    seed = int(_opt(args, "seed", 0))
    sizes = [int(v) for v in _parse_values(_opt(args, "sizes", "500,5000"))]
    design = McDesign(
        spec=spec, iv_sets=iv_sets, sample_sizes=sizes,
        replications=int(_opt(args, "replications", 200)),
        x_eval=_one_point(args, spec.n_covariates),
        seed=seed, hmue=_hmue_config(args, seed),
        match=_match_config(args), record_sv=not args.no_sv,
    )
    result = run_monte_carlo(design, workers=int(_opt(args, "workers", 1)))
    out = _out_dir(args)

    rows = table_rows(result)
    header = tuple(rows[0].keys())
    write_csv(os.path.join(out, "simulation_wide.csv"), header, rows)
    write_json(os.path.join(out, "simulation.json"), {
        "seed": design.seed,
        "replications": design.replications,
        "sample_sizes": list(design.sample_sizes),
        "x_eval": list(design.x_eval),
        "record_sv": design.record_sv,
        "failure_alarm": bool(result.failure_alarm),
        "cells": rows,
        "truth": {name: report_to_dict(rep) for name, rep in result.truth.items()},
    })
    for row in rows:
        print(f"n={row['n']:<6} {row['iv_set']:<12} IIP={row['IIP']:.4f} "
              f"sv=[{row['L_SV']: .4f},{row['U_SV']: .4f}] "
              f"failures={row['failures']}")
    for n in design.sample_sizes:
        order = " > ".join(name for name, _, _ in rank_iv_sets(result, n))
        print(f"ranking at n={n}: {order}")
    if result.failure_alarm:
        print("warning: more than 2% of replicate fits failed", file=sys.stderr)
    return 0


def cmd_estimate(args):
    data = _read_data(args.data)
    iv_sets = _collect_ivsets(args, data.n_instruments)
    match = _match_config(args)
    seed = int(_opt(args, "seed", 0))
    hmue = _hmue_config(args, seed)
    points = _parse_points(args.x, data.n_covariates)
    out = _out_dir(args)

    reports = []
    for ivset in iv_sets:
        for x in points:
            rep = estimated_report(data, ivset, x, match, hmue,
                                   grid=x if args.no_sv else None)
            reports.append(rep)
            _echo_report(rep, f"{ivset.name} x={','.join(repr(float(v)) for v in x)}")
    write_csv(os.path.join(out, "estimate.csv"),
              ("iv_set",) + ROW_COLUMNS,
              [{"iv_set": rep.iv_name, **report_row(rep)} for rep in reports])
    write_json(os.path.join(out, "estimate.json"),
               [report_to_dict(rep) for rep in reports])
    return 0


def _relevance_pvalue(fit):
    """Wald test of all treatment-equation instrument coefficients."""
    idx = [i for i, name in enumerate(fit.names) if name.startswith("gamma")]
    coef = fit.params[idx]
    block = fit.vcov[np.ix_(idx, idx)]
    stat = float(coef @ np.linalg.solve(block, coef))
    return float(chi2.sf(stat, len(idx)))


def cmd_rank_ivs(args):
    data = _read_data(args.data)
    iv_sets = _collect_ivsets(args, data.n_instruments)
    match = _match_config(args)
    seed = int(_opt(args, "seed", 0))
    n_boot = int(_opt(args, "n_boot", 200))
    x = _one_point(args, data.n_covariates)
    out = _out_dir(args)
    z975 = norm_ppf(0.975)

    stats = {}
    widths = {}
    for si, ivset in enumerate(iv_sets):
        rep = estimated_report(data, ivset, x, match, _hmue_config(args, seed), grid=x)
        boot_seed = int(np.random.SeedSequence(
            entropy=seed, spawn_key=(7, si)).generate_state(1, np.uint64)[0])
        boot = bootstrap_dispersion(data, ivset, x, n_boot=n_boot, seed=boot_seed)
        sd = boot.sd
        half = z975 * sd if np.isfinite(sd) else math.inf
        # identification power is discontinuous at irrelevance (it drops
        # to 0 there but not in the limit), so the interval keeps the
        # degenerate value whenever joint relevance cannot be rejected
        relevance_p = _relevance_pvalue(rep.fit)
        ci_lo = rep.point_iip - half
        if relevance_p >= 0.05:
            ci_lo = min(ci_lo, 0.0)
        stats[ivset.name] = {
            "iv_set": ivset.name,
            "IIP": rep.iip,
            "IIP_point": rep.point_iip,
            "boot_sd": sd,
            "ci_lo": ci_lo,
            "ci_hi": rep.point_iip + half,
            "relevance_p": relevance_p,
            "boot_failures": boot.n_failed,
            "possibly_irrelevant": bool(ci_lo <= 0.0),
        }
        widths[ivset.name] = rep.widest.width

    order = rank_entries([(name, s["IIP"], widths[name]) for name, s in stats.items()])
    rows = []
    for rank, (name, _, _) in enumerate(order, start=1):
        rows.append({"rank": rank, **stats[name]})
        flag = "  possibly irrelevant" if stats[name]["possibly_irrelevant"] else ""
        print(f"{rank}. {name:<12} IIP={stats[name]['IIP']:.4f} "
              f"ci=[{stats[name]['ci_lo']: .4f},{stats[name]['ci_hi']: .4f}]{flag}")
    write_csv(os.path.join(out, "ranking.csv"),
              ("rank", "iv_set", "IIP", "IIP_point", "boot_sd", "ci_lo",
               "ci_hi", "relevance_p", "boot_failures",
               "possibly_irrelevant"), rows)
    write_json(os.path.join(out, "ranking.json"), rows)
    return 0


# ---------------------------------------------------------------------------
# empirical pipeline
# ---------------------------------------------------------------------------

def silverman_bandwidth(values):
    """Rule-of-thumb kernel bandwidth 0.9 min(sd, iqr/1.34) n^(-1/5)."""
    values = np.asarray(values, dtype=float)
    sd = float(values.std(ddof=1))
    q25, q75 = np.quantile(values, [0.25, 0.75])
    spread = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    return 0.9 * spread * values.size ** (-0.2)


def kernel_weights(values, grid, bandwidth):
    """Gaussian kernel density of ``values`` at ``grid``, normalized to
    sum to one over the grid points."""
    if bandwidth <= 0.0:
        raise ConfigError("kernel bandwidth must be positive")
    u = (grid[:, None] - values[None, :]) / bandwidth
    dens = np.exp(-0.5 * u * u).mean(axis=1)
    total = dens.sum()
    if total <= 0.0:
        raise ConfigError("kernel weights vanished on the evaluation grid")
    return dens / total


_CURVE_COLUMNS = ("iv_set", "q", "x_p", "weight") + REPORT_COLUMNS


def propensity_index(data):
    """Stage 1: probit of the treatment on all covariates, returning the
    fitted propensity per observation."""
    if data.n_covariates < 1:
        raise ConfigError("the empirical pipeline needs covariate columns")
    names = ("const",) + tuple(f"x{j}" for j in range(1, data.n_covariates + 1))
    design = with_intercept(data.x)
    fit = fit_probit(data.d, design, names)
    return fit, ndtr(design @ fit.params)


def empirical_curves(data, iv_sets, match, bandwidth=None):
    """Bounds, decomposition, and identification power along the
    propensity-index grid, with kernel-density weights.

    Stage 1 collapses the covariates to the treatment propensity; stage
    2 refits the joint model per instrument set with that index as the
    single covariate.  The benchmark columns come from an instrument-free
    probit of the agreement indicator 1[y=d] on the index, so they are
    identical across instrument sets.
    """
    stage1, xp = propensity_index(data)
    grid_aug = quantile_grid(xp)
    grid = grid_aug[:, 1]
    if grid.size < 2:
        raise DataError("propensity index is degenerate")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(xp)
    weights = kernel_weights(xp, grid, bandwidth)

    agree = (data.y == data.d).astype(float)
    afit = fit_probit(agree, with_intercept(xp[:, None]), ("const", "x1"))
    pr_agree = ndtr(afit.params[0] + afit.params[1] * grid)

    index_data = Dataset(y=data.y, d=data.d, x=xp[:, None], z=data.z)
    curves = []
    fits = {}
    for ivset in iv_sets:
        fit, spec_hat, iv_id = fit_set(index_data, ivset)
        fits[ivset.name] = fit
        for j, g in enumerate(grid):
            rep = population_report(spec_hat, grid_aug[j], iv_id, match, grid=grid_aug)
            row = report_columns(rep)
            lo, up = pr_agree[j] - 1.0, pr_agree[j]
            if rep.irrelevant:
                row.update(L_bar=lo, U_bar=up, L_SV=lo, U_SV=up, C4=1.0)
            row.update(iv_set=ivset.name, x_p=g, weight=weights[j],
                       q=GRID_LEVELS[j] if grid.size == GRID_LEVELS.size else math.nan,
                       L_M=lo, U_M=up, sign=_sign_cell(rep.sign))
            curves.append(row)
    return stage1, fits, float(bandwidth), grid, weights, curves


def weighted_summary(curves, iv_names):
    """Kernel-weighted averages of every numeric curve column per set."""
    numeric = [c for c in REPORT_COLUMNS if c != "sign"]
    rows = []
    for name in iv_names:
        sub = [row for row in curves if row["iv_set"] == name]
        wts = np.array([row["weight"] for row in sub])
        wts = wts / wts.sum()
        out = {"iv_set": name}
        for col in numeric:
            out[col] = float(np.dot(wts, [row[col] for row in sub]))
        rows.append(out)
    return rows


def cmd_empirical(args):
    data = _read_data(args.data)
    iv_sets = _collect_ivsets(args, data.n_instruments)
    match = _match_config(args)
    bw_text = _opt(args, "bandwidth", "silverman")
    if bw_text == "silverman":
        bandwidth = None
    else:
        try:
            bandwidth = float(bw_text)
        except ValueError:
            raise ConfigError("--bandwidth takes a number or 'silverman'") from None
        if bandwidth <= 0.0:
            raise ConfigError("--bandwidth must be positive")
    out = _out_dir(args)

    stage1, fits, bw, grid, weights, curves = empirical_curves(
        data, iv_sets, match, bandwidth)
    summary = weighted_summary(curves, [s.name for s in iv_sets])

    write_csv(os.path.join(out, "empirical_curves.csv"), _CURVE_COLUMNS, curves)
    write_csv(os.path.join(out, "empirical_summary.csv"),
              tuple(summary[0].keys()), summary)
    write_json(os.path.join(out, "empirical.json"), {
        "bandwidth": bw,
        "grid": [float(g) for g in grid],
        "weights": [float(w) for w in weights],
        "stage1": fit_to_dict(stage1),
        "fits": {name: fit_to_dict(fit) for name, fit in fits.items()},
        "summary": summary,
    })
    for row in summary:
        print(f"{row['iv_set']:<12} weighted IIP={row['IIP']:.4f} "
              f"weighted sv=[{row['L_SV']: .4f},{row['U_SV']: .4f}]")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults for any flag")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--seed", type=int, help="RNG seed (default 0)")
    common.add_argument("--tolerance-c", type=float, dest="tolerance_c",
                        help="propensity matching tolerance, finite and >= 0 "
                             "(default 0.01)")
    common.add_argument("--levels", help="correction levels, e.g. 0.5,0.9,0.95")

    parser = argparse.ArgumentParser(
        prog="ivpower",
        description="Treatment-effect bounds and instrument identification power")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dgp-bounds", parents=[common],
                       help="population bounds and decomposition from a model spec")
    p.add_argument("--spec", required=True, help="DgpSpec JSON file")
    p.add_argument("--x", action="append",
                   help="evaluation covariate point, comma-separated; repeatable")
    p.add_argument("--iv-set", help="instrument subset as NAME:COL,...[:RECODE,...]")
    p.set_defaults(func=cmd_dgp_bounds)

    p = sub.add_parser("surface", parents=[common],
                       help="population surfaces over (gamma, rho, beta) grids")
    p.add_argument("--spec", required=True, help="one-instrument spec template JSON")
    p.add_argument("--gamma", help="grid start:step:stop or comma list")
    p.add_argument("--rho", help="grid start:step:stop or comma list")
    p.add_argument("--beta", help="comma list of outcome slopes")
    p.add_argument("--x", action="append", help="evaluation covariate point")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo replication of the estimation pipeline")
    p.add_argument("--spec", required=True, help="DgpSpec JSON file")
    p.add_argument("--iv-set", action="append",
                   help="instrument subset NAME:COL,...[:RECODE,...]; repeatable")
    p.add_argument("--standard-sets", action="store_true",
                   help="use the five standard subsets of three instruments")
    p.add_argument("--sizes", help="sample sizes, e.g. 500,5000")
    p.add_argument("--replications", type=int, help="replicates per size (default 200)")
    p.add_argument("--hmue-sims", type=int, dest="hmue_sims",
                   help="parameter draws per correction (default 1000)")
    p.add_argument("--workers", type=int, help="worker processes (default 1)")
    p.add_argument("--no-sv", action="store_true",
                   help="skip the covariate layer (faster; widest bounds only)")
    p.add_argument("--x", action="append", help="evaluation covariate point")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", parents=[common],
                       help="corrected bound estimates from a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV with y,d,x*,z* columns")
    p.add_argument("--iv-set", action="append",
                   help="instrument subset NAME:COL,...[:RECODE,...]; repeatable")
    p.add_argument("--standard-sets", action="store_true")
    p.add_argument("--hmue-sims", type=int, dest="hmue_sims")
    p.add_argument("--no-sv", action="store_true")
    p.add_argument("--x", action="append", help="evaluation covariate point")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("rank-ivs", parents=[common],
                       help="rank instrument sets by estimated identification power")
    p.add_argument("--data", required=True, help="dataset CSV with y,d,x*,z* columns")
    p.add_argument("--iv-set", action="append",
                   help="instrument subset NAME:COL,...[:RECODE,...]; repeatable")
    p.add_argument("--standard-sets", action="store_true")
    p.add_argument("--n-boot", type=int, dest="n_boot",
                   help="bootstrap replicates for dispersion (default 200)")
    p.add_argument("--hmue-sims", type=int, dest="hmue_sims")
    p.add_argument("--x", action="append", help="evaluation covariate point")
    p.set_defaults(func=cmd_rank_ivs)

    p = sub.add_parser("empirical", parents=[common],
                       help="two-stage pipeline: propensity index, per-index "
                            "bounds, kernel-weighted averages")
    p.add_argument("--data", required=True, help="dataset CSV with y,d,x*,z* columns")
    p.add_argument("--iv-set", action="append",
                   help="instrument subset NAME:COL,...[:RECODE,...]; repeatable")
    p.add_argument("--standard-sets", action="store_true")
    p.add_argument("--bandwidth", help="kernel bandwidth or 'silverman' (default)")
    p.set_defaults(func=cmd_empirical)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = {}
        if args.config:
            payload = _load_json(args.config, "config file")
            if not isinstance(payload, dict):
                raise ConfigError("config file must hold a JSON object")
            config = payload
        args._config = config
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
