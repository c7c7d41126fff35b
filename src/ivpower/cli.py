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
from scipy.special import chdtrc, ndtr

from .bounds import (NUMERIC_COLUMNS, REPORT_COLUMNS, MatchConfig, population_report,
                     report_columns)
from .dgp import IvSet, identity_iv_set, spec_from_dict, to_dict
from .estimation import (
    GRID_LEVELS, Dataset, EstimatedReport, HmueConfig,
    bootstrap_dispersion, estimated_report, fit_probit, fit_set,
    quantile_grid, read_dataset_csv, with_intercept,
)
from .gaussian import norm_ppf, stream_seed
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

def report_to_dict(rep):
    """JSON-ready dict for a population or estimated report: kind, then fields."""
    kind = "estimated" if isinstance(rep, EstimatedReport) else "population"
    return {"kind": kind, **to_dict(rep)}


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
    """``payload`` in its `to_dict` form, indented two spaces; a non-finite
    number is null, and one that `to_dict` missed raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(payload), fh, indent=2, allow_nan=False)
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
        # strerror: the text of an OSError already names the file
        raise DataError(f"cannot read dataset {path!r}: {exc.strerror or exc}") from None
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


def _once(args, dest, what):
    """The values of a repeatable flag that ``args.command`` takes at most once."""
    values = getattr(args, dest) or []
    if len(values) > 1:
        raise ConfigError(f"{args.command} takes one {what}: "
                          f"give --{dest.replace('_', '-')} once")
    return values


def _one_point(args, k):
    """The single evaluation point of a command that takes one --x."""
    return _parse_points(_once(args, "x", "evaluation point"), k)[0]


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
    if args.standard_sets:
        if n_instruments != 3:
            raise ConfigError("--standard-sets needs exactly 3 instrument columns")
        sets.extend(standard_iv_sets())
    for text in args.iv_set or ():
        sets.append(_parse_ivset(text, n_instruments))
    if not sets:
        sets.append(identity_iv_set(n_instruments))
    names = [s.name for s in sets]
    if len(set(names)) != len(names):
        raise ConfigError("instrument set names must be unique")
    return tuple(sets)


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


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
    match = MatchConfig(args.tolerance_c)
    texts = _once(args, "iv_set", "instrument set")
    ivset = _parse_ivset(texts[0], spec.n_instruments) if texts else None
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
    gammas, rhos, betas = (_parse_values(t) for t in (args.gamma, args.rho, args.beta))
    x = _one_point(args, 1)
    out = _out_dir(args)

    rows = surface_grid(spec, gammas, rhos, betas, x, MatchConfig(args.tolerance_c))
    write_csv(os.path.join(out, "surface.csv"),
              ("gamma", "rho", "beta", "quantity", "value"), rows)
    print(f"surface.csv: {len(rows)} rows "
          f"({len(betas)} beta x {len(gammas)} gamma x {len(rhos)} rho)")
    return 0


def cmd_simulate(args):
    spec = load_spec(args.spec)
    iv_sets = _collect_ivsets(args, spec.n_instruments)
    design = McDesign(
        spec=spec, iv_sets=iv_sets, sample_sizes=_parse_values(args.sizes),
        replications=args.replications,
        x_eval=_one_point(args, spec.n_covariates),
        seed=args.seed, hmue=HmueConfig(n_sim=args.hmue_sims),
        match=MatchConfig(args.tolerance_c), record_sv=not args.no_sv,
    )
    result = run_monte_carlo(design, workers=args.workers)
    out = _out_dir(args)

    rows = table_rows(result)
    header = tuple(rows[0].keys())
    write_csv(os.path.join(out, "simulation_wide.csv"), header, rows)
    write_json(os.path.join(out, "simulation.json"), {
        "seed": design.seed,
        "replications": design.replications,
        "sample_sizes": design.sample_sizes,
        "x_eval": design.x_eval,
        "record_sv": design.record_sv,
        "failure_alarm": result.failure_alarm,
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
    match = MatchConfig(args.tolerance_c)
    levels = {} if args.levels is None else {"levels": tuple(_parse_values(args.levels))}
    hmue = HmueConfig(n_sim=args.hmue_sims, seed=args.seed, **levels)
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
    # chdtrc is the chi-square survival function; it gives NaN below 0, so
    # a stat that rounds negative is clamped to 0 (p = 1)
    return float(chdtrc(len(idx), max(stat, 0.0)))


def cmd_rank_ivs(args):
    data = _read_data(args.data)
    iv_sets = _collect_ivsets(args, data.n_instruments)
    hmue = HmueConfig(n_sim=args.hmue_sims, seed=args.seed)
    x = _one_point(args, data.n_covariates)
    out = _out_dir(args)
    z975 = norm_ppf(0.975)

    stats = {}
    widths = {}
    for si, ivset in enumerate(iv_sets):
        # the default match: on the one row grid=x every match is exact
        rep = estimated_report(data, ivset, x, hmue=hmue, grid=x)
        boot = bootstrap_dispersion(data, ivset, x, n_boot=args.n_boot,
                                    seed=stream_seed(args.seed, 7, si))
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
    write_csv(os.path.join(out, "ranking.csv"), tuple(rows[0]), rows)
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
        fit, spec_hat = fit_set(index_data, ivset)
        fits[ivset.name] = fit
        for j, g in enumerate(grid):
            rep = population_report(spec_hat, grid_aug[j], match=match, grid=grid_aug)
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
    rows = []
    for name in iv_names:
        sub = [row for row in curves if row["iv_set"] == name]
        wts = np.array([row["weight"] for row in sub])
        wts = wts / wts.sum()
        out = {"iv_set": name}
        for col in NUMERIC_COLUMNS:
            out[col] = float(np.dot(wts, [row[col] for row in sub]))
        rows.append(out)
    return rows


def cmd_empirical(args):
    data = _read_data(args.data)
    iv_sets = _collect_ivsets(args, data.n_instruments)
    match = MatchConfig(args.tolerance_c)
    if args.bandwidth == "silverman":
        bandwidth = None
    else:
        try:
            bandwidth = float(args.bandwidth)
        except ValueError:
            raise ConfigError("--bandwidth takes a number or 'silverman'") from None
        if not (math.isfinite(bandwidth) and bandwidth > 0.0):
            raise ConfigError("--bandwidth must be positive and finite")
    out = _out_dir(args)

    stage1, fits, bw, grid, weights, curves = empirical_curves(
        data, iv_sets, match, bandwidth)
    summary = weighted_summary(curves, [s.name for s in iv_sets])

    write_csv(os.path.join(out, "empirical_curves.csv"), _CURVE_COLUMNS, curves)
    write_csv(os.path.join(out, "empirical_summary.csv"),
              tuple(summary[0].keys()), summary)
    write_json(os.path.join(out, "empirical.json"), {
        "bandwidth": bw,
        "grid": grid,
        "weights": weights,
        "stage1": stage1,
        "fits": fits,
        "summary": summary,
    })
    for row in summary:
        print(f"{row['iv_set']:<12} weighted IIP={row['IIP']:.4f} "
              f"weighted sv=[{row['L_SV']: .4f},{row['U_SV']: .4f}]")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Append(argparse.Action):
    """A repeatable flag; command-line values replace a --config list."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [values])


# every flag once, by dest (the flag is --dest with "-" for "_"), with its default
_FLAGS = {
    "config": dict(help="JSON object of defaults for the command's flags, keyed by dest"),
    "out": dict(default=".", help="output directory (default: current)"),
    "spec": dict(required=True, help="DgpSpec JSON file"),
    "data": dict(required=True, help="dataset CSV with y,d,x*,z* columns"),
    "x": dict(action=_Append, help="evaluation point, comma-separated (default: zeros)"),
    "iv_set": dict(action=_Append, help="instrument set NAME:COLS[:RECODES]; "
                                        "repeatable, once on dgp-bounds"),
    "standard_sets": dict(action="store_true", help="the 5 standard sets of 3 instruments"),
    "tolerance_c": dict(type=float, default=0.01, help="propensity matching tolerance, "
                                                       "finite and >= 0 (default 0.01)"),
    "hmue_sims": dict(type=int, default=1000, help="draws per correction (default 1000)"),
    "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "no_sv": dict(action="store_true", help="skip the covariate layer (widest bounds only)"),
    "levels": dict(help="correction levels (default 0.5,0.9,0.95,0.99)"),
    "gamma": dict(default="-4:0.2:4", help="grid start:step:stop or comma list"),
    "rho": dict(default="-0.99:0.05:0.99", help="grid start:step:stop or comma list"),
    "beta": dict(default="0.05,0.25,0.45", help="comma list of outcome slopes"),
    "sizes": dict(default="500,5000", help="whole sample sizes (default 500,5000)"),
    "replications": dict(type=int, default=200, help="replicates per size (default 200)"),
    "workers": dict(type=int, default=1, help="worker processes (default 1)"),
    "n_boot": dict(type=int, default=200, help="bootstrap replicates (default 200)"),
    "bandwidth": dict(default="silverman", help="kernel bandwidth, or 'silverman' (default)"),
}

# each command's flags besides config and out: those it reads
_COMMANDS = {
    "dgp-bounds": (cmd_dgp_bounds, "population bounds and decomposition from a model spec",
                   "spec x iv_set tolerance_c"),
    "surface": (cmd_surface, "population surfaces over (gamma, rho, beta) grids",
                "spec x gamma rho beta tolerance_c"),
    "simulate": (cmd_simulate, "Monte Carlo replication of the estimation pipeline",
                 "spec x iv_set standard_sets sizes replications hmue_sims seed workers "
                 "no_sv tolerance_c"),
    "estimate": (cmd_estimate, "corrected bound estimates from a dataset CSV",
                 "data x iv_set standard_sets hmue_sims seed levels no_sv tolerance_c"),
    "rank-ivs": (cmd_rank_ivs, "rank instrument sets by estimated identification power",
                 "data x iv_set standard_sets hmue_sims seed n_boot"),
    "empirical": (cmd_empirical, "bounds along a propensity index, kernel-weighted",
                  "data iv_set standard_sets bandwidth tolerance_c"),
}


def _build_parser():
    """The ivpower parser and its subcommand parsers by name.  Each flag is
    one action, built once and shared by every command that reads it."""
    flags = argparse.ArgumentParser(add_help=False)
    actions = {dest: flags.add_argument("--" + dest.replace("_", "-"), **kwargs)
               for dest, kwargs in _FLAGS.items()}
    parser = argparse.ArgumentParser(
        prog="ivpower",
        description="Treatment-effect bounds and instrument identification power")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, dests) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for dest in ["config", "out", *dests.split()]:
            p._add_action(actions[dest])
        p.set_defaults(func=func)
    return parser, sub.choices


def _config_value(action, value):
    """A --config value as its flag parses it: a bool for a switch, a list
    for a repeatable flag, else a string or number; else TypeError or ValueError."""
    def parse(item):
        if type(item) not in (str, int, float):
            raise TypeError
        return action.type(str(item)) if action.type else str(item)

    if action.nargs == 0:
        if not isinstance(value, bool):
            raise TypeError
        return value
    if isinstance(action, _Append):
        if not isinstance(value, list):
            raise TypeError
        return [parse(item) for item in value]
    return parse(value)


def _apply_config(command, path):
    """Make the JSON object in ``path`` the defaults of ``command``'s flags."""
    config = _load_json(path, "config file")
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    for key, value in config.items():
        if key not in actions:
            raise ConfigError(f"config file {path!r}: unknown key {key!r}; "
                              f"{command.prog} takes {', '.join(sorted(actions))}")
        action = actions[key]
        try:
            command.set_defaults(**{key: _config_value(action, value)})
        except (TypeError, ValueError):
            raise ConfigError(f"config file {path!r}: {value!r} is not a value "
                              f"of {action.option_strings[0]}") from None
        action.required = False


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        if argv and argv[0] in commands:
            # read --config ahead of the full parse: it can supply required flags
            pre = argparse.ArgumentParser(prog=f"ivpower {argv[0]}", add_help=False)
            pre.add_argument("--config")
            path = pre.parse_known_args(argv[1:])[0].config
            if path is not None:
                _apply_config(commands[argv[0]], path)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, DataError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DataError):
            return 3
        if isinstance(exc, (RuntimeError, FloatingPointError, np.linalg.LinAlgError)):
            return 4
        return 2


if __name__ == "__main__":
    sys.exit(main())
