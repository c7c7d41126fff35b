"""Sampling and Monte Carlo replication harness.

Draws i.i.d. samples from a `DgpSpec`, replicates the fit-and-correct
pipeline over sample sizes and instrument sets with one RNG stream per
(sample size, replicate, instrument set), and averages per cell the
report columns (`NUMERIC_COLUMNS`), the plug-in IIP, the sign flip rate
and the Hausdorff distances to the population bounds into one ``means``
dict.  Also sweeps population surfaces over (gamma, rho, beta) grids for
figure data.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bounds import (NUMERIC_COLUMNS, REPORT_COLUMNS, MatchConfig, population_report,
                     report_columns)
from .dgp import DgpSpec, Discrete, IvSet, JointDiscrete, Normal
from .estimation import Dataset, HmueConfig, estimated_report, hausdorff_interval
from .gaussian import rng_stream, stream_seed

__all__ = [
    "McDesign",
    "McRecord",
    "McCell",
    "CELL_COLUMNS",
    "McResult",
    "model2_spec",
    "model3_spec",
    "standard_iv_sets",
    "generate_sample",
    "mc_replicate",
    "run_monte_carlo",
    "table_rows",
    "surface_grid",
    "rank_entries",
    "rank_iv_sets",
    "compare_iip_distributions",
]


def model2_spec(beta=0.25, gamma=1.0, rho=0.5):
    """Single binary instrument on {-1, 1}, covariate absent from the
    treatment index."""
    return DgpSpec(
        alpha=1.0, beta=(float(beta),), pi=(0.0,), gamma=(float(gamma),),
        rho=float(rho), covariate_dist=Normal(0.0, 1.0),
        iv_dists=(Discrete(values=(-1.0, 1.0), probs=(0.5, 0.5)),),
    )


def model3_spec(rho=0.5, covariate="normal"):
    """Three instruments: binary, seven-point, and pure noise (zero
    coefficient).  ``covariate`` picks standard normal or Bernoulli(1/2).
    """
    if covariate == "normal":
        cov = Normal(0.0, 1.0)
    elif covariate == "bernoulli":
        cov = Discrete(values=(0.0, 1.0), probs=(0.5, 0.5))
    else:
        raise ValueError("covariate must be 'normal' or 'bernoulli'")
    return DgpSpec(
        alpha=1.0, beta=(1.0,), pi=(-1.0,), gamma=(0.5, 0.2, 0.0),
        rho=float(rho), covariate_dist=cov,
        iv_dists=(
            Discrete(values=(0.0, 1.0), probs=(0.5, 0.5)),
            Discrete(values=(-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0),
                     probs=(0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1)),
            Discrete(values=(0.0, 1.0), probs=(1.0 / 3.0, 2.0 / 3.0)),
        ),
    )


def standard_iv_sets():
    """The five instrument subsets compared throughout: each single
    instrument, the coarsened pair, the informative pair, and all three."""
    return (
        IvSet("z1", use=(0,)),
        IvSet("z2", use=(1,)),
        IvSet("z1,z2>0", use=(0, 1), recode=("raw", "gt0")),
        IvSet("z1,z2", use=(0, 1)),
        IvSet("z1,z2,z3", use=(0, 1, 2)),
    )


def generate_sample(spec, n, stream):
    """Sample n observations of (y, d, x, z) from the model.

    Draws x and z from their distributions, latent errors from the
    bivariate normal with correlation rho, then d = 1[nu2 > eps2] and
    y = 1[nu1(d, x) > eps1].
    """
    if n < 1:
        raise ValueError("n must be positive")
    k = spec.n_covariates
    if k > 1:
        raise ValueError("sampling supports at most one covariate")
    if k == 1:
        dist = spec.covariate_dist
        if isinstance(dist, Normal):
            x = stream.normal(dist.mean, dist.sd, size=n)
        elif isinstance(dist, Discrete):
            x = stream.choice(np.asarray(dist.values, dtype=float), size=n,
                              p=np.asarray(dist.probs, dtype=float))
        else:
            raise ValueError(f"cannot sample covariates from {dist!r}")
        x = x[:, None]
    else:
        x = np.empty((n, 0))
    if isinstance(spec.iv_dists, JointDiscrete):
        vals = np.asarray(spec.iv_dists.values, dtype=float)
        idx = stream.choice(len(vals), size=n,
                            p=np.asarray(spec.iv_dists.probs, dtype=float))
        z = vals[idx]
    else:
        cols = [stream.choice(np.asarray(d.values, dtype=float), size=n,
                              p=np.asarray(d.probs, dtype=float))
                for d in spec.iv_dists]
        z = np.column_stack(cols) if cols else np.empty((n, 0))
    e1 = stream.standard_normal(n)
    e2 = spec.rho * e1 + math.sqrt(1.0 - spec.rho ** 2) * stream.standard_normal(n)
    v2 = x @ np.asarray(spec.pi) + z @ np.asarray(spec.gamma)
    d = (v2 > e2).astype(float)
    y = (spec.alpha * d + x @ np.asarray(spec.beta) > e1).astype(float)
    return Dataset(y=y, d=d, x=x, z=z)


# ---------------------------------------------------------------------------
# Monte Carlo replication
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McDesign:
    """Replication plan: one dataset per (sample size, replicate), every
    instrument set evaluated on it.  ``record_sv=False`` skips the
    covariate-layer bounds, which is enough for identification-power
    summaries and much faster.  ``hmue.seed`` is not read: each task
    takes its correction seed from the (seed, sample size, replicate,
    instrument set) stream."""

    spec: DgpSpec
    iv_sets: tuple
    sample_sizes: tuple
    replications: int
    x_eval: tuple = (0.0,)
    seed: int = 0
    hmue: HmueConfig = HmueConfig()
    match: MatchConfig = MatchConfig()
    record_sv: bool = True

    def __post_init__(self):
        object.__setattr__(self, "iv_sets", tuple(self.iv_sets))
        if not all(float(n).is_integer() for n in self.sample_sizes):
            raise ValueError("sample sizes must be whole numbers")
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "x_eval", tuple(np.atleast_1d(self.x_eval).astype(float)))
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not self.iv_sets:
            raise ValueError("at least one instrument set is required")
        if any(n < 1 for n in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        names = [s.name for s in self.iv_sets]
        if len(set(names)) != len(names):
            raise ValueError("instrument set names must be unique")


@dataclass(frozen=True)
class McRecord:
    replicate: int
    iv_name: str
    n: int
    failed: bool
    error: str = ""
    report: object = None
    hausdorff_manski: float = math.nan
    hausdorff_sv: float = math.nan


# a cell's averages: the report columns, then the replicate-only ones
CELL_COLUMNS = NUMERIC_COLUMNS + ("IIP_point", "dH_M", "dH_SV", "flip_rate")


@dataclass(frozen=True)
class McCell:
    """Replication averages for one (instrument set, sample size).

    ``means`` maps each of `CELL_COLUMNS` to its average over the
    successful replicates, NaN when none succeeded; dH_SV is NaN when
    the design skips the covariate layer.  ``iip_draws`` holds the
    per-replicate IIP values."""

    iv_name: str
    n: int
    n_ok: int
    n_failed: int
    means: dict
    iip_draws: np.ndarray

    @property
    def mean_iip(self):
        return self.means["IIP"]


@dataclass(frozen=True)
class McResult:
    design: McDesign
    records: tuple
    cells: dict
    truth: dict
    failure_alarm: bool


def mc_replicate(design, n_index, replicate, iv_index):
    """One (sample size, replicate, instrument set) task.

    Regenerates the replicate's dataset from its stream, so the same
    sample is shared across instrument sets without passing it around.
    """
    n = design.sample_sizes[n_index]
    data = generate_sample(design.spec, n, rng_stream(design.seed, n_index, replicate))
    hm = replace(design.hmue, seed=stream_seed(design.seed, n_index, replicate, 1 + iv_index))
    return estimated_report(data, design.iv_sets[iv_index], design.x_eval, design.match, hm,
                            grid=None if design.record_sv else design.x_eval)


def _run_task(design, task):
    """One task as a (task, report or None, error text) record; a failed
    fit is caught where it runs, so its text crosses back as a string."""
    ni, r, si = task
    try:
        return task, mc_replicate(design, ni, r, si), ""
    except (RuntimeError, ValueError) as exc:
        return task, None, str(exc)


def run_monte_carlo(design, workers=1):
    """Replicate the pipeline and aggregate deterministically.

    Tasks are independent given their (sample size, replicate,
    instrument set) RNG streams.  With ``workers`` above 1 they run in
    up to that many processes forked from this one, capped at the task
    count and the CPU count; with one worker (or one slot after the cap)
    they run here, in order.  The fold over results ordered by task
    index is identical for any worker count.  Failed fits are recorded,
    excluded from averages, and trip an alarm flag when they exceed 2
    percent of tasks.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    truth = {ivs.name: population_report(design.spec, design.x_eval, ivs, design.match)
             for ivs in design.iv_sets}

    tasks = [(ni, r, si)
             for ni in range(len(design.sample_sizes))
             for r in range(design.replications)
             for si in range(len(design.iv_sets))]

    run = partial(_run_task, design)
    procs = min(workers, len(tasks), os.cpu_count() or 1)
    if procs > 1:
        # fork, not spawn: a spawned worker re-imports numpy and
        # scipy.special, 543 modules and about 0.5 s on a 2-core Xeon, which
        # costs more than a round of tasks, and the package runs no thread
        # of its own when it forks.  Under fork every worker process starts
        # up front, hence the cap.
        with ProcessPoolExecutor(max_workers=procs,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(run, tasks,
                                    chunksize=max(1, len(tasks) // (4 * procs))))
    else:
        results = [run(task) for task in tasks]

    records = []
    for (ni, r, si), rep, err in results:  # in task order on either path
        name = design.iv_sets[si].name
        n = design.sample_sizes[ni]
        if rep is None:
            records.append(McRecord(replicate=r, iv_name=name, n=n,
                                    failed=True, error=err))
            continue
        records.append(McRecord(
            replicate=r, iv_name=name, n=n, failed=False, report=rep,
            hausdorff_manski=hausdorff_interval(rep.manski, truth[name].manski),
            hausdorff_sv=(hausdorff_interval(rep.sv, truth[name].sv)
                          if design.record_sv else math.nan),
        ))

    cells = {}
    for ni, n in enumerate(design.sample_sizes):
        for ivs in design.iv_sets:
            sub = [rec for rec in records if rec.n == n and rec.iv_name == ivs.name]
            ok = [rec for rec in sub if not rec.failed]
            values = [{**report_columns(rec.report), "IIP_point": rec.report.point_iip,
                       "dH_M": rec.hausdorff_manski, "dH_SV": rec.hausdorff_sv,
                       "flip_rate": rec.report.flip_rate} for rec in ok]
            cells[ivs.name, n] = McCell(
                iv_name=ivs.name, n=n, n_ok=len(ok), n_failed=len(sub) - len(ok),
                means={col: float(np.mean([v[col] for v in values])) if ok else math.nan
                       for col in CELL_COLUMNS},
                iip_draws=np.array([rec.report.iip for rec in ok]),
            )

    n_failed = sum(rec.failed for rec in records)
    alarm = n_failed > 0.02 * len(records)
    if alarm:
        warnings.warn(f"{n_failed} of {len(records)} replicate fits failed",
                      RuntimeWarning, stacklevel=2)
    return McResult(design=design, records=tuple(records), cells=cells,
                    truth=truth, failure_alarm=alarm)


def table_rows(result):
    """Flatten an McResult into wide table rows (one per set and size)."""
    return [{"iv_set": name, "n": n, "replications": cell.n_ok,
             "failures": cell.n_failed, **cell.means}
            for (name, n), cell in result.cells.items()]


# ---------------------------------------------------------------------------
# population surfaces and rankings
# ---------------------------------------------------------------------------

def surface_grid(spec_template, gamma_grid, rho_grid, beta_values, x_eval, match=None):
    """Population bound surfaces on a (gamma, rho, beta) grid.

    Returns long-format records {gamma, rho, beta, quantity, value} for
    every grid node; irrelevant nodes (gamma=0) carry the benchmark
    bounds and IIP 0.
    """
    gamma_grid = np.atleast_1d(np.asarray(gamma_grid, dtype=float))
    rho_grid = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    beta_values = np.atleast_1d(np.asarray(beta_values, dtype=float))
    if not (gamma_grid.size and rho_grid.size and beta_values.size):
        raise ValueError("grids must be nonempty")
    rows = []
    for beta in beta_values:
        for gamma in gamma_grid:
            for rho in rho_grid:
                spec = replace(spec_template, beta=(float(beta),),
                               gamma=(float(gamma),), rho=float(rho))
                rep = population_report(spec, x_eval, match=match)
                values = report_columns(rep)
                values["sign"] = math.nan if rep.sign is None else float(rep.sign)
                for quantity in REPORT_COLUMNS:
                    rows.append({"gamma": float(gamma), "rho": float(rho),
                                 "beta": float(beta), "quantity": quantity,
                                 "value": values[quantity]})
    return rows


def rank_entries(entries):
    """Sort (name, iip, sv_width) descending by iip; ties go to the
    narrower width, then the name."""
    return sorted(entries, key=lambda e: (-e[1], e[2], e[0]))


def rank_iv_sets(result, n=None):
    """Instrument sets ordered by mean corrected identification power."""
    if n is None:
        if len(result.design.sample_sizes) != 1:
            raise ValueError("result covers several sample sizes; pass n")
        n = result.design.sample_sizes[0]
    entries = []
    for ivs in result.design.iv_sets:
        means = result.cells[ivs.name, n].means
        entries.append((ivs.name, means["IIP"], means["U_SV"] - means["L_SV"]))
    return rank_entries(entries)


def compare_iip_distributions(result, name_a, name_b, n):
    """Two-sample Kolmogorov-Smirnov test between the per-replicate
    corrected identification-power draws of two instrument sets."""
    a = result.cells[name_a, n].iip_draws
    b = result.cells[name_b, n].iip_draws
    if not (a.size and b.size):
        raise ValueError("no successful replicates to compare")
    # imported here: scipy.stats loads most of scipy, which no command needs
    from scipy.stats import ks_2samp
    return ks_2samp(a, b)
