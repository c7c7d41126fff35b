"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install` replaces selected functions of the ivpower modules with
wrappers that time each call, everywhere the package binds them (a
function imported into another module is bound there too), and
`uninstall` puts the originals back.  Spans nest on a per-thread stack,
so the Monte Carlo worker threads keep their own; a span's self time is
its duration minus the time of the traced spans it encloses.  Counts
come from argument shapes and return values.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import defaultdict
from functools import wraps

import numpy as np

HIGH_RHO = 0.925

_FIT = "estimation.fit_bivariate_probit"
_BUILD = "bounds.build_structure"
_REPORT = "estimation.estimated_report"

# the result a hook sees when the wrapped call raised
FAILED = object()


def _open(stack, name):
    return any(frame[0] == name for frame in stack)


class Tracer:
    """Span and counter store shared by every wrapped function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.acc = defaultdict(float)
        self.task_s = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        with self._lock:
            self.acc[key] += value

    def wrap(self, name, fn, hook=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            result = FAILED
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                with tracer._lock:
                    acc = tracer.acc
                    acc[name + ".calls"] += 1
                    acc[name + ".total_s"] += dur
                    acc[name + ".self_s"] += dur - frame[1]
                if hook is not None:
                    hook(tracer, stack, dur, result, *args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, modules):
        """Wrap every target in ``modules`` (name -> module object)."""
        for mod_name, attr, hook in TARGETS:
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod_name], cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, hook))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(modules[mod_name], attr)
            traced = self.wrap(name, orig, hook)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, rounds, workers):
        """Per-layer metrics per traced round."""
        a = self.acc

        def per(key):
            return a[key] / rounds

        def ratio(num, den):
            return a[num] / a[den] if a[den] else 0.0

        out = {}
        for key in ("gaussian.binorm_cdf.calls", "gaussian.binorm_cdf.points",
                    "gaussian.binorm_cdf.points_high_rho", "gaussian.binorm_cdf.self_s",
                    "gaussian.gaussian_copula.self_s",
                    "dgp.cell_probs_arrays.calls", "dgp.cell_probs_arrays.points",
                    "dgp.cell_probs_arrays.self_s", "dgp.cps_support.calls",
                    "dgp.cps_support.self_s", "dgp.iv_support.calls",
                    "bounds.population_report.calls", "bounds.population_report.total_s",
                    "bounds.sv_bounds.self_s", "bounds.widest_bounds.self_s",
                    "bounds.manski_bounds.self_s", "bounds.identify_sign.calls",
                    "bounds.build_structure.calls", "bounds.build_structure.self_s",
                    "bounds.evaluate_structure.calls", "bounds.evaluate_structure.self_s",
                    "bounds.structure.grid_rows", "bounds.structure.referenced_rows",
                    "bounds.structure.members", "bounds.structure.groups",
                    "estimation.fit_bivariate_probit.calls",
                    "estimation.fit_bivariate_probit.self_s",
                    "estimation.fit_bivariate_probit.total_s",
                    "estimation.fit.loglik_points",
                    "estimation.fit_probit.calls", "estimation.fit_probit.total_s",
                    "estimation.estimated_report.calls", "estimation.estimated_report.self_s",
                    "estimation.draws.kernel_points", "estimation.draws.kernel_s",
                    "estimation.bootstrap_dispersion.total_s",
                    "estimation.bootstrap.fits", "estimation.bootstrap.failed",
                    "estimation.read_dataset_csv.total_s", "estimation.read_dataset_csv.rows",
                    "simulation.run_monte_carlo.total_s", "simulation.mc_replicate.calls",
                    "simulation.generate_sample.total_s", "simulation.surface_grid.total_s",
                    "cli.main.total_s", "cli.write_csv.total_s", "cli.write_json.total_s",
                    "cli.output_bytes"):
            out[key] = per(key)
        out["gaussian.binorm_cdf.ns_per_point"] = 1e9 * ratio(
            "gaussian.binorm_cdf.self_s", "gaussian.binorm_cdf.points")
        out["bounds.SupportPartition.builds"] = per("bounds.SupportPartition.__init__.calls")
        out["bounds.SupportPartition.builds_per_report"] = ratio(
            "bounds.SupportPartition.__init__.calls", "bounds.population_report.calls")
        out["estimation.fit.loglik_evals_per_fit"] = ratio(
            "estimation.fit.loglik_evals", "estimation.fit_bivariate_probit.calls")
        out["estimation.fit.iterations_mean"] = ratio(
            "estimation.fit.iterations", "estimation.fit_bivariate_probit.calls")
        # summed task time over the pool's capacity while it ran
        wall = a["simulation.run_monte_carlo.total_s"]
        out["simulation.pool.busy_ratio"] = (
            a["simulation.mc_replicate.total_s"] / (wall * workers) if wall else 0.0)
        out.update(task_percentiles(self.task_s))
        # main-thread time in cli.main that no finer traced function covers
        out["trace.unattributed_s"] = per("cli.main.self_s")
        return out


def task_percentiles(task_s):
    """Median task time and the highest whole percentile with at least ten
    tasks beyond it (0 when there are fewer than forty tasks)."""
    n = len(task_s)
    out = {"simulation.mc_replicate.tasks": float(n),
           "simulation.mc_replicate.p50_ms": 1e3 * statistics.median(task_s) if n else 0.0,
           "simulation.mc_replicate.tail_pct": 0.0,
           "simulation.mc_replicate.tail_ms": 0.0}
    if n >= 40:
        pct = int(100.0 * (1.0 - 10.0 / n))
        out["simulation.mc_replicate.tail_pct"] = float(pct)
        out["simulation.mc_replicate.tail_ms"] = 1e3 * float(np.percentile(task_s, pct))
    return out


# ---------------------------------------------------------------------------
# hooks: counts from argument shapes and return values
# ---------------------------------------------------------------------------

def _binorm(tracer, stack, dur, result, a, b, rho):
    shape = np.broadcast(np.asarray(a), np.asarray(b), np.asarray(rho)).shape
    points = int(np.prod(shape))
    high = np.abs(np.asarray(rho)) > HIGH_RHO
    n_high = (points * int(high.ravel()[0]) if high.size == 1
              else int(np.count_nonzero(np.broadcast_to(high, shape))))
    with tracer._lock:
        acc = tracer.acc
        acc["gaussian.binorm_cdf.points"] += points
        acc["gaussian.binorm_cdf.points_high_rho"] += n_high
        if _open(stack, _FIT):
            acc["estimation.fit.loglik_evals"] += 1
            acc["estimation.fit.loglik_points"] += points
        elif _open(stack, _REPORT) and not _open(stack, _BUILD):
            acc["estimation.draws.kernel_points"] += points
            acc["estimation.draws.kernel_s"] += dur


def _cell_probs(tracer, stack, dur, result, *args, **kwargs):
    if result is not FAILED:
        tracer.add("dgp.cell_probs_arrays.points", int(np.asarray(result[0]).size))


def _structure(tracer, stack, dur, result, *args, **kwargs):
    if result is FAILED:
        return
    rows = set()
    members = 0
    for fam in result.families.values():
        rows.update(int(g) for g in fam.g[fam.g >= 0])
        members += fam.t.size
    with tracer._lock:
        acc = tracer.acc
        acc["bounds.structure.grid_rows"] += result.grid.shape[0]
        acc["bounds.structure.referenced_rows"] += len(rows)
        acc["bounds.structure.members"] += members
        acc["bounds.structure.groups"] += result.partition.n_groups


def _fit(tracer, stack, dur, result, *args, **kwargs):
    with tracer._lock:
        if _open(stack, "estimation.bootstrap_dispersion"):
            tracer.acc["estimation.bootstrap.fits"] += 1
        if result is not FAILED:
            tracer.acc["estimation.fit.iterations"] += result.iterations


def _bootstrap(tracer, stack, dur, result, *args, **kwargs):
    if result is not FAILED:
        tracer.add("estimation.bootstrap.failed", result.n_failed)


def _read_csv(tracer, stack, dur, result, *args, **kwargs):
    if result is not FAILED:
        tracer.add("estimation.read_dataset_csv.rows", result.n)


def _task(tracer, stack, dur, result, *args, **kwargs):
    with tracer._lock:
        tracer.task_s.append(dur)


def _written(tracer, stack, dur, result, path, *args, **kwargs):
    if result is not FAILED:
        tracer.add("cli.output_bytes", os.path.getsize(path))


TARGETS = (
    ("gaussian", "binorm_cdf", _binorm),
    ("gaussian", "gaussian_copula", None),
    ("dgp", "cell_probs_arrays", _cell_probs),
    ("dgp", "cps_support", None),
    ("dgp", "iv_support", None),
    ("bounds", "SupportPartition.__init__", None),
    ("bounds", "population_report", None),
    ("bounds", "manski_bounds", None),
    ("bounds", "identify_sign", None),
    ("bounds", "widest_bounds", None),
    ("bounds", "sv_bounds", None),
    ("bounds", "build_structure", _structure),
    ("bounds", "evaluate_structure", None),
    ("estimation", "fit_probit", None),
    ("estimation", "fit_bivariate_probit", _fit),
    ("estimation", "estimated_report", None),
    ("estimation", "bootstrap_dispersion", _bootstrap),
    ("estimation", "read_dataset_csv", _read_csv),
    ("simulation", "generate_sample", None),
    ("simulation", "mc_replicate", _task),
    ("simulation", "run_monte_carlo", None),
    ("simulation", "surface_grid", None),
    ("cli", "write_csv", _written),
    ("cli", "write_json", _written),
    ("cli", "main", None),
)
