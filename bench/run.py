"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the package is imported from its
``src`` directory, never from an installed copy.  The workload's inputs
are made from the seed, then whole rounds of its CLI calls run until
``--seconds`` have passed.  Every round repeats the same calls on the
same inputs; the first round's outputs are checked against `reference`
and every later round must write the same bytes.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the
first half of the time runs untraced rounds, the second half traced
ones, and the object holds the per-layer metrics instead.

``run_s`` is the fastest round in which no call failed: the speed this process gets from a
shared two-core machine changes by up to 1.6x in phases of seconds, so
the fastest of many rounds repeats between runs where their median
does not (README.md gives the figures).
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "_work"
MIN_TRACED_ROUNDS = 2  # two Monte Carlo rounds give the forty tasks a tail needs


def process_age():
    """Seconds since this process started, from the kernel's start time;
    falls back to the time since this module began to load."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import ivpower.cli from ROOT/src, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import ivpower
    import ivpower.cli

    src = (ROOT / "src").resolve()
    if src not in Path(ivpower.__file__).resolve().parents:
        raise ImportError(f"ivpower was imported from {ivpower.__file__}, not {src}")
    return ivpower.cli


class Runner:
    """Rounds of one plan: timing, failures and the output comparison."""

    def __init__(self, cli, plan, check, out):
        self.cli = cli
        self.plan = plan
        self.check = check
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.expected = None
        self.ok_times = []  # rounds in which every call succeeded

    def round(self):
        """Run every call of the plan once; returns the wall time of the
        calls, up to the point where every output file is written."""
        failed = 0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.plan.calls:
                try:
                    code = self.cli.main(argv + ["--out", self.out])
                except Exception:  # a crash counts as a failed operation
                    traceback.print_exc()
                    code = None
                if code != 0:
                    failed += 1
                    print(f"{argv[0]} exited with {code}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        self.attempted += len(self.plan.calls)
        self.failed += failed
        if not failed:
            self._compare()
            self.ok_times.append(elapsed)
        return elapsed

    def _compare(self):
        files = {}
        for name in self.plan.outputs:
            with open(os.path.join(self.out, name), "rb") as fh:
                files[name] = fh.read()
        if self.expected is None:
            self.expected = files
        elif files != self.expected:
            changed = [n for n in files if files[n] != self.expected[n]]
            self.errors.append(f"outputs {changed} differ between rounds of the same inputs")

    def verify(self):
        """Check the first complete round's outputs against the reference;
        false when no round completed, since nothing was checked then."""
        if self.expected is None:
            self.errors.append("no round completed without a failed call")
        else:
            self.errors.extend(self.check(self.plan, self.expected))
        return not self.errors

    def rounds_until(self, start, seconds, minimum):
        """Rounds until ``seconds`` after ``start``: another round starts
        only when a round of the median length so far still fits."""
        times = []
        while (len(times) < minimum
               or time.perf_counter() - start + statistics.median(times) <= seconds):
            times.append(self.round())
        return times


def run(args, bench):
    cli = _import_package()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise LookupError(f"unknown workload {args.workload!r}; "
                          f"choose from {', '.join(workloads.WORKLOADS)}")
    make, check = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        plan = make(args.seed, str(work))
        setup_s = process_age()

        runner = Runner(cli, plan, check, str(work / "out"))
        start = time.perf_counter()
        if not args.trace:
            times = runner.rounds_until(start, args.seconds, 1)
            print(f"round seconds: {json.dumps(times)}", file=sys.stderr)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # a round cut short by a failed call is no measure of speed
            metrics = {"setup_s": setup_s, "run_s": min(runner.ok_times or times),
                       "peak_rss_mb": peak_mb}
            wanted = bench["end_to_end"]
        else:
            plain = runner.rounds_until(start, args.seconds / 2.0, 1)
            tracer = tracing.Tracer()
            modules = {name: sys.modules[f"ivpower.{name}"]
                       for name in ("gaussian", "dgp", "bounds", "estimation",
                                    "simulation", "cli")}
            tracer.install(modules)
            cpu0 = time.process_time()
            try:
                traced = runner.rounds_until(start, args.seconds, MIN_TRACED_ROUNDS)
            finally:
                tracer.uninstall()
            cpu_s = (time.process_time() - cpu0) / len(traced)
            metrics = tracer.metrics(len(traced), workloads.MC_WORKERS)
            metrics["process.cpu_s"] = cpu_s
            metrics["trace.overhead_s"] = (metrics["cli.main.total_s"]
                                           - statistics.median(plain))
            wanted = bench["per_layer"]
        correct = runner.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in runner.errors:
        print(f"check failed: {line}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None):
    args = _parse(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        result = run(args, bench)
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
