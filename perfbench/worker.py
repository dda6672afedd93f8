"""One workload in one fresh process: set up, run timed passes, check.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH and
the BLAS/OpenMP thread counts pinned.  Writes its raw numbers (set-up times,
pass times, item latencies, failures, per-layer metrics and spans) as JSON
to ``--result``; ``run.py`` turns them into the reported metrics.

The loop is closed with one client: items run back to back in this process,
with no threads.  Whole passes over the workload's items repeat while the
next pass is predicted to end within ``--seconds``; there is always at least
one.  Output checks run between items, outside the timed region.

Times are CPU time (user + system) of this process, scaled to a reference
host speed.  Every item is single-threaded and waits on nothing but
page-cache writes, so CPU time leaves out the time the scheduler gives to
other tenants of a shared host.  It still moves with how fast the host runs
this process at the moment, so a fixed reference kernel is timed
REF_REPEATS times before every item and after the last one, and each item's
time is multiplied by ``REF_NOMINAL_S / median(kernel times)`` over the
samples on both sides of it.  The unscaled CPU times, the wall times and the
scale factors are kept in the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import numpy

import viskeep
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
EXPECTED_FILE = HERE / f"expected_seed{DEFAULT_SEED}.json"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.process_time(); import viskeep.cli; "
                "print(time.process_time() - t)")
REF_NOMINAL_S = 0.018
REF_REPEATS = 5


def reference_s() -> float:
    """CPU time of a fixed kernel of rational and float arithmetic, the two
    kinds of work the package does most."""
    t0 = process_time()
    x, s = Fraction(1, 3), 0.0
    for i in range(1, 1500):
        x = (x * 7 + Fraction(i, 11)) / 5
        s += (i * 0.5) ** 0.5
    return process_time() - t0


def bracket_scales(blocks: list[list[float]]) -> list[float]:
    """Scale factor of each interval between consecutive sample blocks."""
    return [REF_NOMINAL_S / statistics.median(before + after)
            for before, after in zip(blocks, blocks[1:])]


def sample_block() -> list[float]:
    return [reference_s() for _ in range(REF_REPEATS)]


def cold_import_s() -> float:
    """Import time of the command-line module in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def set_up(workload: str, seed: int, tmp: Path, size: dict,
           repeats: int = SETUP_REPEATS):
    """Build the workload `repeats` times.

    Returns the last build's items, the CPU time of every set-up (package
    import in a fresh interpreter plus building the inputs) and its scale.
    """
    times, blocks = [], []
    for rep in range(repeats):
        blocks.append(sample_block())
        work = tmp / f"setup{rep}"
        work.mkdir(parents=True)
        imp = cold_import_s()
        t0 = process_time()
        items = WORKLOADS[workload](seed, work, size)
        times.append(imp + process_time() - t0)
    blocks.append(sample_block())
    return items, times, bracket_scales(blocks)


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want)
    return got == want


def _last_line() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


class Runner:
    """Timed passes over a fixed item list, with failures counted."""

    def __init__(self, items, expected=None, tracer=None):
        self.items = items
        self.expected = expected
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._compared = set()

    def _verify(self, item, out, error) -> list[str]:
        if error is not None:
            return [f"raised {error}"]
        problems = list(item.check(out))
        if self.expected is not None and item.id not in self._compared:
            self._compared.add(item.id)
            want = self.expected.get(item.id)
            got = item.record(out)
            if want is None or not _same(got, want):
                problems.append(f"expected {want}, got {got}")
        return problems

    def one_pass(self, traced: bool):
        """CPU time, wall time and scale of each item, in item order."""
        latencies, walls, blocks = [], [], []
        for item in self.items:
            blocks.append(sample_block())
            if self.tracer is not None:
                self.tracer.item = self.attempted
                self.tracer.active = traced
            error = out = None
            w0, t0 = perf_counter(), process_time()
            try:
                out = item.run()
            except Exception:  # a failed item is counted, never fatal
                error = _last_line()
            latencies.append(process_time() - t0)
            walls.append(perf_counter() - w0)
            if self.tracer is not None:
                self.tracer.active = False
            try:
                problems = self._verify(item, out, error)
            except Exception:
                problems = ["check raised " + _last_line()]
            finally:
                item.cleanup()
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{item.id}: {p}" for p in problems)
        blocks.append(sample_block())
        return latencies, walls, bracket_scales(blocks)

    def passes(self, seconds: float, traced: bool = False) -> dict:
        """Whole passes while the next one is predicted to fit in `seconds`
        of wall time.  Scaled and unscaled CPU times per item and per pass,
        the items' scale factors and the wall time per pass."""
        out = {key: [] for key in ("latency_s", "latency_cpu_s", "scale",
                                   "pass_s", "pass_cpu_s", "pass_wall_s")}
        start = perf_counter()
        while True:
            lat, walls, scales = self.one_pass(traced)
            scaled = [t * k for t, k in zip(lat, scales)]
            out["latency_s"].extend(scaled)
            out["latency_cpu_s"].extend(lat)
            out["scale"].extend(scales)
            out["pass_s"].append(sum(scaled))
            out["pass_cpu_s"].append(sum(lat))
            out["pass_wall_s"].append(sum(walls))
            elapsed = perf_counter() - start
            if elapsed + statistics.median(out["pass_wall_s"]) > seconds:
                return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tmp: Path, size: dict | None = None,
                 expected: dict | None = None) -> dict:
    size = size or {}
    warnings.simplefilter("ignore")
    items, setup_cpu, setup_scale = set_up(workload, seed, tmp, size)
    tracer = spans.Tracer() if trace else None
    runner = Runner(items, expected, tracer)
    result = {"workload": workload, "seed": seed,
              "items": [item.id for item in items],
              "setup_s": [t * k for t, k in zip(setup_cpu, setup_scale)],
              "setup_cpu_s": setup_cpu, "setup_scale": setup_scale}
    result.update(runner.passes(seconds / 2 if trace else seconds))
    if trace:
        # traced passes follow the untraced ones, half the time each; the
        # ratio of the two median pass times is the tracing overhead.  Span
        # items are attempt numbers, counted over both halves.
        first = runner.attempted
        spans.install(tracer)
        try:
            traced = runner.passes(seconds / 2, traced=True)
        finally:
            spans.uninstall(tracer)
        scale = {first + i: k for i, k in enumerate(traced["scale"])}
        layers = spans.layer_metrics(tracer.spans, sum(traced["pass_s"]),
                                     len(traced["pass_s"]), scale)
        layers["trace.overhead_frac"] = (
            statistics.median(traced["pass_s"])
            / statistics.median(result["pass_s"]) - 1.0)
        result.update(traced=traced, layers=layers, spans=tracer.dump())
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:20],
                  # ru_maxrss is in KiB on Linux
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "viskeep": viskeep.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True, type=Path)
    p.add_argument("--result", required=True, type=Path)
    args = p.parse_args(argv)

    expected = None
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED_FILE) as fh:
            expected = json.load(fh)[args.workload]
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.tmp, expected=expected)
    result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
