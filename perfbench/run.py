"""viskeep benchmark: one workload, one fresh process, metrics on stdout.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload synth_sweep --seed 0 --seconds 25 --trace 0

Workloads are listed in ``BENCHMARK.json``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The package is imported from ``src/`` of the checkout; the
worker process gets ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``.
Temporary output goes under ``.perfbench_tmp/`` and is removed afterwards;
the full record of a run, spans included, is written to ``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  Below 2 * TAIL_BEYOND samples that
    percentile would lie under the median, so the maximum is returned.
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND  # 1-based rank of the tail value
    if k < TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(result: dict) -> tuple[dict, dict]:
    """Metric values and the notes printed beside them.  Times are scaled
    CPU seconds of the worker (see worker.py)."""
    lat_ms = [x * 1000 for x in result["latency_s"]]
    tail_ms, pct = tail(lat_ms)
    n = len(lat_ms)
    values = {
        "setup_s": statistics.median(result["setup_s"]),
        "run_s": statistics.median(result["pass_s"]),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(result['setup_s'])} set-ups",
        "run_s": f"median of {len(result['pass_s'])} passes; unscaled CPU "
                 f"{statistics.median(result['pass_cpu_s']):.4g} s, wall "
                 f"{statistics.median(result['pass_wall_s']):.4g} s, scale "
                 f"{min(result['scale']):.3f}-{max(result['scale']):.3f}",
        "latency_p50_ms": f"n={n}",
        "latency_tail_ms": f"p{pct:.0f}, n={n}, {round(n * (1 - pct / 100))} beyond",
        "peak_rss_mb": "worker process",
    }
    return values, notes


def source_fingerprint(root: Path) -> dict:
    """Commit of the checkout if it is a git repository, and a hash of the
    package sources either way (the benchmark may run outside git)."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "viskeep").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "viskeep" / "__init__.py").is_file():
        print("error: run from a viskeep checkout (src/viskeep not found)",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    result_file = tmp / "result.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp / "work"),
             "--result", str(result_file)],
            env=env, cwd=root, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not result_file.is_file():
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_file) as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    lines = report(result, spec, bool(args.trace))
    if lines is None:
        return 1
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    result["env"].update(source_fingerprint(root))
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(result, fh)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print("\n".join(lines))
    return 0


def report(result: dict, spec: dict, trace: bool) -> list[str] | None:
    """Metric lines for people, then the JSON result line; None if a
    metric that BENCHMARK.json lists has no value."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, notes = result["layers"], {}
    else:
        values, notes = end_to_end(result)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return None
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    lines = []
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:34s} {m['value']:14.6g} {m['unit']}{note}")
    lines.append(f"{'failed_frac':34s} {failed / attempted:14.6g}   "
                 f"({failed} of {attempted} items)")
    if trace:
        spanned = sum(v for k, v in values.items()
                      if k.endswith(".self_s")) + values["trace.unspanned_s"]
        lines.append(f"# per pass: module self times + unspanned = "
                     f"{spanned:.6g} s; traced run_s = {values['trace.run_s']:.6g} s")
    lines.extend(f"# FAILED {problem}" for problem in result["problems"])
    lines.append(json.dumps({"correct": failed == 0, "attempted": attempted,
                             "failed": failed, "metrics": metrics}))
    return lines


if __name__ == "__main__":
    sys.exit(main())
