"""etcsim benchmark: run a workload for a fixed time and report its metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds ``src/etcsim`` and ``BENCHMARK.json``.
The load is a closed loop with one client: repetitions run one after
another, each in a fresh process (see ``rep.py``) with BLAS/OpenMP pinned
to one thread, until ``--seconds`` have passed; a repetition that has
started always finishes. The seed is the only input that varies, and
etcsim receives it only as the noise seed.

With ``--trace 0`` the end-to-end metrics are medians over repetitions.
With ``--trace 1`` untraced and traced repetitions alternate; the
per-layer metrics are lower medians over the traced ones, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

Every metric is printed by name with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
count simulation runs and those failing a correctness check, and
``metrics`` holds the metrics that ``BENCHMARK.json`` lists for the mode.
A complete record of each call, with every repetition and the machine
stamp, is written to ``.bench_out/``; traced repetitions also write
their spans there.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from rep import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 2024
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A repetition could not be run or did not report."""


def spawn(workload: str, seed: int, traced: bool) -> dict:
    """Run one repetition in a fresh process and return its report."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="rep-") as tmp:
        cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)), "--tmp", tmp]
        if traced:
            cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.npz")]
        cmd += ["--t-spawn", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: repetition exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def repeat(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` have passed; in trace mode they
    alternate untraced/traced and include at least one of each."""
    modes = itertools.cycle((False, True) if trace else (False,))
    least = 2 if trace else 1
    reps = []
    t0 = time.perf_counter()
    while len(reps) < least or time.perf_counter() - t0 < seconds:
        traced = next(modes)
        rep = spawn(workload, seed, traced)
        rep["traced"] = traced
        reps.append(rep)
    return reps


def end_to_end(reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"]]

    def med(fn):
        return statistics.median(fn(r) for r in plain)

    return {
        "setup_s": med(lambda r: r["setup_s"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "steps_per_s": med(lambda r: r["steps"] / r["wall_s"]),
        "events_per_s": med(lambda r: r["events"] / r["wall_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def per_layer(reps: list[dict]) -> dict:
    # median_low reports a value one traced repetition measured, so
    # counts stay whole numbers
    traced = [r for r in reps if r["traced"]]
    layers = {name: statistics.median_low(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - end_to_end(reps)["wall_s"])
    return layers


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its metrics; return the result object."""
    reps = repeat(workload, seed, seconds, trace)
    runs = [run for r in reps for run in r["runs"]]
    errors = [e for run in runs for e in run["errors"]]
    failed = sum(1 for run in runs if run["errors"])
    values = per_layer(reps) if trace else end_to_end(reps)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"{workload}: seed {seed}, {len(reps)} repetitions, trace {int(trace)}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<{width}}  {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    for e in errors:
        print(f"  FAILED {e}")
    stamp = reps[0]["machine"]
    print("  machine: " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    result = {"correct": not failed, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": stamp, "result": result, "repetitions": reps}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "etcsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no etcsim sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: measure(spec, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        summary = {"correct": not failed, "attempted": attempted, "failed": failed,
                   "metrics": {f"{w}.{k}": m for w, r in results.items()
                               for k, m in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
