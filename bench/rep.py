"""One repetition of a benchmark workload, run in a process of its own.

    python3 bench/rep.py --workload NAME --seed N --trace 0|1 \
        --t-spawn T --tmp DIR [--spans FILE]

The parent passes ``--t-spawn``, its ``time.perf_counter()`` just before
starting this process; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so set-up time includes interpreter start and imports.
The last line of standard output is one JSON object with the
repetition's measurements, including each run's failed checks. Exit
code 3 means etcsim could not be imported; an exception exits with 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, instrument

# Workload name -> (entry point, presets in run order). Why each gated
# workload was chosen is recorded in BENCHMARK.json. flow-quiet (>99 % of
# steps without an event: flow stepping and psi_vec dominate) is not
# gated: it is pure computation, and on a shared 2-vCPU VM its wall time
# followed the host's CPU-speed drift, with a 10-seed IQR/median up to
# 0.27, above the largest allowed bound of 0.25. Run it by name to
# measure block stepping.
WORKLOADS = {
    "flow-quiet": ("library", ("garcia-c2e-6", "dolk-c0")),
    "zeno-storm": ("library", ("garcia-c0",)),
    "cli-artifacts": ("cli", ("dolk-c0", "garcia-c0")),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _trace_counts(trace) -> dict:
    return {
        "steps": int(np.unique(trace.times).size - 1),
        "samples": int(trace.times.size),
        "events": len(trace.events),
    }


def build(presets, seed: int) -> dict:
    from etcsim import presets as catalog

    return {name: catalog.build_preset(name, seed)[0][1] for name in presets}


def run_library(scenarios: dict, seed: int) -> tuple[float, list[dict]]:
    """Simulate each scenario; check each trace and free it before the
    next, so peak memory is that of the largest single run."""
    from etcsim import engine

    wall, runs = 0.0, []
    for name, sc in scenarios.items():
        t0 = time.perf_counter()
        trace = engine.simulate(sc)
        wall += time.perf_counter() - t0
        run = _trace_counts(trace)
        x = trace.x_series
        final_dev = float(np.abs(x[-1] - x[0].mean()).max())
        errors = checks.check_run(name, sc, checks.EventLog.from_trace(trace), final_dev, seed)
        run["errors"] = [f"{name}: {e}" for e in errors]
        runs.append(run)
        del trace, x
    return wall, runs


def run_cli(scenarios: dict, seed: int, out: Path, tracer) -> tuple[float, list[dict], dict]:
    """One ``etcsim --batch`` over the workload's presets, then the
    artifact checks."""
    from etcsim import cli

    counts: list[dict] = []
    simulate = cli.simulate

    def counting_simulate(scenario):
        trace = simulate(scenario)
        counts.append(_trace_counts(trace))
        return trace

    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    argv = ["--batch", ",".join(scenarios), "--seed", str(seed), "--out", str(out)]
    cli.simulate = counting_simulate
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = main(argv)
            wall = time.perf_counter() - t0
    finally:
        cli.simulate = simulate
    if tracer:
        tracer.restore()  # the checks below call traced functions

    runs, sizes = [], {"states_csv_bytes": 0, "events_csv_bytes": 0}
    for k, (name, sc) in enumerate(scenarios.items()):
        d = out / name
        run = counts[k] if k < len(counts) else {"steps": 0, "samples": 0, "events": 0}
        errors = [] if code == 0 else [f"exit code {code}"]
        errors += checks.artifacts_exist(d)
        if not errors:
            log = checks.EventLog.from_csv(d / "events.csv")
            errors += checks.row_count(d / "events.csv", run["events"])
            errors += checks.row_count(d / "states.csv", run["samples"])
            errors += checks.manifest(d / "manifest.ini", sc)
            dev = checks.final_deviation_from_metrics(d / "metrics.csv")
            errors += checks.check_run(name, sc, log, dev, seed)
            sizes["states_csv_bytes"] += (d / "states.csv").stat().st_size
            sizes["events_csv_bytes"] += (d / "events.csv").stat().st_size
        runs.append({**run, "errors": [f"{name}: {e}" for e in errors]})
    return wall, runs, sizes


def layer_metrics(spans: dict, rep: dict) -> dict:
    """Per-layer metrics of a traced repetition (all but the tracing
    overhead, which needs the untraced repetitions)."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    sim = total("engine.simulate")
    cli_runs = len(rep["runs"]) if "cli.main" in spans else 0
    return {
        "signals.window_table_s": total("signals.window_table"),
        "presets.build_s": total("presets.build"),
        "etm.phi_solve_s": total("etm.phi_solve"),
        "etm.psi_vec_calls": calls("etm.psi_vec"),
        "etm.psi_vec_s": total("etm.psi_vec"),
        "hybrid.as_row_calls": calls("hybrid.as_row"),
        "hybrid.as_row_s": total("hybrid.as_row"),
        "engine.simulate_s": sim,
        "engine.simulate_self_s": own("engine.simulate"),
        "engine.steps": rep["steps"],
        "engine.samples": rep["samples"],
        "engine.psi_calls_per_step": calls("etm.psi_vec") / max(rep["steps"], 1),
        "hybrid.apply_jump_calls": calls("hybrid.apply_jump"),
        "hybrid.apply_jump_s": total("hybrid.apply_jump"),
        "hybrid.state_copy_calls": calls("hybrid.state_copy"),
        "hybrid.state_copy_s": total("hybrid.state_copy"),
        "engine.events": rep["events"],
        "engine.copies_per_event": calls("hybrid.state_copy") / max(rep["events"], 1),
        "engine.lyapunov_series_s": total("engine.lyapunov_series"),
        "etm.storage_calls": calls("etm.storage"),
        "etm.storage_s": total("etm.storage"),
        "engine.inter_event_stats_s": total("engine.inter_event_stats"),
        "engine.consensus_metrics_s": total("engine.consensus_metrics"),
        "cli.write_run_artifacts_s": total("cli.write_run_artifacts"),
        "cli.states_csv_s": total("cli.states_csv"),
        "cli.states_csv_bytes": rep["states_csv_bytes"],
        "cli.events_csv_s": total("cli.events_csv"),
        "cli.events_csv_bytes": rep["events_csv_bytes"],
        "cli.metrics_csv_s": total("cli.metrics_csv"),
        # the ini write itself is the only work write_run_artifacts does
        # outside its child spans
        "cli.manifest_s": total("cli.scenario_to_config") + own("cli.write_run_artifacts"),
        "cli.overhead_s_per_run": (total("cli.main") - sim) / cli_runs if cli_runs else 0.0,
    }


def run_rep(workload: str, seed: int, traced: bool, t_spawn: float, tmp: Path,
            spans_path: Path | None = None) -> dict:
    """Set up, run and check one repetition; return its measurements."""
    kind, presets = WORKLOADS[workload]
    tracer = Tracer() if traced else None
    try:
        if tracer:
            instrument(tracer)
        # cli-artifacts lets the CLI build its own scenarios; these are the
        # reference its manifests and dwell times are checked against
        scenarios = build(presets, seed)
        setup_s = time.perf_counter() - t_spawn

        rss0 = _maxrss_mb()
        sizes = {"states_csv_bytes": 0, "events_csv_bytes": 0}
        if kind == "library":
            wall, runs = run_library(scenarios, seed)
        else:
            wall, runs, sizes = run_cli(scenarios, seed, tmp, tracer)
        peak = _maxrss_mb() - rss0
    finally:
        if tracer:
            tracer.restore()

    rep = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak,
        "steps": sum(r["steps"] for r in runs),
        "samples": sum(r["samples"] for r in runs),
        "events": sum(r["events"] for r in runs),
        "runs": runs,
        **sizes,
        "machine": machine(),
    }
    if tracer:
        rep["layers"] = layer_metrics(tracer.totals(), rep)
        if spans_path is not None:
            tracer.write(spans_path)
    return rep


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    try:
        import etcsim  # noqa: F401
    except ImportError as exc:
        print(f"cannot import etcsim: {exc}", file=sys.stderr)
        return 3
    rep = run_rep(args.workload, args.seed, bool(args.trace), args.t_spawn, args.tmp, args.spans)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
