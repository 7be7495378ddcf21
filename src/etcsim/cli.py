"""Scenario runner CLI.

Runs named presets or INI configurations, writes CSV artifacts plus a
re-runnable manifest, and offers a validate-only mode that reports the
derived trigger constants and the robustness bound check per agent.

Exit codes: 0 success, 2 validation failure, 3 jump storm, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import math
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np

from .engine import JumpStormError, Scenario, SolutionTrace, consensus_metrics, \
    inter_event_stats, jump_storage_change, simulate
from .etm import (
    BerneburgParams,
    BerneburgScheme,
    DolkParams,
    DolkScheme,
    GarciaParams,
    GarciaScheme,
    SingleParams,
    SingleSystemScheme,
    ZenoGuaranteeError,
)
from .graph import Graph, benchmark_topology
from .presets import PRESETS, build_preset
from .signals import NoiseSignal

__all__ = ["main", "run", "validate", "list_presets", "config_to_scenario", "scenario_to_config"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_JUMP_STORM = 3
EXIT_IO = 4

# config keyword selecting the built-in 8-agent benchmark topology
BENCHMARK_GRAPH_KEYWORD = "paper-fig2"

_FMT = "%.17g"
# rows of states.csv and events.csv formatted per write, so that no
# whole-run copy of a trace is made; also the fewest rows a forked
# writer process is given
_CHUNK_ROWS = 4096


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _parse_vector(text: str) -> np.ndarray:
    toks = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    return np.array([float(t) for t in toks])


def _vec_str(v) -> str:
    return ", ".join(_fmt(x) for x in np.atleast_1d(v))


# ---------------------------------------------------------------------------
# config <-> scenario


def _parse_graph(section) -> Graph:
    edges_text = section.get("edges", BENCHMARK_GRAPH_KEYWORD).strip()
    if edges_text == BENCHMARK_GRAPH_KEYWORD:
        return benchmark_topology()
    n = section.getint("n")
    undirected = section.getboolean("undirected", fallback=True)
    edges = []
    for line in edges_text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if len(toks) == 2:
            edges.append((int(toks[0]), int(toks[1])))
        elif len(toks) == 3:
            edges.append((int(toks[0]), int(toks[1]), float(toks[2])))
        else:
            raise ValueError(f"bad edge line {line!r}: expected 'i j [weight]'")
    return Graph.from_edge_list(n, edges, undirected=undirected)


def _parse_rho_edge(text: str | None) -> dict[tuple[int, int], float] | None:
    """Berneburg split weights from ``i j rho`` lines; None when absent."""
    if text is None:
        return None
    rho = {}
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if len(toks) != 3:
            raise ValueError(f"bad rho_edge line {line!r}: expected 'i j rho'")
        rho[(int(toks[0]), int(toks[1]))] = float(toks[2])
    return rho


def _scheme_from_config(cp: configparser.ConfigParser, graph: Graph | None):
    etm = cp["etm"]
    kind = etm.get("kind")
    allow_zeno = etm.getboolean("allow_zeno", fallback=False)

    def vec(key, default):
        raw = etm.get(key, fallback=None)
        return default if raw is None else _parse_vector(raw)

    if kind == "garcia":
        p = GarciaParams(
            a=etm.getfloat("a"),
            sigma=vec("sigma", 0.5), c=vec("c", 0.0), theta=vec("theta", 0.0),
            w_bar=vec("w_bar", 0.0), mode=etm.get("mode", "static"),
            eps_eta=etm.getfloat("eps_eta", fallback=0.05),
            form=etm.get("form", "modified"),
        )
        return GarciaScheme(graph, p, allow_zeno=allow_zeno)
    if kind == "dolk":
        p = DolkParams(
            a=etm.getfloat("a"),
            varrho=etm.getfloat("varrho", fallback=0.05),
            mu=vec("mu", 0.05), alpha=vec("alpha", 0.5), lam=vec("lam", 0.2),
            c=vec("c", 0.0), theta=vec("theta", 0.0), w_bar=vec("w_bar", 0.0),
            eps_eta=etm.getfloat("eps_eta", fallback=0.05),
            reset_mode=etm.get("reset_mode", "standard"),
            sigma_form=etm.get("sigma_form", "original"),
        )
        return DolkScheme(graph, p, allow_zeno=allow_zeno)
    if kind == "berneburg":
        p = BerneburgParams(
            rho_edge=_parse_rho_edge(etm.get("rho_edge", fallback=None)),
            sigma=vec("sigma", 0.5), c=vec("c", 0.0), theta=vec("theta", 0.0),
            w_bar=vec("w_bar", 0.0), mode=etm.get("mode", "static"),
            eps_eta=etm.getfloat("eps_eta", fallback=0.05),
        )
        return BerneburgScheme(graph, p, allow_zeno=allow_zeno)
    if kind == "single":
        p = SingleParams(
            delta_coef=etm.getfloat("delta_coef"),
            beta_coef=etm.getfloat("beta_coef"),
            c=etm.getfloat("c", fallback=0.0),
            w_bar=etm.getfloat("w_bar", fallback=0.0),
            mode=etm.get("mode", "static"),
            theta=etm.getfloat("theta", fallback=0.0),
            eps_eta=etm.getfloat("eps_eta", fallback=0.05),
        )
        return SingleSystemScheme(p, allow_zeno=allow_zeno)
    raise ValueError(f"unknown etm kind {kind!r}")


def config_to_scenario(cp: configparser.ConfigParser) -> Scenario:
    kind = cp["etm"].get("kind")
    graph = None
    if kind != "single":
        if not cp.has_section("graph"):
            raise ValueError("config needs a [graph] section for consensus schemes")
        graph = _parse_graph(cp["graph"])
    scheme = _scheme_from_config(cp, graph)

    noise_sec = cp["noise"]
    noise = NoiseSignal(
        seed=noise_sec.getint("seed"),
        amplitude=_parse_vector(noise_sec.get("amplitude")),
        sample_rate=noise_sec.getfloat("sample_rate_hz"),
        n=scheme.n,
    )

    sim = cp["sim"]
    kwargs = {}
    if kind == "single":
        n = scheme.n
        kwargs["feedback"] = _parse_vector(sim.get("feedback", "1")).reshape(n, n)
    else:
        kwargs["graph"] = graph
    return Scenario(
        scheme=scheme,
        noise=noise,
        x0=_parse_vector(sim.get("x0")),
        t_final=sim.getfloat("t_final"),
        step=sim.getfloat("step"),
        decimation=sim.getint("decimation", fallback=1),
        detection_refinement=sim.getboolean("detection_refinement", fallback=False),
        **kwargs,
    )


def scenario_to_config(s: Scenario, derived: dict | None = None) -> configparser.ConfigParser:
    """Emit a config that rebuilds the scenario exactly (float values at
    round-trip precision)."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    scheme = s.scheme
    kind = scheme.kind

    if kind != "single":
        if s.graph is None:
            raise ValueError(f"a {kind} scenario needs a graph: the manifest rebuilds "
                             "its trigger from the graph, not from a feedback matrix")
        cp["graph"] = {}
        g = s.graph
        if g.edges == benchmark_topology().edges and g.undirected:
            cp["graph"]["edges"] = BENCHMARK_GRAPH_KEYWORD
        else:
            cp["graph"]["n"] = str(g.n)
            cp["graph"]["undirected"] = str(g.undirected).lower()
            cp["graph"]["edges"] = "\n" + "\n".join(
                f"{i} {j} {_fmt(w)}" for i, j, w in g.edges
            )

    etm = {"kind": kind, "allow_zeno": str(scheme.allow_zeno).lower()}
    p = scheme.params

    def per_agent(v) -> str:
        return _vec_str(np.broadcast_to(v, (scheme.n,)))

    if kind == "single":
        etm.update(delta_coef=_fmt(p.delta_coef), beta_coef=_fmt(p.beta_coef), c=_fmt(p.c),
                   w_bar=_fmt(p.w_bar), theta=_fmt(p.theta), mode=p.mode,
                   eps_eta=_fmt(p.eps_eta))
    else:
        etm.update(c=_vec_str(scheme.c), theta=_vec_str(scheme.theta),
                   w_bar=_vec_str(scheme.w_bar), eps_eta=_fmt(p.eps_eta))
        if kind == "garcia":
            etm.update(a=_fmt(p.a), sigma=per_agent(p.sigma), mode=p.mode, form=p.form)
        elif kind == "dolk":
            etm.update(a=_fmt(p.a), varrho=_fmt(p.varrho), mu=per_agent(p.mu),
                       alpha=per_agent(p.alpha), lam=per_agent(p.lam),
                       reset_mode=p.reset_mode, sigma_form=p.sigma_form)
        elif kind == "berneburg":
            etm.update(sigma=per_agent(p.sigma), mode=p.mode)
            if p.rho_edge is not None:
                etm["rho_edge"] = "\n" + "\n".join(
                    f"{i} {j} {_fmt(r)}" for (i, j), r in sorted(p.rho_edge.items())
                )
    cp["etm"] = etm

    cp["noise"] = {
        "seed": str(s.noise.seed),
        "amplitude": _vec_str(s.noise.amplitude),
        "sample_rate_hz": _fmt(s.noise.sample_rate),
    }
    cp["sim"] = {
        "x0": _vec_str(s.x0),
        "t_final": _fmt(s.t_final),
        "step": _fmt(s.step),
        "decimation": str(s.decimation),
        "detection_refinement": str(s.detection_refinement).lower(),
    }
    if s.graph is None:
        cp["sim"]["feedback"] = _vec_str(s.feedback.ravel())
    if derived:
        cp["derived"] = {k: _vec_str(v) if np.ndim(v) else _fmt(v)
                         for k, v in derived.items()}
    return cp


# ---------------------------------------------------------------------------
# artifacts


def _writer_count() -> int:
    """CPUs in this process's affinity mask; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _write_range(fh, write_chunk, lo: int, hi: int) -> None:
    for a in range(lo, hi, _CHUNK_ROWS):
        write_chunk(fh, a, min(a + _CHUNK_ROWS, hi))


def _write_part(part: Path, write_chunk, lo: int, hi: int) -> None:
    with part.open("w") as fh:
        _write_range(fh, write_chunk, lo, hi)


def _write_rows(path: Path, header: str, nrows: int, write_chunk) -> None:
    """Write ``header`` and then rows [0, nrows) to ``path``;
    ``write_chunk(fh, lo, hi)`` formats rows lo..hi, at most
    ``_CHUNK_ROWS`` of them per call.

    The rows are split into one contiguous range per CPU, each of at
    least ``_CHUNK_ROWS`` rows. This process writes the first range into
    ``path``; a forked child writes each other range to a hidden part
    file next to it, which is then appended in order, so the bytes do
    not depend on the number of ranges. A fork shares the trace with the
    child instead of pickling it; the child only slices and formats,
    since the parent may hold BLAS threads. A child that fails raises
    OSError.
    """
    w = max(1, min(_writer_count(), nrows // _CHUNK_ROWS))
    bounds = [nrows * k // w for k in range(w + 1)]
    children = []
    try:
        with path.open("w") as fh:
            if w > 1:
                import multiprocessing

                ctx = multiprocessing.get_context("fork")
                for k in range(1, w):
                    part = path.with_name(f".{path.name}.{k}.part")
                    proc = ctx.Process(target=_write_part,
                                       args=(part, write_chunk, bounds[k], bounds[k + 1]))
                    proc.start()
                    children.append((proc, part))
            fh.write(header)
            _write_range(fh, write_chunk, 0, bounds[1])
            fh.flush()
            for proc, part in children:
                proc.join()
                if proc.exitcode != 0:
                    raise OSError(f"the writer of {part.name} exited with code {proc.exitcode}")
                with part.open("rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
    finally:
        for proc, part in children:
            proc.join()
            part.unlink(missing_ok=True)


def _write_states(path: Path, trace: SolutionTrace) -> None:
    n = trace.n
    cols = (["t", "j"]
            + [f"x{i}" for i in range(n)] + [f"e{i}" for i in range(n)]
            + [f"what_w{i}" for i in range(n)] + [f"eta{i}" for i in range(n)]
            + [f"tau{i}" for i in range(n)])
    fmts = [_FMT, "%d"] + [_FMT] * (5 * n)

    def write_chunk(fh, lo, hi):
        data = np.column_stack([trace.times[lo:hi], trace.jumps[lo:hi].astype(float),
                                trace.states[lo:hi]])
        np.savetxt(fh, data, fmt=fmts, delimiter=",")

    _write_rows(path, ",".join(cols) + "\n", trace.times.size, write_chunk)


def _write_events(path: Path, trace: SolutionTrace, delta_u: np.ndarray) -> None:
    log = trace.events
    cols = (log.agent, log.t, log.j, log.gap, log.psi, delta_u)

    def write_chunk(fh, lo, hi):
        for agent, t, j, gap, psi, du in zip(*(c[lo:hi].tolist() for c in cols)):
            gap_s = "" if math.isnan(gap) else _FMT % gap
            fh.write(f"{agent},{_FMT % t},{j},{gap_s},{_FMT % psi},{_FMT % du}\n")

    _write_rows(path, "agent,t,j,gap,psi,delta_u\n", len(log), write_chunk)


def _write_metrics(path: Path, trace: SolutionTrace, cons: dict) -> None:
    stats = inter_event_stats(trace)
    with path.open("w") as fh:
        fh.write("agent,min_gap,mean_gap,event_count\n")
        for i in range(trace.n):
            st = stats[i]
            mn = "" if st["min"] is None else _fmt(st["min"])
            mean = "" if st["mean"] is None else _fmt(st["mean"])
            fh.write(f"{i},{mn},{mean},{st['count']}\n")
        fh.write(f"final_max_deviation,{_fmt(cons['final_max_deviation'])},,\n")
        fh.write(f"final_distance,{_fmt(cons['distance_series'][-1])},,\n")


def write_run_artifacts(out_dir: Path, scenario: Scenario, trace: SolutionTrace,
                        cons: dict, manifest: configparser.ConfigParser) -> None:
    """Write the four artifacts; ``cons`` is the trace's consensus_metrics
    and ``manifest`` the scenario's scenario_to_config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    delta_u = jump_storage_change(trace, scenario.scheme, scenario.feedback)
    _write_states(out_dir / "states.csv", trace)
    _write_events(out_dir / "events.csv", trace, delta_u)
    _write_metrics(out_dir / "metrics.csv", trace, cons)
    with (out_dir / "manifest.ini").open("w") as fh:
        manifest.write(fh)


# ---------------------------------------------------------------------------
# commands


def list_presets(stream=None) -> int:
    stream = stream or sys.stdout
    for name, preset in PRESETS.items():
        print(f"{name:20s} {preset.description}", file=stream)
    return EXIT_OK


def validate(scenario: Scenario, label: str = "", stream=None) -> int:
    """Report derived constants and the per-agent robustness-bound
    check. Never simulates."""
    stream = stream or sys.stdout
    scheme = scenario.scheme
    bound = scheme.c_lower_bound()
    derived = scheme.derived_constants()
    if label:
        print(f"== {label} ==", file=stream)
    print(f"scheme: {scheme.kind} mode={scheme.mode}", file=stream)
    for key, val in derived.items():
        vals = ", ".join(f"{v:.6g}" for v in np.atleast_1d(val))
        print(f"  {key}: [{vals}]", file=stream)
    failing = scheme.below_bound()
    for i in range(scheme.n):
        if bound[i] == 0.0:
            note = "bound 0 (timer-gated or noise-free)"
        else:
            note = f"need c > {bound[i]:.3g}"
        verdict = "FAIL" if failing[i] else "pass"
        print(f"  agent {i}: c={scheme.c[i]:.3g} {note} -> {verdict}", file=stream)
    ok = not failing.any()
    if not ok and scheme.allow_zeno:
        print("  note: allow_zeno is set; run proceeds without the "
              "no-Zeno guarantee", file=stream)
        return EXIT_OK
    return EXIT_OK if ok else EXIT_VALIDATION


def run(scenario: Scenario, out_dir: Path, label: str = "", stream=None) -> int:
    stream = stream or sys.stdout
    # a scenario that its manifest cannot rebuild is refused before simulating
    try:
        manifest = scenario_to_config(scenario, derived=scenario.scheme.derived_constants())
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        trace = simulate(scenario)
    except JumpStormError as exc:
        print(f"jump storm: {exc}", file=sys.stderr)
        return EXIT_JUMP_STORM
    cons = consensus_metrics(trace)
    try:
        write_run_artifacts(out_dir, scenario, trace, cons, manifest)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    tag = f"{label}: " if label else ""
    print(f"{tag}{len(trace.events)} events, final max deviation "
          f"{cons['final_max_deviation']:.4g}, artifacts in {out_dir}", file=stream)
    return EXIT_OK


def _build_from_args(args) -> list[tuple[str | None, Scenario]]:
    if args.preset:
        pairs = build_preset(args.preset, seed=args.seed)
    else:
        cp = configparser.ConfigParser()
        cp.optionxform = str
        read = cp.read(args.config)
        if not read:
            raise FileNotFoundError(f"config file {args.config} not found")
        scenario = config_to_scenario(cp)
        if args.seed is not None:
            noise = scenario.noise
            scenario.noise = NoiseSignal(
                seed=args.seed, amplitude=noise.amplitude,
                sample_rate=noise.sample_rate, n=noise.n,
            )
        pairs = [(None, scenario)]
    for _, sc in pairs:
        if args.t_final is not None:
            sc.t_final = args.t_final
        if args.step is not None:
            sc.step = args.step
        if args.decimate is not None:
            sc.decimation = args.decimate
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etcsim",
        description="Event-triggered consensus simulator under bounded "
                    "measurement noise",
    )
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--preset", help="named scenario from the catalog")
    src.add_argument("--config", help="path to an INI scenario file")
    src.add_argument("--batch", help="comma-separated preset list, or 'all'")
    src.add_argument("--list-presets", action="store_true", help="print the catalog")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="noise seed override")
    parser.add_argument("--t-final", type=float, default=None, help="horizon override (s)")
    parser.add_argument("--step", type=float, default=None, help="integration step override (s)")
    parser.add_argument("--decimate", type=int, default=None, help="record every K-th step")
    parser.add_argument("--validate-only", action="store_true",
                        help="check parameters and print derived constants; no simulation")
    args = parser.parse_args(argv)

    if args.list_presets:
        return list_presets()

    if args.batch:
        names = list(PRESETS) if args.batch == "all" else \
            [s.strip() for s in args.batch.split(",") if s.strip()]
        worst = EXIT_OK
        for name in names:
            code = _dispatch_one(args, name, Path(args.out) / name)
            worst = max(worst, code)
        return worst

    if not (args.preset or args.config):
        parser.error("one of --preset, --config, --batch, --list-presets is required")
    return _dispatch_one(args, args.preset, Path(args.out))


def _dispatch_one(args, preset_name: str | None, out_dir: Path) -> int:
    local = copy.copy(args)
    local.preset = preset_name
    if preset_name is None:
        local.config = args.config
    try:
        pairs = _build_from_args(local)
    except (ZenoGuaranteeError, ValueError, KeyError, configparser.Error) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    worst = EXIT_OK
    for sub, scenario in pairs:
        label = preset_name or "config"
        if sub:
            label = f"{label}/{sub}"
        if args.validate_only:
            code = validate(scenario, label=label)
        else:
            dest = out_dir / sub if sub else out_dir
            code = run(scenario, dest, label=label)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
