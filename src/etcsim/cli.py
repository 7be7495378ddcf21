"""Scenario runner CLI.

Runs named presets or INI configurations, writes CSV artifacts plus a
re-runnable manifest, and offers a validate-only mode that reports the
derived trigger constants and the robustness bound check per agent.

Exit codes: 0 success, 2 validation failure, 3 jump storm, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import re
import shutil
import sys
from pathlib import Path
from typing import Literal, get_origin, get_type_hints

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
from .graph import Graph, benchmark_topology, laplacian
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


def _check_keys(section, known) -> None:
    """Refuse a key of ``section`` outside ``known``, so that a misspelled
    key cannot re-run silently under its default."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"unknown [{section.name}] key {unknown[0]!r}; "
                         f"expected one of {', '.join(known)}")


def _required(section, key: str) -> str:
    if key not in section:
        raise ValueError(f"[{section.name}] needs the key {key!r}")
    return section[key]


def _edge_lines(text: str, weighted: bool) -> list[tuple]:
    """(i, j[, w]) per nonblank ``i j w`` line; w may be left out unless
    ``weighted``."""
    out = []
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if not (3 if weighted else 2) <= len(toks) <= 3:
            raise ValueError(f"bad edge line {line!r}: expected 'i j {'w' if weighted else '[w]'}'")
        out.append((int(toks[0]), int(toks[1]), *(float(t) for t in toks[2:])))
    return out


def _edge_text(triples) -> str:
    return "\n" + "\n".join(f"{i} {j} {_fmt(w)}" for i, j, w in triples)


# ---------------------------------------------------------------------------
# config <-> scenario
#
# The [etm] keys are kind, allow_zeno and the fields of the kind's params
# dataclass, written in field order; each field's type hint picks its
# text form, and an absent key takes the dataclass default. Every section
# refuses a key it does not know, and the config refuses a section it does
# not read: [derived] is the manifest's echo of the derived constants.

_SECTIONS = ("graph", "etm", "noise", "sim", "derived")

# written as "false" by the manifests of earlier versions, which could
# also bisect for off-grid event instants; "true" asks for that removed path
_LEGACY_SIM_KEY = "detection_refinement"

_SCHEMES = {  # kind -> (params class, constructor(graph, params, allow_zeno))
    "garcia": (GarciaParams, GarciaScheme),
    "dolk": (DolkParams, DolkScheme),
    "berneburg": (BerneburgParams, BerneburgScheme),
    "single": (SingleParams, lambda _graph, p, allow_zeno: SingleSystemScheme(p, allow_zeno)),
}
# field type -> (value -> text, or None to leave the key out; text -> value)
_CODEC = {
    float: (lambda v, n: _fmt(v), float),
    float | np.ndarray: (lambda v, n: _vec_str(np.broadcast_to(v, (n,))), _parse_vector),
    str: (lambda v, n: v, str),  # a Literal choice, checked by the params class
    dict[tuple[int, int], float] | None: (  # Berneburg's rho_edge
        lambda rho, n: None if rho is None else _edge_text(
            (i, j, r) for (i, j), r in sorted(rho.items())),
        lambda text: {(i, j): r for i, j, r in _edge_lines(text, weighted=True)}),
}


def _codec(hint):
    return _CODEC[str if get_origin(hint) is Literal else hint]


def _parse_graph(section) -> Graph:
    _check_keys(section, ("n", "undirected", "edges"))
    edges_text = section.get("edges", BENCHMARK_GRAPH_KEYWORD).strip()
    if edges_text == BENCHMARK_GRAPH_KEYWORD:
        return benchmark_topology()
    return Graph.from_edge_list(int(_required(section, "n")),
                                _edge_lines(edges_text, weighted=False),
                                undirected=section.getboolean("undirected", fallback=True))


def _scheme_from_config(etm, graph: Graph | None):
    kind = etm["kind"]
    if kind not in _SCHEMES:
        raise ValueError(f"unknown etm kind {kind!r}")
    cls, build = _SCHEMES[kind]
    hints = get_type_hints(cls)
    _check_keys(etm, ("kind", "allow_zeno", *hints))
    params = cls(**{f.name: _codec(hints[f.name])[1](_required(etm, f.name))
                    for f in dataclasses.fields(cls)
                    if f.name in etm or f.default is dataclasses.MISSING})
    return build(graph, params, allow_zeno=etm.getboolean("allow_zeno", fallback=False))


def config_to_scenario(cp: configparser.ConfigParser) -> Scenario:
    unknown = sorted(set(cp.sections()) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"unknown config section [{unknown[0]}]; "
                         f"expected one of {', '.join(_SECTIONS)}")
    etm = cp["etm"]
    graph = None
    if _required(etm, "kind") != "single":
        if not cp.has_section("graph"):
            raise ValueError("config needs a [graph] section for consensus schemes")
        graph = _parse_graph(cp["graph"])
    elif cp.has_section("graph"):
        raise ValueError("kind = single takes no [graph] section; "
                         "its gain matrix is [sim] feedback")
    scheme = _scheme_from_config(etm, graph)
    n = scheme.n

    noise_sec = cp["noise"]
    _check_keys(noise_sec, ("seed", "amplitude", "sample_rate_hz"))
    noise = NoiseSignal(
        seed=int(_required(noise_sec, "seed")),
        amplitude=_parse_vector(_required(noise_sec, "amplitude")),
        sample_rate=float(_required(noise_sec, "sample_rate_hz")),
        n=n,
    )

    sim = cp["sim"]
    _check_keys(sim, ("x0", "t_final", "step", "decimation", "feedback", _LEGACY_SIM_KEY))
    if sim.getboolean(_LEGACY_SIM_KEY, fallback=False):
        raise ValueError(f"[sim] {_LEGACY_SIM_KEY} = true selects the removed in-step bisection; "
                         "events are detected on the step grid only, so drop the key")
    feedback = sim.get("feedback")
    if feedback is not None:
        feedback = _parse_vector(feedback).reshape(n, n)
    elif graph is None:
        feedback = np.eye(n)  # the single plant's unit gain
    return Scenario(
        scheme=scheme,
        noise=noise,
        x0=_parse_vector(_required(sim, "x0")),
        graph=graph,
        feedback=feedback,
        t_final=float(_required(sim, "t_final")),
        step=float(_required(sim, "step")),
        decimation=sim.getint("decimation", fallback=1),
    )


def scenario_to_config(s: Scenario, derived: dict | None = None) -> configparser.ConfigParser:
    """Emit a config that rebuilds the scenario exactly (float values at
    round-trip precision)."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    scheme = s.scheme

    if scheme.kind != "single":
        if s.graph is None:
            raise ValueError(f"a {scheme.kind} scenario needs a graph: the manifest rebuilds "
                             "its trigger from the graph, not from a feedback matrix")
        g = s.graph
        if g.edges == benchmark_topology().edges and g.undirected:
            cp["graph"] = {"edges": BENCHMARK_GRAPH_KEYWORD}
        else:
            cp["graph"] = {"n": str(g.n), "undirected": str(g.undirected).lower(),
                           "edges": _edge_text(g.edges)}

    p = scheme.params
    etm = {"kind": scheme.kind, "allow_zeno": str(scheme.allow_zeno).lower()}
    for name, hint in get_type_hints(type(p)).items():
        text = _codec(hint)[0](getattr(p, name), scheme.n)
        if text is not None:
            etm[name] = text
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
    }
    if s.graph is None or not np.array_equal(s.feedback, laplacian(s.graph)):
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


def _build_from_args(args, preset: str | None) -> list[tuple[str | None, Scenario]]:
    if preset:
        pairs = build_preset(preset, seed=args.seed)
    else:
        cp = configparser.ConfigParser()
        cp.optionxform = str
        read = cp.read(args.config)
        if not read:
            raise FileNotFoundError(f"config file {args.config} not found")
        scenario = config_to_scenario(cp)
        if args.seed is not None:
            scenario.noise = dataclasses.replace(scenario.noise, seed=args.seed)
        pairs = [(None, scenario)]
    # replace() re-runs the validation of each overridden scenario
    given = {"t_final": args.t_final, "step": args.step, "decimation": args.decimate}
    overrides = {k: v for k, v in given.items() if v is not None}
    return [(sub, dataclasses.replace(sc, **overrides)) for sub, sc in pairs]


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
    try:
        pairs = _build_from_args(args, preset_name)
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
