"""Scenario runner CLI.

Runs named presets or INI configurations, writes CSV artifacts plus a
re-runnable manifest, and offers a validate-only mode that reports the
derived trigger constants and the robustness bound check per agent.

With more than one CPU, forked writers format a run's states.csv and
events.csv, each the samples of its own range and the jumps at their
instants. A writer reads its range in one ``trace.chunks(lo, hi, size,
jumps=True)`` pass, one forward walk over the trace's blocks from the
kept row at or before the range, with no skip-ahead; it forms each
jump's delta_u = U(post) - U(pre) from the rows that pass gives around
the jump. In a batch, or a
preset with sub-runs, run k's writers format while run k+1 simulates;
run k is joined when run k+1 is ready to write. So at most one run's
writers run at a time, and each run's stdout line appears in run order,
once its artifacts are complete.

Exit codes: 0 success, 2 validation failure, 3 jump storm, 4 I/O error.
"""

from __future__ import annotations

import argparse
import bisect
import configparser
import contextlib
import dataclasses
import math
import os
import re
import shutil
import sys
from pathlib import Path
from typing import Callable, Literal, get_origin, get_type_hints

import numpy as np

from .engine import JumpStormError, Scenario, SolutionTrace, final_metrics, inter_event_stats, \
    simulate
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
# a run forks at most one writer process per _CHUNK_ROWS samples
_CHUNK_ROWS = 4096
# samples read and formatted per write, with the jumps at their instants,
# so that no whole-run copy of a trace is made; their repeated w_hat, eta
# and tau values are formatted once: a short table of texts per write
_TEXT_ROWS = 512


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


def _write_part(parts: list[Path], write_range, lo: int, hi: int) -> None:
    with contextlib.ExitStack() as files:
        write_range(*[files.enter_context(part.open("a")) for part in parts], lo, hi)


def _write_rows(files: list[tuple[Path, str]], nrows: int, write_range,
                work) -> Callable[[], None]:
    """Write the header of each (path, header) of ``files`` and then rows
    [0, nrows) of them all; ``write_range(*fhs, lo, hi)`` writes the lines
    of rows lo..hi to each file's handle. Return the finish step: the
    files are complete once it has returned.

    The rows are split into one contiguous range per CPU, at most one per
    ``_CHUNK_ROWS`` rows, of about equal ``work``: ``work(s)``,
    nondecreasing in s, is the cost of writing rows [0, s). With one
    range this process writes the files, and the finish step does
    nothing. Otherwise a forked child formats each range while this
    process goes on: the first range's child appends to each file after
    its header, and each other child writes a hidden part file next to
    each. The finish step joins the children and appends the parts in
    order, so the bytes do not depend on the number of ranges; it removes
    the parts, and raises OSError if a child failed. A fork shares the
    trace with the children instead of pickling it; a child only replays,
    slices, sums and formats, since the parent may hold BLAS threads.
    """
    paths = [path for path, _ in files]
    w = max(1, min(_writer_count(), nrows // _CHUNK_ROWS))
    if w == 1:
        with contextlib.ExitStack() as opened:
            fhs = [opened.enter_context(path.open("w")) for path in paths]
            for fh, (_, header) in zip(fhs, files):
                fh.write(header)
            write_range(*fhs, 0, nrows)
        return lambda: None

    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    total = work(nrows)
    bounds = [0, *(bisect.bisect_left(range(nrows), total * k / w, key=work)
                   for k in range(1, w)), nrows]
    parts = [paths] + [[p.with_name(f".{p.name}.{k}.part") for p in paths] for k in range(1, w)]
    procs = []

    def reap() -> None:
        for proc in procs:
            proc.join()
        for part in parts[1:]:
            for p in part:
                p.unlink(missing_ok=True)

    def finish() -> None:
        try:
            for proc, part in zip(procs, parts):
                proc.join()
                if proc.exitcode != 0:
                    raise OSError(f"the writer of {part[0].name} exited with code "
                                  f"{proc.exitcode}")
            for i, path in enumerate(paths):
                with path.open("ab") as fh:
                    for part in parts[1:]:
                        with part[i].open("rb") as src:
                            shutil.copyfileobj(src, fh)
        finally:
            reap()

    for path, header in files:
        path.write_text(header)
    for part in parts[1:]:
        for p in part:
            p.unlink(missing_ok=True)  # left by a killed run; the children append
    try:
        for part, lo, hi in zip(parts, bounds, bounds[1:]):
            proc = ctx.Process(target=_write_part, args=(part, write_range, lo, hi))
            proc.start()
            procs.append(proc)
    except BaseException:
        reap()
        raise
    return finish


def _write_tables(out_dir: Path, trace: SolutionTrace) -> Callable[[], None]:
    """states.csv, one row per sample, and events.csv, one row per jump,
    from one walk over each range of samples: a range writes its samples
    and the jumps at their instants, with their delta_u, the storage of
    each jump's post row less that of its pre row.

    Each states.csv row is one ``%`` of t, j, x and e, with the w_hat, eta
    and tau texts inserted as ``%s``. Those columns repeat, so each
    distinct 64-bit pattern among them is formatted once per chunk of
    ``_TEXT_ROWS`` rows: keyed on bits, not on float equality, so that
    -0.0 keeps its sign. The bytes are those of ``np.savetxt`` with
    ``%.17g`` for every float."""
    n, log, step = trace.n, trace.events, trace.scenario.step
    scheme, feedback = trace.scenario.scheme, trace.scenario.feedback
    cols = (["t", "j"]
            + [f"x{i}" for i in range(n)] + [f"e{i}" for i in range(n)]
            + [f"what_w{i}" for i in range(n)] + [f"eta{i}" for i in range(n)]
            + [f"tau{i}" for i in range(n)])
    line = ",".join([_FMT, "%d"] + [_FMT] * (2 * n) + ["%s"] * (3 * n)) + "\n"

    def write_range(states, events, lo, hi):
        # each writer walks the blocks of its own range
        for k, rows, pre, post in trace.chunks(lo, hi, _TEXT_ROWS, jumps=True):
            delta_u = scheme.storage(post, feedback) - scheme.storage(pre, feedback)
            times = k * step
            j = np.searchsorted(log.t, times, side="right")  # trace.jumps
            keys, at = np.unique(rows[:, 2 * n :].view(np.int64), return_inverse=True)
            texts = np.array([_FMT % v for v in keys.view(float).tolist()], dtype=object)
            head = np.column_stack([times, j, rows[:, : 2 * n]]).tolist()
            tail = texts[at.reshape(len(head), 3 * n)].tolist()
            states.write("".join([line % (*h, *t) for h, t in zip(head, tail)]))
            # the jumps at these instants, jumps a..b-1 of the log
            a = log.t.searchsorted(times.item(0))
            b = a + delta_u.size
            jumps = zip(*[c[a:b].tolist() for c in (log.agent, log.t, log.gap, log.psi)],
                        delta_u.tolist())
            for q, (agent, t, gap, psi, du) in enumerate(jumps, a + 1):
                gap_s = "" if math.isnan(gap) else _FMT % gap
                events.write(f"{agent},{_FMT % t},{q},{gap_s},{_FMT % psi},{_FMT % du}\n")

    def work(s):
        # samples [0, s) and the blocks and jumps before sample s: a
        # sample's line costs about as much as two block replays or two
        # jumps' lines, so a Zeno run's ranges, whose blocks and jumps
        # crowd its second half, take about equal time
        if s == trace.sample_count:
            return 2 * s + trace.row_k.size + len(log)
        [[k]] = trace._step_chunks(s, s + 1)
        return 2 * s + int(trace.row_k.searchsorted(k)) + int(log.t.searchsorted(k * step))

    return _write_rows([(out_dir / "states.csv", ",".join(cols) + "\n"),
                        (out_dir / "events.csv", "agent,t,j,gap,psi,delta_u\n")],
                       trace.sample_count, write_range, work)


def _write_metrics(path: Path, trace: SolutionTrace, final: dict) -> None:
    stats = inter_event_stats(trace)
    with path.open("w") as fh:
        fh.write("agent,min_gap,mean_gap,event_count\n")
        for i in range(trace.n):
            st = stats[i]
            mn = "" if st["min"] is None else _fmt(st["min"])
            mean = "" if st["mean"] is None else _fmt(st["mean"])
            fh.write(f"{i},{mn},{mean},{st['count']}\n")
        fh.write(f"final_max_deviation,{_fmt(final['final_max_deviation'])},,\n")
        fh.write(f"final_distance,{_fmt(final['final_distance'])},,\n")


def write_run_artifacts(out_dir: Path, trace: SolutionTrace, final: dict,
                        manifest: configparser.ConfigParser) -> Callable[[], None]:
    """Write the four artifacts; ``final`` is the trace's final_metrics
    (or its consensus_metrics, which include them) and ``manifest`` the
    scenario_to_config of its scenario.

    Forked writers may still be formatting states.csv and events.csv
    when this returns; they read the trace as it was at the call. Return
    the finish step that completes both files. It raises OSError if a
    writer failed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as writers:
        writers.callback(_write_tables(out_dir, trace))
        _write_metrics(out_dir / "metrics.csv", trace, final)
        with (out_dir / "manifest.ini").open("w") as fh:
            manifest.write(fh)
        return writers.pop_all().close


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
    # a scheme below the bound is built only with allow_zeno set
    if failing.any():
        print("  note: allow_zeno is set; run proceeds without the "
              "no-Zeno guarantee", file=stream)
    return EXIT_OK


class _Pipeline:
    """Runs one after another, each run's artifact writers formatting
    while the next run simulates.

    A run is joined when the next run is ready to write, or by
    :meth:`join` at the end. So at most one run's writers are in flight,
    and the runs' lines appear in run order, each once its artifacts are
    complete. Nothing here holds a run's trace while the next simulates.
    """

    def __init__(self, stream=None) -> None:
        self._stream = stream
        self._finish: Callable[[], int] | None = None

    def join(self) -> int:
        """Finish the run in flight, if any; return its exit code."""
        finish, self._finish = self._finish, None
        return finish() if finish else EXIT_OK

    def run(self, scenario: Scenario, out_dir: Path, label: str = "") -> int:
        """Simulate ``scenario`` and leave its writers in flight. Return
        the worse of this run's failure so far and the exit code of the
        run joined before its writers started."""
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
        final = final_metrics(trace)  # from the kept first and last rows: nothing replayed
        code = self.join()
        try:
            finish = write_run_artifacts(out_dir, trace, final, manifest)
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return max(code, EXIT_IO)
        tag = f"{label}: " if label else ""
        line = (f"{tag}{len(trace.events)} events, final max deviation "
                f"{final['final_max_deviation']:.4g}, artifacts in {out_dir}")

        def done() -> int:
            try:
                finish()
            except OSError as exc:
                print(f"I/O error: {exc}", file=sys.stderr)
                return EXIT_IO
            print(line, file=self._stream)
            return EXIT_OK

        self._finish = done
        if _writer_count() == 1:  # nothing was forked: print the line now
            return max(code, self.join())
        return code


def run(scenario: Scenario, out_dir: Path, label: str = "", stream=None) -> int:
    pipeline = _Pipeline(stream)
    code = pipeline.run(scenario, out_dir, label)
    return max(code, pipeline.join())


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
        if not names or len(set(names)) < len(names):
            print(f"validation error: --batch {args.batch!r} names no preset or one twice",
                  file=sys.stderr)
            return EXIT_VALIDATION
        unknown = [name for name in names if name not in PRESETS]
        if unknown:
            print(f"validation error: --batch names an unknown preset {unknown[0]!r}; "
                  f"available: {', '.join(PRESETS)}", file=sys.stderr)
            return EXIT_VALIDATION
        jobs = [(name, Path(args.out) / name) for name in names]
    elif args.preset or args.config:
        jobs = [(args.preset, Path(args.out))]
    else:
        parser.error("one of --preset, --config, --batch, --list-presets is required")
    pipeline = _Pipeline()
    try:
        worst = max((_dispatch_one(args, name, out_dir, pipeline) for name, out_dir in jobs),
                    default=EXIT_OK)
    finally:
        last = pipeline.join()
    return max(worst, last)


def _dispatch_one(args, preset_name: str | None, out_dir: Path, pipeline: _Pipeline) -> int:
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
            code = pipeline.run(scenario, dest, label=label)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
