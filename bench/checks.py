"""Correctness gate of the benchmark.

Each check returns a list of failure messages; an empty list passes. The
rules are the acceptance criteria of the test suite, applied to the
traces and artifacts that a benchmark repetition produced.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARTIFACTS = ("states.csv", "events.csv", "metrics.csv", "manifest.ini")
FINAL_DEVIATION_LIMIT = 0.05  # criterion 7
DELTA_U_LIMIT = 1e-12  # criterion 8
ZENO_FREE_GAP_STEPS = 50  # criterion 6: c above beta(2 w_bar)
COLLAPSE_GAP_STEPS = 10  # criterion 6: c = 0
COLLAPSE_WINDOW = 2.0
# Event counts of the Zeno-free presets at the default noise seed. The
# Zeno preset's count is reported, not gated: a correct jump resolution
# may change it.
REFERENCE_SEED = 2024
REFERENCE_EVENTS = {"garcia-c2e-6": 438, "dolk-c0": 281}


@dataclass
class EventLog:
    """Transmissions of one run as columns; ``gap`` is NaN at an agent's
    first event, ``delta_u`` is present only when read from events.csv."""

    agent: np.ndarray
    t: np.ndarray
    gap: np.ndarray
    delta_u: np.ndarray | None = None

    @classmethod
    def from_trace(cls, trace) -> "EventLog":
        ev = trace.events
        return cls(
            agent=np.array([e.agent for e in ev], dtype=np.int64),
            t=np.array([e.time.t for e in ev], dtype=float),
            gap=np.array([np.nan if e.inter_event_gap is None else e.inter_event_gap
                          for e in ev], dtype=float),
        )

    @classmethod
    def from_csv(cls, path: Path) -> "EventLog":
        with path.open() as fh:
            header = fh.readline().strip().split(",")
            rows = [line.rstrip("\n").split(",") for line in fh]
        col = {name: k for k, name in enumerate(header)}

        def column(name):
            return np.array([float(r[col[name]]) if r[col[name]] else np.nan for r in rows])

        return cls(agent=column("agent").astype(np.int64), t=column("t"),
                   gap=column("gap"), delta_u=column("delta_u"))


def min_gap(log: EventLog, floor) -> list[str]:
    """Every same-agent gap is at least ``floor`` (scalar or per agent)."""
    need = np.asarray(floor, dtype=float)
    need = np.broadcast_to(need[log.agent] if need.ndim else need, log.gap.shape)
    bad = np.flatnonzero(log.gap < need)  # NaN (first event) compares False
    if bad.size:
        k = int(bad[0])
        return [f"agent {log.agent[k]} gap {log.gap[k]:.6g} at t={log.t[k]:.6g} "
                f"below {need[k]:.6g} ({bad.size} such gaps)"]
    return []


def collapse(log: EventLog, t_final: float, ceiling: float) -> list[str]:
    """Some agent's minimum gap over the trailing window is at most
    ``ceiling``: the inter-event times still collapse."""
    late = log.t >= t_final - COLLAPSE_WINDOW
    for i in np.unique(log.agent[late]):
        times = log.t[late & (log.agent == i)]
        if times.size >= 2 and np.diff(times).min() <= ceiling:
            return []
    return [f"no agent's trailing {COLLAPSE_WINDOW:g} s gap is <= {ceiling:.3g}: no collapse"]


def final_deviation(dev: float) -> list[str]:
    if dev <= FINAL_DEVIATION_LIMIT:
        return []
    return [f"final max deviation {dev:.4g} above {FINAL_DEVIATION_LIMIT}"]


def event_count(count: int, expected: int) -> list[str]:
    return [] if count == expected else [f"{count} events, reference {expected}"]


def delta_u(log: EventLog) -> list[str]:
    bad = np.flatnonzero(~(log.delta_u <= DELTA_U_LIMIT))
    if bad.size:
        k = int(bad[0])
        return [f"delta_u {log.delta_u[k]:.3g} at t={log.t[k]:.6g} above {DELTA_U_LIMIT}"]
    return []


def row_count(path: Path, expected: int) -> list[str]:
    """The CSV at ``path`` has a header plus ``expected`` rows."""
    lines = 0
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    rows = lines - 1
    return [] if rows == expected else [f"{path.name}: {rows} rows, trace has {expected}"]


def artifacts_exist(out_dir: Path) -> list[str]:
    return [f"missing {out_dir.name}/{f}" for f in ARTIFACTS if not (out_dir / f).is_file()]


def _sections(cp: configparser.ConfigParser) -> dict:
    return {name: dict(cp[name]) for name in cp.sections()}


def manifest(path: Path, reference) -> list[str]:
    """``manifest.ini`` re-parses through ``config_to_scenario`` to the
    parameters of the reference scenario."""
    from etcsim.cli import config_to_scenario, scenario_to_config

    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path)
    try:
        rebuilt = config_to_scenario(cp)
    except (KeyError, ValueError, configparser.Error) as exc:
        return [f"{path.name} does not parse: {exc!r}"]
    got = _sections(scenario_to_config(rebuilt, rebuilt.scheme.derived_constants()))
    want = _sections(scenario_to_config(reference, reference.scheme.derived_constants()))
    return [] if got == want else [f"{path.name} re-parses to other parameters"]


def final_deviation_from_metrics(path: Path) -> float:
    with path.open() as fh:
        for line in fh:
            key, value, *_ = line.split(",")
            if key == "final_max_deviation":
                return float(value)
    return float("nan")


def check_run(preset: str, scenario, log: EventLog, final_dev: float, seed: int) -> list[str]:
    """The acceptance rules that apply to one run of ``preset``."""
    h = scenario.step
    errors: list[str] = []
    if preset == "garcia-c0":
        errors += collapse(log, scenario.t_final, COLLAPSE_GAP_STEPS * h)
    else:
        errors += final_deviation(final_dev)
    if preset == "garcia-c2e-6":
        errors += min_gap(log, ZENO_FREE_GAP_STEPS * h)
    if preset == "dolk-c0":
        errors += min_gap(log, scenario.scheme.tau_miet - h)
        if log.delta_u is not None:
            errors += delta_u(log)
    if seed == REFERENCE_SEED and preset in REFERENCE_EVENTS:
        errors += event_count(log.t.size, REFERENCE_EVENTS[preset])
    return errors
