"""In-memory span recorder and the instrumentation of etcsim's layers.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark replaces a module attribute or class method with a wrapper that
records (name, start, end, parent) and calls the original. Nothing under
``src/`` knows about it. Spans are kept in ``array`` columns of 24 bytes
a span, so the ~2M spans of a traced ``cli-artifacts`` repetition stay
near 50 MB, and are written out once at the end.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Nested spans of one repetition; all spans share that repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper. A target that the
        program no longer has is skipped, so its layer reports zero."""
        original = vars(owner).get(attr)
        if original is None:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children; children of one span run one after another, so they
        never overlap."""
        if not self.start:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span as columns of an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def instrument(tracer: Tracer) -> None:
    """Wrap the calls into each etcsim layer with spans.

    ``engine`` and ``cli`` bind some functions by name at import, so the
    name is patched in the module that makes the call. The metrics pass
    is traced where ``cli`` calls it, the only production caller.
    """
    from etcsim import cli, engine, etm, hybrid, presets, signals

    tracer.patch(signals.NoiseSignal, "window_table", "signals.window_table")
    tracer.patch(etm, "phi_solve", "etm.phi_solve")
    for cls in vars(etm).values():
        if isinstance(cls, type):
            tracer.patch(cls, "psi_vec", "etm.psi_vec")
            tracer.patch(cls, "storage", "etm.storage")
    tracer.patch(engine, "apply_jump", "hybrid.apply_jump")
    tracer.patch(hybrid.HybridState, "copy", "hybrid.state_copy")
    tracer.patch(hybrid.HybridState, "as_row", "hybrid.as_row")
    for module in (presets, cli):
        tracer.patch(module, "build_preset", "presets.build")
    for module in (engine, cli):
        tracer.patch(module, "simulate", "engine.simulate")
    for fn in ("lyapunov_series", "inter_event_stats", "consensus_metrics"):
        tracer.patch(cli, fn, f"engine.{fn}")
    for attr, name in (("write_run_artifacts", "cli.write_run_artifacts"),
                       ("_write_states", "cli.states_csv"),
                       ("_write_events", "cli.events_csv"),
                       ("_write_metrics", "cli.metrics_csv"),
                       ("scenario_to_config", "cli.scenario_to_config")):
        tracer.patch(cli, attr, name)
