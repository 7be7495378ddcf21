"""Hybrid simulation loop and trace metrics.

Flow is advanced by fixed-step classical RK4 with the step equal (by
default) to the noise-hold period, so the right-hand side is smooth
inside every step. The held output makes x + e invariant along flow, so
the control input is constant between transmissions; the only state with
nontrivial stage coupling is eta, and the stepper exploits that while
remaining classical RK4 on the full state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .etm import QuadraticTrigger
from .graph import Graph, laplacian
from .hybrid import EventLog, HybridState, _grown, apply_jump
from .signals import NoiseSignal

__all__ = [
    "Scenario",
    "SolutionTrace",
    "JumpStormError",
    "jump_set",
    "simulate",
    "inter_event_stats",
    "jump_storage_change",
    "lyapunov_series",
    "consensus_metrics",
    "zeno_indicator",
]

TRIGGER_TOL = 1e-12
REFINE_TOL = 1e-9
JUMPS_PER_INSTANT_FACTOR = 10


class JumpStormError(RuntimeError):
    """More jumps at one continuous time than the safety cap allows."""


@dataclass
class Scenario:
    """One simulation setup: plant interconnection, trigger scheme,
    noise, initial condition, and integration controls.

    ``feedback`` defaults to the graph Laplacian (consensus loop); the
    single-plant demo passes its own gain matrix and no graph. The run
    starts from x0 with zero errors, eta and clocks, and with each
    agent's noise at t = 0 latched.
    """

    scheme: QuadraticTrigger
    noise: NoiseSignal
    x0: np.ndarray
    graph: Graph | None = None
    feedback: np.ndarray | None = None
    t_final: float = 8.0
    step: float = 1e-4
    detection_refinement: bool = False
    decimation: int = 1

    def __post_init__(self) -> None:
        n = self.scheme.n
        if self.feedback is None:
            if self.graph is None:
                raise ValueError("scenario needs a graph or an explicit feedback matrix")
            self.feedback = laplacian(self.graph)
        self.feedback = np.asarray(self.feedback, dtype=float)
        if self.feedback.shape != (n, n):
            raise ValueError(f"feedback shape {self.feedback.shape} != ({n},{n})")
        if self.step <= 0 or self.t_final <= 0:
            raise ValueError("step and t_final must be positive")
        if self.decimation < 1:
            raise ValueError("decimation must be a positive integer")
        if self.noise.n != n:
            raise ValueError(f"noise channel count {self.noise.n} != n={n}")
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (n,):
            raise ValueError(f"x0 shape {self.x0.shape} != ({n},)")

    def initial_state(self) -> HybridState:
        z = np.zeros(self.scheme.n)
        return HybridState(self.x0, z, self.noise.sample_vector(0.0), z, z)


@dataclass
class SolutionTrace:
    """Recorded hybrid arc: samples on the hybrid time domain plus the
    full transmission log. Samples at event instants hold the post-jump
    state; pre-jump rows live in the log."""

    times: np.ndarray  # (m,) continuous time per sample
    jumps: np.ndarray  # (m,) jump counter per sample
    states: np.ndarray  # (m, 5n) rows: x, e, w_hat, eta, tau
    events: EventLog
    run_manifest: dict
    n: int

    def state_at(self, k: int) -> HybridState:
        return HybridState.from_row(self.states[k])

    @property
    def x_series(self) -> np.ndarray:
        return self.states[:, : self.n]

    @property
    def final_state(self) -> HybridState:
        return self.state_at(len(self.times) - 1)


class _Recorder:
    """Growable sample buffer (events force off-grid rows)."""

    def __init__(self, n: int, capacity: int):
        self.t = np.empty(capacity)
        self.j = np.empty(capacity, dtype=np.int64)
        self.rows = np.empty((capacity, 5 * n))
        self.m = 0

    def push(self, t: float, j: int, state: HybridState) -> None:
        if self.m == self.t.shape[0]:
            self.t = _grown(self.t, self.m)
            self.j = _grown(self.j, self.m)
            self.rows = _grown(self.rows, self.m)
        self.t[self.m] = t
        self.j[self.m] = j
        self.rows[self.m] = state.row
        self.m += 1


def _flow_advance(state: HybridState, u: np.ndarray, h: float, w: np.ndarray,
                  scheme: QuadraticTrigger) -> None:
    """Advance the state in place by one flow interval of length h with
    frozen noise w. Classical RK4; x, e, tau have exactly linear flow so
    only eta needs stage evaluations."""
    if scheme.mode == "dynamic":
        e_tilde0 = state.e + state.what_w - w
        half = 0.5 * h
        p1 = scheme.psi_vec(u=u, e_tilde=e_tilde0, tau=state.tau, y_tilde=state.x + w)
        # stages 2 and 3 share the midpoint inputs (u is stage-invariant)
        mid_et = e_tilde0 - half * u
        mid_y = state.x + half * u + w
        p2 = scheme.psi_vec(u=u, e_tilde=mid_et, tau=state.tau + half, y_tilde=mid_y)
        p4 = scheme.psi_vec(u=u, e_tilde=e_tilde0 - h * u, tau=state.tau + h,
                            y_tilde=state.x + h * u + w)
        eps = scheme.eps_eta
        eta = state.eta
        k1 = p1 - eps * eta
        k2 = p2 - eps * (eta + half * k1)
        k3 = p2 - eps * (eta + half * k2)
        k4 = p4 - eps * (eta + h * k3)
        eta += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        # discrete detection lets eta undershoot slightly; project back
        np.maximum(eta, 0.0, out=eta)
    state.x += h * u
    state.e -= h * u
    state.tau += h


def jump_set(scheme: QuadraticTrigger, state: HybridState, u: np.ndarray,
             w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trigger values psi and the mask of agents in the jump set D, for
    control input u and current noise w.

    Static rule: agent i is in D when psi_i <= -TRIGGER_TOL. Dynamic
    rule: additionally eta_i + theta_i psi_i <= TRIGGER_TOL; eta is
    clamped nonnegative, so that condition keeps the +tol side.

    Tie rule on the overlap of the flow set C and D: flow priority. At
    psi_i = 0 (within the tolerance) both flowing and jumping are
    admissible, and the solver flows, because the persistently flowing
    solution is the one the guarantees speak about. Jump resolution,
    the refinement probes and the tests all decide through this function.
    """
    e_tilde = state.e + state.what_w - w
    psi = scheme.psi_vec(u=u, e_tilde=e_tilde, tau=state.tau, y_tilde=state.x + w)
    due = psi <= -TRIGGER_TOL
    if scheme.mode == "dynamic":
        due &= state.eta + scheme.theta * psi <= TRIGGER_TOL
    return psi, due


def simulate(s: Scenario) -> SolutionTrace:
    scheme = s.scheme
    n = scheme.n
    h = s.step
    fb = s.feedback
    steps = int(round(s.t_final / h))

    n_windows = s.noise.window_index(s.t_final) + 2
    table = s.noise.window_table(n_windows)
    # noise window index at each step boundary
    k_win = np.floor(np.arange(steps + 1) * (h * s.noise.sample_rate) * (1 + 1e-12)).astype(np.int64)

    state = s.initial_state()
    rec = _Recorder(n, steps // s.decimation + 16)
    log = EventLog(n)
    last_event_t = [math.nan] * n  # a first event's gap is NaN
    pre = np.empty(5 * n)  # the state row before the jump being logged
    j = 0
    storm_cap = n * JUMPS_PER_INSTANT_FACTOR

    def process_jumps_at(t: float, state: HybridState, w: np.ndarray) -> int:
        """Apply the jumps due at time t: one pass in ascending agent
        order, then one re-evaluation pass (a neighbor's transmission
        changes u and can newly enable a jump). The jump set is
        re-evaluated after every applied jump. Returns jumps applied."""
        nonlocal j
        psi, due = jump_set(scheme, state, -fb @ (state.x + state.e + state.what_w), w)
        total = 0
        for _pass in range(2):
            if not due.any():
                break
            for i in range(n):
                if not due[i]:
                    continue
                pre[:] = state.row
                apply_jump(state, i, w, scheme)
                j += 1
                log.append(i, t, j, t - last_event_t[i], psi.item(i), pre, state.row)
                last_event_t[i] = t
                total += 1
                if total > storm_cap:
                    raise JumpStormError(
                        f"{total} jumps at t={t:.6f} exceed the cap of {storm_cap}"
                    )
                psi, due = jump_set(scheme, state, -fb @ (state.x + state.e + state.what_w), w)
        return total

    # jumps may already be due at t=0
    w0 = table[:, k_win[0]]
    process_jumps_at(0.0, state, w0)
    rec.push(0.0, j, state)

    for k in range(steps):
        t_next = (k + 1) * h
        w_step = table[:, k_win[k]]
        w_next = table[:, k_win[k + 1]]
        u = -fb @ (state.x + state.e + state.what_w)

        if s.detection_refinement and _due_after(state, u, h, w_step, w_next, scheme):
            dt = _refine_instant(state, u, h, w_step, scheme)
            t_jump = k * h + dt
            if dt > 0.0:
                _flow_advance(state, u, dt, w_step, scheme)
            w_at = w_next if dt >= h else w_step
            applied = process_jumps_at(t_jump, state, w_at)
            if applied:
                rec.push(t_jump, j, state)
            rest = h - dt
            if rest > 0.0:
                u = -fb @ (state.x + state.e + state.what_w)
                _flow_advance(state, u, rest, w_step, scheme)
        else:
            _flow_advance(state, u, h, w_step, scheme)

        applied = process_jumps_at(t_next, state, w_next)
        if applied or (k + 1) % s.decimation == 0 or k + 1 == steps:
            rec.push(t_next, j, state)

    manifest = {
        "seed": s.noise.seed,
        "step": h,
        "t_final": s.t_final,
        "trigger_tol": TRIGGER_TOL,
        "detection_refinement": s.detection_refinement,
        "decimation": s.decimation,
        "scheme": scheme.kind,
        "derived": scheme.derived_constants(),
        "event_count": len(log),
    }
    return SolutionTrace(
        times=rec.t[: rec.m].copy(),
        jumps=rec.j[: rec.m].copy(),
        states=rec.rows[: rec.m].copy(),
        events=log,
        run_manifest=manifest,
        n=n,
    )


def _due_after(state, u, dt, w_flow, w_check, scheme) -> bool:
    """Would any agent be in the jump set after flowing dt with the noise
    w_flow, judged against the noise w_check?"""
    probe = state.copy()
    if dt > 0.0:
        _flow_advance(probe, u, dt, w_flow, scheme)
    return bool(jump_set(scheme, probe, u, w_check)[1].any())


def _refine_instant(state, u, h, w_step, scheme) -> float:
    """Bisect the earliest trigger crossing inside (t_k, t_k + h], given
    that some agent is due at t_k + h under the next window's noise.

    The probes use the frozen step noise in the interior. If no agent is
    due at t_k + h under it, the crossing is the noise switch at the
    boundary itself. Returns the offset from the step start; the caller
    adds it to the step-start time."""
    if _due_after(state, u, 0.0, w_step, w_step, scheme):
        return 0.0
    if not _due_after(state, u, h, w_step, w_step, scheme):
        return h
    lo, hi = 0.0, h
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if _due_after(state, u, mid, w_step, w_step, scheme):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# trace metrics


def inter_event_stats(trace: SolutionTrace) -> dict[int, dict]:
    """Per-agent {'min', 'mean', 'count'} over consecutive same-agent
    gaps; min/mean are None with fewer than two events. The mean sums
    the gaps in event order."""
    log = trace.events
    out = {}
    for i in range(trace.n):
        mine = log.agent == i
        gaps = log.gap[mine]
        gaps = gaps[~np.isnan(gaps)].tolist()
        out[i] = {
            "min": min(gaps) if gaps else None,
            "mean": (sum(gaps) / len(gaps)) if gaps else None,
            "count": int(mine.sum()),
        }
    return out


def jump_storage_change(trace: SolutionTrace, scheme: QuadraticTrigger,
                        feedback: np.ndarray) -> np.ndarray:
    """Per-event ΔU = U(post) - U(pre) of the scheme's storage function."""
    log = trace.events
    return scheme.storage(log.post, feedback) - scheme.storage(log.pre, feedback)


def lyapunov_series(trace: SolutionTrace, scheme: QuadraticTrigger, feedback: np.ndarray):
    """(V, U) per sample plus per-event ΔU = U(post) - U(pre).

    V = x'Mx/2 is the quadratic part alone, with M the scenario's
    feedback matrix; U is the scheme's full storage function.
    """
    x = trace.x_series
    v_series = 0.5 * np.einsum("mi,ij,mj->m", x, feedback, x)
    u_series = scheme.storage(trace.states, feedback)
    return v_series, u_series, jump_storage_change(trace, scheme, feedback)


def consensus_metrics(trace: SolutionTrace) -> dict:
    """Distance-to-agreement series and the final worst deviation from
    the initial mean."""
    x = trace.x_series
    mean0 = float(x[0].mean())
    dist = np.linalg.norm(x - x.mean(axis=1, keepdims=True), axis=1)
    final_dev = float(np.abs(x[-1] - mean0).max())
    return {
        "distance_series": dist,
        "final_max_deviation": final_dev,
        "initial_mean": mean0,
    }


def zeno_indicator(trace: SolutionTrace, window: float) -> dict[int, float | None]:
    """Per-agent minimum gap between consecutive events inside the
    trailing window; None with fewer than two events there."""
    log = trace.events
    late = log.t >= float(trace.times[-1]) - window
    out = {}
    for i in range(trace.n):
        times = log.t[late & (log.agent == i)]
        out[i] = None if times.size < 2 else float(np.diff(times).min())
    return out
