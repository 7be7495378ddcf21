"""Hybrid simulation loop and trace metrics.

The run's state is one (5n,) row (x, e, w_hat, eta, tau), updated in
place through its (5, n) view ``z``. Between two transmissions the
closed loop flows affinely: the held output makes x + e invariant, so
the control input u = -M(x + e + w_hat) is constant, x, e and tau are
linear in t, and the noise is held per window. The engine therefore
advances in blocks of up to BLOCK_MAX steps of length h (the noise-hold
period by default) with u frozen at the start of the block:

- x, e and tau at the step ends are one ``cumsum`` over the start row
  and K increments, which rounds as applying ``x += h*u`` once per step;
- eta follows classical RK4 on eta' = psi - eps*eta with the stage
  values psi at the step start, the shared midpoint and the step end,
  all under the step's held noise. That map is affine,
  eta_{m+1} = A eta_m + B_m, so a block is one scaled cumsum. K is kept
  short enough that A^-K stays within 2, so no block over- or underflows;
- the jump set is evaluated at every step end against the noise there.

A block stops at the first step that ends with an agent in the jump set
or with eta below 0. That step's end state is committed with eta
clamped at 0, the jumps due there are resolved, and the next block
starts at BLOCK_MIN steps; a block that runs through doubles the next
one's length. The samples before the stop are recorded as one block.
Every step end is thus checked exactly as a per-step loop would check
it; the only difference from stepping with a fresh u each step is the
ulp-level drift of x + e along the block.

Jumps are resolved per instant by :func:`_jump_resolver`. It evaluates
u, the measured errors e~, psi and the jump set once, as vectors, from
the committed state, then applies the due agents' jumps in passes of
ascending agent order, repeated while any agent is due. A jump by agent
i zeroes e~_i and tau_i, resets eta_i through :func:`apply_jump`, and
moves u_r by M[r, i] e~_i, so only the rows r with M[r, i] != 0, and i
itself, change; psi and the jump-set predicate are re-evaluated on those
rows alone, with the same :func:`etcsim.etm.trigger_value` and
:func:`_in_jump_set` that the vector code calls. The incremental u can
differ from -M(x + e + w_hat) in the last bits, but only within one
instant: the next instant and every block start evaluate u from the
state afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .etm import QuadraticTrigger, trigger_value
from .graph import Graph, laplacian
from .hybrid import EventLog, _grown, _mapped, apply_jump
from .signals import NoiseSignal

__all__ = [
    "Scenario",
    "SolutionTrace",
    "JumpStormError",
    "simulate",
    "inter_event_stats",
    "jump_storage_change",
    "consensus_metrics",
    "zeno_indicator",
]

TRIGGER_TOL = 1e-12
REFINE_TOL = 1e-9
JUMPS_PER_INSTANT_FACTOR = 10
# block lengths in steps: after an instant with jumps, and the cap of the doubling
BLOCK_MIN = 8
BLOCK_MAX = 512
# events per storage evaluation in jump_storage_change, which bounds its
# temporaries instead of rebuilding the whole (E, 5n) post-jump log at once
STORAGE_BLOCK_ROWS = 4096


class JumpStormError(RuntimeError):
    """More jumps at one continuous time than the safety cap allows."""


@dataclass
class Scenario:
    """One simulation setup: plant interconnection, trigger scheme,
    noise, initial condition, and integration controls.

    ``feedback`` defaults to the graph Laplacian (consensus loop); the
    single-plant demo passes its own gain matrix and no graph. The run
    starts from x0 with zero errors, eta and clocks, and with row 0 of
    the noise's step table, the noise at t = 0, latched.
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

    @property
    def x_series(self) -> np.ndarray:
        return self.states[:, : self.n]


class _Recorder:
    """Growable sample buffer (refined jump instants add off-grid rows)."""

    def __init__(self, n: int, capacity: int):
        self.t = _mapped((capacity,))
        self.j = _mapped((capacity,), dtype=np.int64)
        self.rows = _mapped((capacity, 5 * n))
        self.m = 0

    def push(self, t, j: int, rows: np.ndarray) -> None:
        """Append samples: one time and one (5n,) row, or an array of
        times and the matching (m, 5n) rows."""
        lo = self.m
        hi = lo + (rows.shape[0] if rows.ndim == 2 else 1)
        while hi > self.t.shape[0]:
            self.t = _grown(self.t, lo)
            self.j = _grown(self.j, lo)
            self.rows = _grown(self.rows, lo)
        self.t[lo:hi] = t
        self.j[lo:hi] = j
        self.rows[lo:hi] = rows
        self.m = hi


def _in_jump_set(psi, eta, theta, dynamic: bool):
    """The jump set D given the trigger values psi, the (clamped) eta and
    the dynamic rule's theta. Plain arithmetic on whole arrays or on one
    agent's floats, with the same bits either way.

    Static rule: agent i is in D when psi_i <= -TRIGGER_TOL. Dynamic
    rule: additionally eta_i + theta_i psi_i <= TRIGGER_TOL; eta is
    clamped nonnegative, so that condition keeps the +tol side.

    Tie rule on the overlap of the flow set C and D: flow priority. At
    psi_i = 0 (within the tolerance) both flowing and jumping are
    admissible, and the solver flows, because the persistently flowing
    solution is the one the guarantees speak about. Jump resolution,
    the block stepper, the refinement probes and the tests all decide
    through this predicate.
    """
    due = psi <= -TRIGGER_TOL
    return due & (eta + theta * psi <= TRIGGER_TOL) if dynamic else due


def _control_law(feedback: np.ndarray, z: np.ndarray):
    """u = -M (x + e + w_hat), as a function reading the state view z."""
    neg_fb, (x, e, what_w) = -feedback, z[:3]
    return lambda: neg_fb @ (x + e + what_w)


def _eta_gain(eps: float, h: float) -> float:
    """A of the RK4 step of eta' = psi - eps*eta, which maps eta to
    A*eta + B: the step taken from eta = 1 with psi = 0."""
    k1 = -eps
    k2 = -eps * (1.0 + 0.5 * h * k1)
    k3 = -eps * (1.0 + 0.5 * h * k2)
    k4 = -eps * (1.0 + h * k3)
    return 1.0 + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _block_limit(scheme: QuadraticTrigger, h: float) -> int:
    """Longest block whose eta scaling A^-K lies within [1/2, 2]."""
    gain = _eta_gain(scheme.eps_eta, h) if scheme.mode == "dynamic" else 1.0
    if gain == 1.0:
        return BLOCK_MAX
    return max(1, min(BLOCK_MAX, int(math.log(2.0) / abs(math.log(gain)))))


def _flow_block(row: np.ndarray, u: np.ndarray, h: float, w: np.ndarray,
                scheme: QuadraticTrigger) -> tuple[np.ndarray, np.ndarray]:
    """Flow the state ``row``, or its (5, n) view, for K = len(w) - 1
    steps of length h with u frozen; w[m] is the noise at the m-th step
    end (w[0] at the start), and step m + 1 flows under w[m].

    Returns the (K + 1, 5n) rows at the step ends, row 0 being the start
    and eta not yet clamped at 0, and the (K, n) mask of agents in the
    jump set at each step end, judged against the noise there with eta
    clamped."""
    k, n = w.shape[0] - 1, u.shape[0]
    inc = np.empty((5, n))
    np.multiply(h, u, out=inc[0])
    np.negative(inc[0], out=inc[1])
    inc[2:4] = -0.0  # w_hat and eta do not flow; adding -0.0 keeps every value, -0.0 too
    inc[4] = h
    z = np.empty((k + 1, 5, n))
    z[0] = row.reshape(5, n)
    z[1:] = inc
    z = np.cumsum(z, axis=0)
    x, e, what_w, eta, tau = z.transpose(1, 0, 2)
    e_tilde = e + what_w - w
    if scheme.mode != "dynamic":
        psi = scheme.psi_vec(u=u, e_tilde=e_tilde[1:], tau=tau[1:], x=x[1:], w=w[1:])
        return z.reshape(k + 1, 5 * n), _in_jump_set(psi, eta[1:], scheme.theta, False)

    # RK4 stage values of every step in one evaluation: psi at the step
    # starts (which, under the next window's noise, is also the jump-set
    # check at the previous step end), at the shared midpoint and at the
    # end, the latter two under the step's held noise
    half = 0.5 * h
    et0, x0, w0, tau0 = e_tilde[:-1], x[:-1], w[:-1], tau[:-1]
    p = scheme.psi_vec(
        u=u,
        e_tilde=np.concatenate((e_tilde, et0 - half * u, et0 - h * u)),
        tau=np.concatenate((tau, tau0 + half, tau0 + h)),
        x=np.concatenate((x, x0 + half * u, x0 + h * u)),
        w=np.concatenate((w, w0, w0)),
    )
    p1, p2, p4 = p[:k], p[k + 1 : 2 * k + 1], p[2 * k + 1 :]
    eps = scheme.eps_eta
    k1 = p1
    k2 = p2 - eps * (half * k1)
    k3 = p2 - eps * (half * k2)
    k4 = p4 - eps * (h * k3)
    b = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    # eta_m = A^m (eta_0 + sum_{l<m} B_l A^-(l+1))
    scale = _eta_gain(eps, h) ** np.arange(1.0, k + 1.0)[:, None]
    eta[1:] = scale * (eta[0] + np.cumsum(b / scale, axis=0))
    return z.reshape(k + 1, 5 * n), _in_jump_set(p[1 : k + 1], np.maximum(eta[1:], 0.0),
                                                 scheme.theta, True)


def _commit(z: np.ndarray, row: np.ndarray) -> None:
    """Make ``row`` the current state of the view z, with eta clamped at 0
    (discrete detection lets eta undershoot slightly)."""
    z.flat = row
    np.maximum(z[3], 0.0, out=z[3])


def _flow_to(z: np.ndarray, u: np.ndarray, dt: float, w: np.ndarray,
             scheme: QuadraticTrigger) -> None:
    """Flow the state view z in place for one step of length dt under the noise w."""
    _commit(z, _flow_block(z, u, dt, np.stack((w, w)), scheme)[0][1])


def _jump_resolver(scheme: QuadraticTrigger, feedback: np.ndarray, z: np.ndarray,
                   log: EventLog):
    """The jump resolution of one run, on its (5, n) state view z and event
    log: ``resolve(t, w)`` applies the jumps due at time t under the noise
    w and returns how many it applied (module docstring). Raises
    :class:`JumpStormError` past JUMPS_PER_INSTANT_FACTOR jumps per agent
    at one instant."""
    n = scheme.n
    control = _control_law(feedback, z)
    dynamic = scheme.mode == "dynamic"
    a, b, c, gate, theta = (v.tolist() for v in (scheme.a, scheme.b, scheme.c,
                                                  scheme.tau_miet, scheme.theta))
    # per agent i, the rows r whose u a jump by i changes, with M[r, i]
    column = [[(r, feedback.item(r, i)) for r in range(n) if r == i or feedback.item(r, i)]
              for i in range(n)]
    storm_cap = n * JUMPS_PER_INSTANT_FACTOR
    last_t = [math.nan] * n  # a first event's gap is NaN
    x, e, what_w, eta_v, tau_v = z
    row = z.reshape(-1)  # the flat view of the state
    pre = np.empty(5 * n)  # the state row before the jump being logged

    def resolve(t: float, w: np.ndarray) -> int:
        u = control()
        d = scheme.driver(u, x, w)
        e_tilde = e + what_w - w
        psi = trigger_value(scheme.a, scheme.b, scheme.c, scheme.tau_miet, d, e_tilde, tau_v)
        due = _in_jump_set(psi, eta_v, scheme.theta, dynamic)
        if not due.any():
            return 0
        psi, due, e_tilde, d_list = psi.tolist(), due.tolist(), e_tilde.tolist(), d.tolist()
        # for consensus d is u: one shared list, so the updates of u below reach d
        u, d = d_list if d is u else u.tolist(), d_list
        eta, tau = eta_v.tolist(), tau_v.tolist()
        total = 0
        while any(due):
            for i in range(n):
                if not due[i]:
                    continue
                pre[:] = row
                eta[i] = apply_jump(z, i, w, scheme)
                log.append(i, t, len(log) + 1, t - last_t[i], psi[i], pre, w.item(i), eta[i])
                last_t[i] = t
                total += 1
                if total > storm_cap:
                    raise JumpStormError(
                        f"{total} jumps at t={t:.6f} exceed the cap of {storm_cap}"
                    )
                et_i, e_tilde[i], tau[i] = e_tilde[i], 0.0, 0.0
                for r, m_ri in column[i]:
                    u[r] += m_ri * et_i
                    psi[r] = p = trigger_value(a[r], b[r], c[r], gate[r], d[r], e_tilde[r], tau[r])
                    due[r] = _in_jump_set(p, eta[r], theta[r], dynamic)
        return total

    return resolve


def simulate(s: Scenario) -> SolutionTrace:
    scheme = s.scheme
    n = scheme.n
    h = s.step
    steps = int(round(s.t_final / h))
    dec = s.decimation
    longest = _block_limit(scheme, h)
    dynamic = scheme.mode == "dynamic"

    noise = s.noise.step_table(steps, h)
    z = np.zeros((5, n))
    z[0], z[2] = s.x0, noise[0]
    row = z.reshape(-1)  # the flat view of z, in the layout of the samples
    control = _control_law(s.feedback, z)
    rec = _Recorder(n, steps // dec + 16)
    log = EventLog(n)
    resolve = _jump_resolver(scheme, s.feedback, z, log)

    # jumps may already be due at t=0
    resolve(0.0, noise[0])
    rec.push(0.0, len(log), row)

    k, size = 0, BLOCK_MIN  # steps taken, length of the next block
    while k < steps:
        size = min(size, longest, steps - k)
        u = control()
        w = noise[k : k + size + 1]
        rows, due = _flow_block(row, u, h, w, scheme)
        stop = due.any(axis=1)
        if dynamic:
            stop |= (rows[1:, 3 * n : 4 * n] < 0.0).any(axis=1)
        m = int(stop.argmax()) + 1
        stopped = bool(stop[m - 1])
        if not stopped:
            m = size
        if m > 1:
            # the steps before the block's last one end outside the jump set
            idx = np.arange(k + 1, k + m)
            keep = idx % dec == 0
            rec.push(idx[keep] * h, len(log), rows[1:m][keep])
        # the block's check at the end of its last step gates the search
        # for the crossing inside that step; a crossing at the step end
        # itself is the unrefined instant
        dt = h
        if s.detection_refinement and due[m - 1].any():
            _commit(z, rows[m - 1])
            dt = _refine_instant(z, u, h, w[m - 1], scheme)
        if dt < h:
            t0, w_step = (k + m - 1) * h, w[m - 1]
            _flow_to(z, u, dt, w_step, scheme)
            if resolve(t0 + dt, w_step):
                rec.push(t0 + dt, len(log), row)
            _flow_to(z, control(), h - dt, w_step, scheme)
        else:
            _commit(z, rows[m])
        k += m
        applied = resolve(k * h, w[m]) if stopped else 0
        if applied or k % dec == 0 or k == steps:
            rec.push(k * h, len(log), row)
        size = BLOCK_MIN if stopped else 2 * size

    manifest = {
        "seed": s.noise.seed,
        "step": h,
        "t_final": s.t_final,
        "trigger_tol": TRIGGER_TOL,
        "detection_refinement": s.detection_refinement,
        "decimation": dec,
        "scheme": scheme.kind,
        "derived": scheme.derived_constants(),
        "event_count": len(log),
    }
    # views of the recorder's filled part, not copies
    return SolutionTrace(
        times=rec.t[: rec.m],
        jumps=rec.j[: rec.m],
        states=rec.rows[: rec.m],
        events=log,
        run_manifest=manifest,
        n=n,
    )


def _refine_instant(z, u, h, w_step, scheme) -> float:
    """Bisect the earliest trigger crossing inside (t_k, t_k + h], given
    that some agent is due at t_k + h under the next window's noise.

    The probes use the frozen step noise in the interior. If no agent is
    due at t_k + h under it, the crossing is the noise switch at the
    boundary itself. Returns the offset from the step start; the caller
    adds it to the step-start time."""
    def due_after(dt: float) -> bool:  # is any agent of z in the jump set after flowing dt?
        return bool(_flow_block(z, u, dt, np.stack((w_step, w_step)), scheme)[1].any())
    if due_after(0.0):
        return 0.0
    if not due_after(h):
        return h
    lo, hi = 0.0, h
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if due_after(mid):
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
    """Per-event ΔU = U(post) - U(pre) of the scheme's storage function,
    evaluated in blocks of ``STORAGE_BLOCK_ROWS`` events."""
    log = trace.events
    out = np.empty(len(log))
    for lo in range(0, len(log), STORAGE_BLOCK_ROWS):
        hi = min(lo + STORAGE_BLOCK_ROWS, len(log))
        out[lo:hi] = (scheme.storage(log._post_rows(lo, hi), feedback)
                      - scheme.storage(log._pre[lo:hi], feedback))
    return out


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
