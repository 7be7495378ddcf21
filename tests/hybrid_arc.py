"""The hybrid-arc contract: a recorded run is a solution of the hybrid
system (Goebel, Sanfelice & Teel, *Hybrid Dynamical Systems*, 2012). It
flows only in the flow set C, jumps only from the jump set D, and jumps
by the jump map g. :func:`check_arc` asserts all of it on a scenario and
its trace, and the per-gap MIET certificate of the ungated rules
(:func:`miet_ratios`). :func:`check_held_noise` and
:func:`check_eta_flow` are two further clauses that the engine does not
meet on every run yet. :func:`check_arc` and :func:`check_eta_flow`
read a trace's rows once, through :func:`read_arc`.
"""

import numpy as np

from etcsim.engine import TRIGGER_TOL, Scenario, SolutionTrace, _in_jump_set
from etcsim.etm import eta_reset
from etcsim.graph import is_weight_balanced
from etcsim.hybrid import EventLog
from etcsim.signals import NoiseSignal

FLOW_TOL = 1e-12
# 2-point Gauss-Legendre on each side of the timer gate, exact for cubics:
# the integrand e^{-eps (h - r)} psi(r) is a quadratic times an exponential
# whose quadratic term, (eps h)^2 / 2 ~ 1e-11 at the presets, leaves ~1e-20
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(2)


def _split(rows, n):
    """x, e, w_hat, eta and tau of (m, 5n) rows, as (m, n) views."""
    return [rows[:, c * n : (c + 1) * n] for c in range(5)]


def _in_d(sc, rows, w):
    """The agents of each row in D under the noise rows w."""
    sch = sc.scheme
    x, e, what_w, eta, tau = _split(rows, sch.n)
    u = -(x + e + what_w) @ sc.feedback.T
    psi = sch.psi_vec(u=u, e_tilde=e + what_w - w, tau=tau, x=x, w=w)
    return _in_jump_set(psi, eta, sch.theta, sch.mode == "dynamic")


def _steps_per_window(sc):
    """The whole number of steps h in one noise hold, derived here and not
    taken from the engine."""
    per = round(1.0 / (sc.noise.sample_rate * sc.step))
    assert per >= 1 and abs(per * sc.step * sc.noise.sample_rate - 1.0) <= 1e-9, \
        "a step straddles or skips a noise window"
    return per


def _grid(sc, tr):
    """Each sample's step number k, and the noise table of the configured
    signal: row k is the noise at k h, held along step k + 1, the window
    holding k h, found by integer division."""
    k = np.rint(tr.times / sc.step).astype(np.int64)
    return k, sc.noise.window_table(np.arange(k[-1] + 1) // _steps_per_window(sc)).T


def _steps(states, jumps, k, pre):
    """The steps from each sample to the next: the rows of those one step h
    long (a slice of all rows when every step is recorded), and the
    (m - 1, 5n) rows at their ends, where jumps follow the instant's first
    pre-jump row instead of the sample."""
    one = np.diff(k) == 1
    jumped = jumps[1:] > jumps[:-1]
    end = states[1:].copy()
    end[jumped] = pre[jumps[:-1][jumped]]
    return slice(None) if one.all() else one, end


def read_arc(tr):
    """The trace's (m, 5n) sample rows and the (E, 5n) rows just before and
    just after each jump, from one ``chunks(jumps=True)`` pass."""
    width = tr.rows.shape[1]
    states, pre, post = ([np.empty((0, width))] for _ in range(3))
    for _, rows, before, after in tr.chunks(jumps=True):
        states.append(rows)
        pre.append(before)
        post.append(after)
    return np.concatenate(states), np.concatenate(pre), np.concatenate(post)


def miet_ratios(sc, log, post):
    """Per agent with an ungated rule (tau_miet_i = 0), a_i >= 0 and
    c_i > b_i (2 w_bar_i)^2, gap / T_i for each of its gaps, by agent.

    A jump by i at t_a zeroes e_i and latches w_hat_i, after which
    e~_i = -int_{t_a}^t u_i + w_hat_i - w_i and |w_hat_i - w_i| <= 2 w_bar_i,
    so psi_i >= c_i - b_i e~_i^2 stays positive, and i cannot jump, until
    int_{t_a}^t |u_i| reaches R_i = sqrt(c_i / b_i) - 2 w_bar_i, at
    t_a + T_i. u = -M (x + e + w_hat) holds between instants, since x + e
    and w_hat hold along flow, at its value in the instant's last post
    row; so the integral is a sum over instants and needs no other read."""
    sch, n = sc.scheme, sc.scheme.n
    ok = (sch.tau_miet == 0.0) & (sch.a >= 0.0) & (sch.b > 0.0) & \
        (sch.c > sch.b * (2.0 * sch.w_bar) ** 2)
    last = np.r_[log.t[1:] != log.t[:-1], True][: len(log)]  # each instant's last jump
    t = log.t[last]
    x, e, what_w = _split(post[last], n)[:3]
    speed = np.abs((x + e + what_w) @ sc.feedback.T)  # |u| from each instant to the next
    # area[j] = int |u| from the first instant to instant j, the last row on
    # to the end of the run
    area = np.cumsum(speed * np.diff(t, append=sc.t_final)[:, None], axis=0)
    area = np.vstack([np.zeros(n), area])
    out = {}
    for i in np.flatnonzero(ok).tolist():
        radius = np.sqrt(sch.c[i] / sch.b[i]) - 2.0 * sch.w_bar[i]
        at = np.searchsorted(t, log.t[log.agent == i])  # the instants of i's jumps
        target = area[at[:-1], i] + radius
        j = np.minimum(np.searchsorted(area[:, i], target) - 1, t.size - 1)
        reach = t[j] + (target - area[j, i]) / speed[j, i] - t[at[:-1]]
        out[i] = (t[at[1:]] - t[at[:-1]]) / reach
    return out


def stored_trace(scheme, rows, log=None, feedback=None):
    """A trace of ``scheme`` whose samples are the (m, 5n) ``rows``, one
    unit step apart, each a stored block boundary, so nothing is replayed;
    ``log`` defaults to an empty one and ``feedback`` to the identity."""
    rows = np.asarray(rows, dtype=float)
    n, k = scheme.n, np.arange(rows.shape[0])
    noise = NoiseSignal(seed=0, amplitude=np.zeros(n), sample_rate=1.0, n=n)
    sc = Scenario(scheme=scheme, noise=noise, x0=rows[0, :n],
                  feedback=np.eye(n) if feedback is None else feedback,
                  t_final=float(max(k[-1], 1)), step=1.0)
    return SolutionTrace(scenario=sc, row_k=k, rows=rows,
                         events=EventLog(n) if log is None else log)


def check_arc(sc, tr, label="arc"):
    """Assert that the trace of scenario ``sc`` is a solution of the hybrid
    system: its held noise, its time domain, every jump and every flow
    step. Returns the arc it read, :func:`read_arc`'s three arrays."""
    sch, log, n, h = sc.scheme, tr.events, tr.n, sc.step
    dynamic = sch.mode == "dynamic"
    states, pre, post = arc = read_arc(tr)
    count = len(log)

    # held noise: the step divides the hold as the scenario says, and the
    # noise latched at t = 0 is the configured signal's first window (the
    # latched noise of each jump is checked below)
    assert _steps_per_window(sc) == sc.steps_per_window, f"{label}: steps per window"
    k, table = _grid(sc, tr)
    assert np.array_equal(states[0, 2 * n : 3 * n], table[0]), \
        f"{label}: held noise is not a window of the signal"

    # time domain: samples on the step grid, t strictly increasing (so no
    # (t, j) repeats), j the number of jumps up to t, gaps per agent
    assert np.array_equal(k * h, tr.times), f"{label}: samples off the step grid"
    assert np.all(np.diff(tr.times) > 0.0), f"{label}: t steps back or repeats"
    assert np.all(np.diff(log.t) >= 0.0), f"{label}: event times step back"
    assert np.array_equal(tr.jumps, np.searchsorted(log.t, tr.times, side="right")), \
        f"{label}: j is not the number of jumps up to t"
    assert np.array_equal(log.j, np.arange(1, count + 1)), f"{label}: jump indices"
    order = np.argsort(log.agent, kind="stable")  # each agent's jumps in time order
    t, same_agent = log.t[order], np.diff(log.agent[order]) == 0
    gap = np.where(np.r_[False, same_agent], t - np.r_[np.nan, t[:-1]], np.nan)
    assert np.array_equal(log.gap[order], gap, equal_nan=True), f"{label}: gaps"

    # jumps: from D under the latched noise (the step table's row at t), by g
    rows, agent = np.arange(count), log.agent
    w = table[np.rint(log.t / h).astype(np.int64)]
    latched = post[rows, 2 * n + agent]
    assert np.array_equal(latched, w[rows, agent]), f"{label}: latched noise"
    assert np.all(log.psi <= TRIGGER_TOL), f"{label}: event psi {log.psi.max()}"
    outside = np.flatnonzero(~_in_d(sc, pre, w)[rows, agent])
    assert outside.size == 0, f"{label}: jump {outside[:1]} from outside D"
    e_tilde = pre[rows, n + agent] + pre[rows, 2 * n + agent] - latched
    g = pre.copy()
    g[rows, n + agent] = g[rows, 4 * n + agent] = 0.0
    g[rows, 2 * n + agent] = latched
    g[rows, 3 * n + agent] = eta_reset(pre[rows, 3 * n + agent], e_tilde, sch.w_bar[agent],
                                       sch.reset_gain[agent])
    assert np.array_equal(post, g), f"{label}: post != g(pre)"
    # jumps at one t chain, and the instant's sample is its last post row:
    # the log rebuilds its rows from that sample, so this compares each
    # sender's logged e, w_hat, eta and tau after its last jump there with it
    chained = log.t[1:] == log.t[:-1]
    assert np.array_equal(post[:-1][chained], pre[1:][chained]), f"{label}: chaining"
    last = np.r_[~chained, True][:count]
    at = np.searchsorted(tr.times, log.t[last])
    assert np.array_equal(tr.times[at], log.t[last]), f"{label}: unsampled instant"
    assert np.array_equal(states[at], post[last]), f"{label}: instant sample"
    # no gap of an ungated agent with c_i > b_i (2 w_bar_i)^2 is shorter than its T_i
    for i, ratio in miet_ratios(sc, log, post).items():
        short = np.flatnonzero(~(ratio >= 1.0))
        assert short.size == 0, f"{label}: agent {i} gap {short[:1]} below T_i: {ratio[short[:1]]}"

    # flow along each step h: x moves by h u, x + e, tau + h and w_hat hold
    x, e, what_w, eta, tau = _split(states, n)
    u = -(x + e + what_w) @ sc.feedback.T
    one, end = _steps(states, tr.jumps, k, pre)
    x1, e1, what1, _, tau1 = _split(end, n)
    drift = np.abs(x1 - (x[:-1] + h * u[:-1]))[one].max(initial=0.0)
    assert drift <= FLOW_TOL, f"{label}: x off x0 + h u by {drift}"
    drift = np.abs((x1 + e1) - (x + e)[:-1])[one].max(initial=0.0)
    assert drift <= FLOW_TOL, f"{label}: x + e drifted by {drift}"
    assert np.array_equal(tau1[one], (tau[:-1] + h)[one]), f"{label}: tau did not advance by h"
    assert np.array_equal(what1[one], what_w[:-1][one]), f"{label}: w_hat changed along flow"
    # samples under the noise there: off event instants in C, none in D
    w = table[k]
    psi = sch.psi_vec(u=u, e_tilde=e + what_w - w, tau=tau, x=x, w=w)
    assert eta.min() >= -FLOW_TOL, f"{label}: eta {eta.min()}"
    flow = np.delete(eta + sch.theta * psi if dynamic else psi, at, axis=0)
    assert flow.min(initial=np.inf) >= -TRIGGER_TOL, f"{label}: outside C {flow.min()}"
    stuck = np.flatnonzero(_in_jump_set(psi, eta, sch.theta, dynamic).any(axis=1))
    assert stuck.size == 0, \
        f"{label}: {stuck.size} samples in D, first at t={tr.times[stuck[:1]]}"

    # mean conservation on weight-balanced consensus topologies
    if sc.graph is not None and is_weight_balanced(sc.graph):
        sums = x.sum(axis=1)
        drift = np.abs(sums - sums[0]).max()
        assert drift <= 1e-6 * (1 + np.linalg.norm(sc.x0)), f"{label}: mean drift {drift}"
    return arc


def check_held_noise(sc, tr):
    """No step end off an event instant is in D under the noise held
    during that step, w[k - 1] at step end k."""
    k, table = _grid(sc, tr)
    flowed = (np.diff(k) == 1) & (tr.jumps[1:] == tr.jumps[:-1])
    due = _in_d(sc, tr.states[1:], table[k[:-1]]).any(axis=1) & flowed
    assert not due.any(), f"{due.sum()} step ends in D under the held noise"


def check_eta_flow(sc, tr):
    """eta at each step end is max(0, e^{-eps h} eta0 + the integral of
    e^{-eps (h - r)} psi(r) over the step), psi being a quadratic in r on
    each side of the time where the timer gate opens."""
    sch, n, h = sc.scheme, tr.n, sc.step
    k, table = _grid(sc, tr)
    states, pre, _ = read_arc(tr)
    one, end = _steps(states, tr.jumps, k, pre)
    x0, e0, what0, eta0, tau0 = _split(states[:-1], n)
    u, w = -(x0 + e0 + what0) @ sc.feedback.T, table[k[:-1]]
    e_tilde0 = e0 + what0 - w
    gate = np.clip(sch.tau_miet - tau0, 0.0, h)
    flow = np.exp(-sch.eps_eta * h) * eta0
    for lo, hi in ((0.0, gate), (gate, h)):
        half = 0.5 * (hi - lo)
        for node, weight in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            r = lo + half * (1.0 + node)
            psi = sch.psi_vec(u=u, e_tilde=e_tilde0 - r * u, tau=tau0 + r, x=x0 + r * u, w=w)
            flow += weight * half * np.exp(-sch.eps_eta * (h - r)) * psi
    err = np.abs(end[:, 3 * n : 4 * n] - np.maximum(flow, 0.0))[one].max(initial=0.0)
    assert err <= FLOW_TOL, f"eta off its exact flow by {err:.3g}"
