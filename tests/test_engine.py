import dataclasses

import numpy as np
import pytest

import etcsim.engine as engine_mod
from etcsim.engine import (
    JumpStormError,
    Scenario,
    SolutionTrace,
    _in_jump_set,
    consensus_metrics,
    inter_event_stats,
    simulate,
    zeno_indicator,
)
from etcsim.etm import DolkParams, DolkScheme, GarciaParams, GarciaScheme
from etcsim.graph import Graph, benchmark_topology, laplacian
from etcsim.hybrid import EventLog
from etcsim.presets import build_preset
from etcsim.signals import NoiseSignal
from hybrid_arc import check_arc, check_eta_flow


def two_agent_scenario(c=0.01, amp=0.0, seed=3, t_final=2.0, mode="static"):
    g = Graph.from_edge_list(2, [(0, 1)], undirected=True)
    p = GarciaParams(a=0.2, sigma=0.5, c=c, w_bar=amp, mode=mode)
    sch = GarciaScheme(g, p, allow_zeno=(c == 0.0))
    noise = NoiseSignal(seed=seed, amplitude=np.full(2, amp), sample_rate=1e4, n=2)
    return Scenario(scheme=sch, noise=noise, x0=np.array([1.0, -1.0]),
                    graph=g, t_final=t_final, step=1e-4)


def small_dolk_scenario(t_final=1.0, amp=1e-4, seed=9):
    g = benchmark_topology()
    sch = DolkScheme(g, DolkParams(a=0.1, w_bar=amp))
    noise = NoiseSignal(seed=seed, amplitude=np.full(8, amp), sample_rate=1e4, n=8)
    x0 = np.array([8.0, 6.0, 4.0, 2.0, -2.0, -4.0, -6.0, -8.0])
    return Scenario(scheme=sch, noise=noise, x0=x0, graph=g, t_final=t_final, step=1e-4)


def first_state(sc):
    """(5, n) view of the scenario's first recorded state: x0 and the t = 0
    noise latched, since no agent is due at t = 0 in these scenarios."""
    return simulate(dataclasses.replace(sc, t_final=sc.step)).states[0].reshape(5, -1)


def control(sc, z):
    return -sc.feedback @ (z[0] + z[1] + z[2])


# ---------------------------------------------------------------------------
# stepper correctness


def flow_advance(z, u, h, w, scheme) -> None:
    """Per-step RK4 oracle of the flow: advance the (5, n) state view z in
    place by one interval of length h with frozen noise w. x, e and tau
    flow exactly linearly, so only eta needs stage evaluations; eta is
    clamped at 0."""
    x, e, what_w, eta, tau = z
    if scheme.mode == "dynamic":
        e_tilde0 = e + what_w - w
        half = 0.5 * h
        p1 = scheme.psi_vec(u=u, e_tilde=e_tilde0, tau=tau, x=x, w=w)
        # stages 2 and 3 share the midpoint inputs (u is stage-invariant)
        mid_et = e_tilde0 - half * u
        mid_x = x + half * u
        p2 = scheme.psi_vec(u=u, e_tilde=mid_et, tau=tau + half, x=mid_x, w=w)
        p4 = scheme.psi_vec(u=u, e_tilde=e_tilde0 - h * u, tau=tau + h,
                            x=x + h * u, w=w)
        eps = scheme.eps_eta
        k1 = p1 - eps * eta
        k2 = p2 - eps * (eta + half * k1)
        k3 = p2 - eps * (eta + half * k2)
        k4 = p4 - eps * (eta + h * k3)
        eta += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        np.maximum(eta, 0.0, out=eta)
    x += h * u
    e -= h * u
    tau += h


def flow_derivative(feedback, row, scheme, w) -> np.ndarray:
    """Textbook right-hand side of the flow map: (u, -u, 0, eta', 1) with
    u = -M (x + e + w_hat) and eta' = psi - eps * eta for dynamic rules.
    With a zero-order hold the held output is constant, so the error
    derivative is the exact negative of the state derivative."""
    x, e, what_w, eta, tau = row.reshape(5, -1)
    u = -feedback @ (x + e + what_w)
    psi = scheme.psi_vec(u=u, e_tilde=e + what_w - w, tau=tau, x=x, w=w)
    eta_dot = psi - scheme.eps_eta * eta if scheme.mode == "dynamic" else np.zeros(x.size)
    return np.concatenate([u, -u, np.zeros(x.size), eta_dot, np.ones(x.size)])


def test_flow_step_matches_generic_rk4():
    # one 50-step block must agree with textbook RK4 on the stacked state
    # (the held output makes u stage-invariant)
    s = small_dolk_scenario()
    z = first_state(s)
    L = laplacian(s.graph)
    w = s.noise.step_table(0, s.step)[0]
    h = s.step

    def f(r):
        return flow_derivative(L, r, s.scheme, w)

    row = z.ravel()
    for _ in range(50):
        k1 = f(row)
        k2 = f(row + 0.5 * h * k1)
        k3 = f(row + 0.5 * h * k2)
        k4 = f(row + h * k3)
        row = row + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    generic = row.reshape(5, 8)

    rows, _ = engine_mod._flow_block(z, control(s, z), h, np.tile(w, (51, 1)), s.scheme)
    fast = rows[50].reshape(5, 8)

    assert np.allclose(fast[0], generic[0], rtol=1e-12, atol=1e-14)  # x
    assert np.allclose(fast[1], generic[1], rtol=1e-12, atol=1e-14)  # e
    assert np.allclose(fast[3], generic[3], rtol=1e-9, atol=1e-16)  # eta
    assert np.allclose(fast[4], generic[4], rtol=1e-12)  # tau


def _block_and_oracle(sc, z, steps):
    """One block of ``steps`` steps from the state view ``z`` under the
    scenario's step-boundary noise, and the per-step oracle's rows and
    jump-set masks."""
    h = sc.step
    w = sc.noise.step_table(steps, h)
    rows, due = engine_mod._flow_block(z, control(sc, z), h, w, sc.scheme)
    ref, ref_due = [z.ravel().copy()], []
    st = z.copy()
    x, e, what_w, eta, tau = st
    for m in range(steps):
        flow_advance(st, control(sc, st), h, w[m], sc.scheme)
        ref.append(st.ravel().copy())
        psi = sc.scheme.psi_vec(u=control(sc, st), e_tilde=e + what_w - w[m + 1], tau=tau,
                                x=x, w=w[m + 1])
        ref_due.append(_in_jump_set(psi, eta, sc.scheme.theta, sc.scheme.mode == "dynamic"))
    return rows, due, np.array(ref), np.array(ref_due)


@pytest.mark.parametrize("rule", ["static", "dynamic"])
def test_block_matches_per_step_oracle(rule):
    # K oracle steps with a fresh u each step against one K-step block;
    # the static run starts 0.2 s in and crosses into the jump set (first
    # event at 0.2449 s) inside the block
    if rule == "static":
        sc = two_agent_scenario(c=1e-4, amp=1e-4, t_final=0.2)
        start = simulate(sc).states[-1].reshape(5, -1)
    else:
        sc = small_dolk_scenario()
        start = first_state(sc)
    steps = engine_mod.BLOCK_MAX
    rows, due, ref, ref_due = _block_and_oracle(sc, start, steps)
    assert rows.shape == ref.shape == (steps + 1, 5 * sc.scheme.n)
    assert np.allclose(rows, ref, rtol=0.0, atol=1e-12)
    assert np.array_equal(due, ref_due)
    if rule == "static":
        assert due.any() and not due[0].any()
    else:
        assert np.ptp(rows[:, 3 * 8 : 4 * 8], axis=0).min() > 0.0  # eta flowed


def test_block_stops_where_eta_reaches_the_clamp():
    # on agreement with equal errors u = 0, past the dwell time psi < 0,
    # so eta runs from 1e-3 into the clamp within a few steps
    sc = small_dolk_scenario()
    n = 8
    st = np.array([np.ones(n), np.full(n, 0.5), np.zeros(n), np.full(n, 1e-3), np.ones(n)])
    rows, due, ref, _ = _block_and_oracle(sc, st, 8)
    eta = rows[1:, 3 * n : 4 * n]
    clamp = int((eta < 0.0).any(axis=1).argmax()) + 1
    assert 1 < clamp < 8
    assert np.all(eta[: clamp - 1] >= 0.0)
    assert np.allclose(rows[:clamp], ref[:clamp], rtol=0.0, atol=1e-12)
    committed = rows[clamp].copy()
    committed_eta = committed[3 * n : 4 * n]
    np.maximum(committed_eta, 0.0, out=committed_eta)
    assert np.allclose(committed, ref[clamp], rtol=0.0, atol=1e-12)
    assert committed_eta.min() == 0.0 and due[clamp - 1].any()


def _replay_against_oracle(sc, tr):
    """Flow the per-step oracle from every sample to the next one; it must
    reach that sample, or, when jumps lie between, the first pre-jump row."""
    h = sc.step
    noise = sc.noise.step_table(round(sc.t_final / h), h)
    log = tr.events
    for k in range(len(tr.times) - 1):
        st = tr.states[k].reshape(5, -1).copy()
        k0 = round(tr.times[k] / h)
        for step in range(k0, round(tr.times[k + 1] / h)):
            flow_advance(st, control(sc, st), h, noise[step], sc.scheme)
        target = log.pre[tr.jumps[k]] if tr.jumps[k + 1] > tr.jumps[k] else tr.states[k + 1]
        assert np.allclose(st.ravel(), target, rtol=1e-12, atol=1e-12), f"sample {k + 1}"


def test_decimated_run_matches_per_step_oracle():
    full = simulate(small_dolk_scenario())
    sc = small_dolk_scenario()
    sc.decimation = 7
    tr = simulate(sc)
    assert len(tr.events) == len(full.events) > 0
    # the decimated samples are the full run's grid and event-instant rows
    on_grid = (np.round(full.times / sc.step).astype(int) % 7 == 0) \
        | np.isin(full.times, tr.events.t) | (full.times == full.times[-1])
    assert np.array_equal(tr.states, full.states[on_grid])
    _replay_against_oracle(sc, tr)


def test_large_eps_h_stays_finite_and_matches_oracle():
    # eps h = 1: A = 0.375, so a block of 2 steps would already scale eta
    # by A^-2 > 2; the stepper takes single steps
    g = benchmark_topology()
    sch = DolkScheme(g, DolkParams(a=0.1, w_bar=1e-4, eps_eta=10.0))
    noise = NoiseSignal(seed=9, amplitude=np.full(8, 1e-4), sample_rate=10.0, n=8)
    x0 = np.array([8.0, 6.0, 4.0, 2.0, -2.0, -4.0, -6.0, -8.0])
    sc = Scenario(scheme=sch, noise=noise, x0=x0, graph=g, t_final=5.0, step=0.1)
    assert engine_mod._block_limit(sch, sc.step) == 1
    tr = simulate(sc)
    assert len(tr.events) > 0
    assert np.isfinite(tr.states).all() and np.isfinite(tr.events.pre).all()
    assert np.isfinite(tr.events.psi).all()
    _replay_against_oracle(sc, tr)


def test_determinism_bit_exact():
    s1 = small_dolk_scenario()
    s2 = small_dolk_scenario()
    t1, t2 = simulate(s1), simulate(s2)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.times, t2.times)
    for col in ("agent", "t", "j", "pre"):
        assert np.array_equal(getattr(t1.events, col), getattr(t2.events, col)), col


def test_event_log_keeps_every_row_past_its_initial_capacity():
    # c = 0 transmits almost every step, so a short run outgrows the log's
    # first buffers several times
    sc = build_preset("garcia-c0")[0][1]
    sc.t_final = 3.0
    tr = simulate(sc)
    log = tr.events
    n = tr.n
    e_count = len(log)
    assert e_count > 4 * EventLog._INITIAL_CAPACITY
    assert e_count == tr.jumps[-1] == tr.run_manifest["event_count"]
    for col in (log.agent, log.t, log.j, log.gap, log.psi):
        assert col.shape == (e_count,)
    assert log.pre.shape == log.post.shape == (e_count, 5 * n)
    check_arc(sc, tr)


def zeno_stretch():
    """garcia-c0 started near agreement: it transmits at almost every
    step, with instants of up to 5 jumps."""
    sc = build_preset("garcia-c0")[0][1]
    sc.x0 = 1e-4 * sc.x0
    sc.t_final = 0.05
    return sc


@pytest.mark.parametrize("name", ["garcia-c0-stretch", "dolk-remark5"])
def test_logged_rows_are_the_states_around_each_jump(monkeypatch, name):
    # the rows the log rebuilds against copies taken around each jump map
    # call; dolk-remark5 resets eta at its jumps
    sc = zeno_stretch() if name == "garcia-c0-stretch" else build_preset(name)[0][1]
    before, after = [], []
    apply_jump = engine_mod.apply_jump

    def copying_apply_jump(z, agent, w, scheme):
        before.append(z.ravel().copy())
        eta = apply_jump(z, agent, w, scheme)
        after.append(z.ravel().copy())
        return eta

    monkeypatch.setattr(engine_mod, "apply_jump", copying_apply_jump)
    log = simulate(sc).events
    assert len(log) == len(before) > 0
    if name == "garcia-c0-stretch":
        assert np.unique(log.t, return_counts=True)[1].max() >= 5
    assert np.array_equal(log.pre, np.array(before))
    assert np.array_equal(log.post, np.array(after))


ARC_SCENARIOS = {
    "two-agent": two_agent_scenario,
    "two-agent-noisy": lambda: two_agent_scenario(c=1e-4, amp=1e-4),
    "two-agent-dynamic": lambda: two_agent_scenario(mode="dynamic"),
    "small-dolk": small_dolk_scenario,
}


@pytest.mark.parametrize("name", list(ARC_SCENARIOS))
def test_arc_is_a_hybrid_solution(name):
    sc = ARC_SCENARIOS[name]()
    tr = simulate(sc)
    assert len(tr.events) > 0
    check_arc(sc, tr, name)
    if name == "two-agent-dynamic":
        # no timer gate, so psi is one quadratic along each step and eta flows
        assert tr.states[:, 3 * tr.n : 4 * tr.n].max() > 0.1
        check_eta_flow(sc, tr)


def test_zero_noise_two_agent_conservation_and_decrease():
    s = two_agent_scenario()
    tr = simulate(s)
    x = tr.x_series
    # undirected graph: the state sum is a conserved quantity
    assert np.abs(x.sum(axis=1)).max() <= 1e-12
    cm = consensus_metrics(tr)
    d = cm["distance_series"]
    # distance decreases monotonically until it reaches the c-limited scale
    floor = np.sqrt(s.scheme.c[0])
    above = d > floor
    stop = np.argmin(above) if not above.all() else len(d)
    diffs = np.diff(d[:stop])
    assert np.all(diffs <= 1e-12)
    assert len(tr.events) > 0


def test_trigger_consistency_and_flow_membership():
    s = two_agent_scenario(c=1e-4, amp=1e-4)
    tr = simulate(s)
    sch = s.scheme
    tol = engine_mod.TRIGGER_TOL
    noise = s.noise.step_table(round(s.t_final / s.step), s.step)
    log = tr.events
    for k, ev in enumerate(log):
        assert log.psi[k] <= tol
        x, e, what_w, _, tau = pre = log.pre[k].reshape(5, -1)
        w = noise[round(ev.time.t / s.step)]
        psi = sch.psi_vec(u=control(s, pre), e_tilde=e + what_w - w, tau=tau, x=x, w=w)
        assert psi[ev.agent] <= tol
    # flow-set membership at samples away from event instants
    ev_times = {round(ev.time.t, 12) for ev in tr.events}
    for k in range(len(tr.times)):
        if round(float(tr.times[k]), 12) in ev_times:
            continue
        st = tr.states[k].reshape(5, -1)
        x, e, what_w, _, tau = st
        w = noise[round(tr.times[k] / s.step)]
        psi = sch.psi_vec(u=control(s, st), e_tilde=e + what_w - w, tau=tau, x=x, w=w)
        assert np.all(psi >= -tol)


def test_decimation_thins_samples_keeps_events():
    s1 = small_dolk_scenario()
    s2 = small_dolk_scenario()
    s2.decimation = 10
    t1, t2 = simulate(s1), simulate(s2)
    assert len(t2.times) < len(t1.times)
    for col in ("agent", "t", "j"):
        assert np.array_equal(getattr(t1.events, col), getattr(t2.events, col)), col


@pytest.mark.parametrize("case", ["two-agent"])
def test_refined_samples_never_step_back_or_repeat(case):
    # events are resolved on the step grid: an event instant k h is sampled
    # once per jump, never twice with the same (t, j) and never out of order
    sc = two_agent_scenario(c=1e-4, amp=1e-4)
    tr = simulate(sc)
    assert len(tr.events) > 0
    dt, dj = np.diff(tr.times), np.diff(tr.jumps)
    assert np.all(dt >= 0.0)
    assert not np.any((dt == 0.0) & (dj == 0))


def test_step_halving_stability():
    s1 = two_agent_scenario(c=1e-4, amp=1e-4, t_final=2.0)
    s2 = two_agent_scenario(c=1e-4, amp=1e-4, t_final=2.0)
    s2.step = 5e-5
    d1 = consensus_metrics(simulate(s1))["final_max_deviation"]
    d2 = consensus_metrics(simulate(s2))["final_max_deviation"]
    assert abs(d1 - d2) <= 1e-3 * (1 + abs(d1))


def test_jump_storm_error(monkeypatch):
    monkeypatch.setattr(engine_mod, "JUMPS_PER_INSTANT_FACTOR", 0)
    with pytest.raises(JumpStormError):
        simulate(two_agent_scenario())


def test_jump_storm_fires_on_a_persistent_jump_set():
    # c < 0 keeps psi = a u^2 + c < 0 right after each transmission, so
    # both agents stay in the jump set and resolution reaches the cap
    g = Graph.from_edge_list(2, [(0, 1)], undirected=True)
    sch = GarciaScheme(g, GarciaParams(a=0.2, sigma=0.5, c=-1e-3), allow_zeno=True)
    noise = NoiseSignal(seed=3, amplitude=np.zeros(2), sample_rate=1e4, n=2)
    sc = Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, t_final=0.01, step=1e-4)
    with pytest.raises(JumpStormError):
        simulate(sc)


def test_scenario_validation():
    g = Graph.from_edge_list(2, [(0, 1)], undirected=True)
    sch = GarciaScheme(g, GarciaParams(a=0.2, c=0.01))
    noise = NoiseSignal(seed=1, amplitude=np.zeros(2), sample_rate=1e4, n=2)
    with pytest.raises(ValueError):
        Scenario(scheme=sch, noise=noise, x0=np.zeros(3), graph=g)
    with pytest.raises(ValueError):
        Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, step=-1.0)
    with pytest.raises(ValueError):
        Scenario(scheme=sch, noise=noise, x0=np.zeros(2))  # no graph, no feedback


# ---------------------------------------------------------------------------
# metric extraction


def _dummy_trace(events, n=2, t_final=3.0):
    z = np.zeros(5 * n)
    log = EventLog(n)
    for k, (agent, t) in enumerate(events):
        prev = [tt for a, tt in events[:k] if a == agent]
        gap = t - prev[-1] if prev else np.nan
        log.append(agent, t, k + 1, gap, 0.0, z, 0.0, 0.0)
    return SolutionTrace(times=np.array([0.0, t_final]), jumps=np.array([0, len(log)]),
                         states=np.zeros((2, 5 * n)), events=log, run_manifest={}, n=n)


def test_inter_event_stats_arithmetic():
    tr = _dummy_trace([(1, 1.0), (1, 1.5), (1, 2.5)])
    st = inter_event_stats(tr)
    assert st[1] == {"min": 0.5, "mean": 0.75, "count": 3}
    assert st[0] == {"min": None, "mean": None, "count": 0}


def test_zeno_indicator_windows():
    tr = _dummy_trace([(0, 0.1), (0, 0.2), (0, 2.9), (1, 2.95)], t_final=3.0)
    zi = zeno_indicator(tr, window=1.0)
    assert zi[0] is None  # only one event of agent 0 in the last second
    assert zi[1] is None
    zi_full = zeno_indicator(tr, window=3.0)
    assert zi_full[0] == pytest.approx(0.1)


def test_consensus_metrics_on_agreement():
    n = 3
    states = np.zeros((4, 5 * n))
    states[:, :n] = 2.5
    tr = SolutionTrace(times=np.linspace(0, 1, 4), jumps=np.zeros(4, dtype=int),
                       states=states, events=EventLog(n), run_manifest={}, n=n)
    cm = consensus_metrics(tr)
    assert np.allclose(cm["distance_series"], 0.0)
    assert cm["final_max_deviation"] == 0.0


def test_storage_zero_on_consensus():
    g = benchmark_topology()
    sch = GarciaScheme(g, GarciaParams(a=0.1, c=2e-6, w_bar=1e-4))
    n = 8
    states = np.zeros((2, 5 * n))
    states[:, :n] = 1.0  # on the agreement subspace
    tr = SolutionTrace(times=np.array([0.0, 1.0]), jumps=np.zeros(2, dtype=int),
                       states=states, events=EventLog(n), run_manifest={}, n=n)
    u = sch.storage(tr.states, laplacian(g))
    du = engine_mod.jump_storage_change(tr, sch, laplacian(g))
    assert np.allclose(u, 0.0)
    assert du.size == 0


def test_garcia_jumps_leave_w_unchanged():
    s = two_agent_scenario(c=1e-4, amp=1e-4)
    tr = simulate(s)
    L = s.feedback
    n = tr.n
    for pre, post in zip(tr.events.pre, tr.events.post):
        w_pre = 0.5 * pre[:n] @ L @ pre[:n]
        w_post = 0.5 * post[:n] @ L @ post[:n]
        assert w_pre == w_post  # x untouched by jumps


@pytest.mark.parametrize("name", ["garcia-c2e-6", "dolk-c0", "garcia-c0"])
def test_blocked_storage_change_matches_a_whole_log_evaluation(preset_runs, monkeypatch, name):
    # dolk-c0 adds the certificate term to the storage function; on the
    # garcia-c0 stretch, blocks of 3 rows start inside instants
    if name == "garcia-c0":
        sc = zeno_stretch()
        tr = simulate(sc)
        starts = np.arange(3, len(tr.events), 3)
        assert np.any(tr.events.t[starts] == tr.events.t[starts - 1])
    else:
        [(_, sc, tr)] = preset_runs(name)
    log, M = tr.events, sc.feedback
    assert len(log) > 3 * 3
    monkeypatch.setattr(engine_mod, "STORAGE_BLOCK_ROWS", 3)
    whole = sc.scheme.storage(log.post, M) - sc.scheme.storage(log.pre, M)
    assert np.array_equal(engine_mod.jump_storage_change(tr, sc.scheme, M), whole)
