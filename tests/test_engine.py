import numpy as np
import pytest

import etcsim.engine as engine_mod
from etcsim.engine import (
    JumpStormError,
    Scenario,
    SolutionTrace,
    consensus_metrics,
    inter_event_stats,
    jump_set,
    lyapunov_series,
    simulate,
    zeno_indicator,
)
from etcsim.etm import DolkParams, DolkScheme, GarciaParams, GarciaScheme
from etcsim.graph import Graph, benchmark_topology, laplacian
from etcsim.hybrid import EventLog, HybridState
from etcsim.presets import build_preset
from etcsim.signals import NoiseSignal


def two_agent_scenario(c=0.01, amp=0.0, seed=3, t_final=2.0, mode="static", **kw):
    g = Graph.from_edge_list(2, [(0, 1)], undirected=True)
    p = GarciaParams(a=0.2, sigma=0.5, c=c, w_bar=amp, mode=mode)
    sch = GarciaScheme(g, p, allow_zeno=(c == 0.0))
    noise = NoiseSignal(seed=seed, amplitude=np.full(2, amp), sample_rate=1e4, n=2)
    return Scenario(scheme=sch, noise=noise, x0=np.array([1.0, -1.0]),
                    graph=g, t_final=t_final, step=1e-4, **kw)


def small_dolk_scenario(t_final=1.0, amp=1e-4, seed=9):
    g = benchmark_topology()
    sch = DolkScheme(g, DolkParams(a=0.1, w_bar=amp))
    noise = NoiseSignal(seed=seed, amplitude=np.full(8, amp), sample_rate=1e4, n=8)
    x0 = np.array([8.0, 6.0, 4.0, 2.0, -2.0, -4.0, -6.0, -8.0])
    return Scenario(scheme=sch, noise=noise, x0=x0, graph=g, t_final=t_final, step=1e-4)


# ---------------------------------------------------------------------------
# stepper correctness


def flow_advance(state, u, h, w, scheme) -> None:
    """Per-step RK4 oracle of the flow: advance the state in place by one
    interval of length h with frozen noise w. x, e and tau flow exactly
    linearly, so only eta needs stage evaluations; eta is clamped at 0."""
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
        np.maximum(eta, 0.0, out=eta)
    state.x += h * u
    state.e -= h * u
    state.tau += h


def flow_derivative(feedback, state, scheme, w) -> HybridState:
    """Textbook right-hand side of the flow map: (u, -u, 0, eta', 1) with
    u = -M (x + e + w_hat) and eta' = psi - eps * eta for dynamic rules.
    With a zero-order hold the held output is constant, so the error
    derivative is the exact negative of the state derivative."""
    u = -feedback @ (state.x + state.e + state.what_w)
    psi = scheme.psi_vec(u=u, e_tilde=state.e + state.what_w - w, tau=state.tau,
                         y_tilde=state.x + w)
    eta_dot = psi - scheme.eps_eta * state.eta if scheme.mode == "dynamic" else np.zeros(state.n)
    return HybridState(x=u, e=-u, what_w=np.zeros(state.n), eta=eta_dot, tau=np.ones(state.n))


def test_flow_step_matches_generic_rk4():
    # one 50-step block must agree with textbook RK4 on the stacked state
    # (the held output makes u stage-invariant)
    s = small_dolk_scenario()
    state = s.initial_state()
    L = laplacian(s.graph)
    w = s.noise.sample_vector(0.0)
    h = s.step

    generic = state.copy()
    for _ in range(50):
        row = generic.as_row()

        def f(r):
            d = flow_derivative(L, HybridState.from_row(r), s.scheme, w)
            return d.as_row()

        k1 = f(row)
        k2 = f(row + 0.5 * h * k1)
        k3 = f(row + 0.5 * h * k2)
        k4 = f(row + h * k3)
        generic = HybridState.from_row(row + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))

    u = -L @ (state.x + state.e + state.what_w)
    rows, _ = engine_mod._flow_block(state.row, u, h, np.tile(w, (51, 1)), s.scheme)
    fast = HybridState.from_row(rows[50])

    assert np.allclose(fast.x, generic.x, rtol=1e-12, atol=1e-14)
    assert np.allclose(fast.e, generic.e, rtol=1e-12, atol=1e-14)
    assert np.allclose(fast.eta, generic.eta, rtol=1e-9, atol=1e-16)
    assert np.allclose(fast.tau, generic.tau, rtol=1e-12)


def _block_and_oracle(sc, state, steps):
    """One block of ``steps`` steps from ``state`` under the scenario's
    noise windows, and the per-step oracle's rows and jump-set masks."""
    h = sc.step
    k = np.arange(steps + 1)
    w = sc.noise.window_table(steps + 2)[:, np.floor(k * h * sc.noise.sample_rate
                                                     * (1 + 1e-12)).astype(int)].T
    u = -sc.feedback @ (state.x + state.e + state.what_w)
    rows, due = engine_mod._flow_block(state.row, u, h, w, sc.scheme)
    ref, ref_due = [state.row.copy()], []
    st = state.copy()
    for m in range(steps):
        flow_advance(st, -sc.feedback @ (st.x + st.e + st.what_w), h, w[m], sc.scheme)
        ref.append(st.row.copy())
        ref_due.append(jump_set(sc.scheme, st, -sc.feedback @ (st.x + st.e + st.what_w),
                                w[m + 1])[1])
    return rows, due, np.array(ref), np.array(ref_due)


@pytest.mark.parametrize("rule", ["static", "dynamic"])
def test_block_matches_per_step_oracle(rule):
    # K oracle steps with a fresh u each step against one K-step block;
    # the static run starts 0.2 s in and crosses into the jump set (first
    # event at 0.2449 s) inside the block
    if rule == "static":
        sc = two_agent_scenario(c=1e-4, amp=1e-4, t_final=0.2)
        start = simulate(sc).final_state
    else:
        sc = small_dolk_scenario()
        start = sc.initial_state()
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
    st = HybridState(np.ones(n), np.full(n, 0.5), np.zeros(n), np.full(n, 1e-3), np.ones(n))
    rows, due, ref, _ = _block_and_oracle(sc, st, 8)
    eta = rows[1:, 3 * n : 4 * n]
    clamp = int((eta < 0.0).any(axis=1).argmax()) + 1
    assert 1 < clamp < 8
    assert np.all(eta[: clamp - 1] >= 0.0)
    assert np.allclose(rows[:clamp], ref[:clamp], rtol=0.0, atol=1e-12)
    committed = HybridState.from_row(rows[clamp])
    np.maximum(committed.eta, 0.0, out=committed.eta)
    assert np.allclose(committed.row, ref[clamp], rtol=0.0, atol=1e-12)
    assert committed.eta.min() == 0.0 and due[clamp - 1].any()


def _replay_against_oracle(sc, tr):
    """Flow the per-step oracle from every sample to the next one; it must
    reach that sample, or, when jumps lie between, the first pre-jump row."""
    h = sc.step
    table = sc.noise.window_table(sc.noise.window_index(sc.t_final) + 2)
    log = tr.events
    for k in range(len(tr.times) - 1):
        st = tr.state_at(k)
        k0 = round(tr.times[k] / h)
        for step in range(k0, round(tr.times[k + 1] / h)):
            w = table[:, sc.noise.window_index(step * h)]
            flow_advance(st, -sc.feedback @ (st.x + st.e + st.what_w), h, w, sc.scheme)
        target = log.pre[tr.jumps[k]] if tr.jumps[k + 1] > tr.jumps[k] else tr.states[k + 1]
        assert np.allclose(st.row, target, rtol=1e-12, atol=1e-12), f"sample {k + 1}"


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
    assert len(t1.events) == len(t2.events)
    for a, b in zip(t1.events, t2.events):
        assert a.agent == b.agent and a.time == b.time
        assert np.array_equal(a.pre_state.as_row(), b.pre_state.as_row())


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
    assert np.array_equal(log.j, np.arange(1, e_count + 1))
    assert np.all(np.diff(log.t) >= 0)
    assert np.all(log.psi <= engine_mod.TRIGGER_TOL)
    # each gap is the time since the same agent's previous event
    last = {}
    for k, (i, t) in enumerate(zip(log.agent.tolist(), log.t.tolist())):
        if i in last:
            assert log.gap[k] == t - last[i]
        else:
            assert np.isnan(log.gap[k])
        last[i] = t
    # a jump touches only its agent's e, w_hat, eta and tau
    cols = np.arange(5 * n) % n
    for k in range(e_count):
        other = cols != log.agent[k]
        assert np.array_equal(log.pre[k, other], log.post[k, other])
        assert np.array_equal(log.pre[k, :n], log.post[k, :n])
    # consecutive jumps at one instant chain post -> pre, and the sample
    # at an event instant holds the post-jump row of its last jump
    same = log.t[1:] == log.t[:-1]
    assert np.array_equal(log.post[:-1][same], log.pre[1:][same])
    last_at_instant = np.append(~same, True)
    rows = np.searchsorted(tr.jumps, log.j[last_at_instant])
    assert np.array_equal(tr.states[rows], log.post[last_at_instant])
    assert np.array_equal(tr.times[rows], log.t[last_at_instant])


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


def test_hybrid_time_domain_monotone():
    tr = simulate(two_agent_scenario())
    t, j = tr.times, tr.jumps
    assert np.all(np.diff(t) >= 0)
    assert np.all(np.diff(j) >= 0)
    # j increases only where t repeats or at event instants
    ev_t = {round(ev.time.t, 12) for ev in tr.events}
    bumps = np.flatnonzero(np.diff(j) > 0)
    for k in bumps:
        assert round(float(t[k + 1]), 12) in ev_t


def test_trigger_consistency_and_flow_membership():
    s = two_agent_scenario(c=1e-4, amp=1e-4)
    tr = simulate(s)
    sch = s.scheme
    tol = engine_mod.TRIGGER_TOL
    for ev in tr.events:
        assert ev.psi_value <= tol
        pre = ev.pre_state
        w = s.noise.sample_vector(ev.time.t)
        u = -(s.feedback @ (pre.x + pre.e + pre.what_w))
        psi = sch.psi_vec(u=u, e_tilde=pre.e + pre.what_w - w, tau=pre.tau,
                          y_tilde=pre.x + w)
        assert psi[ev.agent] <= tol
    # flow-set membership at samples away from event instants
    ev_times = {round(ev.time.t, 12) for ev in tr.events}
    for k in range(len(tr.times)):
        if round(float(tr.times[k]), 12) in ev_times:
            continue
        st = tr.state_at(k)
        w = s.noise.sample_vector(float(tr.times[k]))
        u = -(s.feedback @ (st.x + st.e + st.what_w))
        psi = sch.psi_vec(u=u, e_tilde=st.e + st.what_w - w, tau=st.tau,
                          y_tilde=st.x + w)
        assert np.all(psi >= -tol)


def test_eta_stays_nonnegative():
    s = small_dolk_scenario(t_final=1.0)
    tr = simulate(s)
    eta = tr.states[:, 3 * tr.n : 4 * tr.n]
    assert eta.min() >= -1e-12


def test_decimation_thins_samples_keeps_events():
    s1 = small_dolk_scenario()
    s2 = small_dolk_scenario()
    s2.decimation = 10
    t1, t2 = simulate(s1), simulate(s2)
    assert len(t2.times) < len(t1.times)
    assert len(t2.events) == len(t1.events)
    for a, b in zip(t1.events, t2.events):
        assert a.time == b.time and a.agent == b.agent


def test_detection_refinement_locates_crossing():
    base = simulate(two_agent_scenario())
    fine = simulate(two_agent_scenario(detection_refinement=True))
    assert len(fine.events) > 0
    # the first crossing is refined to within the original step, never later
    a, b = base.events[0], fine.events[0]
    assert a.agent == b.agent
    assert abs(a.time.t - b.time.t) <= 1e-4 + 1e-12
    assert b.time.t <= a.time.t + 1e-12
    # refined instants sit much closer to the zero crossing of psi
    assert abs(b.psi_value) < abs(a.psi_value)


@pytest.mark.parametrize("case", ["garcia-c2e-6", "two-agent"])
def test_refined_samples_never_step_back_or_repeat(case):
    # a crossing refined to the step end itself is the unrefined instant:
    # its sample is k h once, not t0 + h (an ulp off) followed by k h again
    if case == "garcia-c2e-6":
        sc = build_preset(case)[0][1]
        sc.t_final = 3.0
        sc.detection_refinement = True
    else:
        sc = two_agent_scenario(c=1e-4, amp=1e-4, detection_refinement=True)
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


def test_lyapunov_series_zero_on_consensus():
    g = benchmark_topology()
    sch = GarciaScheme(g, GarciaParams(a=0.1, c=2e-6, w_bar=1e-4))
    n = 8
    states = np.zeros((2, 5 * n))
    states[:, :n] = 1.0  # on the agreement subspace
    tr = SolutionTrace(times=np.array([0.0, 1.0]), jumps=np.zeros(2, dtype=int),
                       states=states, events=EventLog(n), run_manifest={}, n=n)
    v, u, du = lyapunov_series(tr, sch, laplacian(g))
    assert np.allclose(v, 0.0)
    assert np.allclose(u, 0.0)
    assert du.size == 0


def test_garcia_jumps_leave_w_unchanged():
    s = two_agent_scenario(c=1e-4, amp=1e-4)
    tr = simulate(s)
    L = s.feedback
    for ev in tr.events:
        w_pre = 0.5 * ev.pre_state.x @ L @ ev.pre_state.x
        w_post = 0.5 * ev.post_state.x @ L @ ev.post_state.x
        assert w_pre == w_post  # x untouched by jumps


@pytest.mark.parametrize("name", ["garcia-c2e-6", "dolk-c0"])
def test_blocked_storage_change_matches_a_whole_log_evaluation(preset_runs, monkeypatch, name):
    # dolk-c0 adds the certificate term to the storage function
    [(_, sc, tr)] = preset_runs(name)
    log, M = tr.events, sc.feedback
    assert len(log) > 3 * 3
    monkeypatch.setattr(engine_mod, "STORAGE_BLOCK_ROWS", 3)
    whole = sc.scheme.storage(log.post, M) - sc.scheme.storage(log.pre, M)
    assert np.array_equal(engine_mod.jump_storage_change(tr, sc.scheme, M), whole)
