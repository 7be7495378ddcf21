import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import etcsim.engine as engine_mod
import etcsim.hybrid as hybrid_mod
from etcsim.engine import (
    JumpStormError,
    Scenario,
    SolutionTrace,
    _in_jump_set,
    consensus_metrics,
    inter_event_stats,
    simulate,
)
from etcsim.etm import DolkParams, DolkScheme, GarciaParams, GarciaScheme
from etcsim.graph import Graph, benchmark_topology, laplacian
from etcsim.hybrid import EventLog
from etcsim.presets import build_preset
from etcsim.signals import NoiseSignal
from hybrid_arc import check_arc, check_eta_flow, stored_trace


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
    w = s.noise.step_table(0, s.steps_per_window)[0]
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
    w = sc.noise.step_table(steps, sc.steps_per_window)
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
    noise = sc.noise.step_table(round(sc.t_final / h), sc.steps_per_window)
    times, states, jumps, pre = tr.times, tr.states, tr.jumps, tr.pre
    for k in range(len(times) - 1):
        st = states[k].reshape(5, -1).copy()
        k0 = round(times[k] / h)
        for step in range(k0, round(times[k + 1] / h)):
            flow_advance(st, control(sc, st), h, noise[step], sc.scheme)
        target = pre[jumps[k]] if jumps[k + 1] > jumps[k] else states[k + 1]
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
    check_arc(sc, tr)


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
    assert np.isfinite(tr.states).all() and np.isfinite(tr.pre).all()
    assert np.isfinite(tr.events.psi).all()
    _replay_against_oracle(sc, tr)


def test_determinism_bit_exact():
    s1 = small_dolk_scenario()
    s2 = small_dolk_scenario()
    t1, t2 = simulate(s1), simulate(s2)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.times, t2.times)
    for col in ("agent", "t", "j"):
        assert np.array_equal(getattr(t1.events, col), getattr(t2.events, col)), col
    assert np.array_equal(t1.pre, t2.pre)


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
    assert e_count == tr.jumps[-1]
    for col in (log.agent, log.t, log.j, log.gap, log.psi):
        assert col.shape == (e_count,)
    assert tr.pre.shape == tr.post.shape == (e_count, 5 * n)
    check_arc(sc, tr)


def zeno_stretch():
    """garcia-c0 started near agreement: it transmits at almost every
    step, with instants of up to 5 jumps."""
    sc = build_preset("garcia-c0")[0][1]
    sc.x0 = 1e-4 * sc.x0
    sc.t_final = 0.05
    return sc


def shifted_first_instant(shift):
    """A jump resolver that judges the instant at t = 0 under the noise
    there plus ``shift``, so that e~ = w_hat - w is not 0 and jumps are due."""
    jump_resolver = engine_mod._jump_resolver

    def resolver(scheme, feedback, z, log):
        resolve = jump_resolver(scheme, feedback, z, log)
        return lambda t, w: resolve(t, w + shift if t == 0.0 else w)

    return resolver


@pytest.mark.parametrize("name", ["garcia-c0-stretch", "garcia-c0-stretch-decimated",
                                  "garcia-c0-stretch-t0", "dolk-remark5"])
def test_logged_rows_are_the_states_around_each_jump(monkeypatch, name):
    # the rows the log rebuilds against copies taken around each jump map
    # call. With decimation 7 most instants fall off the sample grid, so
    # the sample before one is often another instant; at t = 0 no sample
    # holds the senders' w_hat before their jumps; dolk-remark5 resets eta
    # at its jumps
    sc = build_preset(name)[0][1] if name == "dolk-remark5" else zeno_stretch()
    if name.endswith("decimated"):
        sc.decimation = 7
    if name.endswith("t0"):
        monkeypatch.setattr(engine_mod, "_jump_resolver", shifted_first_instant(1e-2))
    before, after = [], []
    apply_jump = engine_mod.apply_jump

    def copying_apply_jump(z, agent, w, scheme):
        before.append(z.ravel().copy())
        eta = apply_jump(z, agent, w, scheme)
        after.append(z.ravel().copy())
        return eta

    monkeypatch.setattr(engine_mod, "apply_jump", copying_apply_jump)
    tr = simulate(sc)
    log = tr.events
    assert len(log) == len(before) > 0
    if name.startswith("garcia"):
        assert np.unique(log.t, return_counts=True)[1].max() >= 5
    if name.endswith("decimated"):
        off_grid = np.rint(log.t / sc.step).astype(np.int64) % 7 != 0
        assert off_grid.mean() > 0.5
    if name.endswith("t0"):
        # each jump at t = 0 latched other noise than the w_hat it replaced
        at_zero = np.flatnonzero(log.t == 0.0)
        assert at_zero.size > 1
        cols = 2 * tr.n + log.agent[at_zero]
        assert np.all(tr.pre[at_zero, cols] != tr.post[at_zero, cols])
    assert np.array_equal(tr.pre, np.array(before))
    assert np.array_equal(tr.post, np.array(after))


def test_event_log_keeps_no_state_row():
    # the Zeno stretch has 1 286 jumps in 493 instants, so one (5n,) row per
    # instant would be about 15 values per jump on its own. A per-jump
    # buffer counts its filled rows only: the rest of its mapping is never
    # touched, so never resident
    sc = zeno_stretch()
    log = simulate(sc).events
    assert len(log) > 1000
    capacity = log._t.shape[0]
    held = sum(a[: len(log)].nbytes if a.shape[0] == capacity else a.nbytes
               for a in vars(log).values() if isinstance(a, np.ndarray))
    assert held <= 10 * 8 * len(log)


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
    noise = s.noise.step_table(round(s.t_final / s.step), s.steps_per_window)
    log = tr.events
    for k, ev in enumerate(log):
        assert log.psi[k] <= tol
        x, e, what_w, _, tau = pre = tr.pre[k].reshape(5, -1)
        w = noise[round(ev.time.t / s.step)]
        psi = sch.psi_vec(u=control(s, pre), e_tilde=e + what_w - w, tau=tau, x=x, w=w)
        assert psi[ev.agent] <= tol
    # flow-set membership at samples away from event instants
    ev_times = {round(ev.time.t, 12) for ev in tr.events}
    times, states = tr.times, tr.states
    for k in range(len(times)):
        if round(float(times[k]), 12) in ev_times:
            continue
        st = states[k].reshape(5, -1)
        x, e, what_w, _, tau = st
        w = noise[round(times[k] / s.step)]
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
    for name in ("step", "t_final"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, **{name: value})
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            Scenario(scheme=sch, noise=noise, x0=np.array([0.0, value]), graph=g)
        with pytest.raises(ValueError, match="feedback must be finite"):
            Scenario(scheme=sch, noise=noise, x0=np.zeros(2), feedback=np.full((2, 2), value))
    # past 2**63 - 1 the step numbers modulo the decimation overflow int64
    for decimation in (0, 2.0, 2.5, True, 2**63, np.uint64(2**63), 10**20):
        with pytest.raises(ValueError, match="decimation"):
            Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, decimation=decimation)
    assert Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g,
                    decimation=np.int64(3)).decimation == 3
    sc = Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, t_final=1e-3,
                  decimation=2**63 - 1)
    assert simulate(sc).times.tolist() == [0.0, 1e-3]


def test_step_must_divide_the_noise_hold():
    g = Graph.from_edge_list(2, [(0, 1)], undirected=True)
    sch = GarciaScheme(g, GarciaParams(a=0.2, c=0.01))
    noise = NoiseSignal(seed=1, amplitude=np.zeros(2), sample_rate=1e4, n=2)
    # 2.5e-4 would skip windows, 3e-5 straddle their edges, and 5e-324
    # makes hold/h overflow
    for step in (2.5e-4, 3e-5, 1.5e-4, 1e-4 * (1 + 1e-8), 5e-324):
        with pytest.raises(ValueError, match="must divide the noise hold"):
            Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, step=step)
    for step, per in ((1e-4, 1), (5e-5, 2), (2.5e-5, 4), (1e-5, 10), (1e-4 * (1 + 1e-12), 1)):
        sc = Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, step=step)
        assert sc.step == step and sc.steps_per_window == per


@pytest.mark.parametrize("step, per", [(9.999999995e-05, 1), (5e-5 * (1 - 5e-10), 2)])
def test_a_step_a_hair_below_the_hold_flows_under_the_windows_it_divides(step, per):
    # hold/step is within the 1e-9 tolerance of per, but k * step * rate
    # falls short of k / per: row k must still be window k // per
    sc = dataclasses.replace(build_preset("garcia-c2e-6")[0][1], step=step, t_final=0.1)
    assert sc.steps_per_window == per
    tr = simulate(sc)
    assert len(tr.events) > 0
    check_arc(sc, tr)


def test_horizon_must_be_a_whole_number_of_steps():
    g = Graph.from_edge_list(2, [(0, 1)], undirected=True)
    sch = GarciaScheme(g, GarciaParams(a=0.2, c=0.01))
    noise = NoiseSignal(seed=1, amplitude=np.zeros(2), sample_rate=1e4, n=2)
    # 1.5e-4 would stop at 1e-4 or 2e-4, 4e-5 take no step at all, and
    # 5e-324 makes t_final/h 0
    for t_final in (1.5e-4, 4e-5, 1e-4 * (1 + 1e-8), 5e-324):
        with pytest.raises(ValueError, match="whole number of steps"):
            Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, t_final=t_final)
    for t_final in (1e-4, 0.3, 8.0, 1e-4 * (1 + 1e-12)):
        sc = Scenario(scheme=sch, noise=noise, x0=np.zeros(2), graph=g, t_final=t_final)
        assert simulate(sc).times[-1] == round(t_final / sc.step) * sc.step


def test_a_field_set_after_construction_is_refused_before_simulating(monkeypatch):
    sc = two_agent_scenario()
    sc.t_final = 1.5e-4
    monkeypatch.setattr(engine_mod, "_flow_block", lambda *args: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate(sc)


# ---------------------------------------------------------------------------
# metric extraction


def _dummy_trace(events, t_final=3.0):
    sch = two_agent_scenario().scheme
    log = EventLog(sch.n)
    for agent, t in events:
        log.append(agent, t, 0.0, 0.0, 0.0)
    return stored_trace(sch, np.zeros((int(t_final) + 1, 5 * sch.n)), log)


def test_inter_event_stats_arithmetic():
    tr = _dummy_trace([(1, 1.0), (1, 1.5), (1, 2.5)])
    st = inter_event_stats(tr)
    assert st[1] == {"min": 0.5, "mean": 0.75, "count": 3}
    assert st[0] == {"min": None, "mean": None, "count": 0}


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


def test_zeno_indicator_windows():
    tr = _dummy_trace([(0, 0.1), (0, 0.2), (0, 2.9), (1, 2.95)], t_final=3.0)
    zi = zeno_indicator(tr, window=1.0)
    assert zi[0] is None  # only one event of agent 0 in the last second
    assert zi[1] is None
    zi_full = zeno_indicator(tr, window=3.0)
    assert zi_full[0] == pytest.approx(0.1)


def test_consensus_metrics_on_agreement():
    sch = GarciaScheme(benchmark_topology(), GarciaParams(a=0.1, c=2e-6, w_bar=1e-4))
    n = 8
    states = np.zeros((4, 5 * n))
    states[:, :n] = 2.5
    tr = stored_trace(sch, states)
    cm = consensus_metrics(tr)
    assert np.allclose(cm["distance_series"], 0.0)
    assert cm["final_max_deviation"] == 0.0


def test_storage_zero_on_consensus():
    g = benchmark_topology()
    sch = GarciaScheme(g, GarciaParams(a=0.1, c=2e-6, w_bar=1e-4))
    n = 8
    states = np.zeros((2, 5 * n))
    states[:, :n] = 1.0  # on the agreement subspace
    tr = stored_trace(sch, states, feedback=laplacian(g))
    u = sch.storage(tr.states, laplacian(g))
    du = engine_mod.jump_storage_change(tr)
    assert np.allclose(u, 0.0)
    assert du.size == 0


def test_garcia_jumps_leave_w_unchanged():
    s = two_agent_scenario(c=1e-4, amp=1e-4)
    tr = simulate(s)
    L = s.feedback
    n = tr.n
    for pre, post in zip(tr.pre, tr.post):
        w_pre = 0.5 * pre[:n] @ L @ pre[:n]
        w_post = 0.5 * post[:n] @ L @ post[:n]
        assert w_pre == w_post  # x untouched by jumps


@pytest.mark.parametrize("name", ["garcia-c2e-6", "dolk-c0", "garcia-c0"])
def test_blocked_storage_change_matches_a_whole_log_evaluation(preset_runs, monkeypatch, name):
    # dolk-c0 adds the certificate term to the storage function; the
    # garcia-c0 stretch has instants of several jumps, which blocks of 3
    # jumps would cut, and its chunks of 3 samples take each one whole
    if name == "garcia-c0":
        sc = zeno_stretch()
        tr = simulate(sc)
        starts = np.arange(3, len(tr.events), 3)
        assert np.any(tr.events.t[starts] == tr.events.t[starts - 1])
    else:
        [(_, sc, tr)] = preset_runs(name)
    log, M = tr.events, sc.feedback
    assert len(log) > 3 * 3
    # the reference reads the rows around the jumps at the default chunk size
    whole = sc.scheme.storage(tr.post, M) - sc.scheme.storage(tr.pre, M)
    monkeypatch.setattr(engine_mod, "STORAGE_BLOCK_ROWS", 3)
    assert np.array_equal(engine_mod.jump_storage_change(tr), whole)


# ---------------------------------------------------------------------------
# memory held by a run


def _run_columns(sc):
    """The bytes of a run's trace arrays and log columns, by name."""
    tr = simulate(sc)
    log = tr.events
    cols = {"times": tr.times, "jumps": tr.jumps, "states": tr.states, "agent": log.agent,
            "t": log.t, "gap": log.gap, "psi": log.psi, "pre": tr.pre, "post": tr.post}
    return {key: (col.shape, col.tobytes()) for key, col in cols.items()}


@pytest.mark.parametrize("name", ["garcia-c0-stretch", "small-dolk-decimated"])
def test_noise_chunk_seams_change_no_bit(monkeypatch, name):
    # both runs are shorter than one default chunk, so the reference reads
    # its whole noise table at once; chunks of BLOCK_MAX + 1 rows put a
    # seam every few blocks, inside the Zeno stretch's one-step blocks
    # and off the decimation grid
    if name == "garcia-c0-stretch":
        sc = dataclasses.replace(zeno_stretch(), t_final=0.2)
    else:
        sc = dataclasses.replace(small_dolk_scenario(t_final=0.4), decimation=7)
    assert round(sc.t_final / sc.step) < engine_mod.NOISE_CHUNK_STEPS
    whole = _run_columns(sc)
    firsts = []
    step_table = NoiseSignal.step_table

    def recording_step_table(self, steps, per, first=0):
        firsts.append(first)
        return step_table(self, steps, per, first)

    monkeypatch.setattr(NoiseSignal, "step_table", recording_step_table)
    monkeypatch.setattr(engine_mod, "NOISE_CHUNK_STEPS", engine_mod.BLOCK_MAX + 1)
    chunked = _run_columns(sc)
    # simulate tabulates each chunk once, in order; reading the samples of a
    # dynamic run replays its blocks, which tabulates them again
    run = firsts[: firsts.index(0, 1)] if firsts.count(0) > 1 else firsts
    assert len(run) > 3 and run == sorted(set(run))
    for key, col in whole.items():
        assert chunked[key] == col, key


@pytest.mark.parametrize("rows", [3, 7])
def test_blocked_consensus_metrics_match_a_whole_trace_evaluation(preset_runs, monkeypatch, rows):
    # the 80 001 samples fill blocks of 3 rows exactly and leave a short
    # last block of 7
    [(_, sc, tr)] = preset_runs("dolk-c0")
    x = tr.x_series
    assert x.shape[0] > 3 * rows and (x.shape[0] % rows == 0) == (rows == 3)
    whole = np.linalg.norm(x - x.mean(axis=1, keepdims=True), axis=1)
    monkeypatch.setattr(engine_mod, "STORAGE_BLOCK_ROWS", rows)
    assert consensus_metrics(tr)["distance_series"].tobytes() == whole.tobytes()


def _flowed_rows(monkeypatch, sc):
    """Simulate sc, keeping what each block flowed: the trace; the run's
    rows at steps 0..steps as the run committed them, each block's rows up
    to its end and then the final row after the final instant's jumps;
    each block's start row (its ``row`` argument); and its first step (the
    first noise row it reads)."""
    flowed, starts, steps, live = [], [], [], []
    flow_block, noise_rows = engine_mod._flow_block, engine_mod._NoiseRows.rows

    def keeping_flow_block(row, *args):
        out, due = flow_block(row, *args)
        flowed.append(out.copy())
        starts.append(row.copy())
        live[:] = [row]  # the run's own state row, which it updates in place
        return out, due

    def keeping_noise_rows(self, k, m):
        steps.append(k)
        return noise_rows(self, k, m)

    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, "_flow_block", keeping_flow_block)
        patch.setattr(engine_mod._NoiseRows, "rows", keeping_noise_rows)
        tr = simulate(sc)
    final = live[0].copy()  # the state the run ended in
    steps = np.array(steps[1:])  # after the noise at t = 0, one call per block
    lengths = np.diff([*steps, round(sc.t_final / sc.step)])
    rows = np.concatenate([rows[:m] for rows, m in zip(flowed, lengths)] + [final[None]])
    return tr, rows, np.array(starts), steps


@pytest.mark.parametrize("size", [3, 7])
@pytest.mark.parametrize("dec", [1, 7])
@pytest.mark.parametrize("name", ["garcia-c0", "small-dolk"])
def test_chunked_reads_match_the_flowed_rows(monkeypatch, name, dec, size):
    # chunks of 3 and 7 samples start inside blocks, and next to or across
    # instants; each block replays from its own stored row after the
    # instant's jumps, and the dynamic rule's replay re-runs its blocks
    # under their noise rows
    if name == "garcia-c0":
        sc = dataclasses.replace(build_preset(name)[0][1], t_final=0.3)
    else:
        sc = small_dolk_scenario(t_final=0.2)
    tr, flowed, starts, block_steps = _flowed_rows(monkeypatch,
                                                   dataclasses.replace(sc, decimation=dec))
    # each block's first step is stored, and the walk rebuilds the row each
    # block flowed from: a kept row or the last one it rebuilt, with the
    # jumps there applied
    assert np.array_equal(tr.row_k[:-1], block_steps)
    rebuilt = np.array([start.copy() for _, _, start, _ in engine_mod._walk(tr, 0)])
    assert rebuilt[:-1].tobytes() == starts.tobytes()  # the last boundary starts no block
    steps = np.rint(tr.times / sc.step).astype(np.int64)
    states = tr.states
    assert np.array_equal(states, flowed[steps])
    chunks = list(tr.chunks(size=size))
    assert all(k.size == size for k, _ in chunks[:-1])
    first = np.array([k[0] for k, _ in chunks[1:]])
    assert not np.isin(first, tr.row_k).all()  # a chunk starts inside a block
    assert np.array_equal(np.concatenate([k for k, _ in chunks]), steps)
    assert np.array_equal(np.concatenate([rows for _, rows in chunks]), states)
    lo, hi = steps.size // 3, 2 * steps.size // 3
    part = np.concatenate([rows for _, rows in tr.chunks(lo, hi, size)])
    assert np.array_equal(part, states[lo:hi])
    assert np.array_equal(tr.x_series, states[:, : tr.n])


def _walk_scenario(name):
    """A run with a kept row inside it, at boundary CHECKPOINT_BLOCKS, and
    jumps on both sides of it. garcia-c0 (static rule) has an instant on
    that boundary, and its Zeno stretch is almost all one-step blocks with
    jumps at each; the small dolk run (dynamic rule) has instants a few
    blocks before and after it."""
    if name == "garcia-c0":
        return dataclasses.replace(build_preset(name)[0][1], t_final=0.35)
    return zeno_stretch() if name == "garcia-c0-stretch" else small_dolk_scenario(t_final=1.0)


def _jumped_rows(monkeypatch, sc):
    """Simulate sc, keeping the state just before and just after each jump
    as the run applied it."""
    pre, post = [], []
    apply_jump = engine_mod.apply_jump

    def keeping_apply_jump(z, i, w, scheme):
        pre.append(z.reshape(-1).copy())
        eta = apply_jump(z, i, w, scheme)
        post.append(z.reshape(-1).copy())
        return eta

    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, "apply_jump", keeping_apply_jump)
        tr = simulate(sc)
    return tr, np.array(pre), np.array(post)


@pytest.mark.parametrize("name", ["garcia-c0", "garcia-c0-stretch", "small-dolk"])
def test_walk_reads_samples_from_before_on_and_after_a_kept_row(monkeypatch, name):
    # a read that starts one block before the kept row replays
    # CHECKPOINT_BLOCKS - 1 blocks from the row before; one on it or after
    # it starts from it
    tr, flowed, _, _ = _flowed_rows(monkeypatch, _walk_scenario(name))
    kept = engine_mod.CHECKPOINT_BLOCKS
    assert tr.stride == kept and tr.row_k.size - 1 > kept + 1
    assert tr.rows[1].tobytes() != tr.rows[0].tobytes()
    for b in (kept - 1, kept, kept + 1):
        lo = tr.row_k.item(b)  # every step is a sample: sample k is step k
        for hi in (lo + 1, lo + 40, None):
            for size in (3, None):
                got = np.concatenate([rows for _, rows in tr.chunks(lo, hi, size)])
                assert got.tobytes() == flowed[lo:hi].tobytes(), (b, hi, size)


@pytest.mark.parametrize("name", ["garcia-c0", "garcia-c0-stretch", "small-dolk"])
def test_walk_rebuilds_the_rows_around_jumps_across_a_kept_row(monkeypatch, name):
    tr, pre, post = _jumped_rows(monkeypatch, _walk_scenario(name))
    log_t, kept = tr.events.t, engine_mod.CHECKPOINT_BLOCKS
    t = tr.row_k.item(kept) * tr.scenario.step
    # the last jump before the kept boundary's instant, to the first after it
    lo, hi = log_t.searchsorted(t) - 1, log_t.searchsorted(t, side="right") + 1
    assert 0 <= lo and hi <= len(tr.events) and log_t[lo] < t < log_t[hi - 1]
    assert tr.pre.tobytes() == pre.tobytes()
    assert tr.post.tobytes() == post.tobytes()
    # the rows around the jumps and the storage change at each, from the
    # metrics pass and from chunked reads that start before, on or after
    # the kept row, or at or after the instants on either side of it, and
    # end at or after them: every step is a sample, so sample k is step k
    sch, fb, h = tr.scenario.scheme, tr.scenario.feedback, tr.scenario.step
    du = sch.storage(post, fb) - sch.storage(pre, fb)
    assert engine_mod.jump_storage_change(tr).tobytes() == du.tobytes()
    before, after = (round(log_t[q] / h) for q in (lo, hi - 1))  # those instants' samples
    starts = [tr.row_k.item(b) for b in (kept - 1, kept, kept + 1)]
    ranges = [(before, after + 1), (before + 1, after + 1), (before, after),
              (before + 1, before + 2), (0, None)]
    for s_lo, s_hi in [(s, None) for s in starts] + ranges:
        for size in (3, None):
            got = list(tr.chunks(s_lo, s_hi, size, jumps=True))
            first = log_t.searchsorted(s_lo * h)
            end = len(tr.events) if s_hi is None else log_t.searchsorted(s_hi * h)
            for part, want in ((2, pre), (3, post)):
                rows = np.concatenate([c[part] for c in got])
                assert rows.tobytes() == want[first:end].tobytes(), (s_lo, s_hi, size, part)
            got = [sch.storage(c[3], fb) - sch.storage(c[2], fb) for c in got]
            assert np.concatenate(got).tobytes() == du[first:end].tobytes(), (s_lo, s_hi, size)


@pytest.mark.parametrize("name", ["garcia-c0-stretch", "small-dolk"])
def test_a_read_from_boundary_b_replays_b_mod_the_stride_blocks_before_it(monkeypatch, name):
    # one forward walk from the kept row at or before b, with no skip-ahead:
    # b mod CHECKPOINT_BLOCKS blocks before block b, and block b itself
    tr = simulate(_walk_scenario(name))
    kept = engine_mod.CHECKPOINT_BLOCKS
    assert tr.stride == kept and tr.row_k.size - 1 > kept + 1
    replay = "_row_flow" if tr.scenario.scheme.mode == "static" else "_flow_block"
    calls, flow = [], getattr(engine_mod, replay)

    def counting(*args):
        calls.append(1)
        return flow(*args)

    monkeypatch.setattr(engine_mod, replay, counting)
    for b in (kept - 1, kept, kept + 1):
        lo = tr.row_k.item(b)  # every step is a sample: sample k is step k
        calls.clear()
        [(k, _)] = tr.chunks(lo, lo + 1)
        assert k.tolist() == [lo] and len(calls) == b % kept + 1, (b, len(calls))


def test_zeno_stretch_matches_per_step_oracle():
    sc = zeno_stretch()
    tr = simulate(sc)
    assert np.unique(tr.events.t).size > 400
    _replay_against_oracle(sc, tr)


def test_trace_grows_with_instants_not_with_steps(preset_runs):
    # 80 001 samples of 40 values would be 25.6 MB; the trace stores a step
    # number per block boundary, and after each instant the blocks double
    # from BLOCK_MIN to BLOCK_MAX steps; it keeps a row at every
    # CHECKPOINT_BLOCKS-th boundary and at the last
    [(_, sc, tr)] = preset_runs("garcia-c2e-6")
    log = tr.events
    held = sum(a.nbytes for a in (*vars(tr).values(), *vars(log).values())
               if isinstance(a, np.ndarray))
    doublings = math.log2(engine_mod.BLOCK_MAX / engine_mod.BLOCK_MIN) + 1
    steps = round(sc.t_final / sc.step)
    blocks = tr.row_k.size - 1
    assert blocks + 1 <= (np.unique(log.t).size + 1) * doublings + steps / engine_mod.BLOCK_MAX + 2
    assert tr.rows.shape[0] <= blocks // engine_mod.CHECKPOINT_BLOCKS + 2
    assert held < 1_000_000 < tr.times.size * 5 * tr.n * 8
    # the Zeno run: 26 107 blocks, almost all one step long, keep 409 rows
    [(_, sc, tr)] = preset_runs("garcia-c0")
    blocks = tr.row_k.size - 1
    assert blocks > 20_000 and tr.rows.shape[0] <= blocks // engine_mod.CHECKPOINT_BLOCKS + 2


def _traced_peak(fn, *args):
    """fn(*args), and the peak of the memory tracemalloc traces during the
    call above what was traced before it. numpy reports its buffers to
    tracemalloc; the recorder's and the event log's memory-mapped buffers
    are not seen."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return out, peak - before


@pytest.mark.parametrize("dec", [1, 7])
def test_chunk_steps_are_the_grid_the_instants_and_the_final_step(dec):
    sc = dataclasses.replace(build_preset("garcia-c2e-6")[0][1], t_final=0.5, decimation=dec)
    tr = simulate(sc)
    steps = round(sc.t_final / sc.step)
    instants = np.rint(np.unique(tr.events.t) / sc.step).astype(np.int64)
    want = np.union1d(np.arange(0, steps + 1, dec), np.append(instants, steps))
    if dec > 1:
        assert want.size > steps // dec + 1  # samples off the grid
    assert tr.sample_count == want.size and np.array_equal(tr.times, want * sc.step)
    ranges = np.sort(np.random.default_rng(5).integers(0, want.size + 1, (12, 2)), axis=1)
    for lo, hi in [(0, None), (0, 10), (want.size - 10, want.size), (7, 7), *ranges.tolist()]:
        for size in (3, 64, None):
            got = [k for k, _ in tr.chunks(lo, hi, size)]
            assert np.array_equal(np.concatenate([np.empty(0, np.int64), *got]), want[lo:hi])


def test_chunk_size_must_be_a_positive_integer():
    sc = dataclasses.replace(build_preset("garcia-c2e-6")[0][1], t_final=0.05)
    tr = simulate(sc)
    assert tr.sample_count == 501
    for size in (-3, 0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="positive integer"):
            list(tr.chunks(0, None, size))
    whole = [k for k, _ in tr.chunks()]  # None: one chunk of at most STORAGE_BLOCK_ROWS
    assert len(whole) == 1 and whole[0].size == 501
    for size in (3, np.int64(3)):
        assert [k.size for k, _ in tr.chunks(0, 7, size)] == [3, 3, 1]


@pytest.mark.parametrize("dec", [1, 7])
def test_reading_a_few_samples_holds_nothing_sized_by_the_run(dec):
    # their steps come from the decimation grid and the off-grid instants,
    # so 10 samples of the 8 s run take what they take of a 1 s run; the
    # 8 s run's whole (samples,) step array alone would be 640 KB
    [(_, sc)] = build_preset("garcia-c2e-6")
    peaks = []
    for t_final in (1.0, 8.0):
        tr = simulate(dataclasses.replace(sc, t_final=t_final, decimation=dec))
        list(tr.chunks(0, 10))  # first calls allocate numpy's own caches
        peaks.append(_traced_peak(lambda: list(tr.chunks(0, 10)))[1])
    assert peaks[1] < peaks[0] + 8_000


def test_simulate_holds_no_whole_run_noise_table():
    # the 8 s run's full (steps + 1, n) noise table would be 5.1 MB
    [(_, sc)] = build_preset("garcia-c2e-6")
    tr, peak = _traced_peak(simulate, sc)
    steps = round(sc.t_final / sc.step)
    assert steps > 8 * engine_mod.NOISE_CHUNK_STEPS
    assert peak < (steps + 1) * tr.n * 8 / 2


def test_simulate_maps_no_whole_run_buffer(monkeypatch):
    # a buffer of steps + 1 rows would be 32 GB at t_final = 1e4; each
    # buffer doubles from its first length when full, so none is longer
    # than twice what it holds plus that length: the block steps and the
    # log's columns grow with blocks and jumps, the kept rows with one in
    # CHECKPOINT_BLOCKS blocks
    sc = dataclasses.replace(build_preset("garcia-c2e-6")[0][1], t_final=1.0)
    made, mapped = [], hybrid_mod._mapped

    def recording_mapped(shape, dtype=float):
        made.append(mapped(shape, dtype))
        return made[-1]

    monkeypatch.setattr(engine_mod, "_mapped", recording_mapped)
    monkeypatch.setattr(hybrid_mod, "_mapped", recording_mapped)
    tr = simulate(sc)
    log = tr.events

    def length(held):
        """The length of the one mapping that holds ``held``."""
        [buf] = [a for a in made if np.shares_memory(a, held)]
        return buf.shape[0]

    blocks, kept = tr.row_k.size - 1, tr.rows.shape[0]
    assert blocks > 4 * engine_mod.BLOCK_MIN and len(log) > EventLog._INITIAL_CAPACITY  # they grew
    assert length(tr.row_k) <= 2 * (blocks + 1) + engine_mod.BLOCK_MIN
    assert kept <= blocks // engine_mod.CHECKPOINT_BLOCKS + 2
    assert length(tr.rows) <= 2 * kept + engine_mod.BLOCK_MIN
    for name in EventLog._NAMES:
        assert length(getattr(log, name)) <= 2 * len(log) + EventLog._INITIAL_CAPACITY, name
    assert len(made) > 3


def test_x_series_holds_no_whole_run_rows(preset_runs):
    # the (samples, n) output, and the chunks of 5n-wide rows it is read from
    [(_, sc, tr)] = preset_runs("garcia-c2e-6")
    x, peak = _traced_peak(lambda: tr.x_series)
    assert x.shape == (tr.times.size, tr.n)
    assert peak < 1.5 * x.nbytes


def test_consensus_metrics_hold_no_whole_run_temporary(preset_runs):
    # the (samples, n) deviations from the mean would be 5.1 MB at 8 s
    [(_, sc, tr)] = preset_runs("garcia-c2e-6")
    _, peak = _traced_peak(consensus_metrics, tr)
    assert peak < tr.times.size * tr.n * 8 / 2
