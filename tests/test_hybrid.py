import numpy as np
import pytest

from etcsim.engine import _control_law, _flow_block, consensus_metrics
from etcsim.etm import GarciaParams, GarciaScheme, SingleParams, SingleSystemScheme
from etcsim.graph import Graph, benchmark_topology, laplacian
from etcsim.hybrid import EventLog, apply_jump
from hybrid_arc import stored_trace

X0 = np.array([8.0, 6.0, 4.0, 2.0, -2.0, -4.0, -6.0, -8.0])


def fresh_state(x=None):
    """(5, n) state view: x, and zero e, w_hat, eta and tau."""
    x = X0 if x is None else np.asarray(x, dtype=float)
    z = np.zeros((5, x.shape[0]))
    z[0] = x
    return z


def scheme8(c=0.01):
    return GarciaScheme(benchmark_topology(), GarciaParams(a=0.1, c=c), allow_zeno=True)


def control_input(feedback, z):
    # the engine's control law: the Laplacian applied to the held outputs
    return _control_law(feedback, z)()


def test_measured_error():
    # the trigger sees e + w_hat - w; x on agreement makes u = 0, so
    # psi = c - b (e + w_hat - w)^2
    sch = scheme8()
    x, e, what_w, _, tau = st = fresh_state(x=np.ones(8))
    e[:2] = [0.5, -0.5]
    what_w[:2] = [0.1, 0.0]
    w = np.zeros(8)
    w[:2] = [0.05, 0.2]
    psi = sch.psi_vec(u=np.zeros(8), e_tilde=e + what_w - w, tau=tau, x=x, w=w)
    e_tilde = np.zeros(8)
    e_tilde[:2] = [0.55, -0.7]
    assert np.allclose(psi, sch.c - sch.b * e_tilde**2, rtol=1e-15)


def test_control_input_matches_matrix_oracle():
    g = benchmark_topology()
    L = laplacian(g)
    st = fresh_state()
    u = control_input(L, st)
    # independent oracle: u_i = -sum_j a_ij (x_i - x_j), e = w_hat = 0
    for i in range(8):
        acc = 0.0
        for j in range(8):
            acc += g.adjacency[i, j] * (st[0, i] - st[0, j])
        assert u[i] == pytest.approx(-acc, abs=1e-12)
    # agent 1 (index 0) neighbors hold 6 and -8: -(2*8 - 6 - (-8)) = -18
    assert u[0] == pytest.approx(-18.0)


def test_control_input_uses_held_output():
    L = laplacian(benchmark_topology())
    st = fresh_state()
    st[1], st[2] = 0.5, 0.25  # e and w_hat
    # constant shifts lie in the Laplacian null space
    assert np.allclose(control_input(L, st), control_input(L, fresh_state()))


def test_flow_derivative_structure():
    # one flow step of a static scheme: x moves with u, e against it,
    # the clocks advance, w_hat and eta stay
    L = laplacian(benchmark_topology())
    st = fresh_state()
    u = control_input(L, st)
    h = 1e-3
    rows, _ = _flow_block(st, u, h, np.zeros((2, 8)), scheme8())
    x, e, what_w, eta, tau = rows[1].reshape(5, 8)
    assert np.allclose(x, X0 + h * u, rtol=1e-15)
    assert np.allclose(e, -h * u, rtol=1e-15)  # zero-order hold: d(e)/dt = -d(x)/dt
    assert np.allclose(what_w, 0.0)
    assert np.allclose(tau, h)
    assert np.allclose(eta, 0.0)  # static scheme carries no eta flow


def test_apply_jump_locality():
    st = fresh_state()
    st[1], st[2], st[4] = 0.7, 0.1, 2.0  # e, w_hat, tau
    w = np.full(8, 0.05)
    post = st.copy()
    apply_jump(post, 3, w, scheme8())
    assert post[1, 3] == 0.0
    assert post[2, 3] == w[3]
    assert post[4, 3] == 0.0
    # all other agents and the whole x untouched
    mask = np.arange(8) != 3
    assert np.array_equal(post[0], st[0])
    assert np.array_equal(post[1, mask], st[1, mask])
    assert np.array_equal(post[2, mask], st[2, mask])
    assert np.array_equal(post[4, mask], st[4, mask])
    # pre state not mutated
    assert st[1, 3] == 0.7


def test_apply_jump_idempotent():
    st = fresh_state()
    st[1] = 0.7
    w = np.full(8, 0.05)
    sch = scheme8()
    apply_jump(st, 2, w, sch)
    once = st.copy()
    apply_jump(st, 2, w, sch)
    assert np.array_equal(once, st)


def test_apply_jump_bad_agent():
    with pytest.raises(IndexError):
        apply_jump(fresh_state(), 8, np.zeros(8), scheme8())


def test_distance_to_consensus_value():
    # oracle: minimize ||x - c*1|| over c by brute-force grid refinement
    def distance(x):
        n = x.size
        states = np.zeros((1, 5 * n))
        states[0, :n] = x
        tr = stored_trace(scheme8(), states)
        return consensus_metrics(tr)["distance_series"][0]

    x = X0.copy()
    cs = np.linspace(-5, 5, 100001)
    dists = np.sqrt(((x[None, :] - cs[:, None]) ** 2).sum(axis=1))
    assert distance(x) == pytest.approx(dists.min(), rel=1e-9)
    assert distance(x) == pytest.approx(np.sqrt(240.0))
    assert distance(np.full(8, 3.3)) == 0.0


def test_single_plant_target_set_is_the_origin():
    # one plant near 0 after starting at 4: its distance and final
    # deviation are |x|, not the distance to its own mean, which is 0
    sch = SingleSystemScheme(SingleParams(delta_coef=0.0625, beta_coef=2.0, c=1e-6))
    states = np.zeros((2, 5))
    states[:, 0] = [4.0, -7.5e-4]
    tr = stored_trace(sch, states)
    cm = consensus_metrics(tr)
    assert cm["distance_series"].tolist() == [4.0, 7.5e-4]
    assert cm["final_max_deviation"] == 7.5e-4



def jumped(row, agent, what_w, eta):
    """The row after a jump by ``agent``, written out component by component."""
    z = row.reshape(5, -1).copy()
    z[1, agent] = 0.0
    z[2, agent] = what_w
    z[3, agent] = eta
    z[4, agent] = 0.0
    return z.ravel()


def test_event_log_chains_the_jumps_of_an_instant():
    # four instants between flowing samples, each stored before its first
    # jump, the first at step 0; at step 2 agent 0 jumps twice, in two
    # passes, and the jump after its second sees the second's values
    n = 3
    rng = np.random.default_rng(5)
    jumps = {0: [(1, 1.5, 1.6)],
             2: [(0, 0.1, 0.2), (2, 0.3, 0.4), (0, 0.5, 0.6), (1, 1.3, 1.4)],
             4: [(1, 0.7, 0.8), (2, 0.9, 1.0)], 6: [(0, 1.1, 1.2)]}
    log = EventLog(n)
    row = rng.standard_normal(5 * n)
    stored, want_pre, want_post = [], [], []
    for k in range(7):
        if k:  # flow from the previous sample: everything but w_hat moves
            flow = rng.standard_normal((5, n))
            flow[2] = 0.0
            row = row + flow.ravel()
        stored.append(row)
        for agent, what_w, eta in jumps.get(k, []):
            want_pre.append(row)
            log.append(agent, float(k), 0.0, what_w, eta)
            row = jumped(row, agent, what_w, eta)
            want_post.append(row)
    scheme = GarciaScheme(Graph.from_edge_list(n, [(0, 1), (1, 2)]), GarciaParams(a=0.1, c=0.01),
                          allow_zeno=True)
    tr = stored_trace(scheme, stored, log)
    want_pre, want_post = np.array(want_pre), np.array(want_post)
    # j and the gaps since the same agent's previous jump are the log's own
    assert np.array_equal(log.j, np.arange(1, len(want_pre) + 1))
    nan = np.nan
    assert np.array_equal(log.gap, [nan, nan, nan, 0.0, 2.0, 2.0, 2.0, 4.0], equal_nan=True)
    assert np.array_equal(tr.pre, want_pre)
    assert np.array_equal(tr.post, want_post)
    # agent 0's second jump sees its first one's latched noise and eta,
    # and the jump after it the second one's
    assert tr.pre[3].reshape(5, n)[2:4, 0].tolist() == [0.1, 0.2]
    assert tr.pre[4].reshape(5, n)[2:4, 0].tolist() == [0.5, 0.6]
    # a read of samples lo..hi-1, in chunks of any size, gives the rows
    # around the jumps at its instants: the jumps at steps lo..hi-1
    for lo in range(7):
        for hi in range(lo + 1, 8):
            first, end = log.t.searchsorted([lo, hi])
            for size in (1, 2, None):
                got = list(tr.chunks(lo, hi, size, jumps=True))
                assert np.array_equal(np.concatenate([c[2] for c in got]), want_pre[first:end])
                assert np.array_equal(np.concatenate([c[3] for c in got]), want_post[first:end])
    # each access is a new array
    tr.pre[:] = 0.0
    tr.post[:] = 0.0
    assert np.array_equal(tr.pre, want_pre) and np.array_equal(tr.post, want_post)


def test_event_log_is_a_column_log_without_a_trace():
    # appended by hand, past its first buffers: every column reads back
    log = EventLog(2)
    count = 3 * EventLog._INITIAL_CAPACITY
    for k in range(count):
        log.append(k % 2, 0.5 * (k // 2), -k, 0.25 * k, 2.0 * k)
    k = np.arange(count)
    assert len(log) == count
    assert np.array_equal(log.agent, k % 2) and log.agent.dtype == np.int64
    assert np.array_equal(log.t, 0.5 * (k // 2))
    assert np.array_equal(log.gap, np.where(k < 2, np.nan, 0.5), equal_nan=True)
    assert np.array_equal(log.psi, -k)
    assert np.array_equal(log.what_w, 0.25 * k)
    assert np.array_equal(log.eta, 2.0 * k)
    assert np.array_equal(log.j, k + 1)
    events = list(log)
    assert [ev.agent for ev in events] == (k % 2).tolist()
    assert [ev.time for ev in events] == [(t, j) for t, j in zip(log.t.tolist(), k + 1)]
    assert [ev.inter_event_gap for ev in events[:3]] == [None, None, 0.5]
