import numpy as np
import pytest

from etcsim.engine import SolutionTrace, _flow_block, consensus_metrics, jump_set
from etcsim.etm import GarciaParams, GarciaScheme
from etcsim.graph import benchmark_topology, laplacian
from etcsim.hybrid import EventLog, HybridState, apply_jump

X0 = np.array([8.0, 6.0, 4.0, 2.0, -2.0, -4.0, -6.0, -8.0])


def fresh_state(n=8, x=None):
    x = X0.copy() if x is None else np.asarray(x, dtype=float)
    z = np.zeros(x.shape[0])
    return HybridState(x, z.copy(), z.copy(), z.copy(), z.copy())


def scheme8(c=0.01):
    return GarciaScheme(benchmark_topology(), GarciaParams(a=0.1, c=c), allow_zeno=True)


def control_input(feedback, st):
    # the engine's control law: the Laplacian applied to the held outputs
    return -feedback @ (st.x + st.e + st.what_w)


def test_measured_error():
    # the trigger sees e + w_hat - w; x on agreement makes u = 0, so
    # psi = c - b (e + w_hat - w)^2
    sch = scheme8()
    st = fresh_state(x=np.ones(8))
    st.e[:2] = [0.5, -0.5]
    st.what_w[:2] = [0.1, 0.0]
    w = np.zeros(8)
    w[:2] = [0.05, 0.2]
    psi, _ = jump_set(sch, st, np.zeros(8), w)
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
            acc += g.adjacency[i, j] * (st.x[i] - st.x[j])
        assert u[i] == pytest.approx(-acc, abs=1e-12)
    # agent 1 (index 0) neighbors hold 6 and -8: -(2*8 - 6 - (-8)) = -18
    assert u[0] == pytest.approx(-18.0)


def test_control_input_uses_held_output():
    L = laplacian(benchmark_topology())
    st = fresh_state()
    st.e[:] = 0.5
    st.what_w[:] = 0.25
    # constant shifts lie in the Laplacian null space
    assert np.allclose(control_input(L, st), control_input(L, fresh_state()))


def test_flow_derivative_structure():
    # one flow step of a static scheme: x moves with u, e against it,
    # the clocks advance, w_hat and eta stay
    L = laplacian(benchmark_topology())
    st = fresh_state()
    u = control_input(L, st)
    h = 1e-3
    rows, _ = _flow_block(st.row, u, h, np.zeros((2, 8)), scheme8())
    st = HybridState.from_row(rows[1])
    assert np.allclose(st.x, X0 + h * u, rtol=1e-15)
    assert np.allclose(st.e, -h * u, rtol=1e-15)  # zero-order hold: d(e)/dt = -d(x)/dt
    assert np.allclose(st.what_w, 0.0)
    assert np.allclose(st.tau, h)
    assert np.allclose(st.eta, 0.0)  # static scheme carries no eta flow


def test_apply_jump_locality():
    st = fresh_state()
    st.e[:] = 0.7
    st.what_w[:] = 0.1
    st.tau[:] = 2.0
    w = np.full(8, 0.05)
    post = st.copy()
    apply_jump(post, 3, w, scheme8())
    assert post.e[3] == 0.0
    assert post.what_w[3] == w[3]
    assert post.tau[3] == 0.0
    # all other agents and the whole x untouched
    mask = np.arange(8) != 3
    assert np.array_equal(post.x, st.x)
    assert np.array_equal(post.e[mask], st.e[mask])
    assert np.array_equal(post.what_w[mask], st.what_w[mask])
    assert np.array_equal(post.tau[mask], st.tau[mask])
    # pre state not mutated
    assert st.e[3] == 0.7


def test_apply_jump_idempotent():
    st = fresh_state()
    st.e[:] = 0.7
    w = np.full(8, 0.05)
    sch = scheme8()
    apply_jump(st, 2, w, sch)
    once = st.copy()
    apply_jump(st, 2, w, sch)
    assert np.array_equal(once.as_row(), st.as_row())


def test_apply_jump_bad_agent():
    with pytest.raises(IndexError):
        apply_jump(fresh_state(), 8, np.zeros(8), scheme8())


def test_distance_to_consensus_value():
    # oracle: minimize ||x - c*1|| over c by brute-force grid refinement
    def distance(x):
        n = x.size
        states = np.zeros((1, 5 * n))
        states[0, :n] = x
        tr = SolutionTrace(times=np.zeros(1), jumps=np.zeros(1, dtype=int), states=states,
                           events=EventLog(n), run_manifest={}, n=n)
        return consensus_metrics(tr)["distance_series"][0]

    x = X0.copy()
    cs = np.linspace(-5, 5, 100001)
    dists = np.sqrt(((x[None, :] - cs[:, None]) ** 2).sum(axis=1))
    assert distance(x) == pytest.approx(dists.min(), rel=1e-9)
    assert distance(x) == pytest.approx(np.sqrt(240.0))
    assert distance(np.full(5, 3.3)) == 0.0


def test_row_round_trip():
    st = fresh_state()
    st.e[:] = np.arange(8) * 0.1
    st.eta[:] = 0.5
    back = HybridState.from_row(st.as_row())
    assert np.array_equal(back.as_row(), st.as_row())
    assert back.n == 8
