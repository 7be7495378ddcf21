import numpy as np
import pytest

from etcsim.engine import SolutionTrace, _control_law, _flow_block, consensus_metrics
from etcsim.etm import GarciaParams, GarciaScheme
from etcsim.graph import benchmark_topology, laplacian
from etcsim.hybrid import EventLog, apply_jump

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
        tr = SolutionTrace(times=np.zeros(1), jumps=np.zeros(1, dtype=int), states=states,
                           events=EventLog(n), run_manifest={}, n=n)
        return consensus_metrics(tr)["distance_series"][0]

    x = X0.copy()
    cs = np.linspace(-5, 5, 100001)
    dists = np.sqrt(((x[None, :] - cs[:, None]) ** 2).sum(axis=1))
    assert distance(x) == pytest.approx(dists.min(), rel=1e-9)
    assert distance(x) == pytest.approx(np.sqrt(240.0))
    assert distance(np.full(5, 3.3)) == 0.0

