import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import etcsim
from etcsim.engine import TRIGGER_TOL, _flow_block, _in_jump_set
from etcsim.etm import (
    BerneburgParams,
    BerneburgScheme,
    DolkParams,
    DolkScheme,
    GarciaParams,
    GarciaScheme,
    SingleParams,
    SingleSystemScheme,
    ZenoGuaranteeError,
    gamma_sigma_from,
    phi,
    tau_miet,
    trigger_value,
)
from etcsim.graph import Graph, benchmark_topology, laplacian

N_BENCH = np.array([2, 3, 3, 2, 3, 2, 2, 3])  # neighbor counts of the benchmark topology


def bench():
    return benchmark_topology()


def dolk_bench():
    return DolkScheme(bench(), DolkParams(a=0.1, w_bar=1e-4))


def psi_at(scheme, u=0.0, e_tilde=0.0, tau=1.0, y_tilde=0.0):
    """psi of every agent, each fed the same scalar inputs; y~ enters as x
    with zero noise."""
    full = [np.full(scheme.n, float(v)) for v in (u, e_tilde, tau, y_tilde)]
    return scheme.psi_vec(u=full[0], e_tilde=full[1], tau=full[2], x=full[3], w=0.0)


def constant_psi_trigger(psi, theta=0.0, mode="static"):
    """Single-plant trigger whose psi equals ``psi`` exactly while e~ = 0."""
    return SingleSystemScheme(SingleParams(delta_coef=0.0, beta_coef=1.0, c=psi,
                                           theta=theta, mode=mode), allow_zeno=True)


def decision(eta, psi, theta, mode):
    """'jump' or 'flow' from the engine's jump-set predicate."""
    sch = constant_psi_trigger(psi, theta, mode)
    got = psi_at(sch, tau=0.0)
    due = _in_jump_set(got, np.array([eta]), sch.theta, sch.mode == "dynamic")
    assert got[0] == psi
    return "jump" if due[0] else "flow"


# ---------------------------------------------------------------------------
# closed forms and derived constants


def test_tau_miet_reference_values():
    assert tau_miet(0.5, 0.76, 4.478, 0.2) == pytest.approx(0.1562, abs=5e-4)
    assert tau_miet(0.5, 0.665, 5.482, 0.2) == pytest.approx(0.1180, abs=5e-4)


def test_tau_miet_exact_gamma():
    # with the exact gamma values the dwell times match to high precision
    g2 = math.sqrt(2 / 0.1 + 0.05)
    g3 = math.sqrt(3 / 0.1 + 0.05)
    assert tau_miet(0.5, 0.76, g2, 0.2) == pytest.approx(0.156171044770359, abs=1e-9)
    assert tau_miet(0.5, 0.665, g3, 0.2) == pytest.approx(0.118035300737759, abs=1e-9)


def test_tau_miet_degenerate_lambda():
    assert tau_miet(0.5, 0.76, 4.478, 1.0) == 0.0


def test_tau_miet_domain():
    with pytest.raises(ValueError):
        tau_miet(1.5, 0.76, 4.478, 0.2)
    with pytest.raises(ValueError):
        tau_miet(0.5, 0.76, -1.0, 0.2)


def test_gamma_sigma_from():
    g, s = gamma_sigma_from(0.1, 0.05, 0.05, 2)
    assert g == pytest.approx(4.478, abs=1e-3)
    assert s == pytest.approx(0.76)
    g3, s3 = gamma_sigma_from(0.1, 0.05, 0.05, 3)
    assert g3 == pytest.approx(5.482, abs=1e-3)
    assert g3 == pytest.approx(math.sqrt(30.05), rel=1e-12)
    assert s3 == pytest.approx(0.665)
    # modified coefficient form
    _, sm = gamma_sigma_from(0.1, 0.05, 0.05, 2, sigma_form="modified")
    assert sm == pytest.approx((1 - 0.05) * (1 - 2 * 0.1 * 2))


def test_gamma_sigma_domain():
    with pytest.raises(ValueError):
        gamma_sigma_from(0.3, 0.05, 0.05, 2)  # a too large for N=2
    with pytest.raises(ValueError):
        gamma_sigma_from(0.1, -1.0, 0.05, 2)


def test_omega_gate():
    # the timer gate drops the error term below the dwell time and arms it
    # from the dwell time on, the boundary included
    sch = dolk_bench()
    tm = sch.tau_miet[0]
    coef = sch.b[0]
    assert psi_at(sch, e_tilde=1.0, tau=0.0)[0] == 0.0
    assert psi_at(sch, e_tilde=1.0, tau=0.5 * tm)[0] == 0.0
    assert psi_at(sch, e_tilde=1.0, tau=2 * tm)[0] == -coef
    assert psi_at(sch, e_tilde=1.0, tau=tm)[0] == -coef  # boundary selection: trigger armed


# ---------------------------------------------------------------------------
# trigger evaluations


def test_psi_garcia_examples():
    sch = GarciaScheme(bench(), GarciaParams(a=0.1, sigma=0.5, c=0.0), allow_zeno=True)
    assert psi_at(sch, u=1.0)[0] == pytest.approx(0.3)  # N=2
    assert psi_at(sch, e_tilde=2e-4)[1] == pytest.approx(-1.2e-6)  # N=3


def test_psi_garcia_original_form():
    sch = GarciaScheme(bench(), GarciaParams(a=0.1, sigma=0.5, c=0.0, form="original"),
                       allow_zeno=True)
    # original slope 1 - a*N
    assert psi_at(sch, u=1.0)[0] == pytest.approx(0.5 * 0.8)


def test_psi_berneburg_examples():
    # unit-weight degree-2 nodes with edge splits 0.25: vartheta 0.5, gamma 8
    g = Graph.from_edge_list(3, [(0, 1), (1, 2), (2, 0)], undirected=True)
    rho = {(i, j): 0.25 for i, j, _ in g.edges}
    sch = BerneburgScheme(g, BerneburgParams(rho_edge=rho, sigma=0.5, c=0.0), allow_zeno=True)
    assert np.allclose(sch.derived["vartheta"], 0.5)
    assert np.allclose(sch.derived["gamma"], 8.0)
    assert psi_at(sch, u=1.0)[0] == pytest.approx(0.25)
    assert psi_at(sch, e_tilde=1e-3)[0] == pytest.approx(-1.6e-5)
    with pytest.raises(ValueError):
        BerneburgScheme(g, BerneburgParams(rho_edge={k: 0.75 for k in rho}, c=1.0))


def test_psi_dolk_examples():
    sch = dolk_bench()
    tm = sch.tau_miet[0]
    assert tm == pytest.approx(tau_miet(0.5, 0.76, 4.478, 0.2), abs=1e-4)
    assert psi_at(sch, e_tilde=1.0, tau=2 * tm)[0] == pytest.approx(-22.16, abs=1e-2)
    # inside the dwell time the error term is gated away
    assert psi_at(sch, e_tilde=1.0, tau=0.5 * tm)[0] == 0.0
    quiet = DolkScheme(bench(), DolkParams(a=0.1, c=3e-7, w_bar=1e-4))
    assert psi_at(quiet, tau=10.0)[0] == pytest.approx(3e-7)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-100, 100), et=st.floats(-100, 100),
       frac=st.floats(0.0, 0.999))
def test_psi_dolk_nonnegative_inside_dwell(u, et, frac):
    sch = dolk_bench()
    psi = psi_at(sch, u=u, e_tilde=et, tau=frac * sch.tau_miet.min())
    assert np.all(psi >= 0.0)


def test_psi_single():
    sch = SingleSystemScheme(SingleParams(delta_coef=0.0625, beta_coef=2.0, c=1e-7, w_bar=1e-4))
    # driven by the measured output y~, not by u
    assert psi_at(sch, u=5.0, y_tilde=2.0)[0] == pytest.approx(0.25 + 1e-7)
    assert psi_at(sch, y_tilde=-2.0)[0] == pytest.approx(0.25 + 1e-7)
    assert psi_at(sch, e_tilde=0.1)[0] == pytest.approx(-0.02 + 1e-7)


# ---------------------------------------------------------------------------
# phi certificate


@pytest.mark.parametrize("sigma,gamma", [(0.76, math.sqrt(20.05)), (0.665, math.sqrt(30.05))])
def test_phi_solve_cross_validates_closed_form(sigma, gamma):
    r, tm = math.sqrt(0.5 * sigma), tau_miet(0.5, sigma, gamma, 0.2)
    taus = np.linspace(0.0, tm, 2001)
    phis = phi(taus, r, gamma, 0.2, tm)
    assert phis[0] == pytest.approx(5.0)  # 1/lambda
    assert phis[-1] == 0.2  # lambda from tau_miet on
    assert np.all(phi(tm * np.array([1.0, 1.5, 10.0]), r, gamma, 0.2, tm) == 0.2)
    assert phi(np.nextafter(tm, 0.0), r, gamma, 0.2, tm) == pytest.approx(0.2, abs=1e-12)
    assert np.all(np.diff(phis) < 0)  # strictly decreasing up to tau_miet


def test_phi_solve_independent_rk4_oracle(phi_rk4):
    # fine-step classical RK4 on the scalar ODE, written out by hand
    steps, crossing = phi_rk4
    alpha, sigma, gamma, lam = 0.5, 0.76, math.sqrt(20.05), 0.2
    r, tm = math.sqrt(alpha * sigma), tau_miet(alpha, sigma, gamma, lam)
    assert abs(crossing(alpha, sigma, gamma, lam, 1e-6) - tm) < 5e-6
    # the closed form agrees with the oracle at interior clocks; the
    # step divides tau_miet so that the oracle lands on each probe
    h = tm / 200000
    probes = {40000, 80000, 100000, 160000, 199000}
    got = {}
    for k, (tau, value) in enumerate(steps(alpha, sigma, gamma, lam, h), start=1):
        if k in probes:
            got[k] = (tau, value)
        if k == max(probes):
            break
    for tau, value in got.values():
        assert float(phi(tau, r, gamma, lam, tm)) == pytest.approx(value, rel=1e-9)
    assert len(got) == len(probes)


def test_import_leaves_scipy_out():
    # the certificate gain is closed form, so the package needs no scipy
    code = "import sys, etcsim; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(etcsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# eta dynamics and decisions


def _eta_after_flow(eta0, psi, eps_eta, h=1e-3):
    # psi stays constant along this flow: u = 0 and e~ = 0 on one agent
    sch = SingleSystemScheme(SingleParams(delta_coef=0.0, beta_coef=1.0, c=psi, mode="dynamic",
                                          eps_eta=eps_eta), allow_zeno=True)
    row = np.array([0.0, 0.0, 0.0, eta0, 0.0])
    rows, _ = _flow_block(row, np.zeros(1), h, np.zeros((2, 1)), sch)
    return rows[1, 3]


def test_eta_flow_derivative():
    # d(eta)/dt = psi - eps*eta: exact solution of the linear ODE
    h = 1e-3

    def exact(eta0, psi, eps):
        return psi / eps + (eta0 - psi / eps) * math.exp(-eps * h)

    assert _eta_after_flow(0.0, 0.25, 0.05) == pytest.approx(exact(0.0, 0.25, 0.05), rel=1e-12)
    assert _eta_after_flow(2.0, 0.0, 0.05) == pytest.approx(exact(2.0, 0.0, 0.05), rel=1e-12)
    assert (_eta_after_flow(0.0, 0.25, 0.05) / h) == pytest.approx(0.25, rel=1e-3)
    assert (_eta_after_flow(2.0, 0.0, 0.05) - 2.0) / h == pytest.approx(-0.1, rel=1e-3)
    # fixed point of the linear ODE
    psi = 0.3
    eta_eq = psi / 0.05
    assert _eta_after_flow(eta_eq, psi, 0.05) == pytest.approx(eta_eq, rel=1e-15)


def test_trigger_decision_rules():
    assert decision(0.0, -1.0, 0.0, "static") == "jump"
    assert decision(0.0, 1.0, 0.0, "static") == "flow"
    assert decision(0.5, -1.0, 0.0, "dynamic") == "flow"  # eta budget left
    assert decision(0.0, -1.0, 0.0, "dynamic") == "jump"
    # theta makes the combined predicate fire while eta alone would not
    assert decision(0.5, -1.0, 1.0, "dynamic") == "jump"
    # tie rule on C and D: flow priority at psi = 0, a jump once psi <= -tol
    assert decision(0.0, 0.0, 0.0, "static") == "flow"
    assert decision(0.0, 0.0, 0.0, "dynamic") == "flow"
    assert decision(0.0, -2 * TRIGGER_TOL, 0.0, "static") == "jump"
    assert decision(0.0, -2 * TRIGGER_TOL, 0.0, "dynamic") == "jump"


@settings(max_examples=200, deadline=None)
@given(eta=st.floats(0, 100), psi=st.floats(-100, 100),
       theta=st.floats(0, 10), scale=st.floats(1e-3, 1e3))
def test_trigger_decision_scale_invariant(eta, psi, theta, scale):
    # the tolerance band around 0 is absolute; outside it at both scales
    # the decision depends only on signs
    for k in (1.0, scale):
        assume(abs(k * psi) > 2 * TRIGGER_TOL and abs(k * (eta + theta * psi)) > 2 * TRIGGER_TOL)
    before = decision(eta, psi, theta, "dynamic")
    after = decision(scale * eta, scale * psi, theta, "dynamic")
    assert before == after


AGREEMENT_SCHEMES = {
    "garcia-static-u": lambda: GarciaScheme(bench(), GarciaParams(a=0.1, c=1e-6),
                                            allow_zeno=True),
    "dolk-dynamic-u": lambda: DolkScheme(bench(), DolkParams(a=0.1, theta=0.4, w_bar=1e-4)),
    "single-static-y": lambda: SingleSystemScheme(SingleParams(delta_coef=0.0625, beta_coef=2.0,
                                                               c=1e-7, w_bar=1e-4)),
    "single-dynamic-y": lambda: SingleSystemScheme(SingleParams(
        delta_coef=0.0625, beta_coef=2.0, c=1e-7, w_bar=1e-4, theta=0.7, mode="dynamic")),
}


@pytest.mark.parametrize("kind", list(AGREEMENT_SCHEMES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trigger_value_and_jump_set_agree_on_arrays_and_floats(kind, seed):
    # the vector code (psi_vec, the block stepper) and the jump resolver's
    # per-agent updates call the same two functions; entry by entry they
    # must give the same bits
    sch = AGREEMENT_SCHEMES[kind]()
    dynamic = sch.mode == "dynamic"
    rng = np.random.default_rng(seed)
    shape = (16, sch.n)

    def wide():
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 2.0, shape)

    u, e_tilde, x, w = wide(), wide(), wide(), wide()
    tau = rng.uniform(0.0, 2.0, shape) * np.maximum(sch.tau_miet, 1e-3)
    tau[::3] = sch.tau_miet  # exactly at the dwell time, where the gate opens
    tau[1::3] = np.nextafter(sch.tau_miet, -1.0)
    eta = np.abs(wide())
    eta[::4] = 0.0
    psi = sch.psi_vec(u=u, e_tilde=e_tilde, tau=tau, x=x, w=w)
    due = _in_jump_set(psi, eta, sch.theta, dynamic)
    # the predicate also at its tolerance edges
    edge = rng.choice([-TRIGGER_TOL, np.nextafter(-TRIGGER_TOL, 0.0), 0.0, TRIGGER_TOL,
                       np.nextafter(-TRIGGER_TOL, -1.0)], size=shape)
    due_edge = _in_jump_set(edge, eta, sch.theta, dynamic)
    d = u if sch.drive == "u" else x + w
    one_psi, one_due, one_edge = (np.empty(shape), np.empty(shape, dtype=bool),
                                  np.empty(shape, dtype=bool))
    for k, i in np.ndindex(shape):
        p = trigger_value(sch.a.item(i), sch.b.item(i), sch.c.item(i), sch.tau_miet.item(i),
                          d.item(k, i), e_tilde.item(k, i), tau.item(k, i))
        assert type(p) is float
        one_psi[k, i] = p
        one_due[k, i] = _in_jump_set(p, eta.item(k, i), sch.theta.item(i), dynamic)
        one_edge[k, i] = _in_jump_set(edge.item(k, i), eta.item(k, i), sch.theta.item(i), dynamic)
    assert one_psi.tobytes() == psi.tobytes()
    assert np.array_equal(one_due, due)
    assert np.array_equal(one_edge, due_edge)


def test_eta_reset_standard_and_remark5():
    std = DolkScheme(bench(), DolkParams(a=0.1, w_bar=1e-4))
    assert std.eta_reset(0.7, 5.0, 0) == 0.7
    r5 = DolkScheme(bench(), DolkParams(a=0.1, w_bar=1e-4, reset_mode="remark5"))
    gamma0 = r5.derived["gamma"][0]
    assert r5.reset_gain[0] == gamma0 * 0.2
    # measured error below the noise deadband leaves eta unchanged
    assert r5.eta_reset(0.7, 1.5e-4, 0) == 0.7
    got = r5.eta_reset(0.0, 1.0, 0)
    assert got == pytest.approx(gamma0 * 0.2 * (1 - 2e-4) ** 2)
    assert got == pytest.approx(0.89519, abs=1e-5)


# ---------------------------------------------------------------------------
# schemes


def test_garcia_scheme_bounds_and_guard():
    p = GarciaParams(a=0.1, sigma=0.5, c=2e-6, w_bar=1e-4)
    sch = GarciaScheme(bench(), p)
    bound = sch.c_lower_bound()
    # (1/a) N (2 w_bar)^2: 8e-7 for N=2, 1.2e-6 for N=3
    expect = np.where(N_BENCH == 2, 8e-7, 1.2e-6)
    assert np.allclose(bound, expect, rtol=1e-12)
    with pytest.raises(ZenoGuaranteeError):
        GarciaScheme(bench(), GarciaParams(a=0.1, c=0.0, w_bar=1e-4))
    GarciaScheme(bench(), GarciaParams(a=0.1, c=0.0, w_bar=1e-4), allow_zeno=True)
    # noise-naive form always needs the explicit override
    with pytest.raises(ZenoGuaranteeError):
        GarciaScheme(bench(), GarciaParams(a=0.1, c=1.0, w_bar=1e-4, form="original"))


def test_garcia_a_domain():
    with pytest.raises(ValueError):
        GarciaScheme(bench(), GarciaParams(a=0.2, c=1.0), allow_zeno=True)


def test_c_lower_bound_monotone_in_noise():
    prev = None
    for w_bar in (0.0, 1e-5, 1e-4, 1e-3):
        sch = GarciaScheme(bench(), GarciaParams(a=0.1, c=1.0, w_bar=w_bar))
        b = sch.c_lower_bound()
        if prev is not None:
            assert np.all(b >= prev)
        prev = b


def test_dolk_scheme_derived():
    sch = DolkScheme(bench(), DolkParams(a=0.1, w_bar=1e-4))
    n2 = N_BENCH
    assert np.allclose(sch.derived["gamma"], np.sqrt(n2 / 0.1 + 0.05))
    assert np.allclose(sch.derived["sigma"], np.where(n2 == 2, 0.76, 0.665))
    assert np.allclose(sch.tau_miet, np.where(n2 == 2, 0.156171044770359,
                                              0.118035300737759), atol=1e-9)
    assert np.array_equal(sch.c_lower_bound(), np.zeros(8))
    assert sch.mode == "dynamic"


def test_dolk_psi_vec_gate():
    sch = DolkScheme(bench(), DolkParams(a=0.1, w_bar=1e-4))
    u = np.zeros(8)
    et = np.ones(8)
    inside = sch.psi_vec(u=u, e_tilde=et, tau=np.zeros(8), x=None, w=None)
    assert np.all(inside >= 0.0)
    beyond = sch.psi_vec(u=u, e_tilde=et, tau=np.full(8, 1.0), x=None, w=None)
    assert np.all(beyond < 0.0)
    # agent 0 has N=2: coefficient gamma^2 (lam^2/(alpha sigma) + 1)
    coef = 20.05 * (0.04 / (0.5 * 0.76) + 1.0)
    assert beyond[0] == pytest.approx(-coef)


def test_dolk_storage_uses_phi():
    sch = DolkScheme(bench(), DolkParams(a=0.1, w_bar=1e-4))
    x = np.zeros(8)
    e = np.zeros(8)
    e[0] = 1.0
    st0 = np.concatenate([x, e, np.zeros(8), np.zeros(8), np.zeros(8)])
    L = laplacian(bench())
    # at tau=0 phi=1/lam=5, beyond the dwell time phi=lam=0.2
    assert sch.storage(st0, L) == pytest.approx(sch.derived["gamma"][0] * 5.0)
    st1 = np.concatenate([x, e, np.zeros(8), np.zeros(8), np.full(8, 1.0)])
    assert sch.storage(st1, L) == pytest.approx(sch.derived["gamma"][0] * 0.2)


def test_storage_block_equals_per_row_storage():
    # one (m, 5n) block gives each row's value bit for bit, for every
    # family; the timer scheme's clocks reach past tau_miet, where phi = lam
    rng = np.random.default_rng(5)
    L = laplacian(bench())
    cases = (
        (GarciaScheme(bench(), GarciaParams(a=0.1, c=2e-6, w_bar=1e-4)), L),
        (BerneburgScheme(bench(), BerneburgParams(c=2e-6, w_bar=1e-4)), L),
        (SingleSystemScheme(SingleParams(delta_coef=0.0625, beta_coef=2.0, c=1e-6,
                                         w_bar=1e-4)), np.array([[1.0]])),
        (dolk_bench(), L),
    )
    for sch, fb in cases:
        n = sch.n
        rows = rng.normal(size=(50, 5 * n))
        rows[:, 3 * n : 4 * n] = np.abs(rows[:, 3 * n : 4 * n])  # eta >= 0
        rows[:, 4 * n :] = rng.uniform(0.0, 2.0 * (sch.tau_miet.max() or 0.1), size=(50, n))
        block = sch.storage(rows, fb)
        assert block.shape == (50,)
        per_row = np.array([sch.storage(r, fb) for r in rows])
        assert np.array_equal(block, per_row)
        assert sch.storage(rows[7].copy(), fb) == block[7]
        # against the textbook sum, one agent at a time
        for r, got in zip(rows, block):
            x, e, eta, tau = r[:n], r[n : 2 * n], r[3 * n : 4 * n], r[4 * n :]
            cert = 0.0
            for i in range(n) if sch.phi else ():
                r, g, lam = (v[i] for v in sch.phi)
                gain = lam if tau[i] >= sch.tau_miet[i] else \
                    r * math.tan(math.atan(1 / (lam * r)) - g * tau[i] / r)
                cert += g * gain * e[i] ** 2
            assert got == pytest.approx(0.5 * x @ fb @ x + cert + eta.sum(), rel=1e-12)
    # the timer case (last) probed both sides of tau_miet; no rows, no values
    assert (rows[:, 4 * 8 :] >= sch.tau_miet).any() and (rows[:, 4 * 8 :] < sch.tau_miet).any()
    assert sch.storage(np.empty((0, 40)), L).shape == (0,)


@pytest.mark.parametrize("make", [
    lambda: GarciaParams(a=0.1, mode="dynamc"),
    lambda: GarciaParams(a=0.1, form="modifed"),
    lambda: DolkParams(a=0.1, reset_mode="standrd"),
    lambda: DolkParams(a=0.1, sigma_form="orginal"),
    lambda: BerneburgParams(mode="dynamc"),
    lambda: SingleParams(delta_coef=0.0625, beta_coef=2.0, mode="dynamc"),
], ids=["garcia-mode", "garcia-form", "dolk-reset_mode", "dolk-sigma_form",
        "berneburg-mode", "single-mode"])
def test_params_reject_values_outside_their_literal(make):
    with pytest.raises(ValueError, match="is not one of"):
        make()


def test_berneburg_scheme_default_split():
    sch = BerneburgScheme(bench(), BerneburgParams(c=2e-6, w_bar=1e-4))
    # default rho 0.5/d_out gives vartheta = 0.5 on unit-weight graphs
    assert np.allclose(sch.derived["vartheta"], 0.5)
    # gamma_i = sum over in-neighbors of 1/rho_ji = sum 2 d_j
    deg = N_BENCH.astype(float)
    g = benchmark_topology()
    expect = np.array([sum(2 * deg[j] for j in g.in_neighbors(i)) for i in range(8)])
    assert np.allclose(sch.derived["gamma"], expect)
    assert np.allclose(sch.c_lower_bound(), sch.b * (2e-4) ** 2)


def test_berneburg_directed_cycle():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2), (2, 0)], undirected=False)
    sch = BerneburgScheme(g, BerneburgParams(rho_edge={(0, 1): 0.5, (1, 2): 0.5, (2, 0): 0.5},
                                             c=1e-6, w_bar=0.0))
    assert np.allclose(sch.derived["vartheta"], 0.5)
    assert np.allclose(sch.derived["gamma"], 2.0)


def test_berneburg_invalid_split():
    with pytest.raises(ValueError):
        BerneburgScheme(bench(), BerneburgParams(rho_edge={
            (i, int(j)): 2.0 for i in range(8)
            for j in benchmark_topology().out_neighbors(i)}, c=1.0))


def test_single_system_scheme():
    p = SingleParams(delta_coef=0.0625, beta_coef=2.0, c=1e-7, w_bar=1e-4)
    sch = SingleSystemScheme(p)
    assert sch.c_lower_bound()[0] == pytest.approx(2 * (2e-4) ** 2)
    with pytest.raises(ZenoGuaranteeError):
        SingleSystemScheme(SingleParams(delta_coef=0.0625, beta_coef=2.0, c=0.0, w_bar=1e-4))


def test_fresh_transmission_reenables_flow():
    # psi at u=0, e_tilde=0 equals c for every scheme
    z = np.zeros(8)
    for sch in (
        GarciaScheme(bench(), GarciaParams(a=0.1, c=2e-6, w_bar=1e-4)),
        DolkScheme(bench(), DolkParams(a=0.1, c=1e-7, w_bar=1e-4)),
        BerneburgScheme(bench(), BerneburgParams(c=2e-6, w_bar=1e-4)),
    ):
        psi = sch.psi_vec(u=z, e_tilde=z, tau=np.full(8, 1.0), x=z, w=z)
        assert np.allclose(psi, sch.c)
        assert np.all(psi >= 0.0)
