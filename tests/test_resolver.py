"""The neighbourhood-local jump resolver against the per-jump oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etcsim.engine as engine_mod
from etcsim.engine import JumpStormError, Scenario, _in_jump_set, simulate
from etcsim.etm import (
    BerneburgParams,
    BerneburgScheme,
    DolkParams,
    DolkScheme,
    GarciaParams,
    GarciaScheme,
    SingleParams,
    SingleSystemScheme,
)
from etcsim.graph import Graph
from etcsim.hybrid import apply_jump
from etcsim.presets import build_preset
from etcsim.signals import NoiseSignal
from hybrid_arc import check_arc


def jump_resolver_oracle(scheme, feedback, z, log):
    """Per-jump reference of ``engine._jump_resolver``, same interface:
    the full jump set, u = -M(x + e + w_hat) included, is evaluated
    afresh after every applied jump."""
    n = scheme.n
    storm_cap = n * engine_mod.JUMPS_PER_INSTANT_FACTOR
    last_t = [math.nan] * n
    pre = np.empty(5 * n)
    x, e, what_w, eta, tau = z

    def judge(w):
        u = -feedback @ (x + e + what_w)
        psi = scheme.psi_vec(u=u, e_tilde=e + what_w - w, tau=tau, x=x, w=w)
        return psi, _in_jump_set(psi, eta, scheme.theta, scheme.mode == "dynamic")

    def resolve(t, w):
        psi, due = judge(w)
        total = 0
        while due.any():
            for i in range(n):
                if not due[i]:
                    continue
                pre[:] = z.ravel()
                apply_jump(z, i, w, scheme)
                log.append(i, t, len(log) + 1, t - last_t[i], psi.item(i), pre,
                           what_w.item(i), eta.item(i))
                last_t[i] = t
                total += 1
                if total > storm_cap:
                    raise JumpStormError(f"{total} jumps at t={t:.6f}")
                psi, due = judge(w)
        return total

    return resolve


def run_both(sc):
    """The run under the engine's resolver and under the oracle."""
    fast = simulate(sc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "_jump_resolver", jump_resolver_oracle)
        ref = simulate(sc)
    return fast, ref


def assert_same_run(fast, ref):
    a, b = fast.events, ref.events
    assert len(a) == len(b)
    for col in ("agent", "t", "j", "pre"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col
    assert np.array_equal(a.gap, b.gap, equal_nan=True)
    assert np.all(np.abs(a.psi - b.psi) <= 1e-12 * (1.0 + np.abs(b.psi)))
    assert np.array_equal(a.post, b.post)
    assert np.array_equal(fast.times, ref.times) and np.array_equal(fast.jumps, ref.jumps)
    assert np.array_equal(fast.states, ref.states)


def second_passes(log) -> int:
    """Jumps that open a further pass at their instant: same time as the
    previous jump, agent index not above it."""
    same = log.t[1:] == log.t[:-1]
    return int(np.sum(same & (log.agent[1:] <= log.agent[:-1])))


def small_graph(kind: str, n: int) -> Graph:
    if kind == "path":
        return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "ring":
        return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        return Graph.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    # weight-balanced digraph: a unit ring and, against it, a ring of weight 2
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    if n > 2:
        edges += [((i + 1) % n, i, 2.0) for i in range(n)]
    return Graph.from_edge_list(n, edges, undirected=False)


def small_scenario(family, kind, n, seed, amp, theta, mode, spread):
    rng = np.random.default_rng(seed)
    if family == "single":
        n = 1
        sch = SingleSystemScheme(SingleParams(delta_coef=0.0625, beta_coef=2.0, c=0.0,
                                              w_bar=amp, theta=theta, mode=mode),
                                 allow_zeno=True)
        graph, feedback = None, np.array([[1.0]])
    else:
        graph, feedback = small_graph(kind, n), None
        a = 0.45 / graph.neighbor_counts.max()
        if family == "garcia":
            sch = GarciaScheme(graph, GarciaParams(a=a, c=0.0, w_bar=amp), allow_zeno=True)
        elif family == "dolk":
            sch = DolkScheme(graph, DolkParams(a=a, c=1e-9, theta=theta, w_bar=amp,
                                               reset_mode="remark5"))
        else:
            sch = BerneburgScheme(graph, BerneburgParams(c=0.0, w_bar=amp, theta=theta,
                                                         mode=mode), allow_zeno=True)
    noise = NoiseSignal(seed=seed, amplitude=np.full(n, amp), sample_rate=2e3, n=n)
    return Scenario(scheme=sch, noise=noise, x0=spread * rng.uniform(-1.0, 1.0, n),
                    graph=graph, feedback=feedback, t_final=0.4, step=5e-4)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["garcia", "dolk", "berneburg", "single"]),
    kind=st.sampled_from(["path", "ring", "complete", "digraph"]),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    amp=st.sampled_from([1e-5, 1e-4, 1e-3]),
    theta=st.floats(0.0, 1.0),
    mode=st.sampled_from(["static", "dynamic"]),
    spread=st.sampled_from([1e-3, 1e-2, 1e-1]),
)
def test_resolver_matches_per_jump_oracle(family, kind, n, seed, amp, theta, mode, spread):
    # x0 within ~spread of agreement: at 1e-3 the c = 0 families transmit
    # at most steps, with instants of several passes
    if kind == "digraph" and family in ("garcia", "dolk"):
        kind = "ring"  # the undirected families take the undirected ring instead
    sc = small_scenario(family, kind, n, seed, amp, theta, mode, spread)
    fast, ref = run_both(sc)
    assert_same_run(fast, ref)
    check_arc(sc, fast)


def test_resolver_matches_oracle_on_the_zeno_preset():
    # garcia-c0 started near agreement transmits at almost every step, up
    # to n jumps per instant, some of them in a second pass opened by a
    # neighbour's transmission
    sc = build_preset("garcia-c0")[0][1]
    sc.x0 = 1e-4 * sc.x0
    sc.t_final = 0.3
    fast, ref = run_both(sc)
    assert len(fast.events) > 1000
    assert second_passes(fast.events) > 0
    assert_same_run(fast, ref)
