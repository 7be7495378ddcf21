"""Acceptance suite: one test per release criterion, each printing a
single PASS line on success (visible with pytest -rA or -s)."""

import math
import sys

import numpy as np
import pytest

from etcsim.engine import simulate, zeno_indicator
from etcsim.etm import GarciaParams, GarciaScheme, gamma_sigma_from, tau_miet
from etcsim.graph import benchmark_topology
from etcsim.presets import PRESETS, build_preset
from hybrid_arc import check_arc, check_eta_flow, check_held_noise

H = 1e-4

ALL_PRESETS = list(PRESETS)
# every preset run, "preset" or "preset/sub", in catalog order
ALL_RUNS = [f"{name}/{sub}" if sub else name for name in PRESETS for sub, _ in build_preset(name)]


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_dwell_time_closed_form():
    t2 = tau_miet(0.5, 0.76, 4.478, 0.2)
    t3 = tau_miet(0.5, 0.665, 5.482, 0.2)
    assert t2 == pytest.approx(0.1562, abs=5e-4)
    assert t3 == pytest.approx(0.1180, abs=5e-4)
    report(1, f"tau_miet values {t2:.6f}, {t3:.6f} within 5e-4 of 0.1562, 0.1180")


def test_criterion_02_derived_gamma():
    g2, _ = gamma_sigma_from(0.1, 0.05, 0.05, 2)
    g3, _ = gamma_sigma_from(0.1, 0.05, 0.05, 3)
    assert g2 == pytest.approx(4.478, abs=1e-3)
    assert g3 == pytest.approx(5.482, abs=1e-3)
    report(2, f"gamma {g2:.4f} (N=2), {g3:.4f} (N=3) within 1e-3")


def test_criterion_03_robustness_bound_exact():
    sch = GarciaScheme(benchmark_topology(),
                       GarciaParams(a=0.1, sigma=0.5, c=2e-6, w_bar=1e-4))
    bound = sch.c_lower_bound()
    n3 = np.flatnonzero(sch.derived["N_i"] == 3)
    assert np.all(bound[n3] == 1.2e-6)
    assert bound.max() == 1.2e-6
    report(3, "beta_i(2 w_bar) equals 1.2e-6 exactly for N_i=3, a=0.1, w_bar=1e-4")


def test_criterion_04_phi_ode_cross_check(phi_rk4):
    _, crossing = phi_rk4
    for sigma, n_i in ((0.76, 2), (0.665, 3)):
        gamma = math.sqrt(n_i / 0.1 + 0.05)
        tm = tau_miet(0.5, sigma, gamma, 0.2)
        tau_end = crossing(0.5, sigma, gamma, 0.2, 1e-5)
        assert abs(tau_end - tm) <= 1e-6 * (1 + tm)
    report(4, "phi-ODE reaches lambda at the closed-form dwell time within 1e-6 relative")


def test_criterion_05_dwell_time_reproduction(preset_runs):
    for name in ("dolk-c0", "dolk-c1e-7"):
        for _, sc, tr in preset_runs(name):
            log = tr.events
            short = log.gap < sc.scheme.tau_miet[log.agent] - H  # False at a first event's NaN
            assert not short.any(), \
                f"{name} agent {log.agent[short][0]} gap {log.gap[short][0]}"
    report(5, "all same-agent gaps in both timer presets >= tau_miet_i - h")


def test_criterion_06_zeno_contrast(preset_runs):
    (_, _, tr0), = preset_runs("garcia-c0")
    trailing = zeno_indicator(tr0, window=2.0)
    collapsed = [g for g in trailing.values() if g is not None and g <= 10 * H]
    assert collapsed, f"no agent collapsed: {trailing}"

    (_, _, tr2), = preset_runs("garcia-c2e-6")
    whole = zeno_indicator(tr2, window=8.0)
    for i, g in whole.items():
        assert g is not None and g >= 50 * H, f"agent {i} min gap {g}"
    report(6, "c=0 trailing gaps collapse to <= 10h; c=2e-6 whole-run gaps >= 50h")


def test_criterion_07_practical_consensus(preset_runs):
    worst = {}
    for name in ("garcia-c2e-6", "dolk-c0", "dolk-c1e-7", "berneburg-demo"):
        for _, sc, tr in preset_runs(name):
            dev = float(np.abs(tr.x_series[-1]).max())  # mean of x0 is 0
            assert dev <= 0.05, f"{name}: {dev}"
            worst[name] = dev
    report(7, "final |x_i(8)| <= 0.05 in " + ", ".join(
        f"{k} ({v:.1e})" for k, v in worst.items()))


def test_criterion_08_jump_monotonicity(preset_runs):
    for name in ("dolk-c0", "dolk-c1e-7", "dolk-remark5"):
        for _, sc, tr in preset_runs(name):
            sch, log = sc.scheme, tr.events
            du = sch.storage(log.post, sc.feedback) - sch.storage(log.pre, sc.feedback)
            bad = np.flatnonzero(~(du <= 1e-12))
            assert bad.size == 0, f"{name} jump at t={log.t[bad[0]]}: dU={du[bad[0]]}"
    report(8, "Delta U <= 1e-12 at every jump, standard and noise-aware eta resets")


def test_criterion_09_invariant_suite(preset_runs):
    for name in ALL_PRESETS:
        for sub, sc, tr in preset_runs(name):
            label = f"{name}/{sub}" if sub else name
            check_arc(sc, tr, label)
            # bit-exact determinism of the samples and of the whole event log
            tr2 = simulate(sc)
            assert np.array_equal(tr.states, tr2.states), f"{label}: nondeterministic states"
            assert np.array_equal(tr.times, tr2.times)
            assert len(tr.events) == len(tr2.events)
            for col in ("agent", "t", "j", "gap", "psi", "pre", "post"):
                a, b = getattr(tr.events, col), getattr(tr2.events, col)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), \
                    f"{label}: nondeterministic event {col}"
    report(9, "every preset run is a hybrid arc (tests/hybrid_arc.py) and replays bit-exactly")


def _preset_run(preset_runs, label):
    name, _, sub = label.partition("/")
    [(sc, tr)] = [(sc, tr) for s, sc, tr in preset_runs(name) if s == (sub or None)]
    return sc, tr


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="known gap: the engine judges a step end in D under the next "
                   "window's noise only, not under the noise held during the step")
@pytest.mark.parametrize("run", ALL_RUNS)
def test_step_ends_leave_the_jump_set_under_the_held_noise(preset_runs, run):
    check_held_noise(*_preset_run(preset_runs, run))


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="known gap: RK4 samples the timer rule's psi at three points, so "
                   "at the step where a gate opens eta misses its exact flow by up to 5e-3")
@pytest.mark.parametrize("run", ["dolk-c0", "dolk-c1e-7", "dolk-remark5"])
def test_eta_follows_its_exact_flow_across_the_gate(preset_runs, run):
    check_eta_flow(*_preset_run(preset_runs, run))


# event counts of the Zeno-free runs at the default seed 2024
ZENO_FREE_EVENTS = {
    "garcia-c2e-6": 438, "dolk-c0": 281, "dolk-c1e-7": 247, "dolk-remark5": 127,
    "berneburg-demo": 437, "single-scalar-demo": 50, "table1-contrast/modified": 438,
}


def test_zeno_free_event_counts(preset_runs):
    got = {}
    for name in ALL_PRESETS:
        for sub, _, tr in preset_runs(name):
            label = f"{name}/{sub}" if sub else name
            if label in ZENO_FREE_EVENTS:
                got[label] = len(tr.events)
    assert got == ZENO_FREE_EVENTS
    report("event counts", "Zeno-free runs reproduce their seed-2024 event counts")


# event counts of every run at seed 2024, the two Zeno runs included
EVENT_COUNTS = {**ZENO_FREE_EVENTS, "garcia-c0": 78235, "table1-contrast/original": 64412}


def test_all_event_counts(preset_runs):
    got = {}
    for name in ALL_PRESETS:
        for sub, _, tr in preset_runs(name):
            got[f"{name}/{sub}" if sub else name] = len(tr.events)
    assert got == EVENT_COUNTS
    report("event counts", "all nine runs, the two Zeno runs included, reproduce their "
           "seed-2024 event counts")


def test_criterion_10_batch_runtime(preset_runs):
    for name in ALL_PRESETS:
        preset_runs(name)
    total = sum(preset_runs.elapsed[name] for name in ALL_PRESETS)
    assert total < 60.0, f"batch took {total:.1f} s"
    report(10, f"all {len(ALL_PRESETS)} presets simulated in {total:.1f} s (< 60 s)")
