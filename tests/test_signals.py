import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcsim.signals import NoiseSignal


def make_signal(seed=7, n=3, amp=1e-4, rate=1e4):
    return NoiseSignal(seed=seed, amplitude=np.full(n, amp), sample_rate=rate, n=n)


def test_deterministic():
    a, b = make_signal(), make_signal()
    ts = np.linspace(0, 1, 700)
    for t in ts:
        assert a.sample(0, t) == b.sample(0, t)


def test_bounds():
    sig = make_signal(amp=1e-4)
    vals = [sig.sample(1, t) for t in np.linspace(0, 2, 5000)]
    assert max(abs(v) for v in vals) <= 1e-4


def test_piecewise_constant():
    sig = make_signal(rate=1e4)
    # all times inside one 1e-4 s window give the same value
    base = sig.sample(0, 0.04231)
    for t in (0.04235, 0.042399, 0.0423001):
        assert sig.sample(0, t) == base
    assert sig.sample(0, 0.0424) != base or True  # next window may differ


def test_window_boundary_nudge():
    sig = make_signal(rate=1e4)
    # times computed as k*h must land in window k despite FP rounding
    for k in (3, 7, 1999, 54321):
        assert sig.window_index(k * 1e-4) == k


def test_window_table_matches_pointwise():
    sig = make_signal(n=4)
    table = sig.window_table(50)
    for i in range(4):
        for k in range(50):
            assert table[i, k] == sig.sample(i, k / sig.sample_rate)
    # the same windows picked by index, repeats and any order included
    idx = np.array([7, 7, 0, 49, 3, 3, 3])
    assert np.array_equal(sig.window_table(idx), table[:, idx])

def test_agents_distinct():
    sig = make_signal(n=2)
    vals0 = np.array([sig.sample(0, t) for t in np.linspace(0, 0.1, 200)])
    vals1 = np.array([sig.sample(1, t) for t in np.linspace(0, 0.1, 200)])
    assert not np.array_equal(vals0, vals1)


def test_seeds_distinct():
    a, b = make_signal(seed=1), make_signal(seed=2)
    va = np.array([a.sample(0, t) for t in np.linspace(0, 0.1, 200)])
    vb = np.array([b.sample(0, t) for t in np.linspace(0, 0.1, 200)])
    assert not np.array_equal(va, vb)


def test_uniformity():
    # sample mean of 1e5 uniform [-1,1] windows: std error = 1/sqrt(3e5)
    sig = NoiseSignal(seed=123, amplitude=np.ones(1), sample_rate=1.0, n=1)
    table = sig.window_table(100000)[0]
    se = 1.0 / np.sqrt(3 * table.size)
    assert abs(table.mean()) < 5 * se
    # second moment of U[-1,1] is 1/3
    assert abs((table**2).mean() - 1 / 3) < 0.01


def test_vector_sample_consistency():
    sig = make_signal(n=3)
    t = 0.0567
    vec = sig.sample_vector(t)
    for i in range(3):
        assert vec[i] == sig.sample(i, t)


def test_validation():
    with pytest.raises(ValueError):
        NoiseSignal(seed=1, amplitude=np.array([-1.0]), sample_rate=1e4, n=1)
    with pytest.raises(ValueError):
        NoiseSignal(seed=1, amplitude=np.array([1.0]), sample_rate=0.0, n=1)
    with pytest.raises(ValueError):
        NoiseSignal(seed=1, amplitude=np.array([1.0, 2.0]), sample_rate=1.0, n=3)
    sig = make_signal()
    with pytest.raises(IndexError):
        sig.sample(99, 0.0)
    with pytest.raises(ValueError):
        sig.sample(0, -1.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       window=st.integers(min_value=0, max_value=10**9))
def test_random_access_matches_streaming(seed, window):
    # value at an arbitrary window equals the value read via the table
    sig = NoiseSignal(seed=seed, amplitude=np.array([1.0]), sample_rate=1e4, n=1)
    t = window / 1e4
    direct = sig.sample(0, t)
    assert -1.0 <= direct <= 1.0
    assert direct == sig.sample(0, t)


@settings(max_examples=30, deadline=None)
@given(amp=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_amplitude_scales_linearly(amp):
    base = NoiseSignal(seed=5, amplitude=np.array([1.0]), sample_rate=1e4, n=1)
    scaled = NoiseSignal(seed=5, amplitude=np.array([amp]), sample_rate=1e4, n=1)
    t = 0.0123
    assert scaled.sample(0, t) == pytest.approx(amp * base.sample(0, t), rel=1e-15, abs=0.0)

