import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etcsim.signals import NoiseSignal


def make_signal(seed=7, n=3, amp=1e-4, rate=1e4):
    return NoiseSignal(seed=seed, amplitude=np.full(n, amp), sample_rate=rate, n=n)


@pytest.mark.parametrize("seed", [None, 7.0, "7", True])
def test_seed_must_be_an_integer(seed):
    # a bad seed is refused where the signal is built, not deep inside a run
    with pytest.raises(ValueError, match="seed"):
        make_signal(seed=seed)


def test_numpy_integer_seed_gives_the_int_seed_table():
    sig = make_signal(seed=np.int64(7))
    assert type(sig.seed) is int
    assert np.array_equal(sig.window_table(100), make_signal(seed=7).window_table(100))


def test_deterministic():
    a, b = make_signal(), make_signal()
    # the windows of 1 s at 1e4 windows per second
    assert np.array_equal(a.window_table(10001), b.window_table(10001))


def test_bounds():
    sig = make_signal(amp=1e-4)
    assert np.abs(sig.window_table(20001)[1]).max() <= 1e-4


def test_piecewise_constant():
    sig = make_signal(rate=1e4)
    # all step boundaries inside one 1e-4 s window give the same value:
    # at h = 1e-6, boundaries 42300..42399 lie in window 423
    table = sig.step_table(42400, 1e-6)[:, 0]
    base = table[42310]
    for k in (42350, 42399, 42300):
        assert table[k] == base
    assert table[42400] != base  # the next window, 424, differs for this seed


def test_window_boundary_nudge():
    sig = make_signal(rate=1e4)
    # boundary k of step h starts window m exactly, but k * (h * rate) rounds
    # a ulp below m (7e-6 * 1e4 == 0.06999999999999999): it must land in m
    for h, k, m in ((7e-6, 100, 7), (7e-6, 54300, 3801), (2.7e-5, 100, 27), (7.5e-5, 4, 3)):
        assert np.floor(k * (h * sig.sample_rate)) == m - 1
        here, before = sig.window_table([m, m - 1]).T
        assert not np.array_equal(here, before)
        assert np.array_equal(sig.step_table(k, h)[k], here)


def test_window_table_matches_pointwise():
    sig = make_signal(n=4)
    table = sig.window_table(50)
    steps = sig.step_table(49, 1.0 / sig.sample_rate)
    for i in range(4):
        for k in range(50):
            assert table[i, k] == steps[k, i]
    # the same windows picked by index, repeats and any order included
    idx = np.array([7, 7, 0, 49, 3, 3, 3])
    assert np.array_equal(sig.window_table(idx), table[:, idx])

def test_agents_distinct():
    vals0, vals1 = make_signal(n=2).window_table(1001)
    assert not np.array_equal(vals0, vals1)


def test_seeds_distinct():
    va = make_signal(seed=1).window_table(1001)[0]
    vb = make_signal(seed=2).window_table(1001)[0]
    assert not np.array_equal(va, vb)


def test_uniformity():
    # sample mean of 1e5 uniform [-1,1] windows: std error = 1/sqrt(3e5)
    sig = NoiseSignal(seed=123, amplitude=np.ones(1), sample_rate=1.0, n=1)
    table = sig.window_table(100000)[0]
    se = 1.0 / np.sqrt(3 * table.size)
    assert abs(table.mean()) < 5 * se
    # second moment of U[-1,1] is 1/3
    assert abs((table**2).mean() - 1 / 3) < 0.01


def test_validation():
    with pytest.raises(ValueError):
        NoiseSignal(seed=1, amplitude=np.array([-1.0]), sample_rate=1e4, n=1)
    with pytest.raises(ValueError):
        NoiseSignal(seed=1, amplitude=np.array([1.0]), sample_rate=0.0, n=1)
    with pytest.raises(ValueError):
        NoiseSignal(seed=1, amplitude=np.array([1.0, 2.0]), sample_rate=1.0, n=3)
    # a NaN rate maps every step to one window, a NaN bound makes the states NaN
    for rate in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sample_rate must be finite"):
            NoiseSignal(seed=1, amplitude=np.array([1.0]), sample_rate=rate, n=1)
    for amp in (np.nan, np.inf):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            NoiseSignal(seed=1, amplitude=np.array([1.0, amp]), sample_rate=1e4, n=2)


@settings(max_examples=60, deadline=None)
@given(h=st.floats(min_value=1e-6, max_value=3e-4).filter(lambda h: h * 1e4 != round(h * 1e4)),
       first=st.integers(min_value=0, max_value=400), extra=st.integers(min_value=0, max_value=400))
# the boundaries of test_window_boundary_nudge, as a chunk's first row and inside one
@example(h=7e-6, first=100, extra=0)
@example(h=7e-6, first=54290, extra=20)
@example(h=2.7e-5, first=99, extra=2)
@example(h=7.5e-5, first=4, extra=0)
def test_step_table_chunk_is_rows_of_the_full_table(h, first, extra):
    sig = make_signal(n=3)
    steps = first + extra
    chunk = sig.step_table(steps, h, first)
    assert chunk.flags.c_contiguous and chunk.shape == (extra + 1, 3)
    assert chunk.tobytes() == sig.step_table(steps, h)[first:].tobytes()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       window=st.integers(min_value=0, max_value=10**9))
def test_random_access_matches_streaming(seed, window):
    # value at an arbitrary window equals the value read among others
    sig = NoiseSignal(seed=seed, amplitude=np.array([1.0]), sample_rate=1e4, n=1)
    direct = sig.window_table([window])[0, 0]
    assert -1.0 <= direct <= 1.0
    assert direct == sig.window_table([0, window, window + 1])[0, 1]


@settings(max_examples=30, deadline=None)
@given(amp=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_amplitude_scales_linearly(amp):
    base = NoiseSignal(seed=5, amplitude=np.array([1.0]), sample_rate=1e4, n=1)
    scaled = NoiseSignal(seed=5, amplitude=np.array([amp]), sample_rate=1e4, n=1)
    window = [123]  # t = 0.0123 s
    assert scaled.window_table(window)[0, 0] == pytest.approx(amp * base.window_table(window)[0, 0],
                                                              rel=1e-15, abs=0.0)

