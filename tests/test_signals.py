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


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**63), np.int64(-5)])
def test_seed_outside_64_bits_is_refused(seed):
    # the generator keys on 64 bits, so 2**64 would repeat seed 0 and -1
    # would repeat 2**64 - 1
    with pytest.raises(ValueError, match="seed"):
        make_signal(seed=seed)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, np.uint64(2**64 - 1)])
def test_seeds_at_the_ends_of_64_bits_are_distinct_signals(seed):
    sig = make_signal(seed=seed)
    assert type(sig.seed) is int and sig.seed == int(seed)
    others = {0, 2**64 - 1} - {int(seed)}
    for other in others:
        assert not np.array_equal(sig.window_table(100), make_signal(seed=other).window_table(100))


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
    # at h = 1e-6, 100 steps per window, boundaries 42300..42399 lie in window 423
    table = sig.step_table(42400, 100)[:, 0]
    base = table[42310]
    for k in (42350, 42399, 42300):
        assert table[k] == base
    assert table[42400] != base  # the next window, 424, differs for this seed


@pytest.mark.parametrize("per", [1, 2, 7, 100])
def test_step_table_row_k_is_window_k_div_per(per):
    sig = make_signal(n=3)
    steps = 5 * per + 3
    table = sig.step_table(steps, per)
    windows = sig.window_table(steps // per + 1).T
    for k in range(steps + 1):
        assert np.array_equal(table[k], windows[k // per])
    # a window's first step starts it, its last step ends in the one before
    for m in range(1, 6):
        assert np.array_equal(table[m * per], windows[m])
        assert np.array_equal(table[m * per - 1], windows[m - 1])


def test_step_7m_lands_in_window_m():
    # 7 steps per window, read as one-row chunks: step 7m starts window m
    # and step 7m - 1 is the last of window m - 1, far out in the run too
    sig = make_signal(rate=1e4)
    for m in (1, 7, 3801, 10**6):
        here, before = sig.window_table([m, m - 1]).T
        assert not np.array_equal(here, before)
        assert np.array_equal(sig.step_table(7 * m, 7, 7 * m)[0], here)
        assert np.array_equal(sig.step_table(7 * m - 1, 7, 7 * m - 1)[0], before)


@pytest.mark.parametrize("per", [1e-4, 2.0, 0, -3, True, None])
def test_step_table_refuses_a_per_that_is_not_a_positive_integer(per):
    # a step length passed where steps per window belong fails loudly
    with pytest.raises(ValueError, match="steps per window"):
        make_signal().step_table(10, per)


def test_window_table_matches_pointwise():
    sig = make_signal(n=4)
    table = sig.window_table(50)
    steps = sig.step_table(49, 1)
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
@given(per=st.integers(min_value=1, max_value=100),
       first=st.integers(min_value=0, max_value=400), extra=st.integers(min_value=0, max_value=400))
# chunks that start on a window's edge, off it, and end one step past one
@example(per=7, first=98, extra=0)
@example(per=7, first=100, extra=20)
@example(per=2, first=99, extra=2)
@example(per=100, first=250, extra=150)
@example(per=1, first=4, extra=0)
def test_step_table_chunk_is_rows_of_the_full_table(per, first, extra):
    sig = make_signal(n=3)
    steps = first + extra
    chunk = sig.step_table(steps, per, first)
    assert chunk.flags.c_contiguous and chunk.shape == (extra + 1, 3)
    assert chunk.tobytes() == sig.step_table(steps, per)[first:].tobytes()


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

