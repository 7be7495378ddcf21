"""Seeded, bounded, piecewise-constant measurement-noise signals.

The generator is counter-based: every value is a pure function of
(seed, agent, window index), so windows can be tabulated in any order
without coupling to integrator internals. The mixing
function is the SplitMix64 finalizer applied twice over the keyed
counter, which passes the statistical checks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseSignal"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(1 << 53)
_SEED_MAX = 2**64 - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    # modular 64-bit arithmetic: wraparound is the point
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform01(seed: int, agent: int, windows: np.ndarray) -> np.ndarray:
    """Uniform [0,1) values keyed by (seed, agent, window)."""
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed) + _GOLDEN * np.uint64(agent + 1))
        z = _mix64(key + _GOLDEN * windows.astype(np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) / _U53


@dataclass(frozen=True)
class NoiseSignal:
    """Per-agent uniform noise in [-amplitude_i, +amplitude_i], held
    constant on windows of length 1/sample_rate (zero-order hold)."""

    seed: int
    amplitude: np.ndarray  # shape (n,), nonnegative bound per agent
    sample_rate: float  # windows per second
    n: int

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"noise seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        # the generator keys on the seed's 64 bits: any other seed would
        # repeat the noise of one in range
        if not 0 <= self.seed <= _SEED_MAX:
            raise ValueError(f"noise seed must be an integer from 0 to 2**64 - 1, "
                             f"got {self.seed!r}")
        amp = np.atleast_1d(np.asarray(self.amplitude, dtype=float))
        if amp.size == 1:
            amp = np.full(self.n, amp[0])
        if amp.size != self.n:
            raise ValueError(f"amplitude size {amp.size} != n={self.n}")
        if not (np.isfinite(amp).all() and (amp >= 0).all()):
            raise ValueError(f"noise amplitude must be finite and nonnegative, got {amp}")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be finite and positive, got {self.sample_rate!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)

    def window_table(self, windows) -> np.ndarray:
        """(n, m) table of the values in m windows: windows 0..m-1 for a
        count m, or the windows of an integer index array of length m.

        A window's value does not depend on which other windows are
        tabulated with it.
        """
        windows = np.arange(windows) if np.ndim(windows) == 0 else np.asarray(windows)
        table = np.empty((self.n, windows.size))
        for i in range(self.n):
            table[i] = self.amplitude[i] * (2.0 * _uniform01(self.seed, i, windows) - 1.0)
        return table

    def step_table(self, steps: int, per: int, first: int = 0) -> np.ndarray:
        """C-contiguous (steps - first + 1, n) noise at the step boundaries
        k = first..steps of a grid with ``per`` steps per window: row
        k - first is window k // per, held along step k + 1. Each row has
        the bits of that row of the full table (``first`` = 0), since a
        window's value depends only on (seed, agent, window); a run reads
        its noise as such chunks."""
        if isinstance(per, bool) or not isinstance(per, (int, np.integer)) or per < 1:
            raise ValueError(f"steps per window must be a positive integer, got {per!r}")
        return np.ascontiguousarray(self.window_table(np.arange(first, steps + 1) // int(per)).T)
