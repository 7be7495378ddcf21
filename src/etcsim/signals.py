"""Seeded, bounded, piecewise-constant measurement-noise signals.

The generator is counter-based: every sample is a pure function of
(seed, agent, window index), so noise can be queried at arbitrary times
in any order without coupling to integrator internals. The mixing
function is the SplitMix64 finalizer applied twice over the keyed
counter, which passes the statistical checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseSignal"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    # modular 64-bit arithmetic: wraparound is the point
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform01(seed: int, agent: int, windows: np.ndarray) -> np.ndarray:
    """Uniform [0,1) values keyed by (seed, agent, window)."""
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * np.uint64(agent + 1))
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
        amp = np.atleast_1d(np.asarray(self.amplitude, dtype=float))
        if amp.size == 1:
            amp = np.full(self.n, amp[0])
        if amp.size != self.n:
            raise ValueError(f"amplitude size {amp.size} != n={self.n}")
        if (amp < 0).any():
            raise ValueError("noise amplitude must be nonnegative")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)

    def window_index(self, t: float) -> int:
        if t < 0:
            raise ValueError(f"t={t} must be nonnegative")
        # nudge guards against boundary times computed as k*h landing a ulp low
        return int(np.floor(t * self.sample_rate * (1 + 1e-12)))

    def sample(self, agent: int, t: float) -> float:
        """Noise value for one agent at time t."""
        if not 0 <= agent < self.n:
            raise IndexError(f"agent {agent} out of range for n={self.n}")
        k = np.array([self.window_index(t)])
        u = _uniform01(self.seed, agent, k)[0]
        return float(self.amplitude[agent] * (2.0 * u - 1.0))

    def sample_vector(self, t: float) -> np.ndarray:
        """Noise values for all agents at time t."""
        k = np.array([self.window_index(t)])
        out = np.empty(self.n)
        for i in range(self.n):
            out[i] = self.amplitude[i] * (2.0 * _uniform01(self.seed, i, k)[0] - 1.0)
        return out

    def window_table(self, n_windows: int) -> np.ndarray:
        """(n, n_windows) table of values for windows 0..n_windows-1.

        Random-access precomputation used by the simulation engine;
        bit-identical to per-call sampling.
        """
        windows = np.arange(n_windows, dtype=np.uint64)
        table = np.empty((self.n, n_windows))
        for i in range(self.n):
            table[i] = self.amplitude[i] * (2.0 * _uniform01(self.seed, i, windows) - 1.0)
        return table

