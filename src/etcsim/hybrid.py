"""The hybrid state's layout, the jump map and the transmission log.

The state is one flat (5n,) row, laid out as the trace's samples, and
``row.reshape(5, n)`` its (5, n) view: agent states x, noise-free
network-induced errors e (sampled minus current output), noise w_hat
latched at each agent's last transmission, dynamic-trigger variables
eta and per-agent clocks tau. The plant is the single-integrator
consensus loop with zero-order hold: each agent's state feeds back
through the graph Laplacian applied to the latest transmitted (noisy)
outputs. Along a flow interval the sampled output is held, so the
network-induced error evolves as the exact negative of the state.

The transmission log, :class:`EventLog`, keeps per jump its agent, t,
psi and the sender's latched noise and eta after it, and derives j and
the gaps from them.
"""

from __future__ import annotations

import math
import mmap
from typing import NamedTuple

import numpy as np

from .etm import eta_reset

__all__ = ["HybridTime", "EventLog", "JumpEvent", "apply_jump"]


class HybridState:
    """Retired, member-less: ``bench/spans.py`` still looks the name up."""


class HybridTime(NamedTuple):
    """Hybrid time instant: continuous time t and jump counter j."""

    t: float
    j: int


def _mapped(shape: tuple, dtype=float) -> np.ndarray:
    """Uninitialised array in its own anonymous memory mapping, for the
    buffers that grow with a run. Freeing one returns its memory to the OS
    at once; a heap block of that size could stay resident, since glibc
    raises its mmap threshold each time a large block is freed."""
    count = math.prod(shape)
    dtype = np.dtype(dtype)
    mapping = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(mapping, dtype=dtype, count=count).reshape(shape)


def _grown(buf: np.ndarray, used: int) -> np.ndarray:
    """A buffer of twice the length of ``buf`` holding its first ``used`` rows."""
    out = _mapped((2 * buf.shape[0],) + buf.shape[1:], dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


class _Column:
    """The filled part of one of an EventLog's per-jump buffers."""

    def __set_name__(self, owner, name: str) -> None:
        self.buf = "_" + name

    def __get__(self, log, owner=None) -> np.ndarray:
        return getattr(log, self.buf)[: log._size]


class EventLog:
    """Transmissions in hybrid-time order, stored as columns.

    ``agent`` and ``t`` say who jumped and when, ``psi`` is the trigger
    value that commanded the jump, ``what_w`` and ``eta`` the sender's
    latched noise and eta after it; ``j`` (1..E) and ``gap``, the time
    since that agent's previous jump (NaN at its first), follow from
    them. ``len()`` counts the jumps, and iteration gives a
    :class:`JumpEvent` view of each.
    """

    _INITIAL_CAPACITY = 64
    _NAMES = ("agent", "t", "gap", "psi", "what_w", "eta")

    agent = _Column()
    t = _Column()
    gap = _Column()
    psi = _Column()
    what_w = _Column()
    eta = _Column()

    def __init__(self, n: int) -> None:
        cap = self._INITIAL_CAPACITY
        self._size = 0
        self._agent = np.empty(cap, dtype=np.int64)
        for name in self._NAMES[1:]:
            setattr(self, "_" + name, np.empty(cap))
        # Python floats: each agent's last jump time
        self._last = [math.nan] * n

    def append(self, agent: int, t: float, psi: float, what_w: float, eta: float) -> None:
        """Log one jump, in time order: what_w and eta are the sender's
        latched noise and eta after it."""
        k = self._size
        if k == self._t.shape[0]:
            for name in self._NAMES:
                key = "_" + name
                setattr(self, key, _grown(getattr(self, key), k))
        self._agent[k] = agent
        self._t[k] = t
        self._gap[k] = t - self._last[agent]
        self._last[agent] = t
        self._psi[k] = psi
        self._what_w[k] = what_w
        self._eta[k] = eta
        self._size = k + 1

    @property
    def j(self) -> np.ndarray:
        """(E,) jump counter after each jump: 1..E."""
        return np.arange(1, self._size + 1)

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for k in range(self._size):
            yield JumpEvent(self, k)


class JumpEvent:
    """One transmission, read from entry ``k`` of an :class:`EventLog`."""

    __slots__ = ("log", "k")

    def __init__(self, log: EventLog, k: int) -> None:
        self.log = log
        self.k = k

    @property
    def agent(self) -> int:
        return self.log._agent.item(self.k)

    @property
    def time(self) -> HybridTime:
        return HybridTime(self.log._t.item(self.k), self.k + 1)

    @property
    def inter_event_gap(self) -> float | None:
        """None for the agent's first jump."""
        gap = self.log._gap.item(self.k)
        return None if math.isnan(gap) else gap


def apply_jump(z: np.ndarray, agent: int, w: np.ndarray, scheme) -> float:
    """Transmission by one agent, in place on the (5, n) state view ``z``:
    reset its error, latch its noise, zero its clock, and apply the
    scheme's eta reset. All other components (and x entirely) are
    unchanged. Returns the agent's new eta."""
    if not 0 <= agent < z.shape[1]:
        raise IndexError(f"agent {agent} out of range")
    w_i = w.item(agent)
    e_tilde_i = z.item(1, agent) + z.item(2, agent) - w_i
    eta_i = eta_reset(z.item(3, agent), e_tilde_i, scheme.w_bar.item(agent),
                      scheme.reset_gain.item(agent))
    z[1, agent] = z[4, agent] = 0.0
    z[2, agent] = w_i
    z[3, agent] = eta_i
    return eta_i
