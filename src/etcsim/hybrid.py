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
"""

from __future__ import annotations

import math
import mmap
from typing import NamedTuple

import numpy as np

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
    """The filled part of one of an EventLog's buffers."""

    def __set_name__(self, owner, name: str) -> None:
        self.buf = "_" + name

    def __get__(self, log, owner=None) -> np.ndarray:
        return getattr(log, self.buf)[: log._size]


class EventLog:
    """Transmissions in hybrid-time order, stored as columns.

    ``agent``, ``t`` and ``j`` say who jumped and when; ``gap`` is the time
    since that agent's previous transmission (NaN at its first), ``psi``
    the trigger value that commanded the jump, and ``pre`` the (E, 5n)
    state rows just before it. A jump changes only the transmitting
    agent's e, w_hat, eta and tau, so the log keeps just two scalars of
    the post-jump state, the latched noise and eta, and ``post`` rebuilds
    the (E, 5n) rows just after each jump from them. ``len()`` counts
    the jumps, and iteration gives a :class:`JumpEvent` view of each.
    """

    _INITIAL_CAPACITY = 64
    _NAMES = ("agent", "t", "j", "gap", "psi", "pre", "what_w", "eta")

    agent = _Column()
    t = _Column()
    j = _Column()
    gap = _Column()
    psi = _Column()
    pre = _Column()

    def __init__(self, n: int) -> None:
        cap = self._INITIAL_CAPACITY
        self._n = n
        self._size = 0
        self._agent = np.empty(cap, dtype=np.int64)
        self._t = np.empty(cap)
        self._j = np.empty(cap, dtype=np.int64)
        self._gap = np.empty(cap)
        self._psi = np.empty(cap)
        self._pre = np.empty((cap, 5 * n))
        self._what_w = np.empty(cap)
        self._eta = np.empty(cap)

    def append(self, agent: int, t: float, j: int, gap: float, psi: float,
               pre: np.ndarray, what_w: float, eta: float) -> None:
        """Log one jump: its pre-jump row, and the agent's latched noise
        and eta after it."""
        k = self._size
        if k == self._t.shape[0]:
            for name in self._NAMES:
                key = "_" + name
                setattr(self, key, _grown(getattr(self, key), k))
        self._agent[k] = agent
        self._t[k] = t
        self._j[k] = j
        self._gap[k] = gap
        self._psi[k] = psi
        self._pre[k] = pre
        self._what_w[k] = what_w
        self._eta[k] = eta
        self._size = k + 1

    @property
    def post(self) -> np.ndarray:
        """(E, 5n) rows just after each jump, rebuilt from ``pre``: the
        transmitting agent's e and tau are 0, its w_hat and eta the logged
        values; x and every other agent are as before the jump."""
        return self._post_rows(0, self._size)

    def _post_rows(self, lo: int, hi: int) -> np.ndarray:
        rows = self._pre[lo:hi].copy()
        z = rows.reshape(hi - lo, 5, self._n)
        k, i = np.arange(hi - lo), self._agent[lo:hi]
        z[k, 1, i] = 0.0
        z[k, 2, i] = self._what_w[lo:hi]
        z[k, 3, i] = self._eta[lo:hi]
        z[k, 4, i] = 0.0
        return rows

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
        return HybridTime(self.log._t.item(self.k), self.log._j.item(self.k))

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
    eta_i = scheme.eta_reset(z.item(3, agent), e_tilde_i, agent)
    z[1, agent] = z[4, agent] = 0.0
    z[2, agent] = w_i
    z[3, agent] = eta_i
    return eta_i
