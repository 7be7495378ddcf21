"""Hybrid closed-loop state, the jump map and the transmission log.

The concrete plant is the single-integrator consensus loop with
zero-order hold: each agent's state feeds back through the graph
Laplacian applied to the latest transmitted (noisy) outputs. Along a
flow interval the sampled output is held, so the network-induced error
evolves as the exact negative of the state.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

__all__ = ["HybridState", "HybridTime", "EventLog", "JumpEvent", "apply_jump"]


class HybridState:
    """Full state (x, e, w_hat, eta, tau) of the networked closed loop,
    held as one flat (5n,) ``row`` in the trace's layout.

    x: agent states; e: ideal network-induced errors (sampled output
    minus current output, noise-free); what_w: noise values latched at
    each agent's last transmission; eta: dynamic-trigger variables;
    tau: per-agent clocks (used by timer-regularized schemes only).
    The five components are views of the row: update them in place
    (``state.x += dx``, ``state.e[i] = 0.0``), never rebind them.
    """

    __slots__ = ("row", "x", "e", "what_w", "eta", "tau")

    def __init__(self, x, e, what_w, eta, tau) -> None:
        self._bind(np.concatenate([x, e, what_w, eta, tau], dtype=float))

    def _bind(self, row: np.ndarray) -> "HybridState":
        self.row = row
        self.x, self.e, self.what_w, self.eta, self.tau = row.reshape(5, -1)
        return self

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def copy(self) -> "HybridState":
        return HybridState.from_row(self.row)

    def as_row(self) -> np.ndarray:
        """Copy of the flat (5n,) row: x, e, w_hat, eta, tau."""
        return self.row.copy()

    @classmethod
    def from_row(cls, row: np.ndarray) -> "HybridState":
        """State holding a copy of ``row``."""
        return cls.__new__(cls)._bind(np.array(row, dtype=float))


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


class EventLog(Sequence):
    """Transmissions in hybrid-time order, stored as columns.

    ``agent``, ``t`` and ``j`` say who jumped and when; ``gap`` is the time
    since that agent's previous transmission (NaN at its first), ``psi``
    the trigger value that commanded the jump, and ``pre`` the (E, 5n)
    state rows just before it. A jump changes only the transmitting
    agent's e, w_hat, eta and tau, so the log keeps just two scalars of
    the post-jump state, the latched noise and eta, and ``post`` rebuilds
    the (E, 5n) rows just after each jump from them. ``len()``, indexing
    and iteration give :class:`JumpEvent` views.
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

    def __getitem__(self, k: int) -> "JumpEvent":
        k = int(k)
        if k < 0:
            k += self._size
        if not 0 <= k < self._size:
            raise IndexError(f"event {k} out of range for {self._size} events")
        return JumpEvent(self, k)

    def __iter__(self):
        for k in range(self._size):
            yield JumpEvent(self, k)


class JumpEvent:
    """One transmission, read from entry ``k`` of an :class:`EventLog`;
    ``pre_state`` and ``post_state`` are copies of its rows."""

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

    @property
    def psi_value(self) -> float:
        return self.log._psi.item(self.k)

    @property
    def pre_state(self) -> HybridState:
        return HybridState.from_row(self.log._pre[self.k])

    @property
    def post_state(self) -> HybridState:
        return HybridState.from_row(self.log._post_rows(self.k, self.k + 1)[0])


def apply_jump(state: HybridState, agent: int, w: np.ndarray, scheme) -> float:
    """Transmission by one agent, in place: reset its error, latch its
    noise, zero its clock, and apply the scheme's eta reset. All other
    components (and x entirely) are unchanged. Returns the agent's new eta."""
    if not 0 <= agent < state.n:
        raise IndexError(f"agent {agent} out of range")
    w_i = w.item(agent)
    e_tilde_i = state.e.item(agent) + state.what_w.item(agent) - w_i
    eta_i = scheme.eta_reset(state.eta.item(agent), e_tilde_i, agent)
    state.eta[agent] = eta_i
    state.e[agent] = 0.0
    state.what_w[agent] = w_i
    state.tau[agent] = 0.0
    return eta_i
