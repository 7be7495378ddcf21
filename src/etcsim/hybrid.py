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

The transmission log, :class:`EventLog`, derives j, the gaps and the
resolution instants from the logged t, and keeps no state row: the
trace stores the state after the last jump of each instant, and a jump
changes only its own agent's e, w_hat, eta and tau, so the log keeps
those of the sender, before and after, per jump.
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
    value that commanded the jump; ``j`` (1..E) and ``gap``, the time since
    that agent's previous jump (NaN at its first), follow from them. A jump
    changes only the sender's e, w_hat, eta and tau, so the log keeps five
    scalars of state per jump: the sender's e, eta and tau before it, and
    its latched noise and eta after it.

    The rest of each row is in the stored rows of the trace that owns the
    log (:meth:`attach`): every instant with a jump has one, holding the
    state after the instant's last jump, and w_hat changes only at jumps,
    so the stored row before an instant holds each sender's w_hat before
    it. Only the first stored row, at t = 0, has none before it; for it
    the log keeps each agent's w_hat before its first jump. ``pre`` and
    ``post`` rebuild the (E, 5n) rows just before and just after each
    jump, as a new array on each access. ``len()`` counts the jumps, and
    iteration gives a :class:`JumpEvent` view of each.
    """

    _INITIAL_CAPACITY = 64
    # one entry per jump; pre_* are the sender's values before the jump
    _NAMES = ("agent", "t", "gap", "psi", "what_w", "eta", "pre_e", "pre_eta", "pre_tau")

    agent = _Column()
    t = _Column()
    gap = _Column()
    psi = _Column()

    def __init__(self, n: int) -> None:
        cap = self._INITIAL_CAPACITY
        self._n = n
        self._size = 0
        self._agent = np.empty(cap, dtype=np.int64)
        for name in self._NAMES[1:]:
            setattr(self, "_" + name, np.empty(cap))
        # Python floats: each agent's last jump time
        self._last = [math.nan] * n
        self._what0 = np.full(n, math.nan)  # each agent's w_hat before its first jump
        self._stored = None  # the owning trace's stored (times, rows)

    def append(self, agent: int, t: float, psi: float, before, what_w: float,
               eta: float) -> None:
        """Log one jump, in time order: ``before`` is the sender's e, w_hat,
        eta and tau before it, and what_w and eta its latched noise and eta
        after it. w_hat before is kept at the agent's first jump only."""
        k = self._size
        if k == self._t.shape[0]:
            for name in self._NAMES:
                key = "_" + name
                setattr(self, key, _grown(getattr(self, key), k))
        e, what_before, eta_before, tau = before
        last = self._last[agent]
        if math.isnan(last):
            self._what0[agent] = what_before
        self._agent[k] = agent
        self._t[k] = t
        self._gap[k] = t - last
        self._last[agent] = t
        self._psi[k] = psi
        self._what_w[k] = what_w
        self._eta[k] = eta
        self._pre_e[k] = e
        self._pre_eta[k] = eta_before
        self._pre_tau[k] = tau
        self._size = k + 1

    def attach(self, times: np.ndarray, rows: np.ndarray) -> None:
        """Give the log the stored rows of its trace, (r,) times and
        (r, 5n) rows, from which ``pre`` and ``post`` rebuild the rows
        around each jump. Each logged t must be a stored time, and the row
        there the state after the last jump at that t; w_hat changes only
        at jumps, so the row before it holds the senders' w_hat before."""
        self._stored = (times, rows)

    @property
    def j(self) -> np.ndarray:
        """(E,) jump counter after each jump: 1..E."""
        return np.arange(1, self._size + 1)

    @property
    def pre(self) -> np.ndarray:
        """(E, 5n) rows just before each jump."""
        return self._pre_rows(0, self._size)

    @property
    def post(self) -> np.ndarray:
        """(E, 5n) rows just after each jump: the transmitting agent's e
        and tau are 0, its w_hat and eta the logged values; x and every
        other agent are as before the jump."""
        return self._to_post(self._pre_rows(0, self._size), 0)

    def _pre_rows(self, lo: int, hi: int) -> np.ndarray:
        """The pre-jump rows of jumps lo..hi-1, and ``lo`` may fall inside
        an instant. Each starts from its instant's stored row, the row
        after the instant's last jump. Undoing the instant's jumps, its
        last first, leaves each sender with its values before its first
        jump there (w_hat from the stored row before), which gives the row
        before the instant; the instant's jumps before k are then replayed
        on it."""
        n, t, (times, stored) = self._n, self.t, self._stored
        k = np.arange(lo, hi)
        first = np.searchsorted(t, t[lo:hi], side="left")
        end = np.searchsorted(t, t[lo:hi], side="right")
        at = np.searchsorted(times, t[lo:hi])
        rows = stored[at]
        z = rows.reshape(hi - lo, 5, n)
        size = end - first
        for d in range(1, int(size.max(initial=0)) + 1):
            r = np.flatnonzero(size >= d)
            q, s = end[r] - d, at[r]
            i = self._agent[q]
            z[r, 1, i] = self._pre_e[q]
            z[r, 2, i] = np.where(s > 0, stored[s - 1, 2 * n + i], self._what0[i])
            z[r, 3, i] = self._pre_eta[q]
            z[r, 4, i] = self._pre_tau[q]
        depth = k - first  # the instant's jumps before k
        # oldest first, so that an agent's later jump in the instant wins
        for d in range(int(depth.max(initial=0)), 0, -1):
            r = np.flatnonzero(depth >= d)
            self._replay(z, r, k[r] - d)
        return rows

    def _to_post(self, rows: np.ndarray, lo: int) -> np.ndarray:
        """The pre-jump rows of jumps lo.. turned, in place, into their
        post-jump rows."""
        m = rows.shape[0]
        self._replay(rows.reshape(m, 5, self._n), np.arange(m), np.arange(lo, lo + m))
        return rows

    def _replay(self, z: np.ndarray, r: np.ndarray, k: np.ndarray) -> None:
        """Apply jump k[q] to row r[q] of the (m, 5, n) view z, in place."""
        i = self._agent[k]
        z[r, 1, i] = 0.0
        z[r, 2, i] = self._what_w[k]
        z[r, 3, i] = self._eta[k]
        z[r, 4, i] = 0.0

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
