"""Hybrid simulation loop and trace metrics.

The run's state is one (5n,) row (x, e, w_hat, eta, tau), updated in
place through its (5, n) view ``z``. Between two transmissions the
closed loop flows affinely: the held output makes x + e invariant, so
the control input u = -M(x + e + w_hat) is constant, x, e and tau are
linear in t, and the noise is held per window. The engine therefore
advances in blocks of up to BLOCK_MAX steps of length h (the noise-hold
period by default) with u frozen at the start of the block:

- x, e and tau at the step ends are one ``cumsum`` over the start row
  and K increments, which rounds as applying ``x += h*u`` once per step;
- eta follows classical RK4 on eta' = psi - eps*eta with the stage
  values psi at the step start, the shared midpoint and the step end,
  all under the step's held noise. That map is affine,
  eta_{m+1} = A eta_m + B_m, so a block is one scaled cumsum. K is kept
  short enough that A^-K stays within 2, so no block over- or underflows;
- the jump set is evaluated at every step end against the noise there.

A block stops at the first step that ends with an agent in the jump set
or with eta below 0. That step's end state is committed with eta
clamped at 0, the jumps due there are resolved, and the next block
starts at BLOCK_MIN steps; a block that runs through doubles the next
one's length. Every step end is thus checked exactly as a per-step
loop would check it; the only difference from stepping with a fresh u
each step is the ulp-level drift of x + e along the block. Jumps happen
only at step ends, so every sample and every event time lies on the
step grid k h.

Jumps are resolved per instant by :func:`_jump_resolver`. It evaluates
u, the measured errors e~, psi and the jump set once, as vectors, from
the committed state, then applies the due agents' jumps in passes of
ascending agent order, repeated while any agent is due. A jump by agent
i zeroes e~_i and tau_i, resets eta_i through :func:`apply_jump`, and
moves u_r by M[r, i] e~_i, so only the rows r with M[r, i] != 0, and i
itself, change; psi and the jump-set predicate are re-evaluated on those
rows alone, with the same :func:`etcsim.etm.trigger_value` and
:func:`_in_jump_set` that the vector code calls. The incremental u can
differ from -M(x + e + w_hat) in the last bits, but only within one
instant: the next instant and every block start evaluate u from the
state afresh.

A trace stores the arc as its blocks (:class:`SolutionTrace`): the step
of each block boundary, and the row committed there before that
instant's jumps at t = 0, at every CHECKPOINT_BLOCKS-th boundary and at
the end of the run. Applying the instant's logged jumps to a boundary's
row gives the block's start row, and replaying the block from there
gives every step end inside it bit for bit, the last one with eta
clamped being the next boundary's row: a block's rows depend only on
its start row, its length and, for eta, its noise rows. So every other
boundary's row is rebuilt by one forward walk (:func:`_walk`) from the
kept row at or before the first boundary a read needs, replaying every
block from there on once, with no skip-ahead; a trace grows with blocks,
not with t_final / h, by one step number per block. Its samples, and
the rows just before and just after the jumps at their instants, are
read through one chunked reader on that walk,
:meth:`SolutionTrace.chunks`; ``states``, ``x_series``, ``pre`` and
``post`` materialise them on each access, at O(samples) cost and
memory, and decimation is only a choice of which samples a reader asks
for.

A run holds its block steps and kept rows, the event log, one chunk of
NOISE_CHUNK_STEPS rows of the noise's step table, and the temporaries of
one block. A block reads its noise rows from the chunk; when it would
run past the chunk's last row, the next chunk is tabulated from the
block's first step, with the bits of the whole table's rows. The metrics
passes over a trace work in chunks of STORAGE_BLOCK_ROWS samples, so
none of them builds a whole-run array either, other than its output.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .etm import QuadraticTrigger, trigger_value
from .graph import Graph, laplacian
from .hybrid import EventLog, _grown, _mapped, apply_jump
from .signals import NoiseSignal

__all__ = [
    "Scenario",
    "SolutionTrace",
    "JumpStormError",
    "simulate",
    "inter_event_stats",
    "jump_storage_change",
    "consensus_metrics",
    "final_metrics",
]

TRIGGER_TOL = 1e-12
JUMPS_PER_INSTANT_FACTOR = 10
# block lengths in steps: after an instant with jumps, and the cap of the doubling
BLOCK_MIN = 8
BLOCK_MAX = 512
# a trace keeps the row at every CHECKPOINT_BLOCKS-th block boundary (and at
# the last) and rebuilds the others forward: at most CHECKPOINT_BLOCKS - 1
# block replays before a read reaches its first boundary
CHECKPOINT_BLOCKS = 64
# samples per chunk of the metrics passes and of a trace's reads, which
# bounds their temporaries (the chunk's rows and the rows around its
# jumps) instead of building whole-run (E, 5n) or (samples, 5n) arrays
STORAGE_BLOCK_ROWS = 1024
# rows of the noise table a run holds at a time: at least the BLOCK_MAX + 1
# rows that one block reads
NOISE_CHUNK_STEPS = 8 * BLOCK_MAX


class JumpStormError(RuntimeError):
    """More jumps at one continuous time than the safety cap allows."""


def _whole(ratio: float) -> int:
    """The positive integer within a relative 1e-9 of ratio, or 0."""
    k = round(ratio) if math.isfinite(ratio) else 0
    return k if k >= 1 and abs(ratio - k) <= 1e-9 * k else 0


@dataclass
class Scenario:
    """One simulation setup: plant interconnection, trigger scheme,
    noise, initial condition, and integration controls.

    ``feedback`` defaults to the graph Laplacian (consensus loop); the
    single-plant demo passes its own gain matrix and no graph. The run
    starts from x0 with zero errors, eta and clocks, and with row 0 of
    the noise's step table, the noise at t = 0, latched.
    """

    scheme: QuadraticTrigger
    noise: NoiseSignal
    x0: np.ndarray
    graph: Graph | None = None
    feedback: np.ndarray | None = None
    t_final: float = 8.0
    step: float = 1e-4
    decimation: int = 1

    def __post_init__(self) -> None:
        n = self.scheme.n
        if self.feedback is None:
            if self.graph is None:
                raise ValueError("scenario needs a graph or an explicit feedback matrix")
            self.feedback = laplacian(self.graph)
        self.feedback = np.asarray(self.feedback, dtype=float)
        if self.feedback.shape != (n, n):
            raise ValueError(f"feedback shape {self.feedback.shape} != ({n},{n})")
        if not np.isfinite(self.feedback).all():
            raise ValueError("feedback must be finite")
        for name in ("step", "t_final"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if (isinstance(self.decimation, bool) or not isinstance(self.decimation, (int, np.integer))
                or not 1 <= self.decimation <= np.iinfo(np.int64).max):
            # past 2**63 - 1, step numbers modulo the decimation overflow int64
            raise ValueError(f"decimation must be an integer from 1 to 2**63 - 1, "
                             f"got {self.decimation!r}")
        if self.noise.n != n:
            raise ValueError(f"noise channel count {self.noise.n} != n={n}")
        # the engine holds the window at a step's start along the whole step,
        # so a step may neither straddle a window's edge nor skip a window
        if not self.steps_per_window:
            hold = 1.0 / self.noise.sample_rate
            raise ValueError(f"step {self.step!r} must divide the noise hold 1/sample_rate = "
                             f"{hold!r} a whole number of times; hold/step = {hold / self.step!r}")
        # the run takes round(t_final / step) steps, so that must be t_final
        if not _whole(self.t_final / self.step):
            raise ValueError(f"t_final {self.t_final!r} must be a whole number of steps of "
                             f"{self.step!r}; t_final/step = {self.t_final / self.step!r}")
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (n,):
            raise ValueError(f"x0 shape {self.x0.shape} != ({n},)")
        if not np.isfinite(self.x0).all():
            raise ValueError(f"x0 must be finite, got {self.x0.tolist()}")

    @property
    def steps_per_window(self) -> int:
        """The steps in one noise hold 1/sample_rate, or 0 unless the step
        divides the hold: step k ends in window k // steps_per_window."""
        return _whole(1.0 / self.noise.sample_rate / self.step)


@dataclass
class SolutionTrace:
    """Recorded hybrid arc, stored as its blocks, plus the full
    transmission log.

    ``row_k`` holds the first step of each block and then the step
    count: block b flows from boundary b, after the jumps logged at
    ``row_k[b]`` h, for ``row_k[b + 1] - row_k[b]`` steps. ``rows`` holds
    the state before the jumps at the kept boundaries, in order: every
    ``stride``-th one from t = 0 and the last. Every other boundary's row
    is rebuilt by one forward walk from the kept row before it
    (:func:`_walk`). Its samples are every ``decimation``-th step end of
    the scenario, every instant with jumps and the final step; each is a
    boundary's row after its jumps or a row of a block replayed from its
    start (module docstring). :meth:`chunks` reads them, with the rows
    around the jumps at their instants if asked, and ``sample_count``
    counts them, neither building a whole-run array; ``times``, ``jumps``,
    ``states`` and ``x_series`` build whole-run arrays on each access.
    ``pre`` and ``post`` are the (E, 5n) rows just before and just after
    each logged jump, each its instant's boundary row with the instant's
    jumps up to it applied, filled from one :meth:`chunks` pass into a
    new array on each access."""

    scenario: Scenario  # the run's setup, which replays its blocks and defines its metrics
    row_k: np.ndarray  # (B + 1,) first step of each block, then the step count
    rows: np.ndarray  # (kept, 5n) rows before the jumps there: x, e, w_hat, eta, tau
    events: EventLog
    # boundary b is kept when stride divides it, and the last always is;
    # simulate keeps every CHECKPOINT_BLOCKS-th, and the default keeps every
    # row of a trace built by hand (the tests' stored arcs)
    stride: int = 1

    def __post_init__(self) -> None:
        last = self.row_k.size - 1
        kept = last // self.stride + 1 + (last % self.stride != 0)
        if self.rows.shape[0] != kept:
            raise ValueError(f"{self.rows.shape[0]} rows for {kept} kept boundaries "
                             f"of {last + 1} at stride {self.stride}")
        self._row_t = self.row_k * self.scenario.step  # k h, with the bits of the log's t
        # the increasing steps of the samples off the decimation grid (the
        # instants with jumps and the final step that are not on it), and
        # the index of each among the samples: the grid points below it
        # come first
        dec, k = self.scenario.decimation, self.row_k[:0]
        if dec > 1:
            k = self.row_k[self.row_k % dec != 0]
            k = k[np.isin(k * self.scenario.step, self.events.t) | (k == self.row_k[-1])]
        self._off_grid = k, np.arange(k.size) + k // dec + 1

    @property
    def n(self) -> int:
        return self.rows.shape[1] // 5

    @property
    def sample_count(self) -> int:
        """The number of samples, counted from the decimation grid and the
        off-grid samples; no sample is read."""
        return int(self.row_k[-1]) // self.scenario.decimation + 1 + self._off_grid[0].size

    @property
    def times(self) -> np.ndarray:
        """(m,) continuous time per sample."""
        [steps] = self._step_chunks()
        return steps * self.scenario.step

    @property
    def jumps(self) -> np.ndarray:
        """(m,) jump counter per sample: the log's jumps up to its t."""
        return np.searchsorted(self.events.t, self.times, side="right")

    @property
    def pre(self) -> np.ndarray:
        """(E, 5n) rows just before each jump."""
        return self._gather(2, self.rows.shape[1])

    @property
    def post(self) -> np.ndarray:
        """(E, 5n) rows just after each jump: the transmitting agent's e
        and tau are 0, its w_hat and eta the logged values; x and every
        other agent are as before the jump."""
        return self._gather(3, self.rows.shape[1])

    @property
    def states(self) -> np.ndarray:
        """(m, 5n) rows per sample: x, e, w_hat, eta, tau."""
        return self._gather(1, self.rows.shape[1])

    @property
    def x_series(self) -> np.ndarray:
        """(m, n) agent states per sample."""
        return self._gather(1, self.n)

    def chunks(self, lo: int = 0, hi: int | None = None, size: int | None = None,
               jumps: bool = False):
        """Yield samples lo..hi-1 in order, in chunks of at most ``size``
        samples (default STORAGE_BLOCK_ROWS): each chunk's (c,) step
        numbers and its (c, 5n) rows, and with ``jumps`` also the (J, 5n)
        rows just before and just after the jumps at the chunk's instants,
        the log's next J ones. One forward walk over the blocks
        (:func:`_walk`) serves every chunk: a sample at a block boundary is
        the boundary's row after its jumps, every other one is read from
        its block's replay. Raises ValueError unless ``size`` is None or a
        positive integer."""
        if size is not None and (isinstance(size, bool) or not isinstance(size, (int, np.integer))
                                 or size < 1):
            raise ValueError(f"chunk size must be a positive integer, got {size!r}")
        log_t, width, walk = self.events.t, self.rows.shape[1], None
        for k in self._step_chunks(lo, hi, size or STORAGE_BLOCK_ROWS):
            block = self.row_k.searchsorted(k, side="right") - 1  # the final step's is B
            if walk is None:
                walk = _walk(self, block.item(0))
                b, pre, _, flow = next(walk)
            out, heads = np.empty((k.size, width)), {}
            cuts = (np.flatnonzero(np.diff(block)) + 1).tolist()  # where the block changes
            for a, c in zip([0, *cuts], [*cuts, k.size]):
                while b < block.item(a):
                    b, pre, _, flow = next(walk)
                m = k[a:c] - self.row_k.item(b)  # steps into the block
                out[a:c] = flow[m]
                if jumps and not m.item(0):  # the boundary is a sample: its jumps start here
                    heads[b] = pre
            if not jumps:
                yield k, out
                continue
            # each instant with jumps is a sample, the first of its block
            t = k[[0, -1]] * self.scenario.step
            first, end = log_t.searchsorted(t.item(0)), log_t.searchsorted(t.item(1), "right")
            t = log_t[first:end]
            used, at = np.unique(self._row_t.searchsorted(t), return_inverse=True)
            rows = np.array([heads[i] for i in used.tolist()]).reshape(used.size, width)[at]
            q = np.arange(first, end)
            before = self._forward(rows, log_t.searchsorted(t), q)
            yield k, out, before, self._forward(before.copy(), q, q + 1)

    def _step_chunks(self, lo: int = 0, hi: int | None = None, size: int | None = None):
        """Yield the steps of samples lo..hi-1 (a slice of the samples), in
        chunks of at most ``size`` (default all at once). The samples are
        every decimation-th step, every instant with jumps and the final
        step; each chunk is built from the grid and the off-grid samples
        alone, so no whole-run step array is made."""
        dec, (off, at) = self.scenario.decimation, self._off_grid
        lo, hi, _ = slice(lo, hi).indices(self.sample_count)
        size = size or max(hi - lo, 1)
        for a in range(lo, hi, size):
            b = min(a + size, hi)
            p, q = at.searchsorted(a), at.searchsorted(b)
            # the grid points of samples a..b-1, with off[p:q] inserted after
            # the grid point below each
            grid = np.arange((a - p) * dec, (b - q) * dec, dec)
            yield np.insert(grid, off[p:q] // dec + 1 - (a - p), off[p:q]) if q > p else grid

    def _gather(self, part: int, width: int) -> np.ndarray:
        """The first ``width`` columns of part 1 (the samples' rows), 2 (the
        rows before each jump) or 3 (after) of every chunk of one
        :meth:`chunks` pass, in one array."""
        out = np.empty((self.sample_count if part == 1 else len(self.events), width))
        lo = 0
        for chunk in self.chunks(jumps=part > 1):
            rows = chunk[part]
            out[lo : lo + rows.shape[0]] = rows[:, :width]
            lo += rows.shape[0]
        return out

    def _forward(self, rows: np.ndarray, first: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Apply jumps first[q]..end[q]-1 to the (m, 5n) rows[q], in place,
        oldest first, so that an agent's later jump in an instant wins."""
        log, z = self.events, rows.reshape(rows.shape[0], 5, self.n)
        columns = log.agent, log.what_w, log.eta
        depth = end - first
        for d in range(int(depth.max(initial=0))):
            r = np.flatnonzero(depth > d)
            _apply_logged(z, r, first[r] + d, *columns)
        return rows


def _apply_logged(z: np.ndarray, r, k, agent: np.ndarray, what_w: np.ndarray,
                  eta: np.ndarray) -> None:
    """Apply logged jump k, a row of the log's agent, what_w and eta
    columns, to row r of the (m, 5, n) rows z, in place: the sender's e
    and tau are 0, its w_hat and eta the logged values. r and k are one
    row and one jump, or index arrays of equal length with no row twice."""
    i = agent[k]
    z[r, 1, i] = 0.0
    z[r, 2, i] = what_w[k]
    z[r, 3, i] = eta[k]
    z[r, 4, i] = 0.0


def _walk(trace: SolutionTrace, b0: int):
    """One forward walk over a trace's blocks from boundary b0: yield
    ``(b, pre, start, flow)`` for each boundary b = b0, b0 + 1, ..., in
    order: its row before its instant's jumps, block b's start row after
    them, and block b's (m + 1, 5n) rows from that start to its last step
    end, eta unclamped there, as the run flowed them (the start row alone
    at the last boundary, which starts no block).

    The walk starts at the kept row at or before b0, so it replays at most
    stride - 1 blocks before it reaches b0, and then every block once: it
    never skips ahead. At each boundary it applies the instant's logged
    jumps (:func:`_apply_logged`) and replays the block (a static rule's
    row flow alone, a dynamic rule's under its noise rows); the next
    boundary's row is the kept one where the trace keeps it, else the
    block's last row with eta clamped at 0, as ``simulate`` commits it.
    ``start`` is the walk's buffer, rewritten at the next boundary; a
    reader copies it to keep it."""
    s, log, n, stride = trace.scenario, trace.events, trace.n, trace.stride
    log_t, columns = log.t, (log.agent, log.what_w, log.eta)
    row_k, last = trace.row_k, trace.row_k.size - 1
    z = np.empty((1, 5, n))  # the start row, as a one-row (m, 5, n) stack
    start, control, eta = z.reshape(-1), _control_law(s.feedback, z[0]), slice(3 * n, 4 * n)
    noise = (_NoiseRows(s.noise, s.steps_per_window, row_k.item(-1))
             if s.scheme.mode == "dynamic" else None)
    b = b0 if b0 == last else b0 - b0 % stride
    while True:
        if b % stride == 0 or b == last:  # a kept row: the last one is the last row
            pre = trace.rows[(b + stride - 1) // stride]
        t = trace._row_t.item(b)
        start[:] = pre
        for q in range(log_t.searchsorted(t), log_t.searchsorted(t, side="right")):
            _apply_logged(z, 0, q, *columns)
        if b == last:
            yield b, pre, start, z.reshape(1, -1)
            return
        k, m = row_k.item(b), row_k.item(b + 1) - row_k.item(b)
        if noise is None:
            flow = _row_flow(start, control(), s.step, m).reshape(m + 1, -1)
        else:
            flow = _flow_block(start, control(), s.step, noise.rows(k, m), s.scheme)[0]
        if b >= b0:
            yield b, pre, start, flow
        b, pre = b + 1, flow[-1].copy()
        np.maximum(pre[eta], 0.0, out=pre[eta])  # as simulate commits it


class _NoiseRows:
    """A run's noise step table, tabulated NOISE_CHUNK_STEPS rows at a
    time: ``rows(k, m)`` gives rows k..k + m, the noise at the step ends
    of an m-step block from step k, from the chunk held, or else from a
    new one tabulated from row k."""

    def __init__(self, noise: NoiseSignal, per: int, steps: int) -> None:
        self.noise, self.per, self.steps = noise, per, steps
        self.base, self.table = 0, np.empty((0, noise.n))

    def rows(self, k: int, m: int) -> np.ndarray:
        lo = k - self.base
        if lo < 0 or lo + m >= self.table.shape[0]:
            self.base, lo = k, 0
            self.table = self.noise.step_table(min(k + NOISE_CHUNK_STEPS - 1, self.steps),
                                               self.per, k)
        return self.table[lo : lo + m + 1]


def _in_jump_set(psi, eta, theta, dynamic: bool):
    """The jump set D given the trigger values psi, the (clamped) eta and
    the dynamic rule's theta. Plain arithmetic on whole arrays or on one
    agent's floats, with the same bits either way.

    Static rule: agent i is in D when psi_i <= -TRIGGER_TOL. Dynamic
    rule: additionally eta_i + theta_i psi_i <= TRIGGER_TOL; eta is
    clamped nonnegative, so that condition keeps the +tol side.

    Tie rule on the overlap of the flow set C and D: flow priority. At
    psi_i = 0 (within the tolerance) both flowing and jumping are
    admissible, and the solver flows, because the persistently flowing
    solution is the one the guarantees speak about. Jump resolution,
    the block stepper and the tests all decide through this predicate.
    """
    due = psi <= -TRIGGER_TOL
    return due & (eta + theta * psi <= TRIGGER_TOL) if dynamic else due


def _control_law(feedback: np.ndarray, z: np.ndarray):
    """u = -M (x + e + w_hat), as a function reading the state view z."""
    neg_fb, (x, e, what_w) = -feedback, z[:3]
    return lambda: neg_fb @ (x + e + what_w)


def _eta_gain(eps: float, h: float) -> float:
    """A of the RK4 step of eta' = psi - eps*eta, which maps eta to
    A*eta + B: the step taken from eta = 1 with psi = 0."""
    k1 = -eps
    k2 = -eps * (1.0 + 0.5 * h * k1)
    k3 = -eps * (1.0 + 0.5 * h * k2)
    k4 = -eps * (1.0 + h * k3)
    return 1.0 + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _block_limit(scheme: QuadraticTrigger, h: float) -> int:
    """Longest block whose eta scaling A^-K lies within [1/2, 2]."""
    gain = _eta_gain(scheme.eps_eta, h) if scheme.mode == "dynamic" else 1.0
    if gain == 1.0:
        return BLOCK_MAX
    return max(1, min(BLOCK_MAX, int(math.log(2.0) / abs(math.log(gain)))))


def _row_flow(row: np.ndarray, u: np.ndarray, h: float, k: int) -> np.ndarray:
    """The (K + 1, 5, n) rows at the step ends of flowing the state ``row``
    for K = k steps of length h with u frozen, row 0 being the start: x,
    e and tau are one cumulative sum, w_hat and eta are kept."""
    n = u.shape[0]
    z = np.empty((k + 1, 5, n))
    z[0] = row.reshape(5, n)
    inc = z[1]  # the increment of one step, copied to every later row
    np.multiply(h, u, out=inc[0])
    np.negative(inc[0], out=inc[1])
    inc[2:4] = -0.0  # w_hat and eta do not flow; adding -0.0 keeps every value, -0.0 too
    inc[4] = h
    z[2:] = inc
    np.add.accumulate(z, axis=0, out=z)
    return z


def _flow_block(row: np.ndarray, u: np.ndarray, h: float, w: np.ndarray,
                scheme: QuadraticTrigger) -> tuple[np.ndarray, np.ndarray]:
    """Flow the state ``row`` for K = len(w) - 1
    steps of length h with u frozen; w[m] is the noise at the m-th step
    end (w[0] at the start), and step m + 1 flows under w[m].

    Returns the (K + 1, 5n) rows at the step ends, row 0 being the start
    and eta not yet clamped at 0, and the (K, n) mask of agents in the
    jump set at each step end, judged against the noise there with eta
    clamped."""
    k, n = w.shape[0] - 1, u.shape[0]
    z = _row_flow(row, u, h, k)
    if scheme.mode != "dynamic":
        end = z[1:]
        psi = scheme.psi_vec(u=u, e_tilde=end[:, 1] + end[:, 2] - w[1:], tau=end[:, 4],
                             x=end[:, 0], w=w[1:])
        return z.reshape(k + 1, 5 * n), _in_jump_set(psi, end[:, 3], scheme.theta, False)

    # RK4 stage values of every step in one evaluation: psi at the step
    # starts (which, under the next window's noise, is also the jump-set
    # check at the previous step end), at the shared midpoint and at the
    # end, the latter two under the step's held noise
    x, e, what_w, eta, tau = z.transpose(1, 0, 2)
    e_tilde = e + what_w - w
    half = 0.5 * h
    et0, x0, w0, tau0 = e_tilde[:-1], x[:-1], w[:-1], tau[:-1]
    p = scheme.psi_vec(
        u=u,
        e_tilde=np.concatenate((e_tilde, et0 - half * u, et0 - h * u)),
        tau=np.concatenate((tau, tau0 + half, tau0 + h)),
        x=np.concatenate((x, x0 + half * u, x0 + h * u)),
        w=np.concatenate((w, w0, w0)),
    )
    p1, p2, p4 = p[:k], p[k + 1 : 2 * k + 1], p[2 * k + 1 :]
    eps = scheme.eps_eta
    k1 = p1
    k2 = p2 - eps * (half * k1)
    k3 = p2 - eps * (half * k2)
    k4 = p4 - eps * (h * k3)
    b = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    # eta_m = A^m (eta_0 + sum_{l<m} B_l A^-(l+1))
    scale = _eta_gain(eps, h) ** np.arange(1.0, k + 1.0)[:, None]
    eta[1:] = scale * (eta[0] + np.cumsum(b / scale, axis=0))
    return z.reshape(k + 1, 5 * n), _in_jump_set(p[1 : k + 1], np.maximum(eta[1:], 0.0),
                                                 scheme.theta, True)


def _jump_resolver(scheme: QuadraticTrigger, feedback: np.ndarray, z: np.ndarray,
                   log: EventLog):
    """The jump resolution of one run, on its (5, n) state view z and event
    log: ``resolve(t, w)`` applies the jumps due at time t under the noise
    w (module docstring). Raises :class:`JumpStormError` past
    JUMPS_PER_INSTANT_FACTOR jumps per agent at one instant."""
    n = scheme.n
    control = _control_law(feedback, z)
    dynamic = scheme.mode == "dynamic"
    a, b, c, gate, theta = (v.tolist() for v in (scheme.a, scheme.b, scheme.c,
                                                  scheme.tau_miet, scheme.theta))
    # per agent i, the rows r whose u a jump by i changes, with M[r, i]
    column = [[(r, feedback.item(r, i)) for r in range(n) if r == i or feedback.item(r, i)]
              for i in range(n)]
    storm_cap = n * JUMPS_PER_INSTANT_FACTOR
    x, e, what_w, eta_v, tau_v = z

    def resolve(t: float, w: np.ndarray) -> None:
        u = control()
        d = scheme.driver(u, x, w)
        e_tilde = e + what_w - w
        psi = trigger_value(scheme.a, scheme.b, scheme.c, scheme.tau_miet, d, e_tilde, tau_v)
        due = _in_jump_set(psi, eta_v, scheme.theta, dynamic)
        if not due.any():
            return
        psi, due, e_tilde, d_list = psi.tolist(), due.tolist(), e_tilde.tolist(), d.tolist()
        # for consensus d is u: one shared list, so the updates of u below reach d
        u, d = d_list if d is u else u.tolist(), d_list
        eta, tau = eta_v.tolist(), tau_v.tolist()
        total = 0
        while any(due):
            for i in range(n):
                if not due[i]:
                    continue
                eta[i] = apply_jump(z, i, w, scheme)
                log.append(i, t, psi[i], w.item(i), eta[i])
                total += 1
                if total > storm_cap:
                    raise JumpStormError(
                        f"{total} jumps at t={t:.6f} exceed the cap of {storm_cap}"
                    )
                et_i, e_tilde[i], tau[i] = e_tilde[i], 0.0, 0.0
                for r, m_ri in column[i]:
                    u[r] += m_ri * et_i
                    psi[r] = p = trigger_value(a[r], b[r], c[r], gate[r], d[r], e_tilde[r], tau[r])
                    due[r] = _in_jump_set(p, eta[r], theta[r], dynamic)

    return resolve


def simulate(s: Scenario) -> SolutionTrace:
    # the trace's copy, made first: it re-runs the validation that a field
    # set after construction skipped, before any step is taken
    s = dataclasses.replace(s)
    scheme = s.scheme
    n = scheme.n
    h = s.step
    steps = int(round(s.t_final / h))
    longest = _block_limit(scheme, h)
    dynamic = scheme.mode == "dynamic"
    noise = _NoiseRows(s.noise, s.steps_per_window, steps)
    w = noise.rows(0, 0)
    z = np.zeros((5, n))
    z[0], z[2] = s.x0, w[0]
    row, eta = z.reshape(-1), z[3]  # the flat view of z, in the layout of the rows; its eta
    control = _control_law(s.feedback, z)
    log = EventLog(n)
    resolve = _jump_resolver(scheme, s.feedback, z, log)
    # the step of each block boundary, and the row before its jumps at the
    # kept ones (every CHECKPOINT_BLOCKS-th and the last), in mappings that
    # double when full
    row_k, rows = _mapped((BLOCK_MIN,), np.int64), _mapped((BLOCK_MIN, 5 * n))
    row_k[0], rows[0] = 0, row
    bounds, stored = 1, 1

    # jumps may already be due at t=0
    resolve(0.0, w[0])

    k, size = 0, BLOCK_MIN  # steps taken, length of the next block
    while k < steps:
        size = min(size, longest, steps - k)
        w = noise.rows(k, size)
        out, due = _flow_block(row, control(), h, w, scheme)
        if dynamic:
            due |= out[1:, 3 * n : 4 * n] < 0.0
        first = int(due.argmax())  # in the flattened mask: step first // n + 1
        stopped = due.item(first)
        m = first // n + 1 if stopped else size
        row[:] = out[m]
        np.maximum(eta, 0.0, out=eta)  # discrete detection lets eta undershoot slightly
        k += m
        if bounds == row_k.shape[0]:
            row_k = _grown(row_k, bounds)
        row_k[bounds] = k
        if bounds % CHECKPOINT_BLOCKS == 0 or k == steps:
            if stored == rows.shape[0]:
                rows = _grown(rows, stored)
            rows[stored], stored = row, stored + 1
        bounds += 1
        if stopped:
            resolve(k * h, w[m])
        size = BLOCK_MIN if stopped else 2 * size

    # the stored rows are views of their mappings' filled parts
    return SolutionTrace(scenario=s, row_k=row_k[:bounds], rows=rows[:stored], events=log,
                         stride=CHECKPOINT_BLOCKS)


# ---------------------------------------------------------------------------
# trace metrics


def inter_event_stats(trace: SolutionTrace) -> dict[int, dict]:
    """Per-agent {'min', 'mean', 'count'} over consecutive same-agent
    gaps; min/mean are None with fewer than two events. The mean sums
    the gaps in event order."""
    log = trace.events
    out = {}
    for i in range(trace.n):
        mine = log.agent == i
        gaps = log.gap[mine]
        gaps = gaps[~np.isnan(gaps)].tolist()
        out[i] = {
            "min": min(gaps) if gaps else None,
            "mean": (sum(gaps) / len(gaps)) if gaps else None,
            "count": int(mine.sum()),
        }
    return out


def jump_storage_change(trace: SolutionTrace) -> np.ndarray:
    """Per-event ΔU = U(post) - U(pre) of the run's storage function, its
    scheme's under its feedback, from the rows around the jumps that one
    walk over the trace's blocks rebuilds (:meth:`SolutionTrace.chunks`),
    in chunks of ``STORAGE_BLOCK_ROWS`` samples. Each ΔU depends on its
    own rows only, so the chunks do not change a bit of it."""
    scheme, feedback = trace.scenario.scheme, trace.scenario.feedback
    return np.concatenate([scheme.storage(post, feedback) - scheme.storage(pre, feedback)
                           for _, _, pre, post in trace.chunks(jumps=True)])


def _distance(x: np.ndarray, origin: bool) -> np.ndarray:
    """Each row's distance to the target set (consensus_metrics)."""
    return np.linalg.norm(x if origin else x - x.mean(axis=1, keepdims=True), axis=1)


def final_metrics(trace: SolutionTrace) -> dict:
    """The final worst deviation from the point of the target set the run
    aims at, the final distance to that set, and the initial mean, read
    from the x of the stored rows at t = 0 and at the end, which no jump
    changes: no block is replayed.
    For the consensus schemes the set is the agreement subspace and the
    point the initial mean; for the single plant (kind ``single``) both
    are the origin."""
    n, origin = trace.n, trace.scenario.scheme.kind == "single"
    mean0 = float(trace.rows[0, :n].mean())
    last = trace.rows[-1:, :n]
    return {
        "final_max_deviation": float(np.abs(last[0] - (0.0 if origin else mean0)).max()),
        "final_distance": float(_distance(last, origin)[0]),
        "initial_mean": mean0,
    }


def consensus_metrics(trace: SolutionTrace) -> dict:
    """:func:`final_metrics` and the distance of each sample to the
    target set. The series is filled from the trace's chunks of
    ``STORAGE_BLOCK_ROWS`` samples; each sample's value depends on its own
    row only, so the chunks do not change a bit of it."""
    origin = trace.scenario.scheme.kind == "single"
    dist = np.empty(trace.sample_count)
    lo = 0
    for _, rows in trace.chunks():
        dist[lo : lo + rows.shape[0]] = _distance(rows[:, : trace.n], origin)
        lo += rows.shape[0]
    return {"distance_series": dist, **final_metrics(trace)}
