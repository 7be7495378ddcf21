"""Hybrid closed-loop state and the jump map.

The concrete plant is the single-integrator consensus loop with
zero-order hold: each agent's state feeds back through the graph
Laplacian applied to the latest transmitted (noisy) outputs. Along a
flow interval the sampled output is held, so the network-induced error
evolves as the exact negative of the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["HybridState", "HybridTime", "JumpEvent", "apply_jump"]


@dataclass
class HybridState:
    """Full state (x, e, w_hat, eta, tau) of the networked closed loop.

    x: agent states; e: ideal network-induced errors (sampled output
    minus current output, noise-free); what_w: noise values latched at
    each agent's last transmission; eta: dynamic-trigger variables;
    tau: per-agent clocks (used by timer-regularized schemes only).
    """

    x: np.ndarray
    e: np.ndarray
    what_w: np.ndarray
    eta: np.ndarray
    tau: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def copy(self) -> "HybridState":
        return HybridState(
            self.x.copy(), self.e.copy(), self.what_w.copy(), self.eta.copy(), self.tau.copy()
        )

    def as_row(self) -> np.ndarray:
        """Flat (5n,) vector: x, e, w_hat, eta, tau."""
        return np.concatenate([self.x, self.e, self.what_w, self.eta, self.tau])

    @classmethod
    def from_row(cls, row: np.ndarray) -> "HybridState":
        n = row.shape[0] // 5
        return cls(
            row[0:n].copy(),
            row[n : 2 * n].copy(),
            row[2 * n : 3 * n].copy(),
            row[3 * n : 4 * n].copy(),
            row[4 * n : 5 * n].copy(),
        )


class HybridTime(NamedTuple):
    """Hybrid time instant: continuous time t and jump counter j."""

    t: float
    j: int


@dataclass
class JumpEvent:
    """One transmission: agent broadcast of its noisy output."""

    time: HybridTime
    agent: int
    pre_state: HybridState
    post_state: HybridState
    psi_value: float
    inter_event_gap: float | None  # None for the agent's first jump


def apply_jump(state: HybridState, agent: int, w: np.ndarray, scheme) -> None:
    """Transmission by one agent, in place: reset its error, latch its
    noise, zero its clock, and apply the scheme's eta reset. All other
    components (and x entirely) are unchanged."""
    if not 0 <= agent < state.n:
        raise IndexError(f"agent {agent} out of range")
    e_tilde_i = state.e[agent] + state.what_w[agent] - w[agent]
    state.eta[agent] = scheme.eta_reset(state.eta[agent], e_tilde_i, agent)
    state.e[agent] = 0.0
    state.what_w[agent] = w[agent]
    state.tau[agent] = 0.0
