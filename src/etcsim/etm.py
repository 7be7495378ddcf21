"""Event-triggering mechanisms.

Every scheme is one quadratic trigger per agent,

    psi_i = a_i d_i^2 + c_i - g_i e~_i^2,  g_i = 0 while tau_i < tau_miet_i, else b_i,

where d is the control input u (consensus schemes) or the measured plant
output y~ (single plant), e~ the measured error and tau the agent's
clock. A jump is commanded when psi falls below zero (static rule) or
when the auxiliary variable eta is exhausted as well (dynamic rule). The
offset c_i enlarges the flow set; under measurement noise bounded by
w_bar, Zeno-freeness requires c_i > beta_i(2 w_bar) = b_i (2 w_bar_i)^2
unless a timer gate (tau_miet_i > 0) enforces a dwell time instead.

The scheme families differ only in how they derive a, b and the gate
from their parameters: each is a constructor of :class:`QuadraticTrigger`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.integrate import solve_ivp

from .graph import Graph
from .hybrid import HybridState

__all__ = [
    "GarciaParams",
    "DolkParams",
    "BerneburgParams",
    "SingleParams",
    "QuadraticTrigger",
    "GarciaScheme",
    "DolkScheme",
    "BerneburgScheme",
    "SingleSystemScheme",
    "ZenoGuaranteeError",
    "tau_miet",
    "gamma_sigma_from",
    "phi_solve",
    "PhiSolution",
]

Mode = Literal["static", "dynamic"]


class ZenoGuaranteeError(ValueError):
    """Raised when c_i is below the Zeno-freeness bound and the
    configuration did not explicitly allow it."""


def _per_agent(value, n: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(n, arr[0])
    if arr.size != n:
        raise ValueError(f"expected scalar or length-{n} value, got size {arr.size}")
    return arr


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class GarciaParams:
    """Quadratic consensus trigger on undirected graphs.

    beta_i(s) = (1/a) N_i s^2, delta_i = sigma_i (1 - 2 a N_i) u_i^2,
    with N_i the neighbor count of agent i.
    """

    a: float
    sigma: float | np.ndarray = 0.5
    c: float | np.ndarray = 0.0
    theta: float | np.ndarray = 0.0
    w_bar: float | np.ndarray = 0.0
    mode: Mode = "static"
    eps_eta: float = 0.05  # linear eta-decay rate (dynamic mode)
    form: Literal["modified", "original"] = "modified"


@dataclass(frozen=True)
class DolkParams:
    """Timer-regularized dynamic consensus trigger.

    Derived per agent: gamma_i = sqrt(N_i/a + mu_i), sigma_i from the
    chosen form, and the dwell time tau_miet_i from the closed form.
    The timer gate makes psi nonnegative below tau_miet_i, so no lower
    bound on c_i is needed.
    """

    a: float
    varrho: float = 0.05
    mu: float | np.ndarray = 0.05
    alpha: float | np.ndarray = 0.5
    lam: float | np.ndarray = 0.2
    c: float | np.ndarray = 0.0
    theta: float | np.ndarray = 0.0
    w_bar: float | np.ndarray = 0.0
    eps_eta: float = 0.05
    reset_mode: Literal["standard", "remark5"] = "standard"
    # 'original' reproduces the published sigma_i = (1-varrho)(1-a N_i);
    # 'modified' uses (1-varrho)(1-2 a N_i).
    sigma_form: Literal["original", "modified"] = "original"


@dataclass(frozen=True)
class BerneburgParams:
    """Quadratic consensus trigger for weight-balanced digraphs.

    rho_edge maps directed edges (i, j) to the positive split weights;
    None selects the canonical default 0.5 / d_i_out, which yields
    theta_i = 0.5 on unit-weight graphs.
    """

    rho_edge: dict[tuple[int, int], float] | None = None
    sigma: float | np.ndarray = 0.5
    c: float | np.ndarray = 0.0
    theta: float | np.ndarray = 0.0
    w_bar: float | np.ndarray = 0.0
    mode: Mode = "static"
    eps_eta: float = 0.05


@dataclass(frozen=True)
class SingleParams:
    """Quadratic single-plant trigger: psi = delta_coef y~^2 - beta_coef e~^2 + c.

    beta_coef is already composed on 2s, so the Zeno-freeness bound is
    beta(2 w_bar) = beta_coef (2 w_bar)^2.
    """

    delta_coef: float
    beta_coef: float
    c: float = 0.0
    w_bar: float = 0.0
    theta: float = 0.0
    mode: Mode = "static"
    eps_eta: float = 0.05


# ---------------------------------------------------------------------------
# timer machinery


def tau_miet(alpha: float, sigma: float, gamma: float, lam: float) -> float:
    """Dwell time at which the certificate gain phi decays from 1/lam
    to lam. Positive for all valid parameters."""
    if not (0.0 < alpha < 1.0 and 0.0 < sigma < 1.0 and 0.0 < lam <= 1.0):
        raise ValueError(f"alpha={alpha}, sigma={sigma}, lam={lam} out of domain")
    if gamma <= 0.0:
        raise ValueError(f"gamma={gamma} must be positive")
    r = math.sqrt(alpha * sigma)
    return -(r / gamma) * math.atan((lam**2 - 1.0) * r / (lam * (alpha * sigma + 1.0)))


def gamma_sigma_from(
    a: float, mu_i: float, varrho: float, n_i: int,
    sigma_form: Literal["original", "modified"] = "original",
) -> tuple[float, float]:
    """Derived constants gamma_i and sigma_i of the timer scheme."""
    if not 0.0 < a < 1.0 / (2.0 * n_i):
        raise ValueError(f"a={a} must lie in (0, 1/(2*{n_i}))")
    if mu_i <= 0.0:
        raise ValueError(f"mu={mu_i} must be positive")
    if not 0.0 < varrho < 1.0:
        raise ValueError(f"varrho={varrho} must lie in (0,1)")
    gamma = math.sqrt(n_i / a + mu_i)
    factor = 1.0 if sigma_form == "original" else 2.0
    sigma = (1.0 - varrho) * (1.0 - factor * a * n_i)
    return gamma, sigma


@dataclass(frozen=True)
class PhiSolution:
    """Sampled certificate gain phi on [0, tau_end]; ``at`` holds phi = lam
    from tau_end on."""

    taus: np.ndarray
    phis: np.ndarray
    tau_end: float  # numerically detected time at which phi reaches lam
    lam: float

    def __call__(self, tau) -> np.ndarray:
        return np.interp(tau, self.taus, self.phis)

    def at(self, tau) -> np.ndarray:
        return np.where(np.asarray(tau) >= self.tau_end, self.lam, self(tau))


def phi_solve(alpha: float, sigma: float, gamma: float, lam: float, samples: int = 2001) -> PhiSolution:
    """Integrate d(phi)/d(tau) = -gamma (phi^2/(alpha sigma) + 1) from
    phi(0) = 1/lam down to phi = lam.

    Used for certificate monitoring only, never in the control loop.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < sigma < 1.0 and 0.0 < lam < 1.0):
        raise ValueError(f"alpha={alpha}, sigma={sigma}, lam={lam} out of domain")
    if gamma <= 0.0:
        raise ValueError(f"gamma={gamma} must be positive")

    def rhs(_t, phi):
        return -gamma * (phi**2 / (alpha * sigma) + 1.0)

    def hit_lam(_t, phi):
        return phi[0] - lam

    hit_lam.terminal = True
    hit_lam.direction = -1
    horizon = 10.0 * tau_miet(alpha, sigma, gamma, lam)
    sol = solve_ivp(rhs, (0.0, horizon), [1.0 / lam], events=hit_lam,
                    rtol=1e-10, atol=1e-12, dense_output=True, max_step=horizon / 100)
    if not sol.success or sol.t_events[0].size == 0:
        raise RuntimeError(f"phi integration failed: {sol.message}")
    tau_end = float(sol.t_events[0][0])
    taus = np.linspace(0.0, tau_end, samples)
    phis = sol.sol(taus)[0]
    return PhiSolution(taus=taus, phis=phis, tau_end=tau_end, lam=lam)


# ---------------------------------------------------------------------------
# the engine-facing trigger


@dataclass(frozen=True, eq=False)
class QuadraticTrigger:
    """Per-agent coefficients of the quadratic trigger psi (module
    docstring), the eta dynamics d(eta)/dt = psi - eps_eta eta of the
    dynamic rule, and the eta reset at a jump.

    ``kind``, ``params``, ``derived`` and ``phi`` are what the manifest
    and the storage monitor need; the engine reads only the arrays.
    """

    kind: str  # config name of the family: garcia | dolk | berneburg | single
    params: object
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    theta: np.ndarray
    w_bar: np.ndarray
    tau_miet: np.ndarray  # dwell time gating the error term; 0 = no gate
    reset_gain: np.ndarray  # eta gain on the squared error excess over 2 w_bar
    mode: Mode
    eps_eta: float
    allow_zeno: bool
    derived: dict  # family-specific per-agent constants, echoed in the manifest
    drive: Literal["u", "y"] = "u"  # d = u (consensus) or d = y~ (single plant)
    phi: tuple[PhiSolution, ...] = ()  # certificate gains of the timer scheme

    def __post_init__(self) -> None:
        bad = np.flatnonzero(self.below_bound())
        if bad.size and not self.allow_zeno:
            i = int(bad[0])
            raise ZenoGuaranteeError(
                f"c[{i}]={self.c[i]:g} does not exceed the Zeno-freeness bound "
                f"beta_i(2*w_bar)={self.c_lower_bound()[i]:g}; pass allow_zeno=True to override"
            )

    @property
    def n(self) -> int:
        return self.a.size

    def psi_vec(self, u, e_tilde, tau, y_tilde) -> np.ndarray:
        d = u if self.drive == "u" else y_tilde
        g = np.where(tau < self.tau_miet, 0.0, self.b)
        return self.a * d * d + self.c - g * e_tilde * e_tilde

    def c_lower_bound(self) -> np.ndarray:
        """Per-agent Zeno-freeness bound beta_i(2 w_bar_i); 0 where the
        timer gate enforces the dwell time instead."""
        return np.where(self.tau_miet > 0.0, 0.0, self.b * (2.0 * self.w_bar) ** 2)

    def below_bound(self) -> np.ndarray:
        """Mask of agents whose c_i does not exceed beta_i(2 w_bar_i);
        agents with a zero bound only need c_i >= 0."""
        bound = self.c_lower_bound()
        return (self.c < 0.0) | ((bound > 0.0) & (self.c <= bound))

    def eta_reset(self, eta_i: float, e_tilde_i: float, agent: int) -> float:
        """eta after the agent's jump: raised by the conservative lower
        estimate of the dropped error term (zero gain: unchanged). Works
        on Python floats; the engine calls it once per jump."""
        excess = max(abs(e_tilde_i) - 2.0 * self.w_bar.item(agent), 0.0)
        return eta_i + self.reset_gain.item(agent) * (excess * excess)

    def storage(self, state, feedback: np.ndarray):
        """U = x'Mx/2 + sum_i gamma_i phi_i(tau_i) e_i^2 + sum_i eta_i, with M
        the scenario's feedback matrix; the certificate term is present
        only for the timer scheme, the one with phi tables.

        ``state`` is a HybridState or one (5n,) row, giving a float, or an
        (m, 5n) block of rows, giving one value per row. Each row's value
        does not depend on the other rows of the block."""
        rows = state.row if isinstance(state, HybridState) else np.asarray(state, dtype=float)
        z = rows.reshape(-1, 5, self.n)
        x, e, eta, tau = z[:, 0], z[:, 1], z[:, 3], z[:, 4]
        cert = np.zeros(z.shape[0])
        for i, p in enumerate(self.phi):
            cert += self.derived["gamma"][i] * p.at(tau[:, i]) * e[:, i] ** 2
        u = 0.5 * np.einsum("mi,ij,mj->m", x, feedback, x) + cert + eta.sum(axis=1)
        return float(u[0]) if rows.ndim == 1 else u

    def derived_constants(self) -> dict:
        out = {k: np.asarray(v).tolist() for k, v in self.derived.items()}
        out["c_lower_bound"] = self.c_lower_bound().tolist()
        return out


def _trigger(kind: str, params, n: int, a: np.ndarray, b: np.ndarray, allow_zeno: bool,
             derived: dict, mode: Mode | None = None, **kw) -> QuadraticTrigger:
    """Assemble the record; c, theta, w_bar and eps_eta come from params."""
    zeros = np.zeros(n)
    kw = {"tau_miet": zeros, "reset_gain": zeros, **kw}
    return QuadraticTrigger(
        kind=kind, params=params, a=a, b=b, c=_per_agent(params.c, n),
        theta=_per_agent(params.theta, n), w_bar=_per_agent(params.w_bar, n),
        mode=mode or params.mode, eps_eta=params.eps_eta, allow_zeno=allow_zeno,
        derived=derived, **kw,
    )


def GarciaScheme(graph: Graph, params: GarciaParams, allow_zeno: bool = False) -> QuadraticTrigger:
    """a_i = sigma_i (1 - k a N_i), k = 2 (modified) or 1 (original); b_i = N_i / a."""
    n_i = graph.neighbor_counts.astype(float)
    sigma = _per_agent(params.sigma, graph.n)
    if (2.0 * params.a * n_i >= 1.0).any():
        raise ValueError(f"a={params.a} violates a < 1/(2 max_i N_i)")
    if params.form == "original" and not allow_zeno:
        raise ZenoGuaranteeError("the noise-naive trigger form carries no Zeno guarantee; "
                                 "pass allow_zeno=True")
    factor = 2.0 if params.form == "modified" else 1.0
    a = sigma * (1.0 - factor * params.a * n_i)
    b = n_i / params.a
    return _trigger("garcia", params, graph.n, a, b, allow_zeno,
                    {"N_i": n_i, "u_coef": a, "e_coef": b})


def DolkScheme(graph: Graph, params: DolkParams, allow_zeno: bool = False) -> QuadraticTrigger:
    """a_i = (1 - alpha_i) sigma_i, b_i = gamma_i^2 (lam_i^2/(alpha_i sigma_i) + 1),
    gated below the closed-form dwell time tau_miet_i."""
    n = graph.n
    n_i = graph.neighbor_counts.astype(float)
    mu, alpha, lam = (_per_agent(v, n) for v in (params.mu, params.alpha, params.lam))
    pairs = [gamma_sigma_from(params.a, mu[i], params.varrho, int(n_i[i]), params.sigma_form)
             for i in range(n)]
    gamma, sigma = (np.array(v) for v in zip(*pairs))
    tm = np.array([tau_miet(alpha[i], sigma[i], gamma[i], lam[i]) for i in range(n)])
    b = gamma**2 * (lam**2 / (alpha * sigma) + 1.0)
    reset_gain = np.zeros(n) if params.reset_mode == "standard" else gamma * lam
    return _trigger(
        "dolk", params, n, (1.0 - alpha) * sigma, b, allow_zeno,
        {"N_i": n_i, "gamma": gamma, "sigma": sigma, "tau_miet": tm, "e_coef": b},
        mode="dynamic", tau_miet=tm, reset_gain=reset_gain,
        phi=tuple(phi_solve(alpha[i], sigma[i], gamma[i], lam[i]) for i in range(n)),
    )


def BerneburgScheme(graph: Graph, params: BerneburgParams,
                    allow_zeno: bool = False) -> QuadraticTrigger:
    """a_i = sigma_i (1 - vartheta_i), b_i = d_i^2 / vartheta_i + gamma_i, with
    vartheta_i and gamma_i summed from the edge split weights."""
    n = graph.n
    adj = graph.adjacency
    rho = params.rho_edge
    if rho is None:
        out_deg = graph.out_degrees
        rho = {(i, j): 0.5 / out_deg[i] for i in range(n) for j in graph.out_neighbors(i)}
    vartheta = np.zeros(n)
    gamma = np.zeros(n)
    for i in range(n):
        for j in graph.out_neighbors(i):
            vartheta[i] += adj[i, j] * rho[(i, int(j))]
        for j in graph.in_neighbors(i):
            gamma[i] += adj[j, i] / rho[(int(j), i)]
    if ((vartheta <= 0.0) | (vartheta >= 1.0)).any():
        raise ValueError(f"vartheta={vartheta} must lie in (0,1); adjust rho_edge")
    degree = graph.out_degrees
    b = degree**2 / vartheta + gamma
    return _trigger("berneburg", params, n, _per_agent(params.sigma, n) * (1.0 - vartheta), b,
                    allow_zeno, {"degree": degree, "vartheta": vartheta, "gamma": gamma,
                                 "e_coef": b})


def SingleSystemScheme(params: SingleParams, allow_zeno: bool = False) -> QuadraticTrigger:
    """One plant, driven by its measured output: a = delta_coef, b = beta_coef."""
    return _trigger("single", params, 1, np.array([params.delta_coef]),
                    np.array([params.beta_coef]), allow_zeno, {}, drive="y")
