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

from dataclasses import dataclass
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .graph import Graph

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
    "phi",
    "trigger_value",
]

Mode = Literal["static", "dynamic"]
SigmaForm = Literal["original", "modified"]


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


def _reject_unknown_choices(params) -> None:
    """Raise ValueError for a string field whose value is outside its Literal."""
    for name, hint in get_type_hints(type(params)).items():
        value = getattr(params, name)
        if get_origin(hint) is Literal and value not in get_args(hint):
            raise ValueError(f"{name}={value!r} is not one of {get_args(hint)}")


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

    def __post_init__(self) -> None:
        _reject_unknown_choices(self)


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
    sigma_form: SigmaForm = "original"

    def __post_init__(self) -> None:
        _reject_unknown_choices(self)


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

    def __post_init__(self) -> None:
        _reject_unknown_choices(self)


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

    def __post_init__(self) -> None:
        _reject_unknown_choices(self)


# ---------------------------------------------------------------------------
# timer machinery


def _timer(alpha, sigma, gamma, lam) -> tuple[np.ndarray, np.ndarray]:
    """r = sqrt(alpha sigma) and the dwell time tau_miet of the certificate
    gain phi, elementwise, after the domain checks."""
    alpha, sigma, gamma, lam = (np.asarray(v, dtype=float) for v in (alpha, sigma, gamma, lam))
    if not np.all((0.0 < alpha) & (alpha < 1.0) & (0.0 < sigma) & (sigma < 1.0)
                  & (0.0 < lam) & (lam <= 1.0)):
        raise ValueError(f"alpha={alpha}, sigma={sigma}, lam={lam} out of domain")
    if not np.all(gamma > 0.0):
        raise ValueError(f"gamma={gamma} must be positive")
    r = np.sqrt(alpha * sigma)
    return r, -(r / gamma) * np.arctan((lam**2 - 1.0) * r / (lam * (alpha * sigma + 1.0)))


def tau_miet(alpha, sigma, gamma, lam) -> np.ndarray:
    """Dwell time at which the certificate gain phi decays from 1/lam
    to lam, elementwise. Positive for all valid parameters with lam < 1."""
    return _timer(alpha, sigma, gamma, lam)[1]


def gamma_sigma_from(a: float, mu_i, varrho: float, n_i,
                     sigma_form: SigmaForm = "original") -> tuple[np.ndarray, np.ndarray]:
    """Derived constants gamma_i and sigma_i of the timer scheme,
    elementwise over the neighbor counts n_i and the gains mu_i."""
    n_i, mu_i = np.asarray(n_i, dtype=float), np.asarray(mu_i, dtype=float)
    if not np.all((0.0 < a) & (a < 1.0 / (2.0 * n_i))):
        raise ValueError(f"a={a} must lie in (0, 1/(2*N_i)) for N_i={n_i}")
    if not np.all(mu_i > 0.0):
        raise ValueError(f"mu={mu_i} must be positive")
    if not 0.0 < varrho < 1.0:
        raise ValueError(f"varrho={varrho} must lie in (0,1)")
    gamma = np.sqrt(n_i / a + mu_i)
    factor = 1.0 if sigma_form == "original" else 2.0
    sigma = (1.0 - varrho) * (1.0 - factor * a * n_i)
    return gamma, sigma


def phi(tau, r, gamma, lam, dwell) -> np.ndarray:
    """Certificate gain phi(tau), elementwise: the exact solution of
    d(phi)/d(tau) = -gamma (phi^2/(alpha sigma) + 1) from phi(0) = 1/lam,

        phi(tau) = r tan(arctan(1/(lam r)) - gamma tau / r),

    which reaches lam at the dwell time, and phi = lam from ``dwell`` on.
    ``r`` = sqrt(alpha sigma) and ``dwell`` = tau_miet(alpha, sigma,
    gamma, lam). Used for certificate monitoring only, never in the
    control loop."""
    tau = np.asarray(tau, dtype=float)
    return np.where(tau < dwell, r * np.tan(np.arctan(1.0 / (lam * r)) - gamma * tau / r), lam)


# ---------------------------------------------------------------------------
# the engine-facing trigger


def trigger_value(a, b, c, tau_miet, d, e_tilde, tau):
    """psi = a d^2 + c - g e~^2 with g = b once tau reaches tau_miet, else 0.

    Plain arithmetic: the arguments are either whole per-agent arrays
    (broadcasting over leading axes of d, e_tilde and tau) or one agent's
    floats, and both give the same bits."""
    return a * d * d + c - b * (tau >= tau_miet) * e_tilde * e_tilde


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
    phi: tuple[np.ndarray, ...] = ()  # (r, gamma, lam) of the timer scheme's certificate gain

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

    def driver(self, u, x, w):
        """The trigger's d: u for consensus, else y~ = x + w (formed only then)."""
        return u if self.drive == "u" else x + w

    def psi_vec(self, u, e_tilde, tau, x, w) -> np.ndarray:
        d = self.driver(u, x, w)
        return trigger_value(self.a, self.b, self.c, self.tau_miet, d, e_tilde, tau)

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

    def storage(self, rows, feedback: np.ndarray):
        """U = x'Mx/2 + sum_i gamma_i phi_i(tau_i) e_i^2 + sum_i eta_i, with M
        the scenario's feedback matrix; the certificate term is present
        only for the timer scheme, the one with certificate gains.

        ``rows`` is one (5n,) row, giving a float, or an (m, 5n) block of
        rows, giving one value per row. Each row's value does not depend
        on the other rows of the block."""
        rows = np.asarray(rows, dtype=float)
        z = rows.reshape(-1, 5, self.n)
        x, e, eta, tau = z[:, 0], z[:, 1], z[:, 3], z[:, 4]
        cert = 0.0
        if self.phi:
            r, gamma, lam = self.phi
            cert = (gamma * phi(tau, r, gamma, lam, self.tau_miet) * e**2).sum(axis=1)
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
    gamma, sigma = gamma_sigma_from(params.a, mu, params.varrho, n_i, params.sigma_form)
    r, tm = _timer(alpha, sigma, gamma, lam)
    b = gamma**2 * (lam**2 / (alpha * sigma) + 1.0)
    reset_gain = np.zeros(n) if params.reset_mode == "standard" else gamma * lam
    return _trigger(
        "dolk", params, n, (1.0 - alpha) * sigma, b, allow_zeno,
        {"N_i": n_i, "gamma": gamma, "sigma": sigma, "tau_miet": tm, "e_coef": b},
        mode="dynamic", tau_miet=tm, reset_gain=reset_gain, phi=(r, gamma, lam),
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
