"""Named scenario catalog.

Each preset pins the benchmark parameters: 8-agent topology, sigma_i
0.5, a 0.1, noise bound 1e-4 held at 10 kHz, x(0) = (8, 6, 4, 2, -2,
-4, -6, -8), horizon 8 s, step 1e-4 s. Presets differ in trigger family
and in the flow-set offset c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Scenario
from .etm import (
    BerneburgParams,
    BerneburgScheme,
    DolkParams,
    DolkScheme,
    GarciaParams,
    GarciaScheme,
    SingleParams,
    SingleSystemScheme,
)
from .graph import benchmark_topology
from .signals import NoiseSignal

__all__ = ["Preset", "PRESETS", "build_preset"]

DEFAULT_SEED = 2024
W_BAR = 1e-4
SAMPLE_RATE = 1e4
STEP = 1e-4
T_FINAL = 8.0
X0 = np.array([8.0, 6.0, 4.0, 2.0, -2.0, -4.0, -6.0, -8.0])


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    # builder returns (sub_name, Scenario) pairs; single-run presets
    # yield one pair with sub_name None
    build: Callable[[int], list[tuple[str | None, Scenario]]]


def _noise(seed: int, n: int = 8) -> NoiseSignal:
    return NoiseSignal(seed=seed, amplitude=np.full(n, W_BAR), sample_rate=SAMPLE_RATE, n=n)


def _consensus_scenario(scheme, seed: int) -> Scenario:
    return Scenario(
        scheme=scheme,
        noise=_noise(seed),
        x0=X0.copy(),
        graph=benchmark_topology(),
        t_final=T_FINAL,
        step=STEP,
    )


def _garcia(c: float, allow_zeno: bool, seed: int, form: str = "modified") -> Scenario:
    params = GarciaParams(a=0.1, sigma=0.5, c=c, w_bar=W_BAR, mode="static", form=form)
    scheme = GarciaScheme(benchmark_topology(), params, allow_zeno=allow_zeno)
    return _consensus_scenario(scheme, seed)


def _dolk(c: float, seed: int, reset_mode: str = "standard") -> Scenario:
    params = DolkParams(
        a=0.1, varrho=0.05, mu=0.05, alpha=0.5, lam=0.2, c=c,
        theta=0.0, w_bar=W_BAR, eps_eta=0.05, reset_mode=reset_mode,
        sigma_form="original",
    )
    scheme = DolkScheme(benchmark_topology(), params)
    return _consensus_scenario(scheme, seed)


def _berneburg(seed: int) -> Scenario:
    params = BerneburgParams(sigma=0.5, c=2e-6, w_bar=W_BAR, mode="static")
    scheme = BerneburgScheme(benchmark_topology(), params)
    return _consensus_scenario(scheme, seed)


def _single_scalar(seed: int) -> Scenario:
    # scalar plant xdot = u, u = -(x + e + w_hat); delta from the
    # quadratic decrease margin, beta already composed on 2s
    scheme = SingleSystemScheme(
        SingleParams(delta_coef=0.5 / 8.0, beta_coef=2.0, c=1e-7, w_bar=W_BAR, mode="static")
    )
    return Scenario(
        scheme=scheme,
        noise=_noise(seed, n=1),
        x0=np.array([4.0]),
        feedback=np.array([[1.0]]),
        t_final=T_FINAL,
        step=STEP,
    )


PRESETS: dict[str, Preset] = {
    "garcia-c0": Preset(
        "garcia-c0",
        "static quadratic trigger, c=0 (no flow-set offset): inter-event "
        "times collapse under noise",
        lambda seed: [(None, _garcia(0.0, allow_zeno=True, seed=seed))],
    ),
    "garcia-c2e-6": Preset(
        "garcia-c2e-6",
        "static quadratic trigger, c=2e-6 above the robustness bound: "
        "Zeno-free practical consensus",
        lambda seed: [(None, _garcia(2e-6, allow_zeno=False, seed=seed))],
    ),
    "dolk-c0": Preset(
        "dolk-c0",
        "timer-regularized dynamic trigger, c=0: dwell time enforced by "
        "the clock gate",
        lambda seed: [(None, _dolk(0.0, seed))],
    ),
    "dolk-c1e-7": Preset(
        "dolk-c1e-7",
        "timer-regularized dynamic trigger with small offset c=1e-7",
        lambda seed: [(None, _dolk(1e-7, seed))],
    ),
    "dolk-remark5": Preset(
        "dolk-remark5",
        "timer-regularized trigger with the noise-aware eta increase at "
        "transmissions",
        lambda seed: [(None, _dolk(0.0, seed, reset_mode="remark5"))],
    ),
    "berneburg-demo": Preset(
        "berneburg-demo",
        "weight-balanced digraph trigger with edge-split weights, c=2e-6",
        lambda seed: [(None, _berneburg(seed))],
    ),
    "single-scalar-demo": Preset(
        "single-scalar-demo",
        "scalar single-plant trigger with quadratic delta/beta coefficients",
        lambda seed: [(None, _single_scalar(seed))],
    ),
    "table1-contrast": Preset(
        "table1-contrast",
        "noise-naive vs noise-robust static trigger side by side",
        lambda seed: [
            ("original", _garcia(0.0, allow_zeno=True, seed=seed, form="original")),
            ("modified", _garcia(2e-6, allow_zeno=False, seed=seed, form="modified")),
        ],
    ),
}


def build_preset(name: str, seed: int | None = None) -> list[tuple[str | None, Scenario]]:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return PRESETS[name].build(DEFAULT_SEED if seed is None else seed)
