import time

import pytest

from etcsim.engine import simulate
from etcsim.presets import build_preset


class PresetRunner:
    """Session cache of simulated presets with wall-clock accounting."""

    def __init__(self):
        self.cache = {}
        self.elapsed = {}

    def __call__(self, name):
        if name not in self.cache:
            t0 = time.perf_counter()
            self.cache[name] = [(sub, sc, simulate(sc)) for sub, sc in build_preset(name)]
            self.elapsed[name] = time.perf_counter() - t0
        return self.cache[name]


@pytest.fixture(scope="session")
def preset_runs():
    return PresetRunner()


def _phi_rk4(alpha, sigma, gamma, lam, h):
    """Hand-written classical RK4 on d(phi)/d(tau) = -gamma (phi^2/(alpha sigma) + 1)
    from phi(0) = 1/lam with fixed step h. Yields (tau, phi) after every
    step, until phi has fallen to lam or below."""

    def f(phi):
        return -gamma * (phi**2 / (alpha * sigma) + 1.0)

    phi, k = 1.0 / lam, 0
    while phi > lam:
        k1 = f(phi)
        k2 = f(phi + 0.5 * h * k1)
        k3 = f(phi + 0.5 * h * k2)
        k4 = f(phi + h * k3)
        phi += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        k += 1
        yield k * h, phi


def _phi_rk4_crossing(alpha, sigma, gamma, lam, h):
    """Time at which the RK4 solution reaches lam, located inside the
    last step by linear interpolation."""
    prev_tau, prev_phi = 0.0, 1.0 / lam
    for tau, phi in _phi_rk4(alpha, sigma, gamma, lam, h):
        if phi <= lam:
            return prev_tau + h * (prev_phi - lam) / (prev_phi - phi)
        prev_tau, prev_phi = tau, phi


@pytest.fixture(scope="session")
def phi_rk4():
    """The RK4 oracle of the certificate gain: (steps, crossing)."""
    return _phi_rk4, _phi_rk4_crossing
