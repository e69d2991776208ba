import pytest

from kaoneraser import PhysicalConstants, build_amplitude_model
from kaoneraser.core import FloatMath


@pytest.fixture(scope="session")
def k():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def model(k):
    return build_amplitude_model(k)


def free_propagation(tau, k, m=FloatMath) -> tuple:
    """Free-propagation factors (f_S, f_L) = (e^{-G_S tau/2},
    e^{-i dm tau - G_L tau/2}) on a kaon's (c_S, c_L), the global phase
    dropped: the tests' reference for unconditioned evolution from tau = 0,
    which the package itself never runs.  With ``ArrayMath`` as ``m``,
    ``tau`` may be an array."""
    f_S = m.exp(-0.5 * k.gamma_S * tau)
    f_L = m.cexp(-1j * k.delta_m * tau) * m.exp(-0.5 * k.gamma_L * tau)
    return f_S, f_L
