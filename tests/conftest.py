import numpy as np
import pytest

from fockgate import HilbertSpace, RamanParams


@pytest.fixture
def params():
    return RamanParams(g=1.0, omega_l=0.1, delta=20.0)


@pytest.fixture
def space():
    return HilbertSpace(2, 12)


@pytest.fixture
def space3():
    return HilbertSpace(3, 12)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pair_amplitudes(rng, count=1):
    z = rng.normal(size=(count, 4))
    alphas = z[:, 0] + 1j * z[:, 1]
    betas = z[:, 2] + 1j * z[:, 3]
    norms = np.sqrt(np.abs(alphas) ** 2 + np.abs(betas) ** 2)
    return alphas / norms, betas / norms


def dense_pulse(gp, p, space, model, angle):
    """One pulse of ``gp`` from the dense builders: the oracle for the block path."""
    from fockgate import decompose_effective, effective_hamiltonian, full_hamiltonian

    if model == "ideal":
        parts = decompose_effective(p, space, gp.m, angle)
        return parts.pair_energy + parts.pair_coupling
    if model == "effective":
        return effective_hamiltonian(p, space, gp.m, angle)
    return full_hamiltonian(p, space, gp.m, angle)
