import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fockgate import (
    HilbertSpace,
    RamanParams,
    annihilation,
    creation,
    decompose_effective,
    effective_hamiltonian,
    full_hamiltonian,
    multiquantum_hamiltonian,
    selective_hamiltonian,
)
from fockgate.spaces import hermiticity_defect, max_abs


def test_raman_params_validation():
    with pytest.raises(ValueError):
        RamanParams(g=1.0, omega_l=0.1, delta=0.0)
    with pytest.raises(ValueError):
        RamanParams(g=1.0, omega_l=-0.1, delta=20.0)
    with pytest.raises(ValueError):
        full_hamiltonian(RamanParams(g=1.0, omega_l=0.1, delta=20.0), HilbertSpace(3, 8), -1)
    for bad in (dict(g=np.nan), dict(omega_l=np.inf), dict(delta=np.nan), dict(delta=-np.inf)):
        with pytest.raises(ValueError, match="finite"):
            RamanParams(**{"g": 1.0, "omega_l": 0.1, "delta": 20.0, **bad})


def test_selectivity_ratio_warning():
    with pytest.warns(UserWarning, match="selectivity ratio"):
        RamanParams(g=1.0, omega_l=0.5, delta=20.0)


def test_derived_coefficients():
    p = RamanParams(g=1.0, omega_l=0.1, delta=10.0)
    assert p.coupling == pytest.approx(0.01)
    assert p.dispersive_rate == pytest.approx(0.1)
    assert p.engineered_shift(1) == pytest.approx((1.0 - 0.01) / 10.0)


# ---- three-level builder -------------------------------------------------


@pytest.mark.filterwarnings("ignore:selectivity ratio")
def test_full_couplings_off(space3):
    p = RamanParams(g=0.0, omega_l=0.0, delta=20.0)  # the engineered shift is 0 too
    H = full_hamiltonian(p, space3, 1)
    expected = np.zeros_like(H)
    for n in range(space3.fock_cutoff):
        expected[space3.index("h", n), space3.index("h", n)] = -20.0
    assert_allclose(H, expected, atol=1e-15)


def test_full_ladder_element(params, space3):
    H = full_hamiltonian(params, space3, 1)
    assert H[space3.index("h", 0), space3.index("g", 1)] == pytest.approx(params.g)
    assert H[space3.index("h", 1), space3.index("g", 2)] == pytest.approx(params.g * np.sqrt(2))


def test_full_closed_subspace_spectrum(params, space3):
    # {|g,1>, |h,0>, |e,0>} is invariant; compare against a directly built 3x3
    H = full_hamiltonian(params, space3, 1)
    idx = [space3.index("g", 1), space3.index("h", 0), space3.index("e", 0)]
    block = H[np.ix_(idx, idx)]
    other = [i for i in range(space3.dim) if i not in idx]
    assert max_abs(H[np.ix_(other, idx)]) == 0.0
    small = np.array(
        [
            [0.0, params.g, 0.0],
            [params.g, -params.delta, params.omega_l],
            [0.0, params.omega_l, params.engineered_shift(1)],
        ],
        dtype=complex,
    )
    assert_allclose(np.linalg.eigvalsh(block), np.linalg.eigvalsh(small), atol=1e-12)


def test_full_sparsity_pattern(params, space3):
    # couplings only |g,n> <-> |h,n-1> and |h,n> <-> |e,n>
    H = full_hamiltonian(params, space3, 1).copy()
    np.fill_diagonal(H, 0.0)
    nf = space3.fock_cutoff
    allowed = set()
    for n in range(1, nf):
        allowed.add((space3.index("h", n - 1), space3.index("g", n)))
        allowed.add((space3.index("g", n), space3.index("h", n - 1)))
    for n in range(nf):
        allowed.add((space3.index("h", n), space3.index("e", n)))
        allowed.add((space3.index("e", n), space3.index("h", n)))
    nz = set(zip(*np.nonzero(np.abs(H) > 1e-15)))
    assert nz <= allowed


def test_full_requires_three_levels(params, space):
    with pytest.raises(ValueError):
        full_hamiltonian(params, space, 1)


def test_full_cutoff_guard(params):
    with pytest.raises(ValueError):
        full_hamiltonian(params, HilbertSpace(3, 6), 5)


@pytest.mark.filterwarnings("ignore:selectivity ratio")
@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.2, 2.0),
    st.floats(0.0, 0.15),
    st.floats(5.0, 40.0),
    st.integers(0, 4),
    st.floats(-np.pi, np.pi),
)
def test_builders_hermitian(g, wl, delta, m, theta):
    p = RamanParams(g=g, omega_l=wl, delta=delta)
    assert hermiticity_defect(full_hamiltonian(p, HilbertSpace(3, 8), m, theta)) < 1e-12
    assert hermiticity_defect(effective_hamiltonian(p, HilbertSpace(2, 8), m, theta)) < 1e-12


def test_dressed_level_matches_dispersive_shift(space3):
    # adiabatic regime: eigenvalue tracking |g,n> stays near g^2 n / delta
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    m = 2
    H = full_hamiltonian(p, space3, m)
    evals, vecs = np.linalg.eigh(H)
    rate = p.dispersive_rate
    bound = 5.0 * (p.g / p.delta)
    for n in range(space3.fock_cutoff - 1):
        if n == m:
            continue  # the selected doublet hybridizes with |e, m-1>
        overlaps = np.abs(vecs[space3.index("g", n)]) ** 2
        ev = evals[int(np.argmax(overlaps))]
        if n == 0:
            assert abs(ev) < 1e-6
        else:
            assert abs(ev - rate * n) / (rate * n) < bound


# ---- two-level effective builder -----------------------------------------


def test_effective_diagonal(params, space):
    H = effective_hamiltonian(params, space, 1)
    rate = params.dispersive_rate
    for n in range(space.fock_cutoff):
        assert H[space.index("g", n), space.index("g", n)] == pytest.approx(rate * n)
        assert H[space.index("e", n), space.index("e", n)] == pytest.approx(rate)


def test_effective_selected_doublet_entry(space):
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    H = effective_hamiltonian(p, space, 3, 0.7)
    lam = p.coupling
    got = H[space.index("e", 2), space.index("g", 3)]
    assert got == pytest.approx(lam * np.sqrt(3) * np.exp(-1j * 0.7))
    got_up = H[space.index("g", 3), space.index("e", 2)]
    assert got_up == pytest.approx(lam * np.sqrt(3) * np.exp(1j * 0.7))


def test_lambda_arithmetic():
    p = RamanParams(g=1.0, omega_l=0.1, delta=10.0)
    assert p.coupling == pytest.approx(0.01)


def test_effective_requires_two_levels(params, space3):
    with pytest.raises(ValueError):
        effective_hamiltonian(params, space3, 1)


# ---- decomposition ---------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_decomposition_sum_matches_selective(m):
    space = HilbertSpace(2, 10)
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    parts = decompose_effective(p, space, m, 0.3)
    total = parts.dispersive + parts.pair_energy + parts.pair_coupling
    assert max_abs(total - selective_hamiltonian(p, space, m, 0.3)) < 1e-12


@pytest.mark.parametrize("m", range(1, 7))
def test_decomposition_residual_is_detuned_exchange(m):
    # versus the exact effective operator the decomposition omits exactly the
    # detuned exchange channels lambda*sqrt(n), n != m
    space = HilbertSpace(2, 10)
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    theta = 0.3
    parts = decompose_effective(p, space, m, theta)
    residual = effective_hamiltonian(p, space, m, theta) - (
        parts.dispersive + parts.pair_energy + parts.pair_coupling
    )
    lam = p.coupling
    expected = np.zeros_like(residual)
    for n in range(1, space.fock_cutoff):
        if n == m:
            continue
        amp = lam * np.sqrt(n) * np.exp(1j * theta)
        expected[space.index("g", n), space.index("e", n - 1)] = amp
        expected[space.index("e", n - 1), space.index("g", n)] = np.conj(amp)
    assert max_abs(residual - expected) < 1e-12


def test_pair_coupling_structure(space):
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    parts = decompose_effective(p, space, 4, 1.1)
    nz = np.nonzero(np.abs(parts.pair_coupling) > 1e-15)
    assert len(nz[0]) == 2
    assert_allclose(
        np.abs(parts.pair_coupling[nz]), p.coupling * np.sqrt(4) * np.ones(2), atol=1e-15
    )


def test_dispersive_annihilates_pair_support(space, rng):
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    parts = decompose_effective(p, space, 3)
    vec = np.zeros(space.dim, dtype=complex)
    for atom in ("g", "e"):
        for n in (2, 3):
            vec[space.index(atom, n)] = rng.normal() + 1j * rng.normal()
    assert max_abs(parts.dispersive @ vec) < 1e-14


def test_pair_energy_values(space):
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    parts = decompose_effective(p, space, 2)
    rate = p.dispersive_rate
    assert parts.pair_energy[space.index("g", 1), space.index("g", 1)] == pytest.approx(rate)
    assert parts.pair_energy[space.index("g", 2), space.index("g", 2)] == pytest.approx(2 * rate)
    assert parts.pair_energy[space.index("e", 1), space.index("e", 1)] == pytest.approx(2 * rate)
    assert parts.pair_energy[space.index("e", 2), space.index("e", 2)] == pytest.approx(2 * rate)


# ---- multiquantum coupling -------------------------------------------------


def test_multiquantum_reduces_to_single_quantum(space):
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    parts = decompose_effective(p, space, 3, 0.4)
    H1 = multiquantum_hamiltonian(1, p.coupling, 0.4, 3, space)
    # k = 1 carries the full ladder; the selected entry matches the pair term
    i_g, i_e = space.index("g", 3), space.index("e", 2)
    assert H1[i_g, i_e] == pytest.approx(parts.pair_coupling[i_g, i_e])


def test_multiquantum_two_quantum_element(space):
    # oracle: apply the raising ladder twice to the vacuum
    ad2 = creation(space.fock_cutoff) @ creation(space.fock_cutoff)
    vac = np.eye(space.fock_cutoff)[0]
    amp = np.linalg.norm(ad2 @ vac)
    assert amp == pytest.approx(np.sqrt(2))
    H = multiquantum_hamiltonian(2, 0.03, 0.0, 2, space)
    assert abs(H[space.index("g", 2), space.index("e", 0)]) == pytest.approx(0.03 * amp)


def test_multiquantum_skips_low_levels(space):
    H = multiquantum_hamiltonian(2, 0.03, 0.2, 2, space)
    col = space.index("g", 1)
    assert max_abs(H[:, col]) == 0.0
    assert max_abs(H[col, :]) == 0.0


def test_multiquantum_hermitian_any_phase(space):
    H = multiquantum_hamiltonian(3, 0.02, 1.3, 4, space)
    assert hermiticity_defect(H) < 1e-15


def test_multiquantum_infeasible_doublet(space):
    with pytest.raises(ValueError):
        multiquantum_hamiltonian(3, 0.02, 0.0, 2, space)
