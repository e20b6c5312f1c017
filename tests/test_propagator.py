import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fockgate import HilbertSpace, Propagator, RamanParams
from fockgate.propagator import block_unitaries
from fockgate.hamiltonians import decompose_effective
from fockgate.spaces import basis_state, fidelity, max_abs


def random_hermitian(rng, dim, scale=1.0):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (M + M.conj().T)


def test_zero_time_is_identity(rng):
    H = random_hermitian(rng, 7)
    assert_allclose(Propagator(H).unitary(0.0), np.eye(7), atol=1e-14)


def test_diagonal_generator_phases():
    H = np.diag([0.0, 1.0, -2.5]).astype(complex)
    U = Propagator(H).unitary(0.3)
    assert_allclose(np.diag(U), np.exp(-1j * np.diag(H) * 0.3), atol=1e-14)


def test_two_level_rabi_oscillation():
    # coupled doublet: populations exchange as cos^2/sin^2 of the coupling * t
    lam_eff = 0.02
    H = np.array([[0.0, lam_eff], [lam_eff, 0.0]], dtype=complex)
    prop = Propagator(H)
    for t in np.linspace(0.0, 200.0, 17):
        psi = prop.evolve(np.array([1.0, 0.0], dtype=complex), t)
        assert abs(psi[0]) ** 2 == pytest.approx(np.cos(lam_eff * t) ** 2, abs=1e-12)
        assert abs(psi[1]) ** 2 == pytest.approx(np.sin(lam_eff * t) ** 2, abs=1e-12)


def test_selected_doublet_half_period():
    # |g,m> goes to -i|e,m-1> after a quarter Rabi cycle of the pure coupling
    space = HilbertSpace(2, 6)
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    coupling = decompose_effective(p, space, 2).pair_coupling
    t = 0.5 * np.pi / (p.coupling * np.sqrt(2))
    psi = Propagator(coupling).evolve(basis_state(space, "g", 2), t)
    expected = -1j * basis_state(space, "e", 1)
    assert_allclose(psi, expected, atol=1e-10)


def test_reversibility(rng):
    H = random_hermitian(rng, 9)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi /= np.linalg.norm(psi)
    prop = Propagator(H)
    back = prop.evolve(prop.evolve(psi, 2.7), -2.7)
    assert 1.0 - abs(np.vdot(psi, back)) ** 2 < 1e-12


def test_eigenvector_gets_phase_only(rng):
    H = random_hermitian(rng, 6)
    evals, vecs = np.linalg.eigh(H)
    v = vecs[:, 2]
    out = Propagator(H).evolve(v, 1.3)
    assert_allclose(out, np.exp(-1j * evals[2] * 1.3) * v, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_composition(seed, t1, t2):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, 6)
    prop = Propagator(H)
    assert max_abs(prop.unitary(t1 + t2) - prop.unitary(t1) @ prop.unitary(t2)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_unitarity_and_energy_conservation(seed, t):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, 7)
    prop = Propagator(H)
    U = prop.unitary(t)
    assert max_abs(U.conj().T @ U - np.eye(7)) < 1e-10
    psi = rng.normal(size=7) + 1j * rng.normal(size=7)
    psi /= np.linalg.norm(psi)
    e0 = np.vdot(psi, H @ psi).real
    et = np.vdot(U @ psi, H @ (U @ psi)).real
    assert abs(et - e0) < 1e-9


def test_commuting_generators_factorize(rng):
    # diagonal pieces commute, so the joint exponential splits exactly
    d1 = np.diag(rng.normal(size=8)).astype(complex)
    d2 = np.diag(rng.normal(size=8)).astype(complex)
    lhs = Propagator(d1 + d2).unitary(0.9)
    rhs = Propagator(d1).unitary(0.9) @ Propagator(d2).unitary(0.9)
    assert max_abs(lhs - rhs) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(-3.0, 2.0), st.floats(-3.0, 3.0))
@example(seed=0, dim=2, log_scale=0.0, t=1.7)  # a doublet: the closed-form branch of block_unitaries
def test_matches_pade_exponential(seed, dim, log_scale, t):
    # independent route: scipy's scaling-and-squaring
    H = random_hermitian(np.random.default_rng(seed), dim, 10.0**log_scale)
    assert max_abs(Propagator(H).unitary(t) - expm(-1j * H * t)) < 1e-10


def test_rejects_non_hermitian(rng):
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    with pytest.raises(ValueError, match="not Hermitian"):
        Propagator(M)


def test_rejects_nonfinite_time(rng):
    # unitary and evolve share one check
    prop = Propagator(random_hermitian(rng, 4))
    for t in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="time must be finite"):
            prop.unitary(t)
        with pytest.raises(ValueError, match="time must be finite"):
            prop.evolve(np.array([1.0, 0.0, 0.0, 0.0]), t)


def test_symmetrizes_small_defect(rng):
    H = random_hermitian(rng, 5)
    H[0, 1] += 1e-12  # below the gate, gets symmetrized away
    prop = Propagator(H)
    assert max_abs(prop.generator - prop.generator.conj().T) == 0.0


def test_norm_preserved(rng):
    H = random_hermitian(rng, 8)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    out = Propagator(H).evolve(psi, 3.3)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6), st.floats(-5.0, 5.0))
def test_block_unitaries_match_expm(seed, size, count, t):
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, size) for _ in range(count)])
    blocks = block_unitaries(stack, t)
    for h, u in zip(stack, blocks):
        assert max_abs(u - expm(-1j * h * t)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(1, 4),
)
def test_block_unitaries_broadcast_times(seed, size, count, samples):
    # one call with an array of times equals one call per time; a (samples, 1)
    # array broadcasts one stack to samples stacks, a (samples, count) array
    # gives each block its own time
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, size) for _ in range(count)])
    times = rng.uniform(-5.0, 5.0, size=(samples, count))
    per_sample = block_unitaries(stack, times[:, :1])
    per_block = block_unitaries(stack, times)
    assert per_sample.shape == per_block.shape == (samples, count, size, size)
    for i in range(samples):
        assert max_abs(per_sample[i] - block_unitaries(stack, times[i, 0])) < 1e-13
        for j in range(count):
            assert max_abs(per_block[i, j] - block_unitaries(stack[j], times[i, j])) < 1e-13


@pytest.mark.parametrize("t", [np.inf, np.nan, [0.5, -np.inf]])
def test_block_unitaries_reject_nonfinite_time(rng, t):
    stack = np.array([random_hermitian(rng, 2) for _ in range(2)])
    with pytest.raises(ValueError, match="time must be finite"):
        block_unitaries(stack, t)


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_block_unitaries_reject_nonfinite_generator(rng, size, bad):
    # the closed form would turn it into NaN unitaries without a word
    stack = np.array([random_hermitian(rng, size) for _ in range(2)])
    stack[1, 0, size - 1] = bad
    with pytest.raises(ValueError, match="generator must be finite"):
        block_unitaries(stack, 0.5)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("random", "zero", "diagonal", "degenerate")),
    st.booleans(),
    st.floats(-3.0, 3.0),
    st.floats(-1e3, 1e3),
)
def test_closed_form_doublets_match_expm(seed, kind, real, log_scale, reach):
    # real-symmetric and complex-Hermitian doublets, with zero, h01 = 0 and h00 = h11
    # blocks among them, at either sign of t and |H|*t (spectral norm) up to 1e3
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 2, 10.0**log_scale)
    h = h.real if real else h
    if kind == "zero":
        h = np.zeros_like(h)
    elif kind == "diagonal":
        h[0, 1] = h[1, 0] = 0.0
    elif kind == "degenerate":
        h[1, 1] = h[0, 0]
    norm = np.linalg.norm(h, 2)
    t = reach / norm if norm > 0 else reach
    assert max_abs(block_unitaries(h, t) - expm(-1j * h * t)) < 1e-12
    assert max_abs(block_unitaries(np.array([h, h]), [t, -t])[1] - expm(1j * h * t)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-5.0, 5.0))
def test_real_triplets_match_their_complex_copy(seed, count, t):
    # the full model's phase-0 triplets are real: the real eigh gives the complex one's unitaries
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, 3).real for _ in range(count)])
    assert max_abs(block_unitaries(stack, t) - block_unitaries(stack.astype(complex), t)) < 1e-13
