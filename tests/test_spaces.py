import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fockgate import (
    HilbertSpace,
    annihilation,
    atomic_sigma,
    basis_state,
    creation,
    fidelity,
    number_operator,
    product_state,
    purity,
    reduced_oscillator_state,
    tensor,
)
from fockgate.spaces import fock_populations, normalize, project_atom

st_cutoff = st.integers(2, 16)


def test_annihilation_entries():
    a = annihilation(6)
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(a) == 5


def test_vacuum_annihilates():
    a = annihilation(5)
    vac = np.eye(5)[0]
    assert_allclose(a @ vac, 0.0, atol=1e-15)


def test_single_quantum_lowering():
    a = annihilation(5)
    assert_allclose(a @ np.eye(5)[1], np.eye(5)[0], atol=1e-15)


def test_sqrt_n_lowering():
    a = annihilation(6)
    assert_allclose(a @ np.eye(6)[4], 2.0 * np.eye(6)[3], atol=1e-15)


def test_cutoff_too_small():
    with pytest.raises(ValueError):
        annihilation(1)


@given(st_cutoff)
def test_number_operator_diagonal(cutoff):
    assert_allclose(number_operator(cutoff), np.diag(np.arange(cutoff)), atol=1e-12)


@given(st_cutoff)
def test_commutator_exact_below_guard(cutoff):
    a, ad = annihilation(cutoff), creation(cutoff)
    comm = a @ ad - ad @ a
    interior = comm[: cutoff - 1, : cutoff - 1]
    assert_allclose(interior, np.eye(cutoff - 1), atol=1e-12)
    # truncation pushes the deviation entirely onto the guard level
    assert comm[cutoff - 1, cutoff - 1] == pytest.approx(-(cutoff - 1))


def test_atomic_sigma_action():
    sge = atomic_sigma("g", "e", 2)
    e = np.array([0.0, 1.0])
    g = np.array([1.0, 0.0])
    assert_allclose(sge @ e, g)
    assert_allclose(sge @ g, 0.0, atol=1e-15)


def test_sigma_x_eigenstate():
    sx = atomic_sigma("g", "e", 2) + atomic_sigma("e", "g", 2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert_allclose(sx @ plus, plus, atol=1e-15)


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        atomic_sigma("g", "x", 2)
    with pytest.raises(ValueError):
        atomic_sigma("h", "g", 2)  # no third level in a two-level atom


def test_tensor_identity():
    out = tensor(np.eye(2), np.eye(5))
    assert_allclose(out, np.eye(10), atol=1e-15)


def test_tensor_excitation_exchange():
    space = HilbertSpace(2, 4)
    op = tensor(atomic_sigma("g", "e", 2), creation(4))
    psi = basis_state(space, "e", 0)
    out = op @ psi
    assert_allclose(out, basis_state(space, "g", 1), atol=1e-15)


def test_exchange_squared_vanishes():
    # two applications from |e,n> need a second e-excitation that is gone
    op = tensor(atomic_sigma("g", "e", 2), creation(5))
    assert_allclose(op @ op, 0.0, atol=1e-14)


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_tensor_mixed_product(da, df, seed):
    rng = np.random.default_rng(seed)
    A, C = rng.normal(size=(2, da, da)) + 1j * rng.normal(size=(2, da, da))
    B, D = rng.normal(size=(2, df, df)) + 1j * rng.normal(size=(2, df, df))
    lhs = tensor(A, B) @ tensor(C, D)
    rhs = tensor(A @ C, B @ D)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_tensor_rejects_nonsquare():
    with pytest.raises(ValueError):
        tensor(np.ones((2, 3)), np.eye(2))


def test_reduced_state_product_is_pure():
    space = HilbertSpace(2, 5)
    psi = basis_state(space, "g", 2)
    rho = reduced_oscillator_state(psi, space)
    assert rho[2, 2] == pytest.approx(1.0)
    assert purity(rho) == pytest.approx(1.0)


def test_reduced_state_bell_like_is_mixed():
    space = HilbertSpace(2, 4)
    psi = (basis_state(space, "g", 0) + basis_state(space, "e", 1)) / np.sqrt(2)
    rho = reduced_oscillator_state(psi, space)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)
    # a (..., d, d) stack gives each matrix's purity
    pure = reduced_oscillator_state(basis_state(space, "g", 2), space)
    stack = np.array([[rho, pure], [pure, rho]])
    assert purity(stack).shape == (2, 2)
    assert np.array_equal(purity(stack), [[purity(rho), purity(pure)], [purity(pure), purity(rho)]])


@settings(max_examples=40)
@given(st.integers(2, 3), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_reduced_state_trace_and_positivity(da, df, seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace(da, df)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    rho = reduced_oscillator_state(amps / np.linalg.norm(amps), space)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12


def test_fidelity_trivial_cases():
    space = HilbertSpace(2, 4)
    psi = basis_state(space, "g", 0)
    assert fidelity(psi, psi, space) == pytest.approx(1.0)
    assert fidelity(psi, basis_state(space, "g", 1), space) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(-np.pi, np.pi))
def test_fidelity_symmetric_and_phase_invariant(seed, chi):
    rng = np.random.default_rng(seed)
    space = HilbertSpace(2, 5)
    a, b = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    assert fidelity(a, b, space) == pytest.approx(fidelity(b, a, space), abs=1e-12)
    assert fidelity(a, np.exp(1j * chi) * a, space) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    a = basis_state(HilbertSpace(2, 4), "g", 0)
    b = basis_state(HilbertSpace(2, 5), "g", 0)
    for space in (HilbertSpace(2, 4), HilbertSpace(2, 5)):
        with pytest.raises(ValueError):
            fidelity(a, b, space)


def test_state_vector_validation():
    space = HilbertSpace(2, 3)
    with pytest.raises(ValueError):
        product_state(space, [1.0, 0.0], np.ones(5))
    with pytest.raises(ValueError):
        product_state(space, [1.0, 0.0], np.ones((3, 2, 1)))
    with pytest.raises(ValueError):
        product_state(space, [1.0, 0.0, 0.0], np.ones(3))
    with pytest.raises(ValueError):
        product_state(space, [1.0, 0.0], np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        product_state(space, [1.0, 0.0], np.array([[0.0], [np.inf], [0.0]]))


@pytest.mark.parametrize(
    "dims, name",
    [((2, 2.5), "fock_cutoff"), ((2, np.nan), "fock_cutoff"), ((2.5, 4), "atom_dim"),
     ((2, 4.0), "fock_cutoff"), ((True, 4), "atom_dim"), ((2, "4"), "fock_cutoff")],
)
def test_space_dimensions_must_be_integers(dims, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        HilbertSpace(*dims)


def test_space_accepts_numpy_integers():
    space = HilbertSpace(np.int64(3), np.int32(5))
    assert space.dim == 15


def test_guard_population():
    space = HilbertSpace(2, 4)
    psi = basis_state(space, "e", 3)
    assert fock_populations(psi, space)[space.guard_level] == pytest.approx(1.0)
    assert fock_populations(basis_state(space, "e", 0), space)[space.guard_level] == pytest.approx(0.0)


def test_product_state_layout():
    space = HilbertSpace(2, 3)
    psi = product_state(space, [0.0, 1.0], [0.0, 1.0, 0.0])
    assert psi[space.index("e", 1)] == pytest.approx(1.0)
    assert np.count_nonzero(psi) == 1


@settings(max_examples=40)
@given(st.integers(2, 3), st.integers(2, 8), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_embed_and_project_atom_round_trip(da, nf, k, seed):
    """project_atom undoes product_state for a normalized atomic state, on one
    oscillator state (k = 0) or a stack of k columns, and a stack embeds as
    its columns do one by one.  fock_populations of any joint state sums to
    its squared norm and is the diagonal of its reduced oscillator state."""
    rng = np.random.default_rng(seed)
    space = HilbertSpace(da, nf)
    atom = rng.normal(size=da) + 1j * rng.normal(size=da)
    atom /= np.linalg.norm(atom)
    shape = (nf,) if k == 0 else (nf, k)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    joint = product_state(space, atom, x)
    assert joint.shape == (space.dim,) + shape[1:]
    assert_allclose(project_atom(atom, joint, space), x, atol=1e-12)
    for j in range(k):
        assert_array_equal(joint[:, j], product_state(space, atom, x[:, j]))
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    pops = fock_populations(psi, space)
    assert pops.sum() == pytest.approx(np.vdot(psi, psi).real, rel=1e-12)
    assert_allclose(pops, np.diag(reduced_oscillator_state(psi, space)).real, rtol=1e-12)


@settings(max_examples=60)
@given(st.integers(2, 3), st.integers(2, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_atom_and_oscillator_purities_agree(da, nf, seed, product):
    """A pure joint state has one Schmidt spectrum: the atom's reduced state and
    the oscillator's have the same purity, entangled or (purity 1) not."""
    rng = np.random.default_rng(seed)
    space = HilbertSpace(da, nf)
    if product:
        psi = product_state(
            space, rng.normal(size=da) + 1j * rng.normal(size=da), rng.normal(size=nf) + 1j * rng.normal(size=nf)
        )
    else:
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    # the atom's reduced state is the oscillator's of the state with the factors swapped
    swapped = psi.reshape(da, nf).T.ravel()
    rho_atom = reduced_oscillator_state(swapped, HilbertSpace(nf, da))
    assert_allclose(rho_atom, psi.reshape(da, nf) @ psi.reshape(da, nf).conj().T, atol=1e-15)
    atom_side = purity(rho_atom)
    assert atom_side == pytest.approx(purity(reduced_oscillator_state(psi, space)), abs=1e-12)
    if product:
        assert atom_side == pytest.approx(1.0, abs=1e-12)


def test_normalize_takes_any_finite_norm_without_warning():
    # scaled by a power of two first: huge and subnormal vectors normalise as their plain counterparts do
    # (each huge or subnormal input below is the plain vector times the scale, exactly or to an ulp)
    cases = [(scale, plain) for scale in (1e200, 1e308, 2.0**-1070) for plain in ([1.0, 1.0], [0.75, 1j], [1.0])]
    cases += [(1e-320, [1.0, 1.0]), (1e-320, [1.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale, plain in cases:
            unit, nrm = normalize(np.array(plain) * scale)
            assert_allclose(unit, normalize(plain)[0], rtol=1e-15)
            assert nrm == pytest.approx(scale * np.linalg.norm(plain), rel=1e-15 if scale > 1e-300 else 1e-3)
        assert normalize([1.7e308, 1.7e308j, 1.7e308])[1] == np.inf  # the norm itself passes the largest float
        unit, nrm = normalize(np.zeros(3))
        assert nrm == 0.0 and not unit.any()
