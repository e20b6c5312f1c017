import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fockgate import HilbertSpace, Propagator, RamanParams, propagator
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
        psi = prop.unitary(t) @ np.array([1.0, 0.0], dtype=complex)
        assert abs(psi[0]) ** 2 == pytest.approx(np.cos(lam_eff * t) ** 2, abs=1e-12)
        assert abs(psi[1]) ** 2 == pytest.approx(np.sin(lam_eff * t) ** 2, abs=1e-12)


def test_selected_doublet_half_period():
    # |g,m> goes to -i|e,m-1> after a quarter Rabi cycle of the pure coupling
    space = HilbertSpace(2, 6)
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    coupling = decompose_effective(p, space, 2).pair_coupling
    t = 0.5 * np.pi / (p.coupling * np.sqrt(2))
    psi = Propagator(coupling).unitary(t) @ basis_state(space, "g", 2)
    expected = -1j * basis_state(space, "e", 1)
    assert_allclose(psi, expected, atol=1e-10)


def test_reversibility(rng):
    H = random_hermitian(rng, 9)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi /= np.linalg.norm(psi)
    prop = Propagator(H)
    back = prop.unitary(-2.7) @ (prop.unitary(2.7) @ psi)
    assert 1.0 - abs(np.vdot(psi, back)) ** 2 < 1e-12


def test_eigenvector_gets_phase_only(rng):
    H = random_hermitian(rng, 6)
    evals, vecs = np.linalg.eigh(H)
    v = vecs[:, 2]
    out = Propagator(H).unitary(1.3) @ v
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
    prop = Propagator(random_hermitian(rng, 4))
    for t in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="time must be finite"):
            prop.unitary(t)


def test_symmetrizes_small_defect(rng):
    H = random_hermitian(rng, 5)
    H[0, 1] += 1e-12  # below the gate, gets symmetrized away
    prop = Propagator(H)
    assert max_abs(prop.generator - prop.generator.conj().T) == 0.0


def test_norm_preserved(rng):
    H = random_hermitian(rng, 8)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    out = Propagator(H).unitary(3.3) @ psi
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
@pytest.mark.parametrize("theta", [np.nan, [0.5, -np.inf]])
def test_block_unitaries_reject_nonfinite_drive_phase(rng, size, theta):
    stack = np.array([random_hermitian(rng, size) for _ in range(2)])
    with pytest.raises(ValueError, match="drive phase must be finite"):
        block_unitaries(stack, 0.5, theta)


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


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from((2, 3)),
    st.booleans(),
    st.integers(1, 4),
    st.integers(1, 3),
    st.booleans(),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 100.0),
)
def test_framed_blocks_match_expm(seed, size, real, count, gates, per_block, log_scale, reach):
    """Z(theta) exp(-i H t) Z(theta)† from ``block_unitaries`` equals scipy's expm(-i Z H Z† t) to 1e-12.

    Z(theta) puts e^{-i theta} on the last slot.  Real and complex Hermitian
    doublets and triplets, a time per gate and a drive phase per pulse and
    gate (or per pulse, gate and block) broadcast over the stack, with
    ||H||*|t| <= 100 in the spectral norm.
    """
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, size, 10.0**log_scale) for _ in range(count)])
    stack = stack.real if real else stack
    times = reach / max(np.linalg.norm(h, 2) for h in stack) * rng.uniform(-1.0, 1.0, size=(gates, 1))
    theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(2, gates, count if per_block else 1))
    framed = block_unitaries(stack, times, theta)
    assert framed.shape == (2, gates, count, size, size)
    for index in np.ndindex(framed.shape[:-2]):
        z = np.ones(size, dtype=complex)
        z[-1] = np.exp(-1j * theta[index[:2]][index[2] if per_block else 0])
        h = z[:, None] * stack[index[2]] * z.conj()
        assert max_abs(framed[index] - expm(-1j * h * times[index[1], 0])) < 1e-12


def test_doublets_near_the_largest_float():
    # the kernel halves the diagonal before it adds: h00 + h11 would overflow to inf here
    h = np.array([[1.6e308, 0.5e308], [0.5e308, 1.2e308]])
    t = 1e-308
    framed = block_unitaries(h, t, 0.3)
    z = np.array([1.0, np.exp(-0.3j)])
    assert max_abs(framed - z[:, None] * expm(-1j * (h * 1e-8) * (t * 1e8)) * z.conj()) < 1e-12


@pytest.mark.parametrize("size, real, factor", [(3, True, (9, 3)), (3, False, (3, 3)), (6, True, (6, 6))])
def test_spectra_hit_equals_miss(monkeypatch, size, real, factor):
    """A stack read back from ``SPECTRA`` gives the framed unitaries of its first, diagonalising call, bit for bit.

    A real stack of triplets keeps its projectors (b*b, b) per block, any
    other stack its eigenvectors; ``nbytes`` counts the key, the
    eigenvalues and that factor.
    """
    count = 4
    cache = propagator.Spectra()
    monkeypatch.setattr(propagator, "SPECTRA", cache)
    rng = np.random.default_rng(size)
    stack = random_hermitian(rng, size) * rng.uniform(0.5, 2.0, size=(count, 1, 1))
    stack = stack.real if real else stack
    times, theta = rng.uniform(-3.0, 3.0, size=(2, 1)), rng.uniform(-3.0, 3.0, size=(3, 2, 1))
    miss = block_unitaries(stack, times, theta)
    ((nbytes, (evals, kept)),) = cache.entries.values()
    assert kept.shape == (count,) + factor
    assert cache.nbytes == nbytes == stack.nbytes + evals.nbytes + kept.nbytes
    assert np.array_equal(block_unitaries(stack, times, theta), miss)
    assert cache.nbytes == nbytes and len(cache.entries) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-5.0, 5.0))
def test_real_triplets_match_their_complex_copy(seed, count, t):
    # the full model's phase-0 triplets are real: the real eigh gives the complex one's unitaries
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, 3).real for _ in range(count)])
    assert max_abs(block_unitaries(stack, t) - block_unitaries(stack.astype(complex), t)) < 1e-13


def _triplet_layers(rng, count, nb):
    """``count`` distinct real symmetric (nb, 3, 3) layers, as the full model's generators are."""
    stacks = rng.normal(size=(count, nb, 3, 3))
    return stacks + np.swapaxes(stacks, -1, -2)


def _cached_bytes(cache):
    """The bytes of every cached stack, its key's bytes, eigenvalues and factor, as its entry records them."""
    sizes = [size for size, _ in cache.entries.values()]
    assert sizes == [len(key[2]) + w.nbytes + v.nbytes for key, (_, (w, v)) in cache.entries.items()]
    return sum(sizes)


def test_spectra_cache_keeps_its_byte_budget(monkeypatch):
    """More distinct stacks than the budget holds: the cache stays within it, and cached arrays are read-only.

    Each whole stack is one entry.  A stack evicted recomputes, by one more
    eigh of the whole stack, to the identical unitary; a stack still cached
    needs none.  A stack of cached layers is a new stack, diagonalised whole.
    A stack larger than the whole budget is exponentiated but not kept.
    """
    cache = propagator.Spectra()
    monkeypatch.setattr(propagator, "SPECTRA", cache)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: calls.append(a.shape) or eigh(a, *args, **kwargs))
    nb = 1024
    per_stack = nb * 9 * 8 + nb * 3 * 8 + nb * 27 * 8  # the key's bytes, eigenvalues and real projectors
    layers = _triplet_layers(np.random.default_rng(3), 3 * propagator.SPECTRA_BUDGET // per_stack, nb)
    first = []
    for H in layers:
        first.append(block_unitaries(H, 0.7))
        assert 0 < cache.nbytes <= propagator.SPECTRA_BUDGET
        assert cache.nbytes == _cached_bytes(cache)
    assert len(calls) == len(layers) and len(cache.entries) == propagator.SPECTRA_BUDGET // per_stack
    del calls[:]
    assert np.array_equal(block_unitaries(layers[-1], 0.7), first[-1]) and calls == []
    assert np.array_equal(block_unitaries(layers[0], 0.7), first[0]) and calls == [(nb, 3, 3)]
    assert np.array_equal(block_unitaries(layers[:2], 0.7), first[:2]) and calls == [(nb, 3, 3), (2, nb, 3, 3)]
    assert cache.nbytes == _cached_bytes(cache) <= propagator.SPECTRA_BUDGET
    for _, (w, v) in cache.entries.values():
        for array in (w, v):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    kept = dict(cache.entries)
    del calls[:]
    huge = _triplet_layers(np.random.default_rng(4), 1, propagator.SPECTRA_BUDGET // 312 + 1)[0]  # one block too many
    assert np.array_equal(block_unitaries(huge[:5], 0.3), block_unitaries(huge, 0.3)[:5])
    assert np.array_equal(block_unitaries(huge, 0.3), block_unitaries(huge, 0.3))
    assert calls == [(5, 3, 3)] + 3 * [huge.shape]  # the over-budget stack is diagonalised on every call
    assert cache.entries.keys() - kept.keys() == {("<f8", (5, 3, 3), huge[:5].tobytes())}


def test_spectra_cache_shared_by_threads(monkeypatch):
    # more threads than cores, switching often, exponentiate overlapping layers past the budget:
    # every result equals the single-thread one, and no update of the byte count is lost
    layers = _triplet_layers(np.random.default_rng(5), 60, 512)
    expected = [block_unitaries(H, 1.3) for H in layers]
    cache = propagator.Spectra()
    monkeypatch.setattr(propagator, "SPECTRA", cache)
    wrong = []

    def work(offset):
        for i in range(120):
            j = (offset + 7 * i) % len(layers)
            if not np.array_equal(block_unitaries(layers[j], 1.3), expected[j]):
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert cache.nbytes == _cached_bytes(cache) <= propagator.SPECTRA_BUDGET
