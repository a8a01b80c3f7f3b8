import math

import numpy as np
import pytest

from thermwit import (
    DensityOperator,
    qops,
    HermitianOperator,
    PureState,
    SpectralDecomposition,
    SpinModelSpec,
    build_spin_hamiltonian,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    quantum_relative_entropy,
    sweep,
    tensor_product,
    von_neumann_entropy,
)
from conftest import (
    I2,
    LN2,
    SX,
    SZ,
    bell_pure,
    eigh_sizes,
    loop_partial_trace,
    random_density,
    random_pure,
    solve_recording_blocks,
    traced_peak,
    w_pure,
)


def op(mat, dims):
    return HermitianOperator(np.asarray(mat, dtype=complex), dims)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        op([[0, 1], [0, 0]], (2,))


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        op(np.eye(4), (2,))
    with pytest.raises(ValueError, match="at least one site"):
        op(np.eye(1), ())
    with pytest.raises(ValueError, match="must be >= 2"):
        op(np.eye(1), (1,))


def test_rejects_cap_exceeded():
    with pytest.raises(MemoryError, match="cap"):
        op(np.eye(2), (2,) * 13)
    with pytest.raises(ValueError, match="does not match"):  # 12 qubits pass the cap
        op(np.eye(2), (2,) * 12)


def test_operator_is_isolated_from_its_input():
    # a writable input is copied: changing it afterwards leaves the operator alone
    mat = np.diag([1.0, -1.0]).astype(complex)
    h = HermitianOperator(mat, (2,))
    mat[0, 0] = 5.0
    assert h.matrix[0, 0] == 1.0
    assert not h.matrix.flags.writeable
    # a locked complex array that owns its data is kept as it is
    locked = np.diag([1.0, -1.0]).astype(complex)
    locked.setflags(write=False)
    assert HermitianOperator(locked, (2,)).matrix is locked


def test_density_rejects_bad_trace_and_negativity():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2), (2,))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityOperator(np.diag([1.5, -0.5]), (2,))


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0]), (2,))
    with pytest.raises(ValueError, match="does not match dims"):
        PureState(np.array([1.0, 0.0, 0.0]), (2,))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_construction_rejects_non_finite_values(bad):
    # every comparison with NaN is false, so each check must fail closed
    with pytest.raises(ValueError, match="non-finite"):
        op(np.full((2, 2), bad), (2,))
    with pytest.raises(ValueError, match="non-finite"):
        op([[bad, 0], [0, 1]], (2,))
    with pytest.raises(ValueError, match="non-finite"):
        DensityOperator(np.diag([bad, 0.5]), (2,))
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([bad, 1.0]), (2,))


# ---------------------------------------------------------------------------
# tensor product
# ---------------------------------------------------------------------------

def test_tensor_identity():
    out = tensor_product(op(I2, (2,)), op(I2, (2,)))
    assert out.dims == (2, 2)
    assert np.allclose(out.matrix, np.eye(4))


def test_tensor_sigma_z():
    out = tensor_product(op(SZ, (2,)), op(SZ, (2,)))
    assert np.allclose(out.matrix, np.diag([1, -1, -1, 1]))


def test_tensor_bit_flip():
    xx = tensor_product(op(SX, (2,)), op(SX, (2,)))
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(xx.matrix @ ket00, [0, 0, 0, 1])  # |00> -> |11>


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_bell():
    red = partial_trace(bell_pure().to_density(), {0})
    assert np.allclose(red.matrix, I2 / 2, atol=1e-12)


def test_partial_trace_product_state():
    psi = PureState(np.array([0, 1, 0, 0], dtype=complex), (2, 2))  # |0>|1>
    red = partial_trace(psi.to_density(), {1})
    assert np.allclose(red.matrix, np.diag([0, 1]), atol=1e-12)


def test_partial_trace_w_state():
    red = partial_trace(w_pure().to_density(), {0})
    # direct 8x8 oracle
    expect = loop_partial_trace(w_pure().to_density().matrix, (2, 2, 2), [0])
    assert np.allclose(red.matrix, expect, atol=1e-12)
    assert np.allclose(np.diag(red.matrix).real, [2 / 3, 1 / 3])


def test_partial_trace_matches_loop_oracle(rng):
    for dims in [(2, 3), (2, 2, 2), (3, 2, 2)]:
        rho = random_density(rng, dims)
        for keep in ([0], [1], [0, len(dims) - 1]):
            got = partial_trace(rho, keep).matrix
            want = loop_partial_trace(rho.matrix, dims, keep)
            assert np.max(np.abs(got - want)) < 1e-12
            assert abs(np.trace(got).real - 1.0) < 1e-10


def test_partial_trace_factorizes(rng):
    for _ in range(5):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        joint = tensor_product(a, b)
        red = partial_trace(DensityOperator(joint.matrix, joint.dims), {0})
        assert np.max(np.abs(red.matrix - a.matrix)) < 1e-10


def test_partial_trace_errors():
    rho = bell_pure().to_density()
    with pytest.raises(ValueError, match="nonempty"):
        partial_trace(rho, set())
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(rho, {5})


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eig_sigma_z():
    dec = eig_hermitian(op(SZ, (2,)))
    assert np.allclose(dec.eigenvalues, [-1, 1])


def test_eig_sigma_x_phase_convention():
    dec = eig_hermitian(op(SX, (2,)))
    assert np.allclose(dec.eigenvalues, [-1, 1])
    s = 1 / np.sqrt(2)
    # largest-magnitude component real positive, ties at the lowest index
    assert np.allclose(dec.eigenvectors[:, 0], [s, -s])
    assert np.allclose(dec.eigenvectors[:, 1], [s, s])


@pytest.mark.parametrize("complex_", [False, True])
def test_phase_fix_needs_no_square_temporary(complex_, rng):
    # 1024 columns of 1024 rows: the magnitudes of all of them, and argmax's
    # transposed copy, would take 8 MiB each; a stack of columns about 1 MiB
    vecs = rng.standard_normal((1024, 1024))
    if complex_:
        vecs = vecs + 1j * rng.standard_normal((1024, 1024))
    # planted ties: rows 100 and 900 share the column's largest magnitude
    cols = np.arange(0, 1024, 3)
    vecs[100, cols], vecs[900, cols] = (10j if complex_ else -10.0), 10.0
    old = vecs.copy()  # the rule on the whole array at once
    top = old[np.argmax(np.abs(old), axis=0), np.arange(1024)]
    old *= top.conj() / np.abs(top)
    _, peak = traced_peak(qops._fix_phases, vecs)
    assert peak <= 2.5 * 2 ** 20
    assert vecs.tobytes() == old.tobytes()
    assert np.all(vecs[100, cols] == 10.0)


def test_eig_two_qubit_heisenberg():
    from conftest import SY

    mat = np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ)
    dec = eig_hermitian(op(mat, (2, 2)))
    assert np.allclose(dec.eigenvalues, [-3, 1, 1, 1], atol=1e-12)


def test_eig_reconstruction_and_gram(rng):
    for trial in range(20):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a + a.conj().T
        if trial >= 10:  # scattered blocks, real ones among them
            label = rng.integers(0, 3, d)
            a = np.where(label[:, None] == label[None, :], a, 0)
            a = a.real if trial % 2 else a
        h = op(a, (d,))
        dec = eig_hermitian(h)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h.matrix)) <= 1e-8
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-8


def test_eig_deterministic_output():
    mat = np.kron(SX, SX) + np.kron(SZ, SZ)
    a = eig_hermitian(op(mat, (2, 2)))
    b = eig_hermitian(op(mat, (2, 2)))
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def centrosymmetric(rng, d, real=False):
    """A random Hermitian d x d matrix that equals itself reversed along both
    axes: A + JAJ, with J the order-reversing permutation."""
    a = rng.normal(size=(d, d)) + (0 if real else 1j * rng.normal(size=(d, d)))
    a = a + a.conj().T
    return a + a[::-1, ::-1]


@pytest.mark.parametrize("d, real", [(130, False), (258, True)])
def test_flip_split_diagonalizes_a_centrosymmetric_block(d, real, rng):
    h = op(centrosymmetric(rng, d, real), (d,))
    dec, sizes = eigh_sizes(eig_hermitian, h)
    assert sizes == [d // 2, d // 2]
    assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(h.matrix))) <= 1e-12 * d
    vecs = dec.eigenvectors
    assert np.max(np.abs((vecs * dec.eigenvalues) @ vecs.conj().T - h.matrix)) <= 1e-12 * d
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= 1e-12 * d
    # each column is even or odd under J bit for bit, half of them each
    even = [np.array_equal(v[::-1], v) for v in vecs.T]
    odd = [np.array_equal(v[::-1], -v) for v in vecs.T]
    assert all(np.logical_or(even, odd)) and sum(even) == sum(odd) == d // 2


def test_flip_split_needs_an_even_centrosymmetric_block_above_the_cutoff(rng):
    # an odd block of 3**5 rows, blocks at and below the cutoff, and an even
    # block above it that is Hermitian but not centrosymmetric all go to one
    # eigh call, with the bits of the unsplit solver
    lopsided = centrosymmetric(rng, 130)
    lopsided[0, 0] += 1.0
    for mat, dims in ((centrosymmetric(rng, 243), (3,) * 5),
                      (centrosymmetric(rng, 128), (2,) * 7),
                      (centrosymmetric(rng, 36, real=True), (6, 6)),
                      (lopsided, (130,))):
        h = op(mat, dims)
        dec, sizes = eigh_sizes(eig_hermitian, h)
        plain, _ = eigh_sizes(eig_hermitian, h, split=False)
        assert sizes == [h.dim]
        assert np.array_equal(dec.eigenvalues, plain.eigenvalues)
        assert np.array_equal(dec.eigenvectors, plain.eigenvectors)


def test_spectral_frame_rotates_columns_back(rng):
    """spin_spectrum diagonalizes YYY + ZZ, which is real only in the
    diagonal gauge, block by block in that frame; with each block's rows
    multiplied back by the phase the blocks form a decomposition of the
    original operator with its block structure."""
    terms = [((0, 1, 2), "YYY", float(rng.normal()))]
    terms += [(b, "ZZ", float(rng.normal())) for b in ((0, 1), (1, 2))]
    spec = SpinModelSpec(kind="custom_terms", n_sites=3, custom_terms=tuple(terms))
    dec, handed = solve_recording_blocks(spec)
    h = build_spin_hamiltonian(spec).matrix
    assert h.imag.any() and all(sub.dtype.kind == "f" for _, sub in handed)
    assert len(dec.blocks) == 4
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - h)) <= 1e-12
    assert np.array_equal(dec.columns(3), dec.eigenvectors[:, :3])


#: Columns: a Bell vector, then the product states |00>, |01> and |10>.
BELL_THEN_PRODUCT = np.array(
    [[1 / np.sqrt(2), 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1 / np.sqrt(2), 0, 0, 0]]
)


def bell_then_product(eigenvalues, positions, rows=range(4), vecs=BELL_THEN_PRODUCT):
    """Two-qubit spectrum of one block holding ``vecs`` at ``positions``."""
    block = (np.asarray(rows), np.asarray(positions), np.asarray(vecs, dtype=complex))
    return SpectralDecomposition(eigenvalues, (block,), (2, 2))


def test_spectrum_rejects_levels_out_of_order():
    # position 0 holds the Bell vector at 5, but the ground level is the
    # product state |00> at -3: read as ordered, sweep certified it entangled
    with pytest.raises(ValueError, match="non-decreasing"):
        bell_then_product([5.0, -3.0, 7.0, 9.0], [0, 1, 2, 3])
    # in order, |00> sits at position 0 and the witness never fires
    res = sweep(bell_then_product([-3.0, 5.0, 7.0, 9.0], [1, 0, 2, 3]), [0.1, 0.5, 1.0])
    assert res.E_lower == 0.0
    assert not res.eq2_fires.any() and not res.eq4_fires.any()


def test_spectrum_rejects_malformed_levels_and_blocks():
    ordered, positions = [-3.0, 5.0, 7.0, 9.0], [1, 0, 2, 3]
    for vals in ([-3.0, math.nan, 7.0, 9.0], [-math.inf, 5.0, 7.0, 9.0], [],
                 [[-3.0, 5.0], [7.0, 9.0]]):
        with pytest.raises(ValueError, match="eigenvalues must be"):
            bell_then_product(vals, positions)
    for bad in ([1, 1, 2, 3], [1, 0, 2, 4], [1, 0, 2, -1]):  # repeated, out of range
        with pytest.raises(ValueError, match="positions must cover 0..3 once"):
            bell_then_product(ordered, bad)
    for bad in ([0, 1, 2, 2], [0, 1, 2, 5]):
        with pytest.raises(ValueError, match="indices must cover 0..3 once"):
            bell_then_product(ordered, positions, rows=bad)
    with pytest.raises(ValueError, match="positions must cover"):  # position 3 missing
        bell_then_product(ordered, [1, 0, 2], vecs=BELL_THEN_PRODUCT[:, :3])
    with pytest.raises(ValueError, match="indices must cover"):  # row 3 missing
        bell_then_product(ordered, positions, rows=[0, 1, 2], vecs=BELL_THEN_PRODUCT[:3])
    with pytest.raises(ValueError, match=r"shape \(4, 3\) do not match 4 indices and 4"):
        bell_then_product(ordered, positions, vecs=BELL_THEN_PRODUCT[:, :3])


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entropy_pure_projector():
    assert von_neumann_entropy(bell_pure().to_density()) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4, (2, 2))
    assert von_neumann_entropy(rho) == pytest.approx(np.log(4), abs=1e-12)


def test_entropy_two_level_formula():
    rho = DensityOperator(np.diag([1 / 3, 2 / 3]), (2,))
    expect = math.log(3) - (2 / 3) * math.log(2)
    assert von_neumann_entropy(rho) == pytest.approx(expect, abs=1e-12)


def test_entropy_additivity(rng):
    for _ in range(8):
        a = random_density(rng, (2,))
        b = random_density(rng, (2,))
        joint = tensor_product(a, b)
        s_joint = von_neumann_entropy(DensityOperator(joint.matrix, joint.dims))
        s_parts = von_neumann_entropy(a) + von_neumann_entropy(b)
        assert abs(s_joint - s_parts) <= 1e-8


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------

def test_relative_entropy_self_is_zero(rng):
    rho = random_density(rng, (2, 2))
    assert abs(quantum_relative_entropy(rho, rho)) < 1e-9


def test_relative_entropy_pure_vs_mixed():
    sigma = PureState(np.array([1, 0], dtype=complex), (2,)).to_density()
    rho = DensityOperator(I2 / 2, (2,))
    assert quantum_relative_entropy(sigma, rho) == pytest.approx(LN2, abs=1e-12)


def test_relative_entropy_disjoint_support_is_infinite():
    s0 = PureState(np.array([1, 0], dtype=complex), (2,)).to_density()
    s1 = PureState(np.array([0, 1], dtype=complex), (2,)).to_density()
    assert quantum_relative_entropy(s0, s1) == math.inf


def test_relative_entropy_klein_inequality(rng):
    for _ in range(10):
        sigma = random_density(rng, (2, 2))
        rho = random_density(rng, (2, 2))
        assert quantum_relative_entropy(sigma, rho) >= -1e-9


def test_relative_entropy_dimension_mismatch():
    a = random_density(np.random.default_rng(0), (2,))
    b = random_density(np.random.default_rng(0), (3,))
    with pytest.raises(ValueError, match="mismatch"):
        quantum_relative_entropy(a, b)


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def test_partial_transpose_product_state_stays_positive(rng):
    a = random_density(rng, (2,))
    b = random_density(rng, (2,))
    joint = tensor_product(a, b)
    rho = DensityOperator(joint.matrix, joint.dims)
    pt = partial_transpose(rho, {1})
    evals = np.linalg.eigvalsh(pt.matrix)
    assert evals.min() >= -1e-12
    assert np.allclose(np.sort(evals), np.sort(np.linalg.eigvalsh(rho.matrix)))


def test_partial_transpose_bell():
    pt = partial_transpose(bell_pure().to_density(), {1})
    assert np.linalg.eigvalsh(pt.matrix).min() == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_identity_fixed_point():
    rho = DensityOperator(np.eye(4) / 4, (2, 2))
    pt = partial_transpose(rho, {0})
    assert np.allclose(pt.matrix, np.eye(4) / 4)


def test_partial_transpose_bad_index():
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(bell_pure().to_density(), {3})
