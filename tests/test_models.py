import json
import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from thermwit import (
    ModeSpectrum,
    SpectralDecomposition,
    SpinModelSpec,
    build_spin_hamiltonian,
    cli,
    eig_hermitian,
    ground_state,
    make_spectrum,
    models,
    qops,
    ree_lower_bound,
    spin_spectrum,
)
from thermwit.models import SPIN_KINDS, chain_bonds
from thermwit.qops import DEGENERACY_TOL
from conftest import (
    SX,
    SY,
    SZ,
    eigh_sizes,
    kron_hamiltonian,
    pauli_string,
    solve_recording_blocks,
    traced_peak,
)


def heis(n, J=1.0, boundary="open"):
    return build_spin_hamiltonian(
        SpinModelSpec(kind="heisenberg", n_sites=n, coupling=J, boundary=boundary)
    )


def assembled(blocks, dim):
    """The block-diagonal matrix the blocks describe."""
    out = np.zeros((dim, dim), dtype=np.result_type(*(sub for _, sub in blocks)))
    for rows, sub in blocks:
        out[np.ix_(rows, rows)] = sub
    return out


def diagonal_gauge(n):
    """i**popcount(s) for every basis index s: D = diag(1, i) on every site."""
    return reduce(np.kron, [np.array([1, 1j])] * n)


# ---------------------------------------------------------------------------
# spin Hamiltonians
# ---------------------------------------------------------------------------

def test_heisenberg_two_site_spectrum():
    dec = eig_hermitian(heis(2))
    assert np.allclose(dec.eigenvalues, [-3, 1, 1, 1], atol=1e-12)


def test_xy_two_site_spectrum():
    h = build_spin_hamiltonian(SpinModelSpec(kind="xy", n_sites=2, coupling=1.0))
    assert np.allclose(eig_hermitian(h).eigenvalues, [-2, 0, 0, 2], atol=1e-12)


def test_transverse_ising_noninteracting_limit():
    spec = SpinModelSpec(kind="transverse_ising", n_sites=2, coupling=0.0, field=1.0)
    h = build_spin_hamiltonian(spec)
    expect = -(np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX))
    assert np.allclose(h.matrix, expect)
    dec = eig_hermitian(h)
    assert dec.eigenvalues[0] == pytest.approx(-2.0, abs=1e-12)
    assert dec.ground_degeneracy == 1
    plus = np.array([1, 1]) / np.sqrt(2)
    overlap = abs(np.vdot(ground_state(dec).amplitudes, np.kron(plus, plus))) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_custom_terms_model():
    spec = SpinModelSpec(
        kind="custom_terms",
        n_sites=2,
        custom_terms=(((0, 1), "ZZ", 0.5), ((0,), "X", -1.0)),
    )
    h = build_spin_hamiltonian(spec)
    expect = 0.5 * np.kron(SZ, SZ) - np.kron(SX, np.eye(2))
    assert np.allclose(h.matrix, expect)


def test_custom_term_sites_accept_numpy_integers():
    spec = SpinModelSpec(kind="custom_terms", n_sites=2,
                         custom_terms=(((np.int64(0), np.int32(1)), "ZZ", 0.5),))
    assert spec.custom_terms == (((0, 1), "ZZ", 0.5),)
    assert all(type(s) is int for s in spec.custom_terms[0][0])


@pytest.mark.parametrize("site", [0.0, 1.9, np.float64(1.0), "1", True, np.True_])
def test_custom_term_site_must_be_an_integer(site):
    # int() would truncate 1.9 to 1 and parse "1"; a bool is not a site
    with pytest.raises(ValueError, match="is not an integer"):
        SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((site,), "Z", 0.5),))


def test_built_hamiltonians_exactly_hermitian():
    for kind in ("heisenberg", "xy", "transverse_ising"):
        spec = SpinModelSpec(kind=kind, n_sites=3, coupling=0.7,
                             field=0.3 if kind == "transverse_ising" else 0.0)
        h = build_spin_hamiltonian(spec)
        assert np.array_equal(h.matrix, h.matrix.conj().T)


def test_periodic_adds_exactly_the_wrap_bond():
    n = 4
    assert len(chain_bonds(n, "open")) == n - 1
    assert len(chain_bonds(n, "periodic")) == n
    h_open = heis(n, boundary="open")
    h_ring = heis(n, boundary="periodic")
    wrap = sum(pauli_string(n, (n - 1, 0), p + p) for p in "XYZ")
    assert np.allclose(h_ring.matrix - h_open.matrix, wrap)


def test_periodic_spectrum_translation_invariant():
    n = 4
    h = heis(n, boundary="periodic")
    # one-site cyclic relabeling as a basis permutation
    dim = 2 ** n
    perm = np.zeros((dim, dim))
    for b in range(dim):
        bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
        shifted = bits[-1:] + bits[:-1]
        b2 = sum(v << (n - 1 - i) for i, v in enumerate(shifted))
        perm[b2, b] = 1.0
    relabeled = perm @ h.matrix @ perm.T
    a = np.linalg.eigvalsh(h.matrix)
    b = np.linalg.eigvalsh(relabeled)
    assert np.max(np.abs(a - b)) <= 1e-9


def _random_spec(rng, kind, n, boundary):
    if kind == "no_field":  # diagonal: every block is 1 x 1
        return SpinModelSpec(kind="transverse_ising", n_sites=n, boundary=boundary,
                             coupling=float(rng.uniform(0.5, 1.5)))
    if kind == "hopping":  # XX + YY cancel on |00> <-> |11>: blocks of unequal sizes
        terms = [((i,), "Z", float(rng.normal())) for i in range(n)]
        for b in chain_bonds(n, boundary)[1:]:  # site 0 hops nowhere
            c = float(rng.uniform(0.5, 1.5))
            terms += [(b, "XX", c), (b, "YY", c)]
        return SpinModelSpec(kind="custom_terms", n_sites=n, custom_terms=tuple(terms))
    if kind == "frame_switching":  # complex only through its Y fields; real with X as Y
        terms = [(b, p + p, float(rng.uniform(0.5, 1.5)))
                 for b in chain_bonds(n, boundary) for p in "XYZ"]
        terms += [((i,), p, float(rng.uniform(-0.6, 0.6))) for p in "YZ" for i in range(n)]
        return SpinModelSpec(kind="custom_terms", n_sites=n, custom_terms=tuple(terms))
    if kind != "custom_terms":
        # |field| >= |coupling| keeps the transverse-Ising gap open; in the
        # ordered phase it closes exponentially in n, and a ground vector is
        # only determined to about eps * |H| / gap by any eigensolver.
        coupling, field = rng.choice([-1, 1], 2) * (rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0))
        return SpinModelSpec(kind=kind, n_sites=n, coupling=float(coupling), boundary=boundary,
                             field=float(field) if kind == "transverse_ising" else 0.0)
    terms = []
    for _ in range(2 * n):
        k = int(rng.integers(1, min(n, 3) + 1))
        sites = tuple(int(s) for s in rng.choice(n, k, replace=False))
        terms.append((sites, "".join(rng.choice(list("XYZ"), k)), float(rng.normal())))
    return SpinModelSpec(kind=kind, n_sites=n, custom_terms=tuple(terms))  # the terms set the bonds


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("kind", SPIN_KINDS + ("frame_switching", "no_field", "hopping"))
def test_term_list_backend_matches_kron_and_dense(kind, boundary, rng):
    """Bit-operation assembly equals the Kronecker sum exactly; the dense
    eigendecomposition, and ``spin_spectrum`` with or without the diagonal
    gauge, match numpy's in energies and ground level; and every block
    ``spin_spectrum`` solves is exactly a submatrix of H (or of the gauged
    H)."""
    for n in (2, 4, 7, 10 if boundary == "periodic" else 9):
        spec = _random_spec(rng, kind, n, boundary)
        h = build_spin_hamiltonian(spec)
        assert np.array_equal(h.matrix, kron_hamiltonian(spec))
        dec = eig_hermitian(h)
        vals, vecs = np.linalg.eigh(h.matrix)
        assert np.max(np.abs(dec.eigenvalues - vals)) <= 1e-10
        g = int(np.count_nonzero(vals - vals[0] <= DEGENERACY_TOL))
        dense = vecs[:, :g] @ vecs[:, :g].conj().T
        block = dec.columns(g) @ dec.columns(g).conj().T
        assert np.max(np.abs(block - dense)) <= 1e-10
        framed, handed = solve_recording_blocks(spec)
        assert np.max(np.abs(framed.eigenvalues - vals)) <= 1e-10
        ground = framed.columns(g) @ framed.columns(g).conj().T
        assert np.max(np.abs(ground - dense)) <= 1e-10
        real_blocks = all(sub.dtype.kind == "f" for _, sub in handed)
        if kind in ("heisenberg", "xy", "transverse_ising"):  # real without a gauge
            assert real_blocks and not h.matrix.imag.any()
        if kind == "frame_switching":  # complex, and real in the gauge
            assert real_blocks and h.matrix.imag.any()
        # each block is the (gauged) dense submatrix exactly, and the blocks
        # partition the basis in order of their lowest index
        gauged = real_blocks and h.matrix.imag.any()
        phase = diagonal_gauge(n) if gauged else np.ones(2 ** n)
        solved = phase.conj()[:, None] * h.matrix * phase
        for rows, sub in handed:
            assert np.array_equal(sub, solved[np.ix_(rows, rows)])
        rows_of = [rows for rows, _ in handed]
        assert np.array_equal(np.sort(np.concatenate(rows_of)), np.arange(2 ** n))
        assert all(np.all(np.diff(rows) > 0) for rows in rows_of)
        assert np.all(np.diff([rows[0] for rows in rows_of]) > 0)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("kind", ["heisenberg", "xy"])
def test_sz_sectors_are_the_blocks(kind, n):
    # XX and YY share a flip mask but cancel on |00> <-> |11>, so the blocks
    # are the n + 1 Sz sectors, not the 2 cosets of the flip masks' span
    spec = SpinModelSpec(kind=kind, n_sites=n, boundary="periodic")
    dec = spin_spectrum(spec)
    assert len(dec.blocks) == n + 1
    assert sorted(rows.size for rows, _, _ in dec.blocks) == sorted(math.comb(n, k)
                                                                    for k in range(n + 1))


def test_spin_spectrum_never_builds_the_dense_matrix():
    # tracemalloc counts numpy's buffers; one dense complex matrix is 16 MiB
    # at 10 sites, and the largest Sz block of the ring is 252 x 252
    spec = SpinModelSpec(kind="heisenberg", n_sites=10, boundary="periodic")
    tracemalloc.start()
    try:
        spin_spectrum(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 ** 2


def _transverse_ising_ring_10():
    return SpinModelSpec(kind="transverse_ising", n_sites=10, coupling=1.0, field=1.0,
                         boundary="periodic")


def test_block_writer_needs_no_memory_beyond_its_block():
    # the ring's one block is 1024 x 1024 real, 8 MiB; an m x m index array
    # beside it would double the peak
    table = {flip: amp.real for flip, amp in models._amplitudes(_transverse_ising_ring_10()).items()}
    [(rows, sub)], peak = traced_peak(models._blocks, table, 1024)
    assert sub.nbytes == 8 * 1024 ** 2
    assert peak <= 1.1 * sub.nbytes


def test_dense_writer_needs_no_memory_beyond_its_matrix():
    # 16 MiB at 10 sites; the operator copies an array that does not own its
    # data (a reshaped view of a flat buffer), which would double the peak
    h, peak = traced_peak(build_spin_hamiltonian, _transverse_ising_ring_10())
    assert h.matrix.flags.owndata and h.matrix.nbytes == 16 * 1024 ** 2
    assert peak <= 1.2 * h.matrix.nbytes


def test_pauli_frame_signs_follow_from_its_unitary():
    """The swap's per-site signs, and the phase table that undoes it, follow
    from D = diag(1, i): X -> -Y, Y -> X, Z -> Z, and D^k = diag(1, i^k)."""
    d = np.diag([1, 1j])
    swapped = {"X": -SY, "Y": SX, "Z": SZ}
    for label, sigma in {"X": SX, "Y": SY, "Z": SZ}.items():
        assert np.array_equal(d.conj().T @ sigma @ d, swapped[label])
    for k in range(8):
        assert models._I_POWERS[k % 4] == np.linalg.matrix_power(d, k)[1, 1]


def test_xy_swap_is_the_diagonal_gauge(rng):
    """With D = diag(1, i) on every site, a model with no term of an odd
    number of X is real as D^dag H D, which is what spin_spectrum hands to
    the eigensolver, and its eigenvectors (the gauged ones times D)
    diagonalize H."""
    for n in (2, 3, 5, 8):
        terms = [(b, p + p, float(rng.normal())) for b in chain_bonds(n, "periodic") for p in "XYZ"]
        terms += [((i,), p, float(rng.normal())) for p in "YZ" for i in range(n)]
        terms += [((i, i + 1, i + 2), "YYY", float(rng.normal())) for i in range(n - 2)]
        terms += [((n - 1,), "X", 0.0)]  # a zero term does not block the gauge
        terms = [terms[k] for k in rng.permutation(len(terms))]
        spec = SpinModelSpec(kind="custom_terms", n_sites=n, custom_terms=tuple(terms))
        h = build_spin_hamiltonian(spec)
        phase = diagonal_gauge(n)
        dec, handed = solve_recording_blocks(spec)
        gauged = assembled(handed, 2 ** n)
        assert gauged.dtype.kind == "f" and h.matrix.imag.any()
        assert np.array_equal(phase.conj()[:, None] * h.matrix * phase, gauged)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h.matrix)) <= 1e-12
        assert np.array_equal(dec.columns(3), dec.eigenvectors[:, :3])
    bonds = chain_bonds(4, "open")
    dm = [(b, p, c) for b in bonds for p, c in (("XY", 1.0), ("YX", -1.0), ("ZZ", 0.5))]
    for spec in (SpinModelSpec(kind="heisenberg", n_sites=4),
                 SpinModelSpec(kind="xy", n_sites=4),
                 SpinModelSpec(kind="transverse_ising", n_sites=4, field=0.7),
                 SpinModelSpec(kind="custom_terms", n_sites=4, custom_terms=tuple(dm))):
        _, handed = solve_recording_blocks(spec)
        # not gauged: the blocks are H's own
        assert np.array_equal(assembled(handed, 16), build_spin_hamiltonian(spec).matrix)


def test_pauli_frame_keeps_the_blocks_of_the_computational_one():
    n = 6
    bonds = chain_bonds(n, "open")
    # a DM model XY - YX + ZZ is complex in either frame and keeps its Sz sectors
    terms = [(b, p, c) for b in bonds for p, c in (("XY", 1.0), ("YX", -1.0), ("ZZ", 0.5))]
    spec = SpinModelSpec(kind="custom_terms", n_sites=n, custom_terms=tuple(terms))
    dec, handed = solve_recording_blocks(spec)
    assert any(sub.dtype.kind == "c" for _, sub in handed) and len(dec.blocks) == n + 1
    # YYY on each triple, with ZZ bonds, is real in the gauge; Z stays
    # diagonal, so the four cosets of the flip masks' span stay four blocks
    terms = [((i, i + 1, i + 2), "YYY", 0.7) for i in range(n - 2)]
    terms += [(b, "ZZ", 1.0) for b in bonds]
    spec = SpinModelSpec(kind="custom_terms", n_sites=n, custom_terms=tuple(terms))
    dec, handed = solve_recording_blocks(spec)
    h = build_spin_hamiltonian(spec).matrix
    assert all(sub.dtype.kind == "f" for _, sub in handed) and h.imag.any()
    assert len(dec.blocks) == 4
    # H has no entry between two blocks
    block_of = np.empty(2 ** n, dtype=int)
    for k, (rows, _, _) in enumerate(dec.blocks):
        block_of[rows] = k
    assert not h[block_of[:, None] != block_of].any()


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------

def test_ground_state_singlet():
    dec = eig_hermitian(heis(2))
    assert dec.eigenvalues[0] == pytest.approx(-3.0, abs=1e-12)
    assert dec.ground_degeneracy == 1
    s = 1 / np.sqrt(2)
    assert np.allclose(ground_state(dec).amplitudes, [0, s, -s, 0], atol=1e-10)


def test_ground_state_degeneracy_flagged():
    spec = SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0,), "Z", 1.0),))
    dec = eig_hermitian(build_spin_hamiltonian(spec))  # Z x I ignores site 1
    assert dec.ground_degeneracy == 2
    assert dec.eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)


def test_canonical_ground_vector_is_basis_independent(rng):
    h = heis(5, boundary="periodic")  # fourfold degenerate ground level
    dec = eig_hermitian(h)
    psi = ground_state(dec)
    assert dec.ground_degeneracy == 4
    vals, vecs = np.linalg.eigh(h.matrix)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    vecs[:, :4] = vecs[:, :4] @ u
    everything = np.arange(h.dim)
    rotated = SpectralDecomposition(vals, ((everything, everything, vecs),), h.dims)
    other = ground_state(rotated)
    assert np.max(np.abs(other.amplitudes - psi.amplitudes)) <= 1e-10
    # it lies in the ground level
    energy = np.vdot(psi.amplitudes, h.matrix @ psi.amplitudes).real
    assert energy == pytest.approx(dec.eigenvalues[0], abs=1e-10)


def test_canonical_ground_vector_is_frame_independent():
    # Y0 anticommutes with Z0 Z1 and site 2 is free: a fourfold ground level,
    # solved with X relabelled as Y, where the matrix is real
    spec = SpinModelSpec(kind="custom_terms", n_sites=3,
                         custom_terms=(((0,), "Y", 0.6), ((0, 1), "ZZ", 1.0)))
    framed, handed = solve_recording_blocks(spec)
    h = build_spin_hamiltonian(spec)
    assert all(sub.dtype.kind == "f" for _, sub in handed) and h.matrix.imag.any()
    assert framed.ground_degeneracy == 4
    psi = ground_state(framed)
    reference = ground_state(eig_hermitian(h))
    assert np.max(np.abs(psi.amplitudes - reference.amplitudes)) <= 1e-10
    assert abs(ree_lower_bound(psi).lower - ree_lower_bound(reference).lower) <= 1e-12


# ---------------------------------------------------------------------------
# flip-symmetric blocks
# ---------------------------------------------------------------------------

def ground_projector(dec):
    vecs = dec.columns(dec.ground_degeneracy)
    return vecs @ vecs.conj().T


def has_flip_parity(vec):
    """The vector is even or odd under the global spin flip, bit for bit."""
    return np.array_equal(vec[::-1], vec) or np.array_equal(vec[::-1], -vec)


@pytest.mark.parametrize("spec", [
    # transverse-Ising rows are one flip-closed block; the Sz = 0 sector of a
    # 10-site Heisenberg or xy ring is one of 252 rows
    SpinModelSpec(kind="transverse_ising", n_sites=8, field=1.3, boundary="periodic"),
    SpinModelSpec(kind="transverse_ising", n_sites=9, coupling=-0.7, field=1.1),
    SpinModelSpec(kind="transverse_ising", n_sites=10, field=1.0, boundary="periodic"),
    SpinModelSpec(kind="heisenberg", n_sites=10, boundary="periodic"),
    SpinModelSpec(kind="xy", n_sites=10, coupling=0.8, boundary="periodic"),
], ids=lambda spec: f"{spec.kind}{spec.n_sites}_{spec.boundary}")
def test_flip_split_matches_the_plain_eigensolver(spec, tmp_path, capsys):
    split, sizes = eigh_sizes(spin_spectrum, spec)
    plain, whole = eigh_sizes(spin_spectrum, spec, split=False)
    largest = max(whole)
    assert largest > qops.SPLIT_ROWS and largest // 2 in sizes and largest not in sizes
    scale = max(1.0, abs(plain.eigenvalues[0]))
    assert np.max(np.abs(split.eigenvalues - plain.eigenvalues)) <= 1e-12 * scale
    assert split.ground_degeneracy == plain.ground_degeneracy
    assert np.max(np.abs(ground_projector(split) - ground_projector(plain))) <= 1e-10
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": spec.kind, "n_sites": spec.n_sites,
                                 "J": spec.coupling, "h": spec.field,
                                 "boundary": spec.boundary}))
    csv = []
    for cutoff in (qops.SPLIT_ROWS, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qops, "SPLIT_ROWS", cutoff)
            assert cli.main(["spin-sweep", "--model", str(model), "--temps", "0.05:6:60"]) == 0
        csv.append(capsys.readouterr().out.splitlines())
    # the T* rows and every verdict are the same bytes; a level that moves by
    # 1e-15 can still flip the 12th digit of a cell (one cell of the 8- and
    # the 10-site transverse-Ising rings here)
    assert csv[0][-2:] == csv[1][-2:]
    for split_row, plain_row in zip(*csv, strict=True):
        for a, b in zip(split_row.split(","), plain_row.split(","), strict=True):
            assert a == b or math.isclose(float(a), float(b), rel_tol=1e-11, abs_tol=0)


def test_flip_split_leaves_other_blocks_whole(rng):
    # the 10-site chain of the benchmark: Y and Z fields join all 1024 rows
    # into one block, and the Z fields break the flip symmetry; and the
    # 128 rows of the 7-site transverse-Ising ring, at the cutoff
    n = 10
    terms = [((i, i + 1), p + p, float(rng.uniform(0.5, 1.5))) for i in range(n - 1) for p in "XYZ"]
    terms += [((i,), "Y", float(rng.uniform(0.2, 0.6))) for i in range(n)]
    terms += [((i,), "Z", float(rng.uniform(-0.5, 0.5))) for i in range(n)]
    for spec, rows in (
            (SpinModelSpec(kind="custom_terms", n_sites=n, custom_terms=tuple(terms)), 1024),
            (SpinModelSpec(kind="transverse_ising", n_sites=7, field=1.0, boundary="periodic"),
             128)):
        split, sizes = eigh_sizes(spin_spectrum, spec)
        plain, _ = eigh_sizes(spin_spectrum, spec, split=False)
        assert sizes == [rows]
        assert np.array_equal(split.eigenvalues, plain.eigenvalues)
        assert np.array_equal(split.eigenvectors, plain.eigenvectors)


def test_near_degenerate_ring_has_a_ground_vector_of_exact_flip_parity():
    # a ground gap of 4.7e-9, just above DEGENERACY_TOL: one eigh of all 1024
    # rows fixes the ground vector only to about eps * |H| / gap and mixes in
    # the other parity sector at about 7e-7; each half holds one sector
    spec = SpinModelSpec(kind="transverse_ising", n_sites=10, coupling=-0.8532634633370562,
                         field=0.1407478214169502, boundary="periodic")
    dec = spin_spectrum(spec)
    assert dec.ground_degeneracy == 1 and DEGENERACY_TOL < dec.levels[1] < 1e-8
    assert has_flip_parity(ground_state(dec).amplitudes)


def test_ground_doublet_across_both_parity_sectors_matches_the_plain_eigensolver():
    # deep in the ordered phase the even and odd ground states are split by
    # far less than DEGENERACY_TOL: one ground level of two, one per sector
    spec = SpinModelSpec(kind="transverse_ising", n_sites=10, field=0.05, boundary="periodic")
    split = spin_spectrum(spec)
    plain, _ = eigh_sizes(spin_spectrum, spec, split=False)
    assert split.ground_degeneracy == plain.ground_degeneracy == 2
    pair = split.columns(2)
    assert all(has_flip_parity(v) for v in pair.T)
    assert np.array_equal(pair[::-1, 0], pair[:, 0]) != np.array_equal(pair[::-1, 1], pair[:, 1])
    assert np.max(np.abs(ground_projector(split) - ground_projector(plain))) <= 1e-10
    psi, reference = ground_state(split).amplitudes, ground_state(plain).amplitudes
    assert np.max(np.abs(psi - reference)) <= 1e-10


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_inputs():
    with pytest.raises(ValueError, match="kind"):
        SpinModelSpec(kind="xyz-chain", n_sites=2)
    with pytest.raises(ValueError, match="n_sites"):
        SpinModelSpec(kind="xy", n_sites=1)
    with pytest.raises(MemoryError, match="cap"):
        SpinModelSpec(kind="xy", n_sites=13)
    with pytest.raises(ValueError, match="boundary"):
        SpinModelSpec(kind="xy", n_sites=2, boundary="twisted")
    with pytest.raises(ValueError, match="out of range"):
        SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0, 5), "XX", 1.0),))
    with pytest.raises(ValueError, match="XYZ"):
        SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0,), "W", 1.0),))
    with pytest.raises(ValueError, match="finite"):
        SpinModelSpec(kind="heisenberg", n_sites=3, coupling=math.nan)
    with pytest.raises(ValueError, match="finite"):
        SpinModelSpec(kind="transverse_ising", n_sites=3, field=math.inf)
    with pytest.raises(ValueError, match="finite"):
        SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0,), "X", math.nan),))
    with pytest.raises(ValueError, match="nonempty custom_terms"):
        SpinModelSpec(kind="custom_terms", n_sites=2)
    with pytest.raises(ValueError, match="do not match"):
        SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0, 1), "X", 1.0),))
    with pytest.raises(ValueError, match="repeated site"):
        SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0, 0), "XX", 1.0),))
    with pytest.raises(ValueError, match="only allowed"):
        SpinModelSpec(kind="heisenberg", n_sites=2, custom_terms=(((0,), "X", 1.0),))
    # a number is a real number, not a bool or a string to be parsed
    with pytest.raises(ValueError, match="coupling True is not a finite real number"):
        SpinModelSpec(kind="heisenberg", n_sites=2, coupling=True)
    with pytest.raises(ValueError, match="term coefficient '0.5' is not a finite real number"):
        SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0,), "X", "0.5"),))
    with pytest.raises(ValueError, match="n_modes 2.7 is not an integer"):
        make_spectrum("uniform", n_modes=2.7, omega=1.0, statistics="bose", chemical_potential=0.0)
    with pytest.raises(ValueError, match="velocity '0.5' is not a finite real number"):
        make_spectrum("linear_dispersion", n_modes=2, velocity="0.5", statistics="bose",
                      chemical_potential=0.0)
    with pytest.raises(ValueError, match="frequencies must be real numbers, got '1'"):
        ModeSpectrum(["1", "2"], statistics="bose", chemical_potential=0.0)


@pytest.mark.parametrize("kwargs", [
    {"kind": "xy", "field": 0.7},
    {"kind": "heisenberg", "field": -0.1},
    {"kind": "custom_terms", "field": 0.7},
    {"kind": "custom_terms", "coupling": 5.0},
    {"kind": "custom_terms", "boundary": "periodic"},
])
def test_spec_rejects_a_value_its_kind_ignores(kwargs):
    # the xy field would give the field-free xy spectrum bit for bit, and
    # custom terms carry their own couplings and sites
    terms = (((0, 1), "ZZ", 1.0),) if kwargs["kind"] == "custom_terms" else None
    with pytest.raises(ValueError, match="field|coupling"):
        SpinModelSpec(n_sites=3, custom_terms=terms, **kwargs)


@pytest.mark.parametrize("n_sites", [2.9, 3.0, "3", True, np.float64(3.0)])
def test_spec_n_sites_must_be_an_integer(n_sites):
    with pytest.raises(ValueError, match=re.escape(f"n_sites {n_sites!r} is not an integer")):
        SpinModelSpec(kind="heisenberg", n_sites=n_sites)


def test_spec_n_sites_accepts_numpy_integers():
    assert type(SpinModelSpec(kind="heisenberg", n_sites=np.int64(3)).n_sites) is int


# ---------------------------------------------------------------------------
# mode spectra
# ---------------------------------------------------------------------------

def test_make_spectrum_uniform():
    sp = make_spectrum("uniform", n_modes=4, omega=1.0, statistics="bose",
                       chemical_potential=0.0)
    assert np.allclose(sp.frequencies, [1, 1, 1, 1])


def test_make_spectrum_linear_dispersion():
    sp = make_spectrum("linear_dispersion", n_modes=3, velocity=0.5,
                       statistics="fermi", particle_target=1.0)
    assert np.allclose(sp.frequencies, [0.5, 1.0, 1.5])


def test_make_spectrum_custom_sorts_ascending():
    sp = ModeSpectrum([2.0, 1.0, 3.0], statistics="boltzmann", particle_target=2.0)
    assert np.allclose(sp.frequencies, [1.0, 2.0, 3.0])


def test_spectrum_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        ModeSpectrum([0.0, 1.0], statistics="bose", chemical_potential=-1.0)
    with pytest.raises(ValueError, match="exactly one"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="bose")
    with pytest.raises(ValueError, match="exactly one"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="bose",
                      particle_target=1.0, chemical_potential=0.0)
    with pytest.raises(ValueError, match="below"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="bose",
                      chemical_potential=1.5)
    with pytest.raises(ValueError, match="unknown statistics"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="anyon",
                      chemical_potential=0.0)
    with pytest.raises(ValueError, match="finite"):
        ModeSpectrum([math.nan, 1.0], statistics="bose", chemical_potential=0.0)
    with pytest.raises(ValueError, match="finite"):
        ModeSpectrum([math.inf, 1.0], statistics="fermi", particle_target=1.0)
    with pytest.raises(ValueError, match="particle_target .* finite"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="fermi",
                      particle_target=math.nan)
    with pytest.raises(ValueError, match="chemical_potential .* finite"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="bose",
                      chemical_potential=math.nan)
    with pytest.raises(ValueError, match="unknown spectrum kind"):  # use ModeSpectrum
        make_spectrum("custom", statistics="bose", chemical_potential=0.0)
    with pytest.raises(ValueError, match="nonempty"):
        ModeSpectrum([], statistics="bose", chemical_potential=-1.0)
    with pytest.raises(ValueError, match="particle_target must be positive"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="fermi", particle_target=0.0)
    with pytest.raises(ValueError, match="needs n_modes and omega"):
        make_spectrum("uniform", n_modes=2, statistics="bose", chemical_potential=0.0)
    with pytest.raises(ValueError, match="needs n_modes and velocity"):
        make_spectrum("linear_dispersion", n_modes=2, statistics="bose", chemical_potential=0.0)
