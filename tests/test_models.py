import math

import numpy as np
import pytest

from thermwit import (
    DimensionCapError,
    SpectralDecomposition,
    SpinModelSpec,
    build_spin_hamiltonian,
    eig_hermitian,
    ground_state,
    make_spectrum,
)
from thermwit.models import SPIN_KINDS, chain_bonds
from thermwit.qops import DEGENERACY_TOL
from conftest import SX, SZ, kron_hamiltonian, pauli_string


def heis(n, J=1.0, boundary="open"):
    return build_spin_hamiltonian(
        SpinModelSpec(kind="heisenberg", n_sites=n, coupling=J, boundary=boundary)
    )


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
    gs = ground_state(eig_hermitian(h))
    assert gs.energy == pytest.approx(-2.0, abs=1e-12)
    assert gs.degeneracy == 1
    plus = np.array([1, 1]) / np.sqrt(2)
    overlap = abs(np.vdot(gs.state.amplitudes, np.kron(plus, plus))) ** 2
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


def test_built_hamiltonians_exactly_hermitian():
    for kind in ("heisenberg", "xy", "transverse_ising"):
        spec = SpinModelSpec(kind=kind, n_sites=3, coupling=0.7, field=0.3)
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
    if kind != "custom_terms":
        # |field| >= |coupling| keeps the transverse-Ising gap open; in the
        # ordered phase it closes exponentially in n, and a ground vector is
        # only determined to about eps * |H| / gap by any eigensolver.
        coupling, field = rng.choice([-1, 1], 2) * (rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0))
        return SpinModelSpec(kind=kind, n_sites=n, coupling=float(coupling),
                             field=float(field), boundary=boundary)
    terms = []
    for _ in range(2 * n):
        k = int(rng.integers(1, min(n, 3) + 1))
        sites = tuple(int(s) for s in rng.choice(n, k, replace=False))
        terms.append((sites, "".join(rng.choice(list("XYZ"), k)), float(rng.normal())))
    return SpinModelSpec(kind=kind, n_sites=n, custom_terms=tuple(terms), boundary=boundary)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("kind", SPIN_KINDS)
def test_term_list_backend_matches_kron_and_dense(kind, boundary, rng):
    """Bit-operation assembly equals the Kronecker sum exactly; the block
    eigendecomposition matches the dense one in energies and ground level."""
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


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------

def test_ground_state_singlet():
    gs = ground_state(eig_hermitian(heis(2)))
    assert gs.energy == pytest.approx(-3.0, abs=1e-12)
    assert gs.degeneracy == 1
    s = 1 / np.sqrt(2)
    assert np.allclose(gs.state.amplitudes, [0, s, -s, 0], atol=1e-10)


def test_ground_state_degeneracy_flagged():
    spec = SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0,), "Z", 1.0),))
    gs = ground_state(eig_hermitian(build_spin_hamiltonian(spec)))  # Z x I ignores site 1
    assert gs.degeneracy == 2
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)


def test_canonical_ground_vector_is_basis_independent(rng):
    h = heis(5, boundary="periodic")  # fourfold degenerate ground level
    gs = ground_state(eig_hermitian(h))
    assert gs.degeneracy == 4
    vals, vecs = np.linalg.eigh(h.matrix)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    vecs[:, :4] = vecs[:, :4] @ u
    everything = np.arange(h.dim)
    rotated = SpectralDecomposition(vals, ((everything, everything, vecs),), h.dims)
    other = ground_state(rotated)
    assert np.max(np.abs(other.state.amplitudes - gs.state.amplitudes)) <= 1e-10
    # it lies in the ground level
    energy = np.vdot(gs.state.amplitudes, h.matrix @ gs.state.amplitudes).real
    assert energy == pytest.approx(gs.energy, abs=1e-10)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_inputs():
    with pytest.raises(ValueError, match="kind"):
        SpinModelSpec(kind="xyz-chain", n_sites=2)
    with pytest.raises(ValueError, match="n_sites"):
        SpinModelSpec(kind="xy", n_sites=1)
    with pytest.raises(DimensionCapError):
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
    sp = make_spectrum("custom", frequencies=[2.0, 1.0, 3.0], statistics="boltzmann",
                       particle_target=2.0)
    assert np.allclose(sp.frequencies, [1.0, 2.0, 3.0])


def test_spectrum_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        make_spectrum("custom", frequencies=[0.0, 1.0], statistics="bose",
                      chemical_potential=-1.0)
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
        make_spectrum("custom", frequencies=[math.nan, 1.0], statistics="bose",
                      chemical_potential=0.0)
    with pytest.raises(ValueError, match="finite"):
        make_spectrum("custom", frequencies=[math.inf, 1.0], statistics="fermi",
                      particle_target=1.0)
    with pytest.raises(ValueError, match="particle_target .* finite"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="fermi",
                      particle_target=math.nan)
    with pytest.raises(ValueError, match="chemical_potential .* finite"):
        make_spectrum("uniform", n_modes=2, omega=1.0, statistics="bose",
                      chemical_potential=math.nan)
