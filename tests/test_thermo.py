import math

import numpy as np
import pytest

from thermwit import (
    HermitianOperator,
    PureState,
    SpinModelSpec,
    build_spin_hamiltonian,
    canonical_scalars,
    check_eq3,
    eig_hermitian,
    quantum_relative_entropy,
    rel_entropy_pure_to_thermal,
    thermal_ensemble,
    von_neumann_entropy,
)
from conftest import LN2, heis2_closed_form


def level_system(energies):
    return HermitianOperator(np.diag(energies).astype(complex), (len(energies),))


def heis2():
    return build_spin_hamiltonian(SpinModelSpec(kind="heisenberg", n_sites=2))


# ---------------------------------------------------------------------------
# ensemble construction
# ---------------------------------------------------------------------------

def test_two_level_high_temperature_limit():
    ens = thermal_ensemble(eig_hermitian(level_system([0.0, 1.0])), 1e6)
    assert abs(ens.S - LN2) <= 1e-6


def test_heisenberg_two_site_closed_form():
    ens = thermal_ensemble(eig_hermitian(heis2()), 1.0)
    ref = heis2_closed_form(1.0)
    assert ens.Z == pytest.approx(ref["Z"], rel=1e-12)
    assert ens.p == pytest.approx(ref["p"], rel=1e-12)
    assert ens.S == pytest.approx(ref["S"], rel=1e-12)
    assert ens.U == pytest.approx(ref["U"], rel=1e-12)
    # frozen values from the pre-build closed-form oracle
    assert ens.Z == pytest.approx(21.189175246702, rel=1e-10)
    assert ens.p == pytest.approx(0.9479149938275155, rel=1e-10)
    assert ens.S == pytest.approx(0.26183047439587, rel=1e-9)


def test_low_temperature_third_law_limit():
    ens = thermal_ensemble(eig_hermitian(heis2()), 1e-6)
    assert ens.S <= 1e-6
    assert ens.p >= 1 - 1e-6


def test_rho_t_is_valid_state_and_commutes():
    ens = thermal_ensemble(eig_hermitian(heis2()), 0.75)
    assert "rho_T" not in vars(ens)  # built on first read
    h = heis2()
    comm = ens.rho_T.matrix @ h.matrix - h.matrix @ ens.rho_T.matrix
    assert np.max(np.abs(comm)) <= 1e-9
    assert abs(np.trace(ens.rho_T.matrix) - 1) <= 1e-10
    assert np.linalg.eigvalsh(ens.rho_T.matrix).min() >= -1e-12
    assert ens.S == pytest.approx(von_neumann_entropy(ens.rho_T), abs=1e-10)


def test_rejects_nonpositive_temperature():
    spectral = eig_hermitian(heis2())
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            thermal_ensemble(spectral, t)
        with pytest.raises(ValueError, match="positive"):
            canonical_scalars(spectral.eigenvalues, t)


# ---------------------------------------------------------------------------
# ground weight
# ---------------------------------------------------------------------------

def test_ground_weight_equal_mixing_limit():
    ens = thermal_ensemble(eig_hermitian(level_system([0.0, 1.0])), 1e9)
    assert ens.p == pytest.approx(0.5, abs=1e-9)


def test_ground_weight_exact_half():
    # p = 1/2 exactly when exp(4 beta) = 3 for the (-3, 1, 1, 1) spectrum
    ens = thermal_ensemble(eig_hermitian(heis2()), 4.0 / math.log(3.0))
    assert ens.p == pytest.approx(0.5, abs=1e-12)


def test_ground_weight_degenerate_level_is_per_state():
    ens = thermal_ensemble(eig_hermitian(level_system([0.0, 0.0])), 3.7)
    assert ens.p == pytest.approx(0.5, abs=1e-12)
    assert ens.spectral.ground_degeneracy == 2


def test_weight_matches_boltzmann_formula():
    for t in (0.3, 1.0, 7.0):
        ens = thermal_ensemble(eig_hermitian(heis2()), t)
        direct = math.exp(-ens.beta * (-3.0) - ens.log_Z)
        assert ens.p == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# pure-to-thermal relative entropy
# ---------------------------------------------------------------------------

def test_ground_state_gives_minus_log_weight():
    h = heis2()
    dec = eig_hermitian(h)
    ens = thermal_ensemble(dec, 1.3)
    psi = PureState(dec.eigenvectors[:, 0], h.dims)
    assert rel_entropy_pure_to_thermal(psi, ens) == pytest.approx(
        -math.log(ens.p), abs=1e-9
    )


def test_excited_two_level_closed_form():
    h = level_system([0.0, 1.0])
    ens = thermal_ensemble(eig_hermitian(h), 1.0)
    psi = PureState(np.array([0, 1], dtype=complex), (2,))
    expect = 1.0 + math.log(1 + math.exp(-1.0))
    assert rel_entropy_pure_to_thermal(psi, ens) == pytest.approx(expect, abs=1e-12)


def test_matches_general_relative_entropy(rng):
    h = heis2()
    ens = thermal_ensemble(eig_hermitian(h), 2.0)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = PureState(v / np.linalg.norm(v), (2, 2))
    closed = rel_entropy_pure_to_thermal(psi, ens)
    general = quantum_relative_entropy(psi.to_density(), ens.rho_T)
    assert closed == pytest.approx(general, abs=1e-7)


def test_dimension_mismatch_rejected():
    ens = thermal_ensemble(eig_hermitian(level_system([0.0, 1.0])), 1.0)
    psi = PureState(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
    with pytest.raises(ValueError, match="mismatch"):
        rel_entropy_pure_to_thermal(psi, ens)


# ---------------------------------------------------------------------------
# the weight-entropy inequality chain
# ---------------------------------------------------------------------------

def test_chain_equality_at_infinite_temperature():
    ens = thermal_ensemble(eig_hermitian(level_system([0.0, 1.0])), 1e9)
    chk = check_eq3(ens)
    assert chk.holds
    assert abs(chk.p - chk.exp_neg_S) <= 1e-6
    assert abs(chk.p - 0.5) <= 1e-6


def test_chain_equality_at_zero_temperature():
    ens = thermal_ensemble(eig_hermitian(heis2()), 1e-6)
    chk = check_eq3(ens)
    assert chk.holds
    assert abs(chk.p - chk.exp_neg_S) <= 1e-12


def test_chain_strict_on_random_spectrum(rng):
    energies = np.sort(rng.uniform(-1, 1, 6))
    ens = thermal_ensemble(eig_hermitian(level_system(energies)), 1.0)
    chk = check_eq3(ens)
    assert chk.holds
    assert chk.slack == pytest.approx(ens.beta * (ens.U - energies[0]), rel=1e-12)
    assert chk.slack > 0
    assert chk.p > chk.exp_neg_S


def test_chain_over_seeded_spectra(rng):
    for _ in range(20):
        levels = int(rng.integers(4, 33))
        energies = np.sort(rng.uniform(-2, 2, levels))
        dec = eig_hermitian(level_system(energies))
        for t in np.geomspace(1e-3, 1e3, 10):
            sc = canonical_scalars(dec.eigenvalues, float(t))
            slack = (sc.U - energies[0]) / t
            assert sc.p >= math.exp(-sc.S) - 1e-10
            assert slack >= -1e-10
            # equality iff the energy slack vanishes
            if slack <= 1e-9:
                assert abs(sc.p - math.exp(-sc.S)) <= 1e-9


# ---------------------------------------------------------------------------
# thermodynamic identities
# ---------------------------------------------------------------------------

def test_entropy_identity_spectral_vs_thermodynamic(rng):
    for _ in range(10):
        energies = np.sort(rng.uniform(-2, 2, int(rng.integers(4, 17))))
        for t in (0.05, 0.7, 13.0):
            sc = canonical_scalars(energies, t)
            assert abs(sc.S - (sc.U - sc.F) / t) <= 1e-8 * max(1.0, abs(sc.S))


def test_entropy_equals_free_energy_derivative():
    energies = np.array([-1.3, -0.2, 0.4, 1.8])
    for t in (0.2, 1.0, 5.0):
        delta = 1e-4 * t
        f = lambda temp: canonical_scalars(energies, temp).F
        s_fd = -(f(t + delta) - f(t - delta)) / (2 * delta)
        s = canonical_scalars(energies, t).S
        assert abs(s - s_fd) <= 1e-4 * max(abs(s), 1e-12)


def test_entropy_monotone_in_temperature():
    energies = np.array([-1.0, 0.3, 0.9, 2.2, 4.0])
    grid = np.geomspace(1e-3, 1e3, 60)
    entropies = [canonical_scalars(energies, float(t)).S for t in grid]
    diffs = np.diff(entropies)
    assert np.all(diffs >= -1e-10)
