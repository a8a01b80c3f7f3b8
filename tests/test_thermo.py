import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermwit import thermo
from thermwit import (
    HermitianOperator,
    PureState,
    SpectralDecomposition,
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
from conftest import LN2, heis2_closed_form, point_canonical


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
    assert ens.log_Z == pytest.approx(3e6, rel=1e-12)  # E0 = -3
    assert ens.Z == math.inf  # exp(log_Z) overflows; log_Z is the stored quantity


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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 600), seed=st.integers(0, 2 ** 32 - 1),
       width=st.sampled_from([1e-3, 1.0, 30.0, 1e4]), log10_t=st.floats(-3.0, 3.0))
def test_rho_t_weights_have_the_bits_of_the_boltzmann_formula(d, seed, width, log10_t):
    # rho_T takes its weights from the grid code; on the basis states they
    # are [1, w...] / (1 + rest) with w = exp(-(e - e0)/T) above the ground
    # level and rest their sum, bit for bit
    e = np.sort(np.random.default_rng(seed).uniform(-1.0, 1.0, d) * width)
    t = 10.0 ** log10_t
    w = np.exp(-((e[1:] - e[0]) / t))
    direct = np.concatenate(([1.0], w)) / (1.0 + np.sum(w))
    basis = np.arange(d)
    ens = thermal_ensemble(SpectralDecomposition(e, ((basis, basis, np.eye(d)),), (d,)), t)
    assert np.array_equal(ens.rho_T.matrix, np.diag(direct))
    assert ens.rho_T.matrix[0, 0] == ens.p


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


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------

#: Random spectra: d levels in [-1, 1] times a width up to 1e4 (the cold end
#: of the grid then underflows the top weights to 0), the lowest level
#: repeated up to 3 times, and ascending grids of 1 to 60 temperatures.
spectra_and_grids = dict(
    levels=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300),
    width=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    ground_copies=st.integers(1, 3),
    log10_ts=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=60, unique=True),
)


def _spectrum(levels, width, ground_copies):
    e = np.asarray(levels) * width
    return np.concatenate([np.full(ground_copies - 1, e.min()), e])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**spectra_and_grids)
def test_grid_scalars_equal_one_point_evaluation(levels, width, ground_copies, log10_ts):
    energies = _spectrum(levels, width, ground_copies)
    temps = [10.0 ** x for x in sorted(log10_ts)]
    s, p, neg_ln_p = thermo.entropy_and_weight(np.sort(energies) - energies.min(), temps)
    for t, s_t, p_t, q_t in zip(temps, s.tolist(), p.tolist(), neg_ln_p.tolist()):
        reference = point_canonical(energies, t)
        assert (s_t, p_t, q_t) == (reference["S"], reference["p"], reference["neg_ln_p"])
        assert math.copysign(1.0, s_t) > 0  # a pure state's S is +0.0, never -0.0
        assert vars(canonical_scalars(energies, t)) == reference


def test_grid_row_blocks_do_not_change_the_values(monkeypatch):
    energies = np.random.default_rng(3).uniform(-40.0, 40.0, 64)
    levels = np.sort(energies) - energies.min()
    temps = np.geomspace(1e-2, 1e2, 50)
    whole = thermo.entropy_and_weight(levels, temps)
    assert whole[1][0] > 0 and np.any(np.exp(-levels / temps[0]) == 0)  # an underflowed tail
    monkeypatch.setattr(thermo, "_STACK_BYTES", 3 * 8 * levels.size)  # 3 rows per block
    blocked = thermo.entropy_and_weight(levels, temps)
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))


def test_grid_rejects_nonpositive_temperature():
    levels = np.array([0.0, 1.0])
    for bad in ([1.0, 0.0], [math.nan], [0.5, math.inf], [-1.0, 2.0]):
        with pytest.raises(ValueError, match="finite and positive"):
            thermo.entropy_and_weight(levels, bad)


def test_temperatures_must_be_real_numbers():
    # numpy would turn "2" into 2.0 and True into 1.0; the check names the value
    levels = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="temperatures must be real numbers, got '2'"):
        canonical_scalars(levels, "2")
    with pytest.raises(ValueError, match="temperatures must be real numbers, got True"):
        thermo.entropy_and_weight(levels, [0.5, True])
    with pytest.raises(ValueError, match="temperatures must be real numbers, got dtype bool"):
        thermo.entropy_and_weight(levels, np.array([True, False]))
    with pytest.raises(ValueError, match="got dtype complex128"):
        thermo.entropy_and_weight(levels, np.array([1.0 + 0j]))
    # integers are real numbers, and give the bits of the same floats
    assert canonical_scalars(levels, 2) == canonical_scalars(levels, 2.0)
    assert all(np.array_equal(a, b) for a, b in zip(
        thermo.entropy_and_weight(levels, np.array([1, 3])),
        thermo.entropy_and_weight(levels, [1.0, 3.0])))


def _exact_entropy_and_neg_ln_p(levels, t):
    """S and -ln p of the float ``levels`` (ascending from 0) at the float
    temperature ``t``, in 400-digit decimal arithmetic: with rest the
    Boltzmann weights above the ground level summed, -ln p = ln(1 + rest)
    and S = -ln p + (U - E0)/t. At 400 digits, 1 + rest keeps over 100
    digits of a rest as small as 1e-290."""
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        temp = Decimal(t)
        excited = [Decimal(x) for x in levels[1:].tolist()]
        weight = {x: (-x / temp).exp() for x in set(excited)}
        rest = sum((weight[x] for x in excited), Decimal(0))
        neg_ln_p = (1 + rest).ln()
        excess = sum(x * weight[x] for x in excited) / (1 + rest)
        return neg_ln_p + excess / temp, neg_ln_p


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(levels=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16),
       width=spectra_and_grids["width"], ground_copies=spectra_and_grids["ground_copies"],
       log10_ts=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True))
@example(levels=[-3.0, 1.0, 1.0, 1.0], width=1.0, ground_copies=1, log10_ts=[-2.0])
def test_entropy_and_neg_ln_p_are_accurate_to_the_last_digits(levels, width, ground_copies,
                                                               log10_ts):
    # against a 400-digit evaluation on the same float levels. At T = 0.01
    # the 2-site Heisenberg spectrum (-3, 1, 1, 1) has -ln p = ln(1 + 3e^-400)
    # = 5.7e-174, which -log(p) rounds to 0, since p rounds to 1
    energies = _spectrum(levels, width, ground_copies)
    shifted = np.sort(energies) - energies.min()
    temps = [10.0 ** x for x in sorted(log10_ts)]
    s, _, neg_ln_p = thermo.entropy_and_weight(shifted, temps)
    for t, got in zip(temps, zip(s.tolist(), neg_ln_p.tolist())):
        for value, exact in zip(got, _exact_entropy_and_neg_ln_p(shifted, t)):
            if exact > Decimal("1e-290"):
                assert abs(Decimal(value) - exact) <= Decimal("2e-13") * exact
