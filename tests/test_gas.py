import math

import numpy as np
import pytest

from thermwit import (
    ModeSpectrum,
    critical_temperature_estimate,
    default_fit_window,
    fit_entropy_scaling,
    fit_power_law,
    gas_state,
    geometric_frequency_scale,
    make_spectrum,
    mb_witness_check,
    occupation,
    solve_mu,
)

LN2 = math.log(2.0)


def fermi4(n_target):
    return ModeSpectrum([1.0, 2.0, 3.0, 4.0], statistics="fermi", particle_target=n_target)


def phonons():
    return make_spectrum("linear_dispersion", n_modes=200, velocity=0.01,
                         statistics="bose", chemical_potential=0.0)


def dense_fermi():
    return make_spectrum("linear_dispersion", n_modes=200, velocity=0.01,
                         statistics="fermi", particle_target=100.0)


# ---------------------------------------------------------------------------
# occupations
# ---------------------------------------------------------------------------

def test_fermi_half_filling_at_mu():
    for t in (0.01, 1.0, 50.0):
        assert occupation(2.0, 2.0, t, "fermi") == pytest.approx(0.5, abs=1e-12)


def test_bose_unit_occupation():
    # (omega - mu)/T = ln 2  ->  n = 1/(2 - 1) = 1
    assert occupation(LN2, 0.0, 1.0, "bose") == pytest.approx(1.0, abs=1e-12)


def test_fermi_step_function_limit():
    assert occupation(1.1, 1.0, 1e-6, "fermi") == pytest.approx(0.0, abs=1e-30)
    assert occupation(0.9, 1.0, 1e-6, "fermi") == pytest.approx(1.0, abs=1e-30)


def test_boltzmann_occupation():
    assert occupation(1.0, 0.0, 1.0, "boltzmann") == pytest.approx(math.exp(-1.0))


def test_bose_divergence_guarded():
    with pytest.raises(ValueError, match="mu < omega"):
        occupation(1.0, 1.0, 1.0, "bose")


# ---------------------------------------------------------------------------
# chemical potential
# ---------------------------------------------------------------------------

def test_fermi_low_temperature_filling():
    mu = solve_mu(fermi4(2.0), 2.0, 1e-3)
    assert 2.0 < mu < 3.0
    n = occupation(np.array([1.0, 2.0, 3.0, 4.0]), mu, 1e-3, "fermi")
    assert n[0] == pytest.approx(1.0, abs=1e-9)
    assert n[1] == pytest.approx(1.0, abs=1e-9)
    assert n[2] + n[3] <= 1e-9


def test_fermi_particle_hole_symmetric_midpoint():
    # spectrum symmetric about 2.5; half filling pins mu there at every T
    for t in (0.05, 0.7, 3.0, 20.0):
        assert solve_mu(fermi4(2.0), 2.0, t) == pytest.approx(2.5, abs=1e-6)


def test_bose_condensation_limit():
    sp = ModeSpectrum([1.0, 2.0], statistics="bose", particle_target=1e4)
    mu = solve_mu(sp, 1e4, 1.0)
    assert mu < 1.0
    assert 1.0 - mu < 1e-3


def test_bose_target_solves_when_mu_is_small():
    # near condensation with |mu| < 1: an absolute bisection floor of ~9e-16
    # moved N by ~2e-5 per step and stopped short of the target
    sp = make_spectrum("linear_dispersion", statistics="bose", n_modes=2, velocity=5e-4,
                       particle_target=1000.0)
    st = gas_state(sp, 1e-3)
    assert 0 < st.mu < 5e-4
    assert st.N_actual == pytest.approx(1000.0, rel=1e-11)


def test_boltzmann_mu_closed_form():
    sp = ModeSpectrum([1.0, 2.0, 3.0], statistics="boltzmann", particle_target=2.0)
    st = gas_state(sp, 1.7)
    assert st.N_actual == pytest.approx(2.0, abs=1e-12)


def test_fermi_pauli_bound():
    with pytest.raises(ValueError, match="Pauli"):
        solve_mu(fermi4(2.0), 4.0, 1.0)


def test_targeted_states_hit_the_target():
    for stats, target in (("fermi", 2.0), ("bose", 3.0), ("boltzmann", 2.0)):
        sp = ModeSpectrum([0.5, 1.0, 1.5, 2.5], statistics=stats, particle_target=target)
        for t in (0.1, 1.0, 10.0):
            st = gas_state(sp, t)
            assert abs(st.N_actual - target) <= 1e-8
            if stats == "fermi":
                assert np.all(st.occupations >= 0) and np.all(st.occupations <= 1)


# ---------------------------------------------------------------------------
# entropy and free energy
# ---------------------------------------------------------------------------

def test_bose_single_mode_unit_occupation_entropy():
    sp = ModeSpectrum([LN2], statistics="bose", chemical_potential=0.0)
    st = gas_state(sp, 1.0)
    assert st.occupations[0] == pytest.approx(1.0, abs=1e-12)
    assert st.S == pytest.approx(2 * LN2, abs=1e-12)


def test_fermi_half_filled_mode_entropy():
    sp = ModeSpectrum([2.0], statistics="fermi", chemical_potential=2.0)
    st = gas_state(sp, 0.8)
    assert st.S == pytest.approx(LN2, abs=1e-12)


def test_entropy_vanishes_when_frozen():
    sp = ModeSpectrum([1.0, 2.0], statistics="bose", chemical_potential=0.0)
    st = gas_state(sp, 1e-6)
    assert st.S == pytest.approx(0.0, abs=1e-30)


def test_fermi_single_mode_free_energy():
    sp = ModeSpectrum([1.3], statistics="fermi", chemical_potential=0.0)
    for t in (0.5, 2.0):
        st = gas_state(sp, t)
        assert st.F == pytest.approx(
            -t * math.log(1 + math.exp(-1.3 / t)), abs=1e-12
        )


def test_bose_single_mode_free_energy():
    # (omega - mu)/T = ln 2  ->  F = T ln(1 - 1/2) = -T ln 2
    sp = ModeSpectrum([LN2], statistics="bose", chemical_potential=0.0)
    st = gas_state(sp, 1.0)
    assert st.F == pytest.approx(-LN2, abs=1e-12)


def test_free_energy_vanishes_at_zero_temperature():
    sp = ModeSpectrum([1.0], statistics="bose", chemical_potential=0.3)
    st = gas_state(sp, 1e-6)
    assert abs(st.F) <= 1e-30


def test_entropy_matches_free_energy_derivative(rng):
    for _ in range(8):
        m = int(rng.integers(3, 13))
        freqs = np.sort(rng.uniform(0.05, 2.0, m))
        for stats in ("bose", "fermi", "boltzmann"):
            mu = float(freqs[0] - rng.uniform(0.1, 0.5)) if stats == "bose" else float(
                rng.uniform(0.1, 1.2)
            )
            sp = ModeSpectrum(freqs, statistics=stats, chemical_potential=mu)
            for t in (0.05, 0.6, 8.0):
                delta = 1e-4 * t
                s = gas_state(sp, t).S
                fd = -(gas_state(sp, t + delta).F - gas_state(sp, t - delta).F) / (2 * delta)
                assert abs(s - fd) <= 1e-5 * max(abs(s), 1e-300)


def test_third_law_monotone(rng):
    sp = ModeSpectrum([0.5, 1.0, 1.7], statistics="fermi", chemical_potential=0.2)
    entropies = [gas_state(sp, float(t)).S for t in np.geomspace(1e-3, 10, 25)]
    assert entropies[0] <= 1e-30
    assert np.all(np.diff(entropies) >= -1e-12)


def test_classical_limit_agreement(rng):
    # dilute regime: all three statistics agree within 5% at T >= 10 max(omega)
    for _ in range(5):
        freqs = np.sort(rng.uniform(0.2, 2.0, 40))
        t = 10.0 * float(freqs[-1])
        entropies = {}
        for stats in ("bose", "fermi", "boltzmann"):
            sp = ModeSpectrum(freqs, statistics=stats, particle_target=2.0)
            entropies[stats] = gas_state(sp, t).S
        ref = entropies["boltzmann"]
        assert abs(entropies["bose"] - ref) / ref <= 0.05
        assert abs(entropies["fermi"] - ref) / ref <= 0.05


# ---------------------------------------------------------------------------
# scaling fit and threshold estimate
# ---------------------------------------------------------------------------

def test_synthetic_power_law_recovered_exactly():
    ts = np.geomspace(0.05, 0.5, 10)
    n_ref = 7.0
    fit = fit_power_law(ts, n_ref * (ts / 2.0) ** 3, n_ref)
    assert fit.exponent == pytest.approx(3.0, abs=1e-9)
    assert fit.omega_tilde == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert critical_temperature_estimate(fit) == pytest.approx(2.0, abs=1e-9)


def test_phonon_gas_linear_scaling():
    fit = fit_entropy_scaling(phonons(), np.geomspace(0.05, 0.3, 12))
    assert abs(fit.exponent - 1.0) <= 0.1
    assert fit.r_squared >= 0.99
    assert fit.T_window == (pytest.approx(0.05), pytest.approx(0.3))


def test_dense_fermi_linear_scaling():
    fit = fit_entropy_scaling(dense_fermi(), np.geomspace(0.04, 0.2, 12))
    assert abs(fit.exponent - 1.0) <= 0.1
    assert fit.r_squared >= 0.99
    assert fit.n_reference == pytest.approx(100.0)


def test_estimate_scales_with_energy_constant():
    ts = np.geomspace(0.05, 0.5, 10)
    fit = fit_power_law(ts, 4.0 * (ts / 2.0) ** 2, 4.0)
    assert critical_temperature_estimate(fit, energy_per_particle=4.0) == pytest.approx(
        2.0 * 2.0, abs=1e-9
    )


def test_fit_input_validation():
    sp = phonons()
    with pytest.raises(ValueError, match="at least 8"):
        fit_entropy_scaling(sp, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="ascending"):
        fit_entropy_scaling(sp, [0.2, 0.1] + [0.3 + 0.01 * k for k in range(8)])
    with pytest.raises(ValueError, match="nonpositive entropy"):
        gapped = ModeSpectrum([1.0, 2.0], statistics="bose", chemical_potential=0.0)
        fit_entropy_scaling(gapped, np.geomspace(1e-4, 2e-4, 9))
    half_filled = make_spectrum("uniform", n_modes=4, omega=1.0, statistics="fermi",
                                particle_target=2.0)
    with pytest.raises(ValueError, match=r"constant over the fit window \[0.1, 0.8\]"):
        fit_entropy_scaling(half_filled, np.linspace(0.1, 0.8, 8))


def test_default_fit_window():
    lo, hi = default_fit_window(phonons())
    assert lo == pytest.approx(0.001)
    assert hi == pytest.approx(0.005)
    uniform = make_spectrum("uniform", n_modes=3, omega=2.0, statistics="bose",
                            chemical_potential=0.0)
    lo, hi = default_fit_window(uniform)
    assert lo == pytest.approx(0.2)
    assert hi == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# classical-regime check
# ---------------------------------------------------------------------------

def test_mb_boundary_identity():
    sp = make_spectrum("uniform", n_modes=4, omega=1.0, statistics="boltzmann",
                       particle_target=4.0)
    chk = mb_witness_check(sp, 4.0, 1.0)
    assert chk.S_mb == pytest.approx(4.0, abs=1e-12)
    assert chk.E_assumed == 4.0
    assert not chk.fires  # 4 < 4 is false


def test_mb_above_boundary():
    sp = make_spectrum("uniform", n_modes=4, omega=1.0, statistics="boltzmann",
                       particle_target=4.0)
    chk = mb_witness_check(sp, 4.0, 2.0)
    assert chk.S_mb == pytest.approx(4.0 * (1.0 + LN2), abs=1e-12)
    assert not chk.fires


def test_mb_refuses_quantum_regime():
    sp = make_spectrum("uniform", n_modes=4, omega=1.0, statistics="boltzmann",
                       particle_target=4.0)
    with pytest.raises(ValueError, match="quantum-statistics"):
        mb_witness_check(sp, 4.0, 0.5)


def test_rejects_temperature_not_finite_and_positive():
    sp = make_spectrum("uniform", n_modes=4, omega=1.0, statistics="boltzmann",
                       chemical_potential=0.0)
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            occupation(1.0, 0.0, t, "fermi")
        with pytest.raises(ValueError, match="positive"):
            gas_state(sp, t)
        with pytest.raises(ValueError, match="positive"):
            mb_witness_check(sp, 4.0, t)


def test_mb_never_fires_on_grid(rng):
    for _ in range(5):
        m = int(rng.integers(4, 17))
        freqs = np.sort(rng.uniform(0.2, 2.5, m))
        sp = ModeSpectrum(freqs, statistics="boltzmann", particle_target=float(m))
        scale = geometric_frequency_scale(sp, float(m))
        for t in np.linspace(scale, 100 * scale, 50):
            assert not mb_witness_check(sp, float(m), float(t)).fires
