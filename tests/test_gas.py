import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermwit import cli, gas
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
    with pytest.raises(ValueError, match="unknown statistics"):
        occupation(1.0, 0.0, 1.0, "anyon")


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
    # near 1e12 the float spacing of mu (1.2e-4) would move N by 1e-5
    # relative; mu - 1e12 is solved and used in the frame of the lowest mode
    far = ModeSpectrum([1e12, 1e12 + 1.0], statistics="boltzmann", particle_target=1.0)
    assert abs(gas_state(far, 1.0).N_actual - 1.0) <= 1e-10


@pytest.mark.parametrize("statistics", ["bose", "fermi", "boltzmann"])
@pytest.mark.parametrize("w0", [1.0, 1e8, 1e12])
def test_particle_target_met_at_any_lowest_frequency(statistics, w0):
    # only the spacing of the modes matters: mu - w0 is the same at every w0
    sp = ModeSpectrum([w0, w0 + 1.0, w0 + 2.0], statistics=statistics, particle_target=1.0)
    st = gas_state(sp, 1.0)
    assert abs(st.N_actual - 1.0) <= 1e-10
    assert st.mu == solve_mu(sp, 1.0, 1.0)
    near = gas_state(ModeSpectrum([1.0, 2.0, 3.0], statistics=statistics, particle_target=1.0), 1.0)
    assert st.mu - w0 == pytest.approx(near.mu - 1.0, abs=1e-9 + 2.0 * np.spacing(w0))
    assert st.S == pytest.approx(near.S, rel=1e-9)


def test_fermi_pauli_bound():
    with pytest.raises(ValueError, match="Pauli"):
        solve_mu(fermi4(2.0), 4.0, 1.0)


def test_unreachable_target_is_a_numerical_failure(monkeypatch, capsys):
    # every occupation jumps from 0 to 1 at mu = 1.5, so the sum over the 4
    # modes skips the target 2 and the bisection closes on the step unmet
    def step(omega, mu, T, statistics):
        return np.full(np.shape(omega), 1.0 if mu > 1.5 else 0.0)

    monkeypatch.setattr(gas, "occupation", step)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_mu(fermi4(2.0), 2.0, 1.0)
    spec = "gen:uniform:n_modes=4,omega=1.0,statistics=fermi,particle_target=2.0"
    assert cli.main(["gas-scan", "--spectrum", spec, "--temps", "0.1:1:10"]) == cli.EXIT_NUMERICAL
    assert "numerical failure: chemical-potential solve" in capsys.readouterr().err


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_bracket_scales_with_temperature(statistics):
    # a lower end that does not scale with T holds N(lo) above the target here
    for t in (1e7, 1e12):
        sp = ModeSpectrum([1.0, 2.0, 3.0], statistics=statistics, particle_target=1.0)
        assert abs(gas_state(sp, t).N_actual - 1.0) <= gas.MU_SOLVE_TOL


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_gas_scan_reaches_high_temperature(statistics, capsys):
    spec = f"gen:linear_dispersion:n_modes=3,velocity=1.0,statistics={statistics},particle_target=1.0"
    code = cli.main(["gas-scan", "--spectrum", spec, "--temps", "0.1:1e7:100:log",
                     "--fit-window", "0.1:1"])
    assert code == cli.EXIT_OK, capsys.readouterr().err


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    spacings=st.lists(st.floats(1e-3, 10.0), max_size=299),
    log_w0=st.floats(-3.0, 12.0),
    log_t=st.floats(-4.0, 7.0),
    statistics=st.sampled_from(["bose", "fermi"]),
    fill=st.floats(1e-3, 0.999),
    log_bose_target=st.floats(-3.0, 5.0),
)
def test_solved_nu_meets_the_target_on_any_spectrum(spacings, log_w0, log_t, statistics,
                                                    fill, log_bose_target):
    freqs = np.cumsum([10.0 ** log_w0] + spacings)
    # fermi targets sit below the Pauli bound; bose ones reach into condensation
    target = fill * freqs.size if statistics == "fermi" else 10.0 ** log_bose_target
    sp = ModeSpectrum(freqs, statistics=statistics, particle_target=target)
    t = 10.0 ** log_t
    nu, n = gas._solve_nu(sp, target, t)
    assert abs(float(np.sum(n)) - target) <= max(gas.MU_SOLVE_TOL, 1e-11 * target)
    if statistics == "bose":
        assert nu < 0
    assert gas_state(sp, t).N_actual == float(np.sum(n))


def _within_a_float_step(nu, n, target, T):
    """The solve's acceptance: the target met, or missed by no more than one
    float step of nu moves the fermi N."""
    residual = abs(float(np.sum(n)) - target)
    slope = float(np.sum(n * (1.0 - n))) / T
    return residual <= max(gas.MU_SOLVE_TOL, 1e-11 * target) or residual <= slope * np.spacing(abs(nu))


def test_target_finer_than_a_float_step_of_nu():
    # near nu = 50 one float step moves N by about 1.5e-9, above MU_SOLVE_TOL:
    # no float nu meets the target, and the closest one evaluated stands
    sp = ModeSpectrum(10.0 * np.arange(1.0, 11.0), "fermi", particle_target=5.3)
    nu, n = gas._solve_nu(sp, 5.3, 1e-6)
    assert abs(float(np.sum(n)) - 5.3) > gas.MU_SOLVE_TOL
    assert _within_a_float_step(nu, n, 5.3, 1e-6)
    assert gas_state(sp, 1e-6).mu == 10.0 + nu


def test_fermi_solve_on_random_spectra():
    # in 64 of these 3000 the bracket closes within a few float steps of nu
    # unmet, as each step moves N by more than MU_SOLVE_TOL
    rng = np.random.default_rng(5)
    for _ in range(3000):
        m = int(rng.integers(2, 301))
        scale, t = 10.0 ** rng.uniform(-3, 4), 10.0 ** rng.uniform(-6, 3)
        freqs = scale * rng.uniform(0.01, 1.0, m)
        target = float(rng.uniform(0.01, 0.99)) * m
        nu, n = gas._solve_nu(ModeSpectrum(freqs, "fermi", particle_target=target), target, t)
        assert _within_a_float_step(nu, n, target, t)


@pytest.mark.parametrize("statistics", ["fermi", "bose"])
def test_solve_takes_few_occupation_sums(statistics, monkeypatch):
    # the spectra of perfbench's gas_modes workload, from dilute to condensed
    sp = make_spectrum("linear_dispersion", statistics=statistics, n_modes=20_000,
                       velocity=5e-4, particle_target=5000.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return occupation(*args)

    monkeypatch.setattr(gas, "occupation", counted)
    for t in np.geomspace(1e-3, 2.0, 25):
        calls.clear()
        solve_mu(sp, 5000.0, float(t))
        assert len(calls) <= 10, f"{len(calls)} occupation sums at T={t}"


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
    # a small exponent sends T* = omega_tilde * c**(1/p) out of the floats
    flat = fit_power_law(ts, 4.0 * (ts / 2.0) ** 0.002, 4.0)
    for c in (10.0, 0.1):
        with pytest.raises(ValueError, match=r"exponent p = 0.002 and energy per particle c = "):
            critical_temperature_estimate(flat, energy_per_particle=c)
    # c**(1/p) alone overflows, T* itself does not
    tiny = dataclasses.replace(flat, omega_tilde=1e-300)
    assert math.log(critical_temperature_estimate(tiny, energy_per_particle=10.0)) == (
        pytest.approx(math.log(1e-300) + math.log(10.0) / flat.exponent, rel=1e-12)
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
    for n in (0.0, -4.0):
        with pytest.raises(ValueError, match="n_particles must be positive"):
            mb_witness_check(sp, n, 2.0)


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
