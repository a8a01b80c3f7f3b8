"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; the expected numbers come from closed forms
or from the independent oracles kept in conftest (loop partial trace,
Bloch-grid product optimizer, closed-form four-level thermodynamics).
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import thermwit as tw
from thermwit.cli import main as cli_main, run_selfcheck
from conftest import (
    LN2,
    bell_pure,
    bloch_grid_extreme,
    ghz_pure,
    heis2_closed_form,
    random_pure,
    shannon,
    w_pure,
)


def record(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def spin(kind, n, J=1.0, h=0.0, boundary="open"):
    return tw.build_spin_hamiltonian(
        tw.SpinModelSpec(kind=kind, n_sites=n, coupling=J, field=h, boundary=boundary)
    )


# 2-qubit models where the partial-transpose criterion is conclusive
TWO_QUBIT_MODELS = {
    "heisenberg-J1": lambda: spin("heisenberg", 2),
    "heisenberg-J0.5": lambda: spin("heisenberg", 2, J=0.5),
    "xy-J1": lambda: spin("xy", 2),
    "ising-J1-h0.5": lambda: spin("transverse_ising", 2, J=1.0, h=0.5),
    "ising-J1-h2": lambda: spin("transverse_ising", 2, J=1.0, h=2.0),
    "ising-J0-h1": lambda: spin("transverse_ising", 2, J=0.0, h=1.0),
}

CORPUS = dict(TWO_QUBIT_MODELS)
CORPUS["heisenberg-3"] = lambda: spin("heisenberg", 3)
CORPUS["heisenberg-ring4"] = lambda: spin("heisenberg", 4, boundary="periodic")


def corpus_reports(builder):
    h = builder()
    dec = tw.eig_hermitian(h)
    gs = tw.PureState(dec.eigenvectors[:, 0], h.dims)
    est = tw.ree_lower_bound(gs)
    for t in np.geomspace(0.05, 50.0, 24):
        yield h, dec, tw.evaluate_witness(dec, float(t), est)


def test_criterion_01_weight_entropy_chain():
    rng = np.random.default_rng(101)
    worst_slack = math.inf
    worst_gap = -math.inf
    count = 0
    equality_dev = 0.0
    for k in range(100):
        levels = int(rng.integers(4, 65))
        energies = np.sort(rng.uniform(-2.0, 2.0, levels))
        h = tw.HermitianOperator(np.diag(energies).astype(complex), (levels,))
        dec = tw.eig_hermitian(h)
        for t in np.geomspace(1e-3, 1e3, 20):
            ens = tw.thermal_ensemble(dec, float(t))
            chk = tw.check_eq3(ens)
            assert chk.holds
            worst_slack = min(worst_slack, chk.slack)
            worst_gap = max(worst_gap, chk.exp_neg_S - chk.p)
            count += 1
        if k < 10:
            # equality proxies: beta -> 0 and T -> 0 for a well-gapped spectrum
            hot = tw.check_eq3(tw.thermal_ensemble(dec, 1e8))
            equality_dev = max(equality_dev, abs(hot.p - hot.exp_neg_S))
            if energies[1] - energies[0] >= 1e-3:
                cold = tw.check_eq3(tw.thermal_ensemble(dec, 1e-6))
                equality_dev = max(equality_dev, abs(cold.p - cold.exp_neg_S))
    ok = worst_slack >= -1e-10 and worst_gap <= 1e-10 and equality_dev <= 1e-6
    record(1, "weight-entropy chain on random spectra", ok,
           f"{count} ensembles, min slack {worst_slack:.2e}, "
           f"max p-gap {worst_gap:.2e}, equality dev {equality_dev:.2e}")


def test_criterion_02_entropy_form_implies_weight_form():
    violations = 0
    total = 0
    for builder in CORPUS.values():
        for _, _, rep in corpus_reports(builder):
            total += 1
            if rep.eq4_fires and not rep.eq2_fires:
                violations += 1
    record(2, "entropy form implies ground-weight form", violations == 0,
           f"{total} reports, {violations} violations")


def test_criterion_03_two_qubit_heisenberg_thresholds():
    closed_eq2 = 4.0 / math.log(3.0)  # p = 1/2 at exp(4 beta) = 3
    # in-test bisection oracle on the closed-form four-level entropy
    lo, hi = 0.5, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if heis2_closed_form(mid)["S"] < LN2:
            lo = mid
        else:
            hi = mid
    oracle_eq4 = 0.5 * (lo + hi)
    assert oracle_eq4 == pytest.approx(1.5666338883549469, abs=1e-9)  # frozen pre-build

    res = tw.sweep(tw.eig_hermitian(spin("heisenberg", 2)),
                   [float(t) for t in np.arange(0.5, 5.01, 0.5)])
    ok = (
        abs(res.T_star_eq2 - closed_eq2) <= 1e-3
        and abs(res.T_star_eq4 - oracle_eq4) <= 1e-3
        and res.T_star_eq4 < res.T_star_eq2
    )
    record(3, "two-qubit threshold temperatures", ok,
           f"T*_eq2 {res.T_star_eq2:.6f} vs {closed_eq2:.6f}, "
           f"T*_eq4 {res.T_star_eq4:.6f} vs {oracle_eq4:.6f}")


def test_criterion_04_gas_entropy_vs_free_energy_derivative():
    rng = np.random.default_rng(104)
    worst = 0.0
    count = 0
    for _ in range(50):
        m = int(rng.integers(4, 33))
        freqs = np.sort(rng.uniform(0.05, 2.0, m))
        for stats in ("bose", "fermi"):
            if stats == "bose":
                mu = float(freqs[0] - rng.uniform(0.1, 0.5))
            else:
                # keep a level near mu: the occupied Fermi sea adds a
                # T-independent offset to F, and the central difference can
                # only resolve S above that offset's rounding floor
                mu = float(rng.choice(freqs) + rng.uniform(-0.05, 0.05))
            sp = tw.ModeSpectrum(freqs, statistics=stats, chemical_potential=mu)
            for t in np.geomspace(0.01, 100.0, 12):
                t = float(t)
                delta = 1e-4 * t
                s = tw.gas_state(sp, t).S
                fd = -(tw.gas_state(sp, t + delta).F - tw.gas_state(sp, t - delta).F) / (
                    2 * delta
                )
                worst = max(worst, abs(s - fd) / max(abs(s), 1e-300))
                count += 1
    record(4, "mode-sum entropy equals -dF/dT", worst <= 1e-5,
           f"{count} states, worst relative deviation {worst:.2e}")


PHONONS = lambda: tw.make_spectrum("linear_dispersion", n_modes=200, velocity=0.01,
                                   statistics="bose", chemical_potential=0.0)
DENSE_FERMI = lambda: tw.make_spectrum("linear_dispersion", n_modes=200, velocity=0.01,
                                       statistics="fermi", particle_target=100.0)
BOSE_WINDOW = np.geomspace(0.05, 0.3, 12)
FERMI_WINDOW = np.geomspace(0.04, 0.2, 12)


def test_criterion_05_low_temperature_scaling():
    fit_b = tw.fit_entropy_scaling(PHONONS(), BOSE_WINDOW)
    fit_f = tw.fit_entropy_scaling(DENSE_FERMI(), FERMI_WINDOW)
    ts = np.geomspace(0.05, 0.5, 10)
    synth = tw.fit_power_law(ts, 7.0 * (ts / 2.0) ** 3, 7.0)
    ok = (
        abs(fit_b.exponent - 1.0) <= 0.1 and fit_b.r_squared >= 0.99
        and abs(fit_f.exponent - 1.0) <= 0.1 and fit_f.r_squared >= 0.99
        and abs(synth.exponent - 3.0) <= 1e-6 and abs(synth.omega_tilde - 2.0) <= 1e-6
    )
    record(5, "low-T entropy scaling exponents", ok,
           f"bose p={fit_b.exponent:.3f} r2={fit_b.r_squared:.5f}, "
           f"fermi p={fit_f.exponent:.3f} r2={fit_f.r_squared:.5f}, "
           f"synthetic p={synth.exponent:.9f}")


def test_criterion_06_critical_temperature_self_consistency():
    devs = []
    for spectrum, window in ((PHONONS(), BOSE_WINDOW), (DENSE_FERMI(), FERMI_WINDOW)):
        fit = tw.fit_entropy_scaling(spectrum, window)
        t_star = tw.critical_temperature_estimate(fit)
        assert t_star == pytest.approx(fit.omega_tilde)  # E = N reading
        s_at = tw.gas_state(spectrum, t_star).S
        devs.append(s_at / fit.n_reference)
    ok = all(abs(r - 1.0) <= 0.15 for r in devs)
    record(6, "threshold self-consistency S(omega)/N ~ 1", ok,
           "ratios " + ", ".join(f"{r:.3f}" for r in devs))


def test_criterion_07_classical_gas_never_detected():
    rng = np.random.default_rng(107)
    checked = 0
    fired = 0
    for _ in range(20):
        m = int(rng.integers(4, 33))
        freqs = np.sort(rng.uniform(0.2, 2.5, m))
        n = float(m)
        sp = tw.ModeSpectrum(freqs, statistics="boltzmann", particle_target=n)
        scale = tw.geometric_frequency_scale(sp, n)
        for t in np.linspace(scale, 100.0 * scale, 100):
            if tw.mb_witness_check(sp, n, float(t)).fires:
                fired += 1
            checked += 1
    record(7, "classical-regime check never fires", fired == 0,
           f"{checked} grid points, {fired} firings")


def test_criterion_08_ree_sandwich():
    cfg = tw.FrankWolfeConfig(max_iter=200, restarts=3, tol=1e-4)
    rng = np.random.default_rng(108)
    states = [("bell", bell_pure()), ("ghz", ghz_pure()), ("w", w_pure())]
    states += [(f"rand{k}", random_pure(rng, (2, 2))) for k in range(20)]
    worst_sandwich = -math.inf
    worst_bipartite = 0.0
    for name, psi in states:
        lower = tw.ree_lower_bound(psi).lower
        upper = tw.ree_upper_bound(psi.to_density(), cfg).upper
        worst_sandwich = max(worst_sandwich, lower - upper)
        if len(psi.dims) == 2:
            exact = tw.entanglement_entropy_pure(psi, tw.PartitionCut(frozenset({0})))
            worst_bipartite = max(worst_bipartite, abs(upper - exact))
    ok = worst_sandwich <= 1e-6 and worst_bipartite <= 2e-2
    record(8, "REE lower/upper sandwich", ok,
           f"max lower-upper {worst_sandwich:.2e}, "
           f"worst bipartite deviation {worst_bipartite:.2e}")


def test_criterion_09_energy_witness():
    h = spin("heisenberg", 2)
    grid_min = bloch_grid_extreme(h.matrix, "min")  # independent 180^2 oracle
    res = tw.energy_witness(h, energy=-3.0)
    ok = abs(res.sep_min - grid_min) <= 1e-3 and abs(res.sep_min + 1.0) <= 1e-3
    ok = ok and res.entangled
    details = [f"heis2 sep_min {res.sep_min:.6f} vs grid {grid_min:.6f}"]
    for name, builder, e0 in (
        ("ising-J0", lambda: spin("transverse_ising", 2, J=0.0, h=1.0), -2.0),
        ("fields-only", lambda: tw.build_spin_hamiltonian(tw.SpinModelSpec(
            kind="custom_terms", n_sites=2,
            custom_terms=(((0,), "Z", 1.0), ((1,), "Z", 1.0)))), -2.0),
    ):
        hp = builder()
        rp = tw.energy_witness(hp, energy=e0)
        ok = ok and abs(rp.sep_min - e0) <= 1e-6 and not rp.entangled
        details.append(f"{name} sep_min {rp.sep_min:.8f}")
    record(9, "separable-energy witness", ok, "; ".join(details))


def test_criterion_10_ppt_cross_validation():
    cut = tw.PartitionCut(frozenset({0}))
    contradictions = 0
    fired = 0
    for builder in TWO_QUBIT_MODELS.values():
        for h, dec, rep in corpus_reports(builder):
            if rep.eq2_fires or rep.eq4_fires:
                fired += 1
                ens = tw.thermal_ensemble(dec, rep.T)
                if not tw.ppt_check(ens.rho_T, cut).npt:
                    contradictions += 1
    record(10, "PPT confirms every firing verdict", contradictions == 0 and fired > 0,
           f"{fired} firing reports, {contradictions} contradictions")


def test_criterion_11_third_law():
    worst_cold = 0.0
    monotone = True
    # gapped spin systems
    for builder in (
        lambda: spin("heisenberg", 2),
        lambda: spin("xy", 2),
        lambda: spin("transverse_ising", 2, J=1.0, h=0.5),
        lambda: spin("heisenberg", 4, boundary="periodic"),
    ):
        energies = tw.eig_hermitian(builder()).eigenvalues
        worst_cold = max(worst_cold, tw.canonical_scalars(energies, 1e-6).S)
        ss = [tw.canonical_scalars(energies, float(t)).S
              for t in np.geomspace(1e-3, 100.0, 40)]
        monotone = monotone and bool(np.all(np.diff(ss) >= -1e-10))
    # gapped gas systems (chemical potential pinned inside a gap)
    for stats, mu in (("bose", 0.0), ("fermi", 0.2), ("fermi", 1.3)):
        sp = tw.ModeSpectrum([0.5, 1.0, 1.7], statistics=stats, chemical_potential=mu)
        worst_cold = max(worst_cold, tw.gas_state(sp, 1e-6).S)
        ss = [tw.gas_state(sp, float(t)).S for t in np.geomspace(1e-3, 10.0, 30)]
        monotone = monotone and bool(np.all(np.diff(ss) >= -1e-12))
    ok = worst_cold <= 1e-5 and monotone
    record(11, "third law: S -> 0 and monotone", ok,
           f"max S(1e-6) = {worst_cold:.2e}, monotone={monotone}")


def test_criterion_12_determinism(tmp_path):
    a, b = io.StringIO(), io.StringIO()
    with redirect_stdout(a):
        run_selfcheck(seed=42)
    with redirect_stdout(b):
        run_selfcheck(seed=42)
    selfcheck_ok = a.getvalue() == b.getvalue()

    model = tmp_path / "model.json"
    model.write_text('{"kind": "heisenberg", "n_sites": 2}')
    blobs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = cli_main(["spin-sweep", "--model", str(model), "--temps", "0.5:5:9",
                         "--upper", "--max-iter", "40", "--seed", "11",
                         "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    sweep_ok = blobs[0] == blobs[1]

    gen = ("gen:linear_dispersion:n_modes=200,velocity=0.01,"
           "statistics=bose,chemical_potential=0.0")
    blobs = []
    for name in ("g1.csv", "g2.csv"):
        out = tmp_path / name
        code = cli_main(["gas-scan", "--spectrum", gen, "--temps", "0.05:0.3:10:log",
                         "--fit-window", "0.05:0.3", "--seed", "11", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    gas_ok = blobs[0] == blobs[1]

    record(12, "byte-identical reruns", selfcheck_ok and sweep_ok and gas_ok,
           f"selfcheck={selfcheck_ok}, spin-sweep={sweep_ok}, gas-scan={gas_ok}")
