import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermwit import (
    EntanglementEstimate,
    HermitianOperator,
    PartitionCut,
    SpinModelSpec,
    build_spin_hamiltonian,
    FrankWolfeConfig,
    critical_temperature,
    eig_hermitian,
    evaluate_witness,
    ground_state,
    ppt_check,
    ree_lower_bound,
    sweep,
    thermal_ensemble,
)
from thermwit.witness import WitnessReport
from conftest import LN2, heis2_closed_form

# frozen pre-build oracle values (bisection on closed-form entropies)
HEIS2_T_STAR_EQ2 = 4.0 / math.log(3.0)  # 3.6409569065...
HEIS2_T_STAR_EQ4 = 1.5666338883549469
RING4_T_STAR_EQ4 = 1.7545333145958169


def heis(n, boundary="open"):
    return build_spin_hamiltonian(
        SpinModelSpec(kind="heisenberg", n_sites=n, boundary=boundary)
    )


def heis2_estimate():
    return ree_lower_bound(ground_state(eig_hermitian(heis(2))))


# ---------------------------------------------------------------------------
# single-temperature evaluation
# ---------------------------------------------------------------------------

def test_evaluate_fires_both_at_low_temperature():
    rep = evaluate_witness(eig_hermitian(heis(2)), 1.0, heis2_estimate())
    ref = heis2_closed_form(1.0)
    assert rep.S == pytest.approx(ref["S"], rel=1e-10)
    assert rep.p == pytest.approx(ref["p"], rel=1e-10)
    assert rep.S < LN2
    assert rep.eq4_fires and rep.eq2_fires
    assert rep.ground_degeneracy == 1


def test_evaluate_entropy_form_stops_first():
    rep = evaluate_witness(eig_hermitian(heis(2)), 2.0, heis2_estimate())
    ref = heis2_closed_form(2.0)
    assert rep.S == pytest.approx(ref["S"], rel=1e-10)  # ~0.918 > ln 2
    assert rep.neg_ln_p == pytest.approx(-math.log(ref["p"]), rel=1e-10)  # ~0.341
    assert not rep.eq4_fires
    assert rep.eq2_fires


def test_product_ground_state_never_fires():
    spec = SpinModelSpec(kind="transverse_ising", n_sites=2, coupling=0.0, field=1.0)
    h = build_spin_hamiltonian(spec)
    est = ree_lower_bound(ground_state(eig_hermitian(h)))
    assert est.lower == pytest.approx(0.0, abs=1e-10)
    for t in (0.1, 1.0, 10.0):
        rep = evaluate_witness(eig_hermitian(h), t, est)
        assert not rep.eq2_fires and not rep.eq4_fires


def test_report_rejects_implication_violation():
    with pytest.raises(RuntimeError, match="implication"):
        WitnessReport(
            T=1.0, S=0.1, p=0.99, neg_ln_p=0.2, E_lower=0.15, E_upper=None,
            eq2_fires=False, eq4_fires=True, ground_degeneracy=1,
        )


def test_evaluate_rejects_nonpositive_temperature():
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            evaluate_witness(eig_hermitian(heis(2)), t, heis2_estimate())


# ---------------------------------------------------------------------------
# critical temperatures
# ---------------------------------------------------------------------------

def test_threshold_ground_weight_form_closed_value():
    for tol in (1e-6, 1e-300):  # a tol below the float spacing must still terminate
        t_star = critical_temperature(
            eig_hermitian(heis(2)), "eq2", LN2, bracket=(0.1, 10.0), tol=tol
        )
        assert t_star == pytest.approx(HEIS2_T_STAR_EQ2, abs=1e-3)


def test_threshold_entropy_form_pins_the_crossing():
    t_star = critical_temperature(
        eig_hermitian(heis(2)), "eq4", LN2, bracket=(0.1, 10.0), tol=1e-6
    )
    assert 1.0 < t_star < 2.0
    assert t_star == pytest.approx(HEIS2_T_STAR_EQ4, abs=1e-3)
    assert abs(heis2_closed_form(t_star)["S"] - LN2) <= 1e-6


def test_threshold_absent_for_zero_bound():
    assert critical_temperature(eig_hermitian(heis(2)), "eq2", 0.0) is None


def test_threshold_absent_when_quantity_already_above():
    # at T >= 5 the entropy already exceeds ln 2, so no crossing in bracket
    assert critical_temperature(eig_hermitian(heis(2)), "eq4", LN2, bracket=(5.0, 50.0)) is None


def test_threshold_absent_for_degenerate_ground_level():
    # Z x I: two-fold ground level, S(T->0) = ln 2 >= e_lower
    spec = SpinModelSpec(kind="custom_terms", n_sites=2, custom_terms=(((0,), "Z", 1.0),))
    h = build_spin_hamiltonian(spec)
    assert critical_temperature(eig_hermitian(h), "eq4", LN2, bracket=(1e-3, 10.0)) is None


def test_threshold_expands_bracket_upward():
    t_star = critical_temperature(
        eig_hermitian(heis(2)), "eq2", LN2, bracket=(0.1, 0.2), tol=1e-6
    )
    assert t_star == pytest.approx(HEIS2_T_STAR_EQ2, abs=1e-3)


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError, match="kind"):
        critical_temperature(eig_hermitian(heis(2)), "eq9", LN2)
    with pytest.raises(ValueError, match="bracket"):
        critical_temperature(eig_hermitian(heis(2)), "eq2", LN2, bracket=(2.0, 1.0))
    with pytest.raises(ValueError, match="positive"):  # an infinite top must not hang
        critical_temperature(eig_hermitian(heis(2)), "eq2", LN2, bracket=(0.5, math.inf))
    for tol in (0.0, -1.0, math.nan):  # 0 and -1 would hang, nan would skip the bisection
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            critical_temperature(eig_hermitian(heis(2)), "eq2", LN2, tol=tol)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_firing_pattern_matches_thresholds():
    grid = [round(0.1 * k, 10) for k in range(1, 51)]
    res = sweep(eig_hermitian(heis(2)), grid)
    assert res.T_star_eq2 == pytest.approx(HEIS2_T_STAR_EQ2, abs=1e-3)
    assert res.T_star_eq4 == pytest.approx(HEIS2_T_STAR_EQ4, abs=1e-3)
    assert res.T_star_eq4 < res.T_star_eq2
    for rep in res.reports:
        assert rep.eq4_fires == (rep.T < res.T_star_eq4)
        assert rep.eq2_fires == (rep.T < res.T_star_eq2)
        assert (not rep.eq4_fires) or rep.eq2_fires


def test_sweep_single_point_grid_still_bisects():
    res = sweep(eig_hermitian(heis(2)), [1.0])
    assert len(res.reports) == 1
    assert res.T_star_eq2 == pytest.approx(HEIS2_T_STAR_EQ2, abs=1e-3)
    assert res.T_star_eq4 == pytest.approx(HEIS2_T_STAR_EQ4, abs=1e-3)


def test_sweep_four_site_ring():
    res = sweep(eig_hermitian(heis(4, boundary="periodic")), [0.5, 1.0, 2.0, 4.0])
    assert res.T_star_eq4 is not None
    assert res.T_star_eq4 == pytest.approx(RING4_T_STAR_EQ4, abs=1e-3)
    assert res.reports[0].E_lower == pytest.approx(math.log(3), abs=1e-9)


def test_sweep_with_upper_bound():
    res = sweep(eig_hermitian(heis(2)), [1.0, 2.0], fw_config=FrankWolfeConfig())
    for rep in res.reports:
        assert rep.E_upper is not None
        assert rep.E_lower <= rep.E_upper + 1e-6


def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="nonempty"):
        sweep(eig_hermitian(heis(2)), [])
    with pytest.raises(ValueError, match="ascending"):
        sweep(eig_hermitian(heis(2)), [2.0, 1.0])
    for bad in ([-1.0, 1.0], [0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(ValueError, match="positive"):
            sweep(eig_hermitian(heis(2)), bad)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_star_tol must be finite and positive"):
            sweep(eig_hermitian(heis(2)), [1.0], t_star_tol=tol)


# ---------------------------------------------------------------------------
# soundness properties
# ---------------------------------------------------------------------------

def test_smaller_bound_never_flips_silent_to_firing():
    spectral = eig_hermitian(heis(2))
    est = heis2_estimate()
    for t in np.geomspace(0.2, 20.0, 12):
        full = evaluate_witness(spectral, float(t), est)
        for shrink in (0.5, 0.1):
            weaker = ree_lower_bound(ground_state(spectral))
            weaker = type(weaker)(
                lower=est.lower * shrink, upper=None, method=weaker.method,
                iterations=weaker.iterations, converged=True,
            )
            rep = evaluate_witness(spectral, float(t), weaker)
            assert not (rep.eq2_fires and not full.eq2_fires)
            assert not (rep.eq4_fires and not full.eq4_fires)


def test_firing_reports_are_npt():
    h = heis(2)
    dec = eig_hermitian(h)
    est = heis2_estimate()
    cut = PartitionCut(frozenset({0}))
    for t in np.geomspace(0.2, 10.0, 12):
        rep = evaluate_witness(dec, float(t), est)
        if rep.eq2_fires or rep.eq4_fires:
            ens = thermal_ensemble(dec, float(t))
            assert ppt_check(ens.rho_T, cut).npt


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    fields=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
        .filter(lambda h: math.hypot(*h) >= 0.1),
        min_size=2, max_size=5,
    )
)
def test_product_ground_state_never_fires_for_any_fields(fields):
    # H = sum_i h_i . sigma_i: a nondegenerate product ground state, E = 0
    terms = tuple(((i,), label, c) for i, h in enumerate(fields) for label, c in zip("XYZ", h))
    spec = SpinModelSpec(kind="custom_terms", n_sites=len(fields), custom_terms=terms)
    spectral = eig_hermitian(build_spin_hamiltonian(spec))
    assert spectral.ground_degeneracy == 1
    assert ree_lower_bound(ground_state(spectral)).lower == 0.0
    res = sweep(spectral, [float(t) for t in np.geomspace(1e-3, 1e3, 13)])
    assert res.T_star_eq2 is None and res.T_star_eq4 is None
    for rep in res.reports:
        assert rep.E_lower == 0.0
        assert not rep.eq2_fires and not rep.eq4_fires


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    levels=st.lists(st.tuples(st.floats(-5.0, 5.0), st.integers(1, 4)), min_size=2, max_size=12),
    log10_t=st.floats(-8.0, 8.0),
    e_lower=st.floats(0.0, 4.0),
)
def test_weight_entropy_chain_on_any_spectrum(levels, log10_t, e_lower):
    # random and degenerate spectra (each level repeated 1-4 times), T in [1e-8, 1e8]
    energies = np.repeat([e for e, _ in levels], [g for _, g in levels])
    h = HermitianOperator(np.diag(energies).astype(complex), (energies.size,))
    est = EntanglementEstimate(
        lower=e_lower, upper=None, method="max_cut_lower", iterations=0, converged=True
    )
    rep = evaluate_witness(eig_hermitian(h), 10.0 ** log10_t, est)  # raises on a violation
    assert rep.neg_ln_p <= rep.S + 1e-9
    assert rep.eq2_fires or not rep.eq4_fires
