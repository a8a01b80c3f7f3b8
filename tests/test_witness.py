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
    ree_upper_bound,
    sweep,
    thermal_ensemble,
)
from thermwit import thermo, witness
from thermwit.qops import SpectralDecomposition
from thermwit.witness import T_CEILING, T_STAR_TOL, SweepResult
from conftest import LN2, heis2_closed_form, point_report, point_threshold

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
    def columns(second_row, t_star_eq2=None, t_star_eq4=None):
        # a sound first row at T=1.0, then the row under test at T=2.0
        rows = [(1.0, 0.5, 0.9, 0.1, True, True), (2.0, *second_row)]
        cols = dict(zip(("T", "S", "p", "neg_ln_p", "eq2_fires", "eq4_fires"), zip(*rows)))
        return SweepResult(**cols, E_lower=0.15, E_upper=None, ground_degeneracy=1,
                           T_star_eq2=t_star_eq2, T_star_eq4=t_star_eq4)

    with pytest.raises(RuntimeError, match=r"implication violated at T=2\.0: "):
        columns((0.1, 0.99, 0.2, False, True))
    with pytest.raises(RuntimeError, match=r"-ln p = 0\.2 exceeds S = 0\.1 at T=2\.0$"):
        columns((0.1, 0.8, 0.2, False, False))
    # the thresholds are bisected to T_STAR_TOL, so the order check allows that much
    sound = (0.5, 0.9, 0.1, True, True)
    columns(sound, 1.0, 1.0 + 0.5 * T_STAR_TOL)
    with pytest.raises(RuntimeError, match="entropy-form threshold exceeds"):
        columns(sound, 1.0, 1.0 + 2 * T_STAR_TOL)
    # a short S or verdict column would otherwise broadcast through the row checks
    with pytest.raises(ValueError, match="unequal shapes"):
        SweepResult(T=[1.0, 2.0, 3.0], S=[0.5], p=[0.9, 0.9, 0.9], neg_ln_p=[0.1, 0.1, 0.1],
                    eq2_fires=[True], eq4_fires=[True, True, True], E_lower=0.15,
                    E_upper=None, ground_degeneracy=1, T_star_eq2=None, T_star_eq4=None)


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


@pytest.mark.parametrize("d", [1e-13, 1e-12, 3e-12, 1e-11])
def test_witness_fires_just_below_the_threshold_it_reports(d):
    # bisected to the float spacing, T* is where the verdict itself stops:
    # each step compares with E_lower - GUARD, the bound of every verdict
    spectral = eig_hermitian(heis(2))
    est = heis2_estimate()
    t_star = critical_temperature(spectral, "eq2", est.lower, (1.0, 5.0), tol=1e-300)
    assert evaluate_witness(spectral, t_star - d, est).eq2_fires
    assert not evaluate_witness(spectral, t_star + d, est).eq2_fires


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
    # -ln p(T) stays below ln 4 < 2 at every T, so the expansion gives up at T_CEILING
    assert critical_temperature(eig_hermitian(heis(2)), "eq2", 2.0) is None
    assert -math.log(thermal_ensemble(eig_hermitian(heis(2)), T_CEILING).p) < 2.0


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError, match="kind"):
        critical_temperature(eig_hermitian(heis(2)), "eq9", LN2)
    with pytest.raises(ValueError, match="bracket"):
        critical_temperature(eig_hermitian(heis(2)), "eq2", LN2, bracket=(2.0, 1.0))
    with pytest.raises(ValueError, match="positive"):  # an infinite top must not hang
        critical_temperature(eig_hermitian(heis(2)), "eq2", LN2, bracket=(0.5, math.inf))
    # float() would read ("0.01", True) as (0.01, 1.0)
    with pytest.raises(ValueError, match="bracket must be real numbers, got '0.01'"):
        critical_temperature(eig_hermitian(heis(2)), "eq2", 0.69, bracket=("0.01", True))
    with pytest.raises(ValueError, match="bracket must hold two temperatures"):
        critical_temperature(eig_hermitian(heis(2)), "eq2", LN2, bracket=(0.1, 1.0, 10.0))
    for tol in (0.0, -1.0, math.nan):  # 0 and -1 would hang, nan would skip the bisection
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            critical_temperature(eig_hermitian(heis(2)), "eq2", LN2, tol=tol)
    for e_lower in (math.nan, math.inf, -math.inf):  # nan made up a threshold
        with pytest.raises(ValueError, match="e_lower must be finite"):
            critical_temperature(eig_hermitian(heis(2)), "eq2", e_lower)


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
    # two sites: the bound is exact, whatever the Frank-Wolfe settings
    res = sweep(eig_hermitian(heis(2)), [1.0, 2.0], fw_config=FrankWolfeConfig())
    for rep in res.reports:
        assert rep.E_upper == rep.E_lower == res.E_lower
    # three sites: Frank-Wolfe, as ree_upper_bound runs it alone
    cfg = FrankWolfeConfig(max_iter=4, restarts=2, seed=7)
    spectral = eig_hermitian(build_spin_hamiltonian(
        SpinModelSpec(kind="transverse_ising", n_sites=3, coupling=1.0, field=1.0)))
    res = sweep(spectral, [1.0, 2.0], fw_config=cfg)
    upper = ree_upper_bound(ground_state(spectral).to_density(), cfg).upper
    assert res.E_lower < upper
    for rep in res.reports:
        assert (rep.E_lower, rep.E_upper) == (res.E_lower, upper)


def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="nonempty"):
        sweep(eig_hermitian(heis(2)), [])
    with pytest.raises(ValueError, match="ascending"):
        sweep(eig_hermitian(heis(2)), [2.0, 1.0])
    for bad in ([-1.0, 1.0], [0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(ValueError, match="positive"):
            sweep(eig_hermitian(heis(2)), bad)
    # numpy would run ["0.5", True] as the grid [0.5, 1.0]
    with pytest.raises(ValueError, match="temperatures must be real numbers, got '0.5'"):
        sweep(eig_hermitian(heis(2)), ["0.5", True])


# ---------------------------------------------------------------------------
# evaluations per threshold
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """The temperatures of every Boltzmann-kernel call, one list per call."""
    calls = []
    kernel = thermo._boltzmann

    def counting(levels, temps):
        calls.append(temps.tolist())
        return kernel(levels, temps)

    monkeypatch.setattr(thermo, "_boltzmann", counting)
    monkeypatch.setattr(witness, "_boltzmann", counting)
    return calls


def test_threshold_evaluates_one_temperature_per_bisection_step(kernel_calls):
    # 4096 levels: a gap of 1 above the ground level, then random levels up to 10
    rng = np.random.default_rng(4096)
    e = np.concatenate(([0.0], np.sort(rng.uniform(1.0, 10.0, 4095))))
    spectral = SpectralDecomposition(
        e, tuple((np.array([i]), np.array([i]), np.ones((1, 1))) for i in range(e.size)), (e.size,))
    bracket = (0.01, 10.0)
    for kind in ("eq2", "eq4"):
        kernel_calls.clear()
        t_star = critical_temperature(spectral, kind, 1.0, bracket)
        assert t_star is not None
        evaluated = [t for call in kernel_calls for t in call]
        # both ends, then one per halving of the width until it is below tol
        assert len(evaluated) <= 3 + math.log2((bracket[1] - bracket[0]) / T_STAR_TOL)
        assert t_star == point_threshold(spectral, kind, 1.0, bracket, T_STAR_TOL)


def test_sweep_evaluates_only_inside_the_grid_cell_of_the_crossing(kernel_calls):
    spectral = eig_hermitian(heis(4, boundary="periodic"))
    grid = [float(t) for t in np.geomspace(0.01, 10.0, 100)]
    res = sweep(spectral, grid)
    assert kernel_calls[0] == grid
    steps = [t for call in kernel_calls[1:] for t in call]
    counted = 0
    for kind, t_star in (("eq2", res.T_star_eq2), ("eq4", res.T_star_eq4)):
        assert t_star == point_threshold(spectral, kind, res.E_lower, (grid[0], grid[-1]), T_STAR_TOL)
        i = int(np.searchsorted(grid, t_star))
        a, b = grid[i - 1], grid[i]
        inside = [t for t in steps if a < t < b]
        assert 0 < len(inside) <= math.ceil(math.log2((b - a) / T_STAR_TOL)) + 2
        counted += len(inside)
    assert counted == len(steps)  # nothing evaluated outside the two cells


@pytest.mark.parametrize("grid", [
    [float(t) for t in np.linspace(0.1, 1.0, 5)],  # below both crossings
    [5.0, 6.0, 7.0],  # above both crossings
    [1.0],  # one point: the bracket is (1, 10)
], ids=["below", "above", "one_point"])
def test_sweep_thresholds_keep_their_bits_on_every_grid(kernel_calls, grid):
    spectral = eig_hermitian(heis(2))
    res = sweep(spectral, grid)
    bracket = (grid[0], grid[-1] if len(grid) > 1 else grid[0] * 10.0)
    for kind, t_star in (("eq2", res.T_star_eq2), ("eq4", res.T_star_eq4)):
        assert t_star == point_threshold(spectral, kind, res.E_lower, bracket, T_STAR_TOL)
    if grid[0] >= 5.0:  # the grid above the crossing: None without a kernel call
        assert (res.T_star_eq2, res.T_star_eq4) == (None, None)
        assert kernel_calls == [grid]
    if len(grid) == 5:  # neither quantity reaches ln 2 on the grid: the top expands to 10
        assert res.T_star_eq2 > 1.0 and [10.0] in kernel_calls


def test_sweep_on_a_product_ground_state_makes_no_kernel_call(kernel_calls):
    spec = SpinModelSpec(kind="transverse_ising", n_sites=2, coupling=0.0, field=1.0)
    spectral = eig_hermitian(build_spin_hamiltonian(spec))
    grid = [0.1, 1.0, 10.0]
    res = sweep(spectral, grid)
    assert res.E_lower == 0.0
    assert (res.T_star_eq2, res.T_star_eq4) == (None, None)
    assert kernel_calls == [grid]


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    levels=st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(1, 4)), min_size=2, max_size=12),
    width=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    log10_ts=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=40, unique=True),
)
def test_entropy_is_at_least_neg_ln_p_bit_for_bit_on_every_sweep_row(levels, width, log10_ts):
    # S = -ln p + (U - E0)/T adds a nonnegative float to -ln p, so eq4 => eq2
    # holds by construction, without the 1e-9 slack of the row check
    energies = np.repeat([e * width for e, _ in levels], [g for _, g in levels])
    h = HermitianOperator(np.diag(energies).astype(complex), (energies.size,))
    res = sweep(eig_hermitian(h), sorted({10.0 ** x for x in log10_ts}))
    assert np.all(res.S >= res.neg_ln_p)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([0.1, 1.0, 30.0, 3000.0]),
    ground_copies=st.integers(1, 3),
    log10_ts=st.lists(st.floats(-3.0, 2.0), min_size=1, max_size=30, unique=True),
)
def test_sweep_equals_point_by_point_evaluation(n_sites, seed, width, ground_copies, log10_ts):
    # random spectra on random (generically entangled) eigenbases, with a
    # degenerate ground level and, for wide spectra, underflowing weights
    rng = np.random.default_rng(seed)
    d = 2 ** n_sites
    e = np.sort(rng.uniform(-1.0, 1.0, d)) * width
    e[:ground_copies] = e[0]
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    spectral = eig_hermitian(HermitianOperator((q * e) @ q.T, (2,) * n_sites))
    grid = sorted({10.0 ** x for x in log10_ts})
    res = sweep(spectral, grid)
    est = ree_lower_bound(ground_state(spectral))
    for t, rep in zip(grid, res.reports, strict=True):
        assert rep == evaluate_witness(spectral, t, est) == point_report(spectral, t, est)
    bracket = (grid[0], grid[-1] if len(grid) > 1 else grid[0] * 10.0)
    for kind, t_star, fires in (("eq2", res.T_star_eq2, res.eq2_fires),
                                ("eq4", res.T_star_eq4, res.eq4_fires)):
        assert t_star == point_threshold(spectral, kind, est.lower, bracket, 1e-6)
        # one bound: each column fires below its T* and is silent above it
        if t_star is None:  # silent at the grid's bottom, or firing up to T_CEILING
            assert not fires.any() or fires.all()
        else:
            assert fires[res.T < t_star - T_STAR_TOL / 2].all()
            assert not fires[res.T > t_star + T_STAR_TOL / 2].any()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([0.1, 1.0, 30.0, 3000.0]),
    ground_copies=st.integers(1, 3),
    e_fraction=st.floats(0.0, 1.2),
    log10_lo=st.floats(-3.0, 3.0),
    log10_span=st.floats(1e-3, 4.0),
    tol=st.sampled_from([T_STAR_TOL, 1e-300]),
)
def test_threshold_equals_point_by_point_bisection(
    n_sites, seed, width, ground_copies, e_fraction, log10_lo, log10_span, tol
):
    # the spectra of test_sweep_equals_point_by_point_evaluation; brackets
    # that need top expansion, that end at T_CEILING, and whose witness never
    # fires at the bottom; tol=1e-300 runs the bisection to the nextafter stop
    rng = np.random.default_rng(seed)
    d = 2 ** n_sites
    e = np.sort(rng.uniform(-1.0, 1.0, d)) * width
    e[:ground_copies] = e[0]
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    spectral = eig_hermitian(HermitianOperator((q * e) @ q.T, (2,) * n_sites))
    e_lower = e_fraction * math.log(d)  # above ln d, no temperature reaches it
    bracket = (10.0 ** log10_lo, 10.0 ** (log10_lo + log10_span))
    for kind in ("eq2", "eq4"):
        assert critical_temperature(spectral, kind, e_lower, bracket, tol) == (
            point_threshold(spectral, kind, e_lower, bracket, tol)
        )
