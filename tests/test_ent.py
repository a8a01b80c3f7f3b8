import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thermwit import (
    DensityOperator,
    FrankWolfeConfig,
    HermitianOperator,
    PartitionCut,
    PureState,
    SpinModelSpec,
    build_spin_hamiltonian,
    closest_product_state,
    eig_hermitian,
    energy_witness,
    entanglement_entropy_pure,
    ppt_check,
    ree_lower_bound,
    ree_upper_bound,
    thermal_ensemble,
)
from thermwit.ent import _objective_and_gradient
from conftest import (
    LN2,
    SX,
    SY,
    SZ,
    bell_pure,
    bloch_grid_extreme,
    ghz_pure,
    random_pure,
    w_pure,
)


def heis2():
    return build_spin_hamiltonian(SpinModelSpec(kind="heisenberg", n_sites=2))


# ---------------------------------------------------------------------------
# pure-state entanglement entropy
# ---------------------------------------------------------------------------

def test_singlet_entropy():
    s = 1 / np.sqrt(2)
    singlet = PureState(np.array([0, s, -s, 0], dtype=complex), (2, 2))
    assert entanglement_entropy_pure(singlet, PartitionCut(frozenset({0}))) == pytest.approx(
        LN2, abs=1e-12
    )


def test_product_state_entropy_zero(rng):
    psi = PureState(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
    assert entanglement_entropy_pure(psi, PartitionCut(frozenset({0}))) == pytest.approx(
        0.0, abs=1e-12
    )
    # exactly +0.0, also when the Schmidt weight is 1 only up to round-off
    factors = [random_pure(rng, (2,)).amplitudes for _ in range(3)]
    product = PureState(np.kron(np.kron(factors[0], factors[1]), factors[2]), (2, 2, 2))
    for state in (psi, product):
        for side in ({0}, {1}):
            value = entanglement_entropy_pure(state, PartitionCut(frozenset(side)))
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_w_state_single_site_cut():
    expect = math.log(3) - (2 / 3) * math.log(2)
    got = entanglement_entropy_pure(w_pure(), PartitionCut(frozenset({0})))
    assert got == pytest.approx(expect, abs=1e-12)


def test_entropy_matches_partial_trace_route(rng):
    from thermwit import partial_trace, von_neumann_entropy

    psi = random_pure(rng, (2, 2, 2))
    for side in ({0}, {1}, {0, 2}):
        via_schmidt = entanglement_entropy_pure(psi, PartitionCut(frozenset(side)))
        via_trace = von_neumann_entropy(partial_trace(psi.to_density(), side))
        assert via_schmidt == pytest.approx(via_trace, abs=1e-10)


def test_cut_validation():
    with pytest.raises(ValueError, match="nonempty"):
        PartitionCut(frozenset())
    with pytest.raises(ValueError, match="proper subset"):
        entanglement_entropy_pure(bell_pure(), PartitionCut(frozenset({0, 1})))
    with pytest.raises(ValueError, match="out of range"):
        entanglement_entropy_pure(bell_pure(), PartitionCut(frozenset({7})))


# ---------------------------------------------------------------------------
# cut-maximum lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_ghz():
    est = ree_lower_bound(ghz_pure())
    assert est.method == "max_cut_lower"
    assert est.iterations == 3  # 2^(3-1) - 1 cuts
    assert est.lower == pytest.approx(LN2, abs=1e-12)
    # every single cut of GHZ carries exactly ln 2
    for side in ({0}, {1}, {2}, {0, 1}, {0, 2}):
        assert entanglement_entropy_pure(ghz_pure(), PartitionCut(frozenset(side))) == (
            pytest.approx(LN2, abs=1e-10)
        )


def test_lower_bound_product_state_zero():
    psi = PureState(np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=complex), (2, 2, 2))
    assert ree_lower_bound(psi).lower == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_singlet_exact():
    s = 1 / np.sqrt(2)
    singlet = PureState(np.array([0, s, -s, 0], dtype=complex), (2, 2))
    est = ree_lower_bound(singlet)
    assert est.method == "pure_bipartite_exact"
    assert est.iterations == 1
    assert est.lower == pytest.approx(LN2, abs=1e-12)


# ---------------------------------------------------------------------------
# conditional-gradient upper bound
# ---------------------------------------------------------------------------

def test_upper_bound_separable_state():
    rho = DensityOperator(np.eye(4) / 4, (2, 2))
    est = ree_upper_bound(rho)
    assert est.upper <= 1e-3
    assert est.converged


def test_upper_bound_bell_near_exact():
    trace = []
    est = ree_upper_bound(
        bell_pure().to_density(),
        FrankWolfeConfig(max_iter=80, restarts=2),
        objective_trace=trace,
    )
    assert abs(est.upper - LN2) <= 2e-2
    assert est.upper >= LN2 - 1e-9  # still an upper bound
    # best-objective memory is nonincreasing
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_upper_bound_ghz():
    est = ree_upper_bound(ghz_pure().to_density())
    assert abs(est.upper - LN2) <= 5e-2


@pytest.mark.parametrize("lam", [round(0.1 * k, 1) for k in range(1, 10)])
def test_upper_bound_schmidt_family(lam):
    psi = PureState(
        np.array([math.sqrt(lam), 0, 0, math.sqrt(1 - lam)], dtype=complex), (2, 2)
    )
    exact = -lam * math.log(lam) - (1 - lam) * math.log(1 - lam)
    est = ree_upper_bound(psi.to_density(), FrankWolfeConfig(max_iter=80, restarts=2))
    assert abs(est.upper - exact) <= 2e-2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_sites=st.sampled_from([2, 3]),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
)
def test_lower_never_exceeds_upper_on_random_states(n_sites, parts):
    # every Frank-Wolfe iterate is separable, so the bound holds from the start
    d = 2 ** n_sites
    amps = np.array(parts[:d]) + 1j * np.array(parts[d:2 * d])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    psi = PureState(amps / norm, (2,) * n_sites)
    lower = ree_lower_bound(psi).lower
    for k in (0, 1, 2):
        upper = ree_upper_bound(psi.to_density(), FrankWolfeConfig(max_iter=k, restarts=1))
        assert lower <= upper.upper + 1e-9


def test_sandwich_on_named_states():
    for psi in (bell_pure(), ghz_pure(), w_pure()):
        lower = ree_lower_bound(psi).lower
        upper = ree_upper_bound(psi.to_density(), FrankWolfeConfig(max_iter=60)).upper
        assert lower <= upper + 1e-6


def test_log_gradient_matches_finite_difference(rng):
    # directional derivative of tr(rho ln sigma), including a degenerate sigma
    rho = bell_pure().to_density().matrix
    for sigma in (
        np.diag([0.4, 0.4, 0.1, 0.1]).astype(complex),  # exact degeneracies
        None,
    ):
        if sigma is None:
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            sigma = a @ a.conj().T
            sigma = sigma / np.trace(sigma).real
        _, g = _objective_and_gradient(rho, 0.0, sigma)
        d = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        d = d + d.conj().T
        d /= np.max(np.abs(d))
        eps = 1e-6

        def f(mat):
            vals, vecs = np.linalg.eigh(mat)
            ln = (vecs * np.log(vals)) @ vecs.conj().T
            return float(np.real(np.trace(rho @ ln)))

        fd = (f(sigma + eps * d) - f(sigma - eps * d)) / (2 * eps)
        assert abs(fd - float(np.real(np.trace(g @ d)))) <= 1e-5


# ---------------------------------------------------------------------------
# product-state optimization
# ---------------------------------------------------------------------------

def test_closest_product_diagonal_case():
    zz = HermitianOperator(np.kron(SZ, SZ), (2, 2))
    ansatz, value = closest_product_state(zz, "minimize", restarts=8)
    assert value == pytest.approx(-1.0, abs=1e-9)
    vec = ansatz.vector()
    assert np.vdot(vec, zz.matrix @ vec).real == pytest.approx(value, abs=1e-9)


def test_closest_product_heisenberg_vs_grid():
    h = heis2()
    _, value = closest_product_state(h, "minimize")
    grid = bloch_grid_extreme(h.matrix, "min")
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert abs(value - grid) <= 1e-3


def test_closest_product_bell_overlap_vs_grid():
    proj = HermitianOperator(bell_pure().to_density().matrix, (2, 2))
    _, value = closest_product_state(proj, "maximize")
    grid = bloch_grid_extreme(proj.matrix, "max")
    assert value == pytest.approx(0.5, abs=1e-9)
    assert abs(value - grid) <= 1e-3


def test_closest_product_deterministic():
    h = heis2()
    a = closest_product_state(h, "minimize", restarts=6, seed=5)
    b = closest_product_state(h, "minimize", restarts=6, seed=5)
    assert a[1] == b[1]
    assert all(np.array_equal(x, y) for x, y in zip(a[0].factors, b[0].factors))


def test_closest_product_rejects_bad_mode():
    with pytest.raises(ValueError, match="mode"):
        closest_product_state(heis2(), "extremize")


def test_restarts_below_one_rejected():
    # with no start the alternating optimizer has no factors to return
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            closest_product_state(heis2(), "minimize", restarts=restarts)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            energy_witness(heis2(), energy=-3.0, restarts=restarts)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            FrankWolfeConfig(restarts=restarts)


# ---------------------------------------------------------------------------
# energy witness
# ---------------------------------------------------------------------------

def test_energy_witness_heisenberg_ground():
    res = energy_witness(heis2(), energy=-3.0)
    assert res.sep_min == pytest.approx(-1.0, abs=1e-6)
    assert res.entangled


def test_energy_witness_product_ground_silent():
    spec = SpinModelSpec(kind="transverse_ising", n_sites=2, coupling=0.0, field=1.0)
    h = build_spin_hamiltonian(spec)
    res = energy_witness(h, energy=-2.0)
    assert res.sep_min == pytest.approx(-2.0, abs=1e-6)
    assert not res.entangled


def test_energy_witness_boundary_not_strict():
    res = energy_witness(heis2(), energy=-1.0)  # exactly sep_min
    assert not res.entangled


# ---------------------------------------------------------------------------
# partial-transpose check
# ---------------------------------------------------------------------------

def test_ppt_bell():
    res = ppt_check(bell_pure().to_density(), PartitionCut(frozenset({0})))
    assert res.min_eig == pytest.approx(-0.5, abs=1e-12)
    assert res.npt


def test_ppt_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4, (2, 2))
    res = ppt_check(rho, PartitionCut(frozenset({0})))
    assert res.min_eig == pytest.approx(0.25, abs=1e-12)
    assert not res.npt


def test_ppt_thermal_heisenberg():
    ens = thermal_ensemble(eig_hermitian(heis2()), 1.0)
    res = ppt_check(ens.rho_T, PartitionCut(frozenset({0})))
    # frozen from the pre-build 4x4 oracle
    assert res.min_eig == pytest.approx(-0.4479149938275155, abs=1e-10)
    assert res.npt
