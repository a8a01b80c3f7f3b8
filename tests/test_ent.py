import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thermwit import (
    DensityOperator,
    EntanglementEstimate,
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
    quantum_relative_entropy,
    ree_bounds,
    ree_lower_bound,
    ree_upper_bound,
    thermal_ensemble,
)
from thermwit import ent
from thermwit.ent import (ProductStateAnsatz, _alternating_minimum, _bloch_minimum,
                          _objective_and_gradient, _pauli_coefficients)
from thermwit.models import pauli_terms
from conftest import (
    LN2,
    SX,
    SY,
    SZ,
    bell_pure,
    bloch_grid_extreme,
    dense_frank_wolfe,
    ghz_pure,
    loop_alternating_minimum,
    loop_cut_entropies,
    pauli_string,
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


def test_state_vector_is_held_to_a_vector_byte_limit():
    # a 13-qubit vector is 128 KiB: it builds and its cuts are computed, but
    # its 8192 x 8192 projector is over the dense operator cap
    amps = np.zeros(2 ** 13)
    amps[[0, -1]] = 1 / math.sqrt(2)  # GHZ
    psi = PureState(amps, (2,) * 13)
    assert entanglement_entropy_pure(psi, PartitionCut(frozenset({0}))) == pytest.approx(LN2)
    with pytest.raises(MemoryError, match="cap"):
        psi.to_density()


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


def _cuts_with_site_zero(n):
    """Every bipartition once, as the side that holds site 0."""
    return [PartitionCut(frozenset(i for i in range(n) if mask >> i & 1))
            for mask in range(1, 2 ** n - 1, 2)]


def test_lower_bound_equals_the_largest_single_cut(rng):
    # the stacked SVDs of the bound give each cut the bits of its own evaluation
    factors = tuple(random_pure(rng, (2,)).amplitudes for _ in range(4))
    product = PureState(ProductStateAnsatz(factors).vector(), (2,) * 4)
    states = [random_pure(rng, (2,) * n) for n in range(2, 9)]
    states += [random_pure(rng, (3, 2, 4)), ghz_pure(), product]
    for psi in states:
        n = len(psi.dims)
        cuts = _cuts_with_site_zero(n)
        est = ree_lower_bound(psi)
        assert est.iterations == len(cuts) == 2 ** (n - 1) - 1
        assert est.lower == max(entanglement_entropy_pure(psi, cut) for cut in cuts)
    assert ree_lower_bound(ghz_pure()).lower == pytest.approx(LN2, abs=1e-12)
    lower = ree_lower_bound(product).lower
    assert lower == 0.0 and math.copysign(1.0, lower) == 1.0  # exactly +0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.one_of(st.integers(2, 9).map(lambda n: (2,) * n),
                   st.lists(st.integers(2, 4), min_size=2, max_size=5).map(tuple)),
    support=st.sampled_from([None, 1, 2]),
    per_stack=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_cut_svds_equal_one_cut_at_a_time(dims, support, per_stack, seed):
    # every cut, with site 0 on either side, so that several shapes share
    # a call; ``support`` nonzero amplitudes make product cuts (exactly 0.0),
    # and ``per_stack`` matrices per stack split a shape into several calls
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, dims)
    if support is not None:
        amps = np.zeros(psi.amplitudes.size, dtype=complex)
        amps[rng.choice(amps.size, support, replace=False)] = 1 / math.sqrt(support)
        psi = PureState(amps, dims)
    n = len(dims)
    sides = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2 ** n - 1)]
    with pytest.MonkeyPatch.context() as mp:
        if per_stack is not None:
            mp.setattr(ent, "_STACK_BYTES", per_stack * psi.amplitudes.nbytes)
        assert ent._cut_entropies(psi, sides) == loop_cut_entropies(psi, sides)


def test_lower_bound_memory_does_not_grow_with_the_cut_count(rng):
    # 12 sites: 2047 cut matrices of 64 KB each; stacked whole, the 462 of one
    # shape would take 30 MB, and the traced peak was 87 MB
    psi = random_pure(rng, (2,) * 12)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        est = ree_lower_bound(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 8 * 2 ** 20  # 3.5 MB in 1 MB chunks
    assert est.lower == max(entanglement_entropy_pure(psi, cut) for cut in _cuts_with_site_zero(12))


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
    assert est.converged and est.misses == 0


def test_an_oracle_miss_takes_no_step_and_does_not_converge(monkeypatch):
    # an oracle that returns the product state minimizing tr(grad pi), the
    # worst atom, makes every duality gap negative
    bloch_minimum = ent._bloch_minimum
    monkeypatch.setattr(ent, "_bloch_minimum",
                        lambda coeffs, *rest, **kw: bloch_minimum(-coeffs, *rest, **kw))
    psi = ghz_pure()
    est = ree_upper_bound(psi.to_density(), FrankWolfeConfig(max_iter=7, restarts=2, seed=3))
    assert not est.converged
    assert est.iterations == est.misses == 7
    assert est.upper >= ree_lower_bound(psi).lower


def test_upper_bound_bell_near_exact(monkeypatch):
    seen = []

    def recording(*args):
        objective, grad = _objective_and_gradient(*args)
        seen.append(objective)
        return objective, grad

    monkeypatch.setattr("thermwit.ent._objective_and_gradient", recording)
    est = ree_upper_bound(bell_pure().to_density(), FrankWolfeConfig(max_iter=80, restarts=2))
    assert abs(est.upper - LN2) <= 2e-2
    assert est.upper >= LN2 - 1e-9  # still an upper bound
    # best-iterate memory: the bound is the lowest objective of every iterate
    assert len(seen) > 1 and est.upper == max(min(seen), 0.0)


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


def test_lower_above_upper_is_a_numerical_failure():
    # a broken soundness invariant is RuntimeError (exit 4), not bad input
    with pytest.raises(RuntimeError, match="exceeds upper bound"):
        EntanglementEstimate(lower=1.0, upper=0.5, method="frank_wolfe_upper",
                             iterations=0, converged=True)


@pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (math.nan, None), (1.0, math.nan),
                                          (math.inf, 1.0)])
def test_non_finite_bound_is_a_numerical_failure(lower, upper):
    # lower <= upper is false for NaN, so a NaN bound fails the check
    with pytest.raises(RuntimeError, match="exceeds upper bound"):
        EntanglementEstimate(lower=lower, upper=upper, method="frank_wolfe_upper",
                             iterations=0, converged=True)


def test_sandwich_on_named_states():
    for psi in (bell_pure(), ghz_pure(), w_pure()):
        lower = ree_lower_bound(psi).lower
        upper = ree_upper_bound(psi.to_density(), FrankWolfeConfig(max_iter=60)).upper
        assert lower <= upper + 1e-6


# ---------------------------------------------------------------------------
# exact two-party REE
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_two_party_upper_is_the_schmidt_dephased_relative_entropy(dims, rng):
    for _ in range(5):
        psi = random_pure(rng, dims)
        u, sv, vh = np.linalg.svd(psi.amplitudes.reshape(dims))
        lam = sv ** 2
        atoms = [np.kron(u[:, i], vh[i]) for i in range(sv.size)]
        sigma = sum(w * np.outer(a, a.conj()) for w, a in zip(lam, atoms))
        # sigma* is a mixture of product states: weights form a distribution,
        # every atom is a unit product vector, and the mixture is PPT
        assert np.all(lam >= 0) and lam.sum() == pytest.approx(1.0, abs=1e-12)
        for a in atoms:
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.svd(a.reshape(dims), compute_uv=False)[1] <= 1e-12
        sigma_op = DensityOperator(sigma, dims)
        assert not ppt_check(sigma_op, PartitionCut(frozenset({0}))).npt
        lower, upper = ree_bounds(psi)
        assert upper.upper == upper.lower == lower.lower
        assert (upper.method, upper.iterations, upper.converged) == (
            "pure_bipartite_exact", 1, True)
        relative = quantum_relative_entropy(psi.to_density(), sigma_op)
        assert abs(relative - upper.upper) <= 1e-12


def test_two_party_upper_counts_every_schmidt_weight():
    # a Schmidt weight of 1e-13 is below EIG_CLAMP: the lower bound drops it,
    # the certificate's value -sum lam ln lam keeps it
    eps = 1e-13
    psi = PureState(np.array([math.sqrt(1 - eps), 0, 0, math.sqrt(eps)], dtype=complex), (2, 2))
    lower, upper = ree_bounds(psi)
    assert lower.lower == upper.lower == 0.0
    exact = -(1 - eps) * math.log1p(-eps) - eps * math.log(eps)  # 3.0934e-12
    assert upper.upper == pytest.approx(exact, rel=0, abs=1e-15)
    assert (upper.method, upper.iterations, upper.converged) == ("pure_bipartite_exact", 1, True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_two_party_exact_value_is_below_frank_wolfe(parts):
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    psi = PureState(amps / norm, (2, 2))
    exact = ree_bounds(psi)[1].upper
    assert exact <= ree_upper_bound(psi.to_density(), FrankWolfeConfig(max_iter=5)).upper + 1e-9


def test_three_party_bounds_run_frank_wolfe():
    cfg = FrankWolfeConfig(max_iter=4, restarts=2, seed=3)
    lower, upper = ree_bounds(ghz_pure(), cfg)
    fw = ree_upper_bound(ghz_pure().to_density(), cfg)
    assert lower == ree_lower_bound(ghz_pure())
    assert (upper.lower, upper.upper) == (lower.lower, fw.upper)
    assert (upper.method, upper.iterations, upper.converged) == (
        fw.method, fw.iterations, fw.converged)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qubit_frank_wolfe_matches_the_dense_oracle_reference(n, monkeypatch):
    # the Bloch search and the dense oracle start from the same product
    # states, so every atom, step and best iterate agrees
    rng = np.random.default_rng([5, n])
    for max_iter in range(6):
        rho = random_pure(rng, (2,) * n).to_density()
        cfg = FrankWolfeConfig(max_iter=max_iter, restarts=3, seed=int(rng.integers(2**32)))
        reference = dense_frank_wolfe(rho, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(ent, "_alternating_minimum", None)  # qubits never reach it
            est = ree_upper_bound(rho, cfg)
        assert abs(est.upper - reference) <= 1e-9


def test_frank_wolfe_on_a_qutrit_runs_the_dense_oracle(monkeypatch, rng):
    calls = []

    def recording(matrix, dims, *rest, **kw):
        calls.append(dims)
        return _alternating_minimum(matrix, dims, *rest, **kw)

    monkeypatch.setattr(ent, "_alternating_minimum", recording)
    monkeypatch.setattr(ent, "_bloch_minimum", None)
    psi = random_pure(rng, (2, 3))
    upper = ree_upper_bound(psi.to_density(), FrankWolfeConfig(max_iter=4, restarts=2))
    assert calls and set(calls) == {(2, 3)}
    assert ree_lower_bound(psi).lower <= upper.upper + 1e-9


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
    ansatz, value = closest_product_state(zz, restarts=8)
    assert value == pytest.approx(-1.0, abs=1e-9)
    vec = ansatz.vector()
    assert np.vdot(vec, zz.matrix @ vec).real == pytest.approx(value, abs=1e-9)
    with pytest.raises(ValueError, match="unit-norm"):
        ProductStateAnsatz(factors=(ansatz.factors[0], 2.0 * ansatz.factors[1]))


def test_closest_product_heisenberg_vs_grid():
    h = heis2()
    _, value = closest_product_state(h)
    grid = bloch_grid_extreme(h.matrix, "min")
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert abs(value - grid) <= 1e-3


def test_closest_product_bell_overlap_vs_grid():
    proj = HermitianOperator(bell_pure().to_density().matrix, (2, 2))
    _, neg_value = closest_product_state(HermitianOperator(-proj.matrix, proj.dims))
    value = -neg_value
    grid = bloch_grid_extreme(proj.matrix, "max")
    assert value == pytest.approx(0.5, abs=1e-9)
    assert abs(value - grid) <= 1e-3


def test_closest_product_deterministic():
    h = heis2()
    a = closest_product_state(h, restarts=6, seed=5)
    b = closest_product_state(h, restarts=6, seed=5)
    assert a[1] == b[1]
    assert all(np.array_equal(x, y) for x, y in zip(a[0].factors, b[0].factors))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 2, 2), (3, 2), (2, 2, 2, 2)]),
    restarts=st.integers(1, 8),
    with_warm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_oracle_matches_per_start_reference(dims, restarts, with_warm, seed):
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    matrix = a + a.conj().T
    warm = None
    if with_warm:
        warm = [v / np.linalg.norm(v) for v in (rng.normal(size=k) + 1j * rng.normal(size=k)
                                                for k in dims)]
    # the same seed gives both oracles the same starts
    value, factors = _alternating_minimum(matrix, dims, np.random.default_rng(seed),
                                          restarts, warm=warm)
    ref_value, _ = loop_alternating_minimum(matrix, dims, np.random.default_rng(seed),
                                            restarts, warm=warm)
    assert abs(value - ref_value) <= 1e-9
    prod = ProductStateAnsatz(factors=tuple(factors)).vector()
    assert abs(np.vdot(prod, matrix @ prod).real - value) <= 1e-10


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_oracle_returns_its_best_factors_when_rounds_run_out(rounds, monkeypatch, rng):
    # no start can stop within so few rounds, so every row is still active
    # when the loop ends and must still reach the returned factors
    monkeypatch.setattr(ent, "_MAX_ROUNDS", rounds)
    dims = (2, 3, 2)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    matrix = a + a.conj().T
    value, factors = _alternating_minimum(matrix, dims, np.random.default_rng(4), 5)
    ref_value, _ = loop_alternating_minimum(matrix, dims, np.random.default_rng(4), 5)
    assert abs(value - ref_value) <= 1e-9
    prod = ProductStateAnsatz(factors=tuple(factors)).vector()
    assert abs(np.vdot(prod, matrix @ prod).real - value) <= 1e-10


@pytest.mark.parametrize("delta", [0.0, 1e-14, 1e-13, 1e-9])
def test_oracle_breaks_round_off_ties_by_the_lowest_start(delta):
    # diag(a, 1, 1, a - delta) has two product minima, |00> at a and |11> at
    # a - delta, and alternating updates reach each one exactly from the
    # starts nearest it; the warm start (index 0) sits on |00>. Within
    # relative 1e-12 the first start wins, past it the lower value does.
    a = 0.5
    matrix = np.diag([a, 1.0, 1.0, a - delta]).astype(complex)
    e0 = np.array([1.0, 0.0], dtype=complex)
    value, factors = _alternating_minimum(matrix, (2, 2), np.random.default_rng(7), 8,
                                          warm=[e0, e0])
    winner = 0 if delta <= 1e-12 else 1  # the basis state of both sites
    assert value == (a if winner == 0 else a - delta)
    for f in factors:
        assert np.abs(f[winner]) == 1.0 and f[1 - winner] == 0


def _bloch(factor: np.ndarray) -> list[float]:
    """The Bloch vector of a unit qubit state (a, b)."""
    a, b = factor
    return [2 * (a.conj() * b).real, 2 * (a.conj() * b).imag, abs(a) ** 2 - abs(b) ** 2]


def _bloch_energy(h: np.ndarray, bloch: np.ndarray) -> float:
    """<H> on the product of the one-site states (I + r.sigma)/2."""
    rho = np.ones((1, 1))
    for x, y, z in bloch:
        rho = np.kron(rho, (np.eye(2) + x * SX + y * SY + z * SZ) / 2)
    return float(np.real(np.trace(h @ rho)))


def _assert_bloch_search_matches_dense(spec: SpinModelSpec, seed: int, restarts: int = 4):
    h = build_spin_hamiltonian(spec)
    value, bloch = _bloch_minimum(pauli_terms(spec), spec.n_sites,
                                  np.random.default_rng(seed), restarts)
    dense, _ = _alternating_minimum(h.matrix, h.dims, np.random.default_rng(seed), restarts)
    assert abs(value - dense) <= 1e-8
    assert np.allclose(np.linalg.norm(bloch, axis=1), 1.0, rtol=0, atol=1e-12)
    assert abs(_bloch_energy(h.matrix, bloch) - value) <= 1e-10
    assert value >= np.linalg.eigvalsh(h.matrix)[0] - 1e-9


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("kind", ["heisenberg", "xy", "transverse_ising"])
def test_bloch_search_matches_the_dense_oracle_on_builtin_models(kind, boundary):
    # with equal seeds both searches start from the same product states
    rng = np.random.default_rng([2, len(kind), len(boundary)])
    for n in range(2, 9):
        field = float(rng.uniform(-2, 2)) if kind == "transverse_ising" else 0.0
        spec = SpinModelSpec(kind=kind, n_sites=n, coupling=float(rng.uniform(-2, 2)),
                             field=field, boundary=boundary)
        _assert_bloch_search_matches_dense(spec, seed=int(rng.integers(2**32)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 6), count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_bloch_search_matches_the_dense_oracle_on_custom_terms(n, count, seed):
    # 1-, 2- and 3-site terms that mix X, Y and Z, with repeated labels
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(count):
        sites = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        labels = "".join(rng.choice(list("XYZ"), size=sites.size))
        terms.append((tuple(sites.tolist()), labels, float(rng.normal())))
    spec = SpinModelSpec(kind="custom_terms", n_sites=n, custom_terms=tuple(terms))
    _assert_bloch_search_matches_dense(spec, seed=seed)


def test_bloch_search_keeps_the_start_of_an_idle_site():
    # no term touches site 2, so g = 0 there in every update
    terms = (((0, 1), "XY", 0.8), ((1, 3), "ZZ", -0.6), ((0,), "Y", 0.3), ((0, 1, 3), "XZY", 0.4))
    spec = SpinModelSpec(kind="custom_terms", n_sites=4, custom_terms=terms)
    _assert_bloch_search_matches_dense(spec, seed=9, restarts=6)
    _, bloch = _bloch_minimum(terms, 4, np.random.default_rng(9), 1)
    start = _bloch(ent._random_factors((2,) * 4, np.random.default_rng(9))[2])
    assert np.allclose(bloch[2], start, rtol=0, atol=1e-15)  # the vector it started with


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_expansion_rebuilds_the_matrix(n, rng):
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    matrix = a + a.conj().T
    coeffs = _pauli_coefficients(matrix, n)
    assert coeffs.shape == (4,) * n and coeffs.dtype == float
    rebuilt = sum(coeffs[idx] * pauli_string(n, range(n), "".join("XYZI"[i] for i in idx))
                  for idx in np.ndindex(coeffs.shape))
    assert np.abs(rebuilt - matrix).max() <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    restarts=st.integers(1, 8),
    with_warm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pauli_bloch_search_matches_the_dense_oracle(n, restarts, with_warm, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    matrix = a + a.conj().T
    warm = warm_bloch = None
    if with_warm:
        draws = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        warm = [v / np.linalg.norm(v) for v in draws]
        warm_bloch = [_bloch(f) for f in warm]
    # the same seed gives both searches the same starts
    value, bloch = _bloch_minimum(_pauli_coefficients(matrix, n), n, np.random.default_rng(seed),
                                  restarts, warm=warm_bloch)
    dense, _ = _alternating_minimum(matrix, (2,) * n, np.random.default_rng(seed), restarts,
                                    warm=warm)
    assert abs(value - dense) <= 1e-9
    assert np.allclose(np.linalg.norm(bloch, axis=1), 1.0, rtol=0, atol=1e-12)
    assert abs(_bloch_energy(matrix, bloch) - value) <= 1e-10


def _tensor_energies(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The energy of each (n+1, 4) array of (x, y, z, 1) rows of ``rows``,
    by one einsum over the whole tensor."""
    n = coeffs.ndim
    operands = [coeffs, list(range(n))]
    for k in range(n):
        operands += [rows[:, k], [n, k]]
    return np.einsum(*operands, [n])


def _fields(coeffs: np.ndarray, bloch: np.ndarray) -> np.ndarray:
    """g_k, the gradient of the energy in site k's Bloch vector, for each k."""
    n = coeffs.ndim
    rows = np.hstack([bloch, np.ones((n, 1))])
    out = []
    for k in range(n):
        operands = [coeffs, list(range(n))]
        for j in range(n):
            if j != k:
                operands += [rows[j], [j]]
        out.append(np.einsum(*operands, [k])[:3])
    return np.array(out)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 6),
    restarts=st.integers(1, 8),
    with_warm=st.booleans(),
    with_terms=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_extrapolated_bloch_search_only_descends(n, restarts, with_warm, with_terms, seed):
    rng = np.random.default_rng(seed)
    if with_terms:
        model = []
        for _ in range(int(rng.integers(1, 3 * n))):
            sites = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
            labels = "".join(rng.choice(list("XYZ"), size=sites.size))
            model.append((tuple(sites.tolist()), labels, float(rng.normal())))
        matrix = sum(c * pauli_string(n, sites, labels) for sites, labels, c in model)
        spied = "_term_sweep"
    else:
        a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        matrix = a + a.conj().T
        spied = "_pauli_sweep"
    coeffs = _pauli_coefficients(matrix, n)
    if not with_terms:
        model = coeffs
    warm = None
    if with_warm:
        warm = rng.normal(size=(n, 3))
        warm /= np.linalg.norm(warm, axis=1, keepdims=True)
    # each pass: the array the sweep updates in place, its exact energies
    # before the sweep, the energies the sweep returns, and its exact
    # energies once the extrapolated step has run (read at the next pass)
    passes = []

    def close_last_pass():
        if passes:
            passes[-1].append(_tensor_energies(coeffs, passes[-1][0]))

    def spying(*args):
        sweep, energy = real(*args)

        def spy(sub):
            close_last_pass()
            before = _tensor_energies(coeffs, sub)
            passes.append([sub, before, sweep(sub)])
            return passes[-1][2].copy()

        return spy, energy

    real = getattr(ent, spied)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ent, spied, spying)
        value, bloch = _bloch_minimum(model, n, np.random.default_rng(seed), restarts, warm=warm)
    close_last_pass()
    for _, before, swept, after in passes:
        scale = 1e-11 * np.maximum(1.0, np.abs(before))
        assert np.all(swept <= before + scale)  # site updates only descend
        assert np.all(after <= swept + scale)  # a kept trial lies lower
    assert abs(_bloch_energy(matrix, bloch) - value) <= 1e-10
    # stationary: r_k = -g_k/|g_k| wherever g_k is not zero up to round-off
    for r, g in zip(bloch, _fields(coeffs, bloch)):
        if np.linalg.norm(g) > 1e-9:
            assert np.linalg.norm(r + g / np.linalg.norm(g)) <= 1e-4


def test_energy_witness_terms_have_no_dense_size_cap():
    # SpinModelSpec refuses 16 sites (its dense Hamiltonian would need 64 GiB);
    # the term search builds nothing of size 2**n and finds the Neel state
    with pytest.raises(MemoryError, match="cap"):
        SpinModelSpec(kind="heisenberg", n_sites=16, boundary="periodic")
    ring = [((i, (i + 1) % 16), p + p, 1.0) for i in range(16) for p in "XYZ"]
    res = energy_witness((ring, 16), energy=-20.0)
    assert abs(res.sep_min + 16.0) <= 1e-8
    assert res.entangled


@pytest.mark.parametrize("terms, n_sites, message", [
    ([((0, 2), "ZZ", 1.0)], 2, "out of range"),
    ([((0, 5), "XX", 1.0)], 2, "out of range"),
    ([((0, -1), "XX", 1.0)], 2, "out of range"),
    ([((0,), "W", 1.0)], 2, "XYZ"),
    ([((0,), "X", math.nan)], 2, "finite"),
    ([((0,), "X", math.inf)], 2, "finite"),
    ([((0,), "X", "0.5")], 2, "term coefficient '0.5' is not a finite real number"),
    ([((0,), "X", True)], 2, "not a finite real number"),
    ([], 2, "nonempty custom_terms"),
    ([((0, 1), "X", 1.0)], 2, "do not match"),
    ([((), "", 1.0)], 2, "do not match"),
    ([((0, 0), "XX", 1.0)], 2, "repeated site"),
    ([((1.0,), "Z", 1.0)], 2, "is not an integer"),
    ([((0,), "Z", 1.0)], 1, "n_sites must be >= 2"),
    ([((0,), "Z", 1.0)], 2.0, "n_sites 2.0 is not an integer"),
])
def test_bad_terms_raise_for_a_model_and_the_energy_witness(terms, n_sites, message):
    # one function checks both; only the model caps the dense size
    with pytest.raises(ValueError, match=message):
        SpinModelSpec(kind="custom_terms", n_sites=n_sites, custom_terms=tuple(terms))
    with pytest.raises(ValueError, match=message):
        energy_witness((terms, n_sites), energy=0.0)


def test_energy_witness_takes_a_dense_operator_or_its_terms():
    spec = SpinModelSpec(kind="xy", n_sites=3, coupling=0.7, boundary="periodic")
    dense = energy_witness(build_spin_hamiltonian(spec), energy=-1.4, restarts=3, seed=3)
    terms = energy_witness((pauli_terms(spec), 3), energy=-1.4, restarts=3, seed=3)
    assert abs(terms.sep_min - dense.sep_min) <= 1e-12
    assert terms.entangled and dense.entangled
    # the one verdict rule: equality within 1e-9 does not flag
    assert not energy_witness((pauli_terms(spec), 3), energy=terms.sep_min - 1e-9,
                              restarts=3, seed=3).entangled
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        energy_witness((pauli_terms(spec), 3), energy=-1.4, restarts=0)


def test_restarts_below_one_rejected():
    # with no start the alternating optimizer has no factors to return
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            closest_product_state(heis2(), restarts=restarts)
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
