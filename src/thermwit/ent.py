"""Entanglement quantifiers and witnesses.

Exact bipartite pure-state entanglement entropy, multipartite lower and upper
bounds on the relative entropy of entanglement (REE, relative to the fully
separable set), the product-state energy witness, and a partial-transpose
cross-check.

The lower bound is the maximum single-cut entanglement entropy, which keeps
the thermal witness sound (any smaller E only makes the witness fire less).
``ree_bounds`` pairs it with an upper bound. For two parties the pair is
exact: the REE of a pure state equals its entanglement entropy (Vedral &
Plenio, PRA 57, 1619 (1998)), certified by the separable state that dephases
psi in its Schmidt basis, sigma* = sum_i lam_i |a_i b_i><a_i b_i|, for which
S(psi||sigma*) = -sum_i lam_i ln lam_i. From three parties up the upper bound
is a conditional-gradient (Frank-Wolfe) descent over the separable set whose
linear oracle is a product-state search: over Bloch vectors
(``_bloch_minimum``) when every site is a qubit, else over state vectors
(``_alternating_minimum``, which ``closest_product_state`` also runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .models import CustomTerm, checked_terms, site_count
from .qops import (
    DensityOperator,
    EIG_CLAMP,
    HermitianOperator,
    PureState,
    _STACK_BYTES,
    partial_transpose,
    von_neumann_entropy,
)

#: Eigenvalue-gap threshold below which the log divided difference switches
#: to its limit form.
_DIVDIFF_TOL = 1e-10

#: Weight of the computational-basis diagonal of rho in the Frank-Wolfe start
#: iterate (the rest is the maximally mixed state).
_MIX_EPSILON = 1e-3

#: The alternating product-state optimization stops a start once one full
#: pass over the sites changes the objective by less than this, or after
#: _MAX_ROUNDS passes.
_STATIONARITY_TOL = 1e-10
_MAX_ROUNDS = 200

#: Frank-Wolfe stops once its duality gap falls below this.
_FW_GAP_TOL = 1e-4


@dataclass(frozen=True)
class PartitionCut:
    """Bipartition: ``side_a`` against the rest of the sites."""

    side_a: frozenset[int]

    def __post_init__(self) -> None:
        side = frozenset(int(i) for i in self.side_a)
        if not side:
            raise ValueError("side_a must be nonempty")
        object.__setattr__(self, "side_a", side)

    def validate(self, n_sites: int) -> tuple[int, ...]:
        side = tuple(sorted(self.side_a))
        if side[0] < 0 or side[-1] >= n_sites:
            raise ValueError(f"cut indices {side} out of range for {n_sites} sites")
        if len(side) == n_sites:
            raise ValueError("side_a must be a proper subset of the sites")
        return side


@dataclass(frozen=True)
class EntanglementEstimate:
    """Bounds on the relative entropy of entanglement, in nats."""

    lower: float
    upper: float | None
    method: str  # pure_bipartite_exact | max_cut_lower | frank_wolfe_upper
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        upper = math.inf if self.upper is None else self.upper
        if not self.lower <= upper + 1e-6:  # also false for a NaN bound
            raise RuntimeError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )


@dataclass(frozen=True, eq=False)
class ProductStateAnsatz:
    """Normalized per-site factors of a product pure state."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            if not abs(np.linalg.norm(f) - 1.0) <= 1e-10:
                raise ValueError("every product factor must be unit-norm")

    def vector(self) -> np.ndarray:
        v = self.factors[0]
        for f in self.factors[1:]:
            v = np.kron(v, f)
        return v


@dataclass(frozen=True)
class FrankWolfeConfig:
    max_iter: int = 500
    restarts: int = 4          # fresh multistarts per linear-oracle call, >= 1
    seed: int = 42

    def __post_init__(self) -> None:
        _check_restarts(self.restarts)
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")


@dataclass(frozen=True)
class EnergyWitnessResult:
    sep_min: float
    entangled: bool


@dataclass(frozen=True)
class PPTCheckResult:
    min_eig: float
    npt: bool


# ---------------------------------------------------------------------------
# pure-state entanglement entropy and the cut-maximum lower bound
# ---------------------------------------------------------------------------

def _cut_entropies(psi: PureState, sides: Sequence[tuple[int, ...]]) -> list[float]:
    """Entanglement entropy across each cut (sorted ``side_a`` indices), from
    the singular values of the state reshaped into a matrix across it. The
    matrices of one shape go to stacked SVD calls of at most _STACK_BYTES
    each, which run the same LAPACK routine on each matrix as a call of its
    own. Schmidt weights at or below EIG_CLAMP count as zero."""
    n = len(psi.dims)
    tensor = psi.amplitudes.reshape(psi.dims)
    by_rows = {}
    for k, side in enumerate(sides):
        by_rows.setdefault(math.prod(psi.dims[j] for j in side), []).append(k)
    out = [0.0] * len(sides)
    step = max(1, _STACK_BYTES // psi.amplitudes.nbytes)  # each matrix holds the whole state
    for rows, cuts in by_rows.items():
        for lo in range(0, len(cuts), step):
            chunk = cuts[lo:lo + step]
            mats = np.stack([
                tensor.transpose(sides[k] + tuple(j for j in range(n) if j not in sides[k]))
                .reshape(rows, -1) for k in chunk])
            for k, sv in zip(chunk, np.linalg.svd(mats, compute_uv=False)):
                lam = sv ** 2
                lam = lam[lam > EIG_CLAMP]
                # one weight is a product across the cut; -lam ln lam would be round-off
                out[k] = 0.0 if lam.size == 1 else float(-np.sum(lam * np.log(lam)))
    return out


def entanglement_entropy_pure(psi: PureState, cut: PartitionCut) -> float:
    """Entanglement entropy of a pure state across a bipartition, in nats.

    Equals the von Neumann entropy of the reduced state on ``side_a``
    (computed through the Schmidt coefficients). A cut with a single
    Schmidt weight above EIG_CLAMP gives exactly 0.0.
    """
    return _cut_entropies(psi, [cut.validate(len(psi.dims))])[0]


def ree_lower_bound(psi: PureState) -> EntanglementEstimate:
    """Maximum single-cut entanglement entropy over all bipartitions.

    A valid lower bound on the relative entropy of entanglement with respect
    to fully separable states. Cut enumeration is exhaustive
    (2**(n-1) - 1 cuts).
    """
    n = len(psi.dims)
    sides = [(0,) + extra for r in range(n - 1) for extra in combinations(range(1, n), r)]
    method = "pure_bipartite_exact" if n == 2 else "max_cut_lower"
    return EntanglementEstimate(
        lower=max([0.0, *_cut_entropies(psi, sides)]), upper=None, method=method,
        iterations=len(sides), converged=True,
    )


# ---------------------------------------------------------------------------
# product-state optimization (linear oracle and energy witness)
# ---------------------------------------------------------------------------

def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")


def _random_factors(dims: tuple[int, ...], rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for d in dims:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        out.append(v / np.linalg.norm(v))
    return out


def _alternating_minimum(
    matrix: np.ndarray,
    dims: tuple[int, ...],
    rng: np.random.Generator,
    restarts: int,
    warm: Sequence[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Lowest <prod|A|prod> found by alternating site updates.

    Heuristic: each pass fixes all factors but one and replaces it with the
    lowest eigenvector of the effective single-site operator, which can
    only lower the objective; multistart mitigates local optima. The starts
    advance together as one stacked batch (one matmul and one batched eigh
    per site), and each leaves the batch on its own stopping rule; extra
    memory is O(starts * d * max d_k). Each site update goes to ``factors``
    as it is made; ``sub`` keeps the active rows. The first start within
    relative 1e-12 of the lowest value wins, whatever the contraction order.
    """
    starts = [] if warm is None else [list(warm)]
    starts.extend(_random_factors(dims, rng) for _ in range(restarts))
    factors = [np.array([s[k] for s in starts], dtype=complex) for k in range(len(dims))]
    vals = np.full(len(starts), np.inf)
    active = np.arange(len(starts))
    sub = list(factors)  # sub[k] is rebound, never written
    eyes = [np.eye(dk)[:, None, :, None] for dk in dims]
    for _ in range(_MAX_ROUNDS):
        s = active.size
        # right[k]: rows kron(f_{k+1}, ..., f_{n-1}) of this pass's old factors
        right = [np.ones((s, 1))]
        for f in reversed(sub[1:]):
            right.insert(0, (f[:, :, None] * right[0][:, None, :]).reshape(s, -1))
        left = right[-1]
        for k, dk in enumerate(dims):
            # rows: each start's product vector with site k set to each basis state
            lr = left[:, None, :, None, None] * right[k][:, None, None, None, :]
            basis = (eyes[k] * lr).reshape(s, dk, -1)
            bra = (basis.conj().reshape(s * dk, -1) @ matrix).reshape(s, dk, -1)
            w, vecs = np.linalg.eigh(bra @ basis.transpose(0, 2, 1))
            sub[k] = factors[k][active] = vecs[:, :, 0]
            left = (left[:, :, None] * sub[k][:, None, :]).reshape(s, -1)
        # vals start at inf, so no start stops after its first pass
        moved = np.abs(w[:, 0] - vals[active]) >= _STATIONARITY_TOL
        vals[active] = w[:, 0]
        if not moved.all():
            active = active[moved]
            sub = [g[moved] for g in sub]
            if not active.size:
                break
    best = _first_lowest(vals)
    return float(vals[best]), [f[best].copy() for f in factors]


def _first_lowest(vals: np.ndarray) -> int:
    """The first start whose value lies within relative 1e-12 of the lowest."""
    lowest = vals.min()
    return int(np.argmax(vals <= lowest + 1e-12 * max(1.0, abs(lowest))))


def _pauli_coefficients(matrix: np.ndarray, n_sites: int) -> np.ndarray:
    """c_P = tr(P A) / 2**n of a Hermitian A on n qubits, as a real (4,)*n
    tensor whose axes follow the sites, each in the order (X, Y, Z, I), so
    that A = sum_P c_P P. The matrix is reshaped into its n (bra, ket) site
    pairs and each pair goes through one 4x4 map: entry (b, k) adds
    P[k, b] / 2 to the coefficient of P on that site."""
    site = np.array([[0, 0.5, 0.5, 0], [0, 0.5j, -0.5j, 0],
                     [0.5, 0, 0, -0.5], [0.5, 0, 0, 0.5]])
    pairs = [ax for k in range(n_sites) for ax in (k, n_sites + k)]
    out = matrix.reshape((2,) * (2 * n_sites)).transpose(pairs).reshape((4,) * n_sites)
    for k in range(n_sites):
        out = np.moveaxis(np.tensordot(site, out, axes=([1], [k])), 0, k)
    return out.real


def _turn(down: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each row of ``down``, the negated field -g, as a unit vector to
    ``out``; a row with g = 0 leaves its vector as it was. Returns |g|."""
    norm = np.sqrt(np.einsum("ij,ij->i", down, down))[:, None]
    np.divide(down, norm, out=out, where=norm > 0)
    return norm[:, 0]


def _term_sweep(terms: Sequence[CustomTerm], n_sites: int):
    """One pass of site updates of the sparse rule, as a function of the
    (starts, n+1, 4) array that it updates and whose energies it returns:
    a site update is one gather, one product and one matmul with a
    (terms on k) x 3 coefficient table. The extra site row and the axis
    column of 1s pad every term to the longest."""
    pad = 4 * n_sites + 3  # flat index of a constant 1
    index = np.full((len(terms), max((len(t[0]) for t in terms), default=1)), pad)
    coeffs = np.array([coeff for _, _, coeff in terms], dtype=float)
    for t, (sites, labels, _) in enumerate(terms):
        index[t, :len(sites)] = [4 * s + "XYZ".index(p) for s, p in zip(sites, labels)]
    updates = []
    for k in range(n_sites):
        t, slot = np.nonzero(index // 4 == k)  # a term holds site k at most once
        others = index[t]
        others[np.arange(t.size), slot] = pad
        table = np.zeros((t.size, 3))
        table[np.arange(t.size), index[t, slot] % 4] = -coeffs[t]  # a row sum is then -g_k
        updates.append((others, table))

    def sweep(sub: np.ndarray) -> np.ndarray:
        flat = sub.reshape(len(sub), -1)  # a view: site updates show through
        for k, (others, table) in enumerate(updates):
            _turn(flat[:, others].prod(axis=2) @ table, sub[:, k, :3])
        return flat[:, index].prod(axis=2) @ coeffs

    return sweep


def _pauli_sweep(coeffs: np.ndarray):
    """One pass of site updates of the dense rule on a ``_pauli_coefficients``
    tensor, as a function of the (starts, n+1, 4) array that it updates and
    whose energies it returns. The field on site k is one batched matmul:
    the left environment, the Kronecker product of the updated (x, y, z, 1)
    rows of the sites before k, times the right environment, the tensor
    contracted with this pass's old rows of the sites after k. Extra memory
    is O(starts * 4**(n-1)). The energy after the last site is g_0 - |g|,
    identity coefficient included."""
    n = coeffs.ndim
    flat = coeffs.reshape(-1, 4)

    def sweep(sub: np.ndarray) -> np.ndarray:
        s = len(sub)
        # right[k]: (starts, 4**k, 4), site k last; the last site's is the tensor itself
        right = [flat]
        for k in range(n - 1, 0, -1):
            # the shared tensor goes to one plain matmul, not one per start
            r = sub[:, k] @ flat.T if k == n - 1 else right[0] @ sub[:, k, :, None]
            right.insert(0, r.reshape(s, -1, 4))
        left = np.ones((s, 1, 1))
        for k in range(n):
            if k:
                left = (left[:, 0, :, None] * sub[:, k - 1, None, :]).reshape(s, 1, -1)
            g = (left @ right[k])[:, 0]
            size = _turn(-g[:, :3], sub[:, k, :3])
        return g[:, 3] - size

    return sweep


def _bloch_minimum(
    model: Sequence[CustomTerm] | np.ndarray,
    n_sites: int,
    rng: np.random.Generator,
    restarts: int,
    warm: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Lowest energy of a qubit operator over product states found by
    alternating site updates, with the Bloch vectors of the best start.

    On a product state <P_1 x ... x P_k> is the product of the sites' Bloch
    components, so the energy is affine in each site's Bloch vector r_k and
    the best r_k given the rest is -g_k/|g_k|: the lowest eigenvector of the
    effective 2x2 operator that ``_alternating_minimum`` finds by ``eigh``.
    ``model`` is Pauli terms, as ``models.checked_terms`` returns them, read
    by a sparse gather (``_term_sweep``), or a ``_pauli_coefficients`` tensor
    (``_pauli_sweep``); no 2**n object is built for terms. The optional
    ``warm`` (n, 3) Bloch vectors are the first start. It draws the same
    random starts as ``_alternating_minimum``, (a, b) -> (2 Re a*b,
    2 Im a*b, |a|^2 - |b|^2), and keeps the same stopping rule and winner; a
    site with g_k = 0 keeps its vector. The starts are rows of one
    (starts, n+1, 4) array of (x, y, z, 1) rows, the last row all 1s.
    """
    n = n_sites
    sweep = _pauli_sweep(model) if isinstance(model, np.ndarray) else _term_sweep(model, n)
    a, b = np.moveaxis(np.array([_random_factors((2,) * n, rng) for _ in range(restarts)]), 2, 0)
    ab = a.conj() * b
    drawn = np.stack([2 * ab.real, 2 * ab.imag, abs(a) ** 2 - abs(b) ** 2], axis=2)
    starts = drawn if warm is None else np.concatenate([[warm], drawn])
    bloch = np.ones((len(starts), n + 1, 4))
    bloch[:, :n, :3] = starts
    vals = np.full(len(starts), np.inf)
    active = np.arange(len(starts))
    sub = bloch.copy()
    for _ in range(_MAX_ROUNDS):
        energy = sweep(sub)
        bloch[active] = sub
        # vals start at inf, so no start stops after its first pass
        moved = np.abs(energy - vals[active]) >= _STATIONARITY_TOL
        vals[active] = energy
        if not moved.all():
            active = active[moved]
            sub = sub[moved]
            if not active.size:
                break
    best = _first_lowest(vals)
    return float(vals[best]), bloch[best, :n, :3]


def closest_product_state(
    target: HermitianOperator,
    restarts: int = 32,
    seed: int = 42,
) -> tuple[ProductStateAnsatz, float]:
    """Minimal expectation of ``target`` over product pure states.

    Deterministic for a fixed seed; the returned value is the best over
    ``restarts`` (at least 1) seeded random initializations of the
    alternating optimization. Pass ``-A`` and negate the value for the
    maximum of ``A``.
    """
    _check_restarts(restarts)
    rng = np.random.default_rng(seed)
    val, factors = _alternating_minimum(target.matrix, target.dims, rng, restarts)
    return ProductStateAnsatz(factors=tuple(factors)), val


def energy_witness(
    h: HermitianOperator | tuple[Sequence[CustomTerm], int],
    energy: float,
    restarts: int = 32,
    seed: int = 42,
) -> EnergyWitnessResult:
    """Flag a state whose energy undercuts the lowest product-state energy found.

    ``h`` is a dense operator, searched by ``_alternating_minimum``, or a
    qubit model as its Pauli terms and site count, ``(pauli_terms(spec),
    spec.n_sites)``, checked by ``models.site_count`` and
    ``models.checked_terms`` (no dense-size cap) and searched over Bloch
    vectors by ``_bloch_minimum`` with no dense matrix; the same seed gives
    both the same starts. ``sep_min``
    is the lowest <H> reached by ``restarts`` local searches over product
    states. The true product minimum is, by convexity, also the
    separable-mixed-state minimum, and an energy below it proves
    entanglement; but a search can miss it, so ``sep_min`` may sit above it
    and ``energy < sep_min`` is evidence, not proof. The boundary is not
    strict: equality does not flag.
    """
    _check_restarts(restarts)
    rng = np.random.default_rng(seed)
    if isinstance(h, HermitianOperator):
        sep_min, _ = _alternating_minimum(h.matrix, h.dims, rng, restarts)
    else:
        n_sites = site_count(h[1])
        sep_min, _ = _bloch_minimum(checked_terms(h[0], n_sites), n_sites, rng, restarts)
    return EnergyWitnessResult(sep_min=sep_min, entangled=bool(energy < sep_min - 1e-9))


def ppt_check(rho: DensityOperator, cut: PartitionCut) -> PPTCheckResult:
    """Partial-transpose test across a cut; conclusive on 2x2 and 2x3 spaces."""
    side = cut.validate(len(rho.dims))
    pt = partial_transpose(rho, side)
    min_eig = float(np.linalg.eigvalsh(pt.matrix)[0])
    return PPTCheckResult(min_eig=min_eig, npt=bool(min_eig < -1e-10))


# ---------------------------------------------------------------------------
# conditional-gradient upper bound on the REE
# ---------------------------------------------------------------------------

def _objective_and_gradient(
    rho: np.ndarray, tr_rho_ln_rho: float, sigma: np.ndarray
) -> tuple[float, np.ndarray]:
    """S(rho||sigma) and its gradient from one eigendecomposition of sigma.

    The objective uses the precomputed tr(rho ln rho); sigma must be full
    rank. The gradient G satisfies tr(G d) = directional derivative of
    tr(rho ln sigma) along d, computed through the eigenbasis
    divided-difference form of the matrix logarithm's Frechet derivative;
    near-degenerate pairs use the limit 2/(a+b) to remove the 0/0.
    """
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.clip(vals, EIG_CLAMP, None)
    weights = np.real(np.sum(vecs.conj() * (rho @ vecs), axis=0))
    objective = tr_rho_ln_rho - float(weights @ np.log(vals))
    rho_t = vecs.conj().T @ rho @ vecs
    a = vals[:, None]
    b = vals[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = (np.log(a) - np.log(b)) / (a - b)
    near = np.abs(a - b) < _DIVDIFF_TOL
    phi[near] = (2.0 / (a + b))[near]
    g = vecs @ (rho_t * phi) @ vecs.conj().T
    return objective, 0.5 * (g + g.conj().T)


def ree_upper_bound(
    rho: DensityOperator, config: FrankWolfeConfig | None = None
) -> EntanglementEstimate:
    """Upper-bound the REE by conditional-gradient descent over separable states.

    The iterate starts at a full-rank separable mixture of the maximally mixed
    state and the computational-basis diagonal of ``rho``; each step mixes in
    the product pure state that maximizes the linearized objective, with step
    size 2/(t+2) and best-iterate memory. Every iterate is separable, so the
    best objective seen is a valid upper bound even without convergence
    (``converged=False`` then). It converges once the duality gap falls
    below ``_FW_GAP_TOL``. When every site is a qubit the product state
    comes from ``_bloch_minimum`` on the gradient's Pauli coefficients and
    is built as kron_k (I + r_k . sigma)/2, else from
    ``_alternating_minimum`` on the dense gradient; both draw the same starts
    from the seed and warm-start from the previous atom.
    """
    cfg = config or FrankWolfeConfig()
    rng = np.random.default_rng(cfg.seed)
    d = rho.dim
    mat = rho.matrix
    tr_rho_ln_rho = -von_neumann_entropy(rho)
    sigma = (1.0 - _MIX_EPSILON) * np.eye(d) / d + _MIX_EPSILON * np.diag(np.diag(mat))
    best, grad = _objective_and_gradient(mat, tr_rho_ln_rho, sigma)
    n = len(rho.dims)
    qubits = set(rho.dims) == {2}
    warm = None  # the previous atom: Bloch vectors on qubits, else factors
    converged = False
    iterations = 0
    # t starts at 1: gamma_1 = 2/3 keeps positive weight on the full-rank start
    for t in range(1, cfg.max_iter + 1):
        iterations = t
        # the product state maximizing tr(grad pi) minimizes tr(-grad pi)
        if qubits:
            _, warm = _bloch_minimum(_pauli_coefficients(-grad, n), n, rng, cfg.restarts,
                                     warm=warm)
            pi = np.ones((1, 1))
            for x, y, z in warm:  # pi = kron over k of (I + r_k . sigma) / 2
                pi = np.kron(pi, np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2)
        else:
            _, warm = _alternating_minimum(-grad, rho.dims, rng, cfg.restarts, warm=warm)
            atom = ProductStateAnsatz(factors=tuple(warm)).vector()
            pi = np.outer(atom, atom.conj())
        gap = float(np.real(np.trace(grad @ (pi - sigma))))
        if gap < _FW_GAP_TOL:
            converged = True
            break
        gamma = 2.0 / (t + 2.0)
        sigma = (1.0 - gamma) * sigma + gamma * pi
        objective, grad = _objective_and_gradient(mat, tr_rho_ln_rho, sigma)
        best = min(best, objective)
    return EntanglementEstimate(
        lower=0.0,
        upper=max(best, 0.0),
        method="frank_wolfe_upper",
        iterations=iterations,
        converged=converged,
    )


def ree_bounds(
    psi: PureState, config: FrankWolfeConfig | None = None
) -> tuple[EntanglementEstimate, EntanglementEstimate]:
    """The max-cut lower bound on the REE of ``psi`` and an upper estimate
    that carries both bounds, so building it checks lower <= upper.

    Two parties: the upper estimate is the lower one (method
    ``pure_bipartite_exact``) with ``upper`` the value of the Schmidt-basis
    certificate, -sum lam ln lam over every Schmidt weight lam > 0 from one
    SVD, but at least ``lower``. The lower bound drops the weights at or
    below EIG_CLAMP; where it drops none and keeps two or more, as for the
    singlet, the two are the same float. ``config`` is unused, and no
    density matrix is built. Three or more parties:
    ``ree_upper_bound`` on the projector with ``config``.
    """
    lower = ree_lower_bound(psi)
    if len(psi.dims) == 2:
        lam = np.linalg.svd(psi.amplitudes.reshape(psi.dims), compute_uv=False) ** 2
        lam = lam[lam > 0]
        return lower, replace(lower, upper=max(lower.lower, float(-np.sum(lam * np.log(lam)))))
    return lower, replace(ree_upper_bound(psi.to_density(), config), lower=lower.lower)
