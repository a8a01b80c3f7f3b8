"""Entanglement quantifiers and witnesses.

Exact bipartite pure-state entanglement entropy, multipartite lower and upper
bounds on the relative entropy of entanglement (REE, relative to the fully
separable set), the product-state energy witness, and a partial-transpose
cross-check.

The upper bound is a conditional-gradient (Frank-Wolfe) descent over the
separable set whose linear oracle is the product-state optimizer
``closest_product_state``; the lower bound is the maximum single-cut
entanglement entropy, which keeps the thermal witness sound (any smaller E
only makes the witness fire less).
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .qops import (
    DensityOperator,
    EIG_CLAMP,
    HermitianOperator,
    PureState,
    partial_transpose,
    von_neumann_entropy,
)

#: einsum subscript letters, one per tensor axis.
_AXIS_LETTERS = string.ascii_letters

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
        if self.upper is not None and self.lower > self.upper + 1e-6:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )


@dataclass(frozen=True, eq=False)
class ProductStateAnsatz:
    """Normalized per-site factors of a product pure state."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            if abs(np.linalg.norm(f) - 1.0) > 1e-10:
                raise ValueError("every product factor must be unit-norm")

    def vector(self) -> np.ndarray:
        v = self.factors[0]
        for f in self.factors[1:]:
            v = np.kron(v, f)
        return v


@dataclass(frozen=True)
class FrankWolfeConfig:
    max_iter: int = 500
    tol: float = 1e-4          # duality-gap stopping threshold
    restarts: int = 4          # fresh multistarts per linear-oracle call, >= 1
    seed: int = 42

    def __post_init__(self) -> None:
        _check_restarts(self.restarts)


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

def entanglement_entropy_pure(psi: PureState, cut: PartitionCut) -> float:
    """Entanglement entropy of a pure state across a bipartition, in nats.

    Equals the von Neumann entropy of the reduced state on ``side_a``
    (computed through the Schmidt coefficients). A cut with a single
    Schmidt weight above EIG_CLAMP gives exactly 0.0.
    """
    side = cut.validate(len(psi.dims))
    rest = tuple(i for i in range(len(psi.dims)) if i not in side)
    tensor = psi.amplitudes.reshape(psi.dims)
    mat = tensor.transpose(side + rest).reshape(
        math.prod(psi.dims[i] for i in side),
        math.prod(psi.dims[i] for i in rest),
    )
    lam = np.linalg.svd(mat, compute_uv=False) ** 2
    lam = lam[lam > EIG_CLAMP]
    if lam.size == 1:  # a product across the cut; -lam ln lam would be round-off
        return 0.0
    return float(-np.sum(lam * np.log(lam)))


def ree_lower_bound(psi: PureState) -> EntanglementEstimate:
    """Maximum single-cut entanglement entropy over all bipartitions.

    A valid lower bound on the relative entropy of entanglement with respect
    to fully separable states. Cut enumeration is exhaustive
    (2**(n-1) - 1 cuts), which is why spin systems are capped at 12 sites.
    """
    n = len(psi.dims)
    best = 0.0
    count = 0
    others = range(1, n)
    for r in range(0, n - 1):
        for extra in combinations(others, r):
            cut = PartitionCut(frozenset((0,) + extra))
            best = max(best, entanglement_entropy_pure(psi, cut))
            count += 1
    method = "pure_bipartite_exact" if n == 2 else "max_cut_lower"
    return EntanglementEstimate(
        lower=best, upper=None, method=method, iterations=count, converged=True
    )


# ---------------------------------------------------------------------------
# product-state optimization (linear oracle and energy witness)
# ---------------------------------------------------------------------------

def _effective_site_operator(
    tensor: np.ndarray, factors: Sequence[np.ndarray], k: int, n: int
) -> np.ndarray:
    """Contract every site but ``k``: <prod_rest| A |prod_rest> as a matrix."""
    bra = _AXIS_LETTERS[:n]
    ket = _AXIS_LETTERS[n:2 * n]
    operands = [tensor]
    subs = [bra + ket]
    for j in range(n):
        if j == k:
            continue
        subs.append(bra[j])
        operands.append(factors[j].conj())
        subs.append(ket[j])
        operands.append(factors[j])
    expr = ",".join(subs) + "->" + bra[k] + ket[k]
    return np.einsum(expr, *operands)


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")


def _random_factors(dims: tuple[int, ...], rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for d in dims:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        out.append(v / np.linalg.norm(v))
    return out


def _alternating_extreme(
    matrix: np.ndarray,
    dims: tuple[int, ...],
    mode: str,
    rng: np.random.Generator,
    restarts: int,
    warm: Sequence[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Best extremal <prod|A|prod> found by alternating site updates.

    Heuristic: each pass fixes all factors but one and replaces it with the
    extremal eigenvector of the effective single-site operator, which can
    only improve the objective; multistart mitigates local optima.
    """
    n = len(dims)
    tensor = matrix.reshape(dims * 2)
    pick = (lambda w: w.size - 1) if mode == "maximize" else (lambda w: 0)
    better = (lambda a, b: a > b) if mode == "maximize" else (lambda a, b: a < b)
    starts: list[list[np.ndarray]] = []
    if warm is not None:
        starts.append([np.array(f) for f in warm])
    starts.extend(_random_factors(dims, rng) for _ in range(restarts))
    best_val: float | None = None
    best_factors: list[np.ndarray] | None = None
    for factors in starts:
        val: float | None = None
        for _ in range(_MAX_ROUNDS):
            prev = val
            for k in range(n):
                eff = _effective_site_operator(tensor, factors, k, n)
                w, vecs = np.linalg.eigh(eff)
                idx = pick(w)
                factors[k] = vecs[:, idx]
                val = float(w[idx])
            if prev is not None and abs(val - prev) < _STATIONARITY_TOL:
                break
        if best_val is None or better(val, best_val):
            best_val = val
            best_factors = [f.copy() for f in factors]
    return best_val, best_factors


def closest_product_state(
    target: HermitianOperator,
    mode: str,
    restarts: int = 32,
    seed: int = 42,
) -> tuple[ProductStateAnsatz, float]:
    """Extremal expectation of ``target`` over product pure states.

    ``mode`` is ``"maximize"`` or ``"minimize"``. Deterministic for a fixed
    seed; the returned value is the best over ``restarts`` (at least 1)
    seeded random initializations of the alternating optimization.
    """
    if mode not in ("maximize", "minimize"):
        raise ValueError(f"mode must be 'maximize' or 'minimize', got {mode!r}")
    _check_restarts(restarts)
    rng = np.random.default_rng(seed)
    val, factors = _alternating_extreme(target.matrix, target.dims, mode, rng, restarts)
    return ProductStateAnsatz(factors=tuple(factors)), val


def energy_witness(
    h: HermitianOperator, energy: float, restarts: int = 32, seed: int = 42
) -> EnergyWitnessResult:
    """Certify entanglement of any state whose energy undercuts every
    separable state's.

    ``sep_min`` is the product-state minimum of <H>; by convexity it is also
    the separable-mixed-state minimum, so ``energy < sep_min`` proves the
    state carrying that energy is entangled. The boundary is not strict:
    equality does not certify.
    """
    _, sep_min = closest_product_state(h, "minimize", restarts=restarts, seed=seed)
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
    rho: DensityOperator,
    config: FrankWolfeConfig | None = None,
    objective_trace: list[float] | None = None,
) -> EntanglementEstimate:
    """Upper-bound the REE by conditional-gradient descent over separable states.

    The iterate starts at a full-rank separable mixture of the maximally mixed
    state and the computational-basis diagonal of ``rho``; each step mixes in
    the product pure state that maximizes the linearized objective, with step
    size 2/(t+2) and best-iterate memory. Every iterate is separable, so the
    best objective seen is a valid upper bound even without convergence
    (``converged=False`` then).

    Pass a list as ``objective_trace`` to record the best objective after
    each iteration (diagnostics; the sequence is nonincreasing).
    """
    cfg = config or FrankWolfeConfig()
    rng = np.random.default_rng(cfg.seed)
    d = rho.dim
    mat = rho.matrix
    tr_rho_ln_rho = -von_neumann_entropy(rho)
    sigma = (1.0 - _MIX_EPSILON) * np.eye(d) / d + _MIX_EPSILON * np.diag(np.diag(mat))
    best, grad = _objective_and_gradient(mat, tr_rho_ln_rho, sigma)
    if objective_trace is not None:
        objective_trace.append(best)
    warm: list[np.ndarray] | None = None
    converged = False
    iterations = 0
    # t starts at 1: gamma_1 = 2/3 keeps positive weight on the full-rank start
    for t in range(1, cfg.max_iter + 1):
        iterations = t
        _, factors = _alternating_extreme(
            grad, rho.dims, "maximize", rng, cfg.restarts, warm=warm
        )
        warm = factors
        atom = ProductStateAnsatz(factors=tuple(factors)).vector()
        pi = np.outer(atom, atom.conj())
        gap = float(np.real(np.trace(grad @ (pi - sigma))))
        if gap < cfg.tol:
            converged = True
            break
        gamma = 2.0 / (t + 2.0)
        sigma = (1.0 - gamma) * sigma + gamma * pi
        objective, grad = _objective_and_gradient(mat, tr_rho_ln_rho, sigma)
        best = min(best, objective)
        if objective_trace is not None:
            objective_trace.append(best)
    return EntanglementEstimate(
        lower=0.0,
        upper=max(best, 0.0),
        method="frank_wolfe_upper",
        iterations=iterations,
        converged=converged,
    )
