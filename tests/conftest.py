"""Shared states, matrices, and independent oracles for the test suite."""

import math
import string
import tracemalloc

import numpy as np
import pytest

from thermwit import DensityOperator, PureState, models, qops, spin_spectrum
from thermwit.qops import EIG_CLAMP, _eig_blocks

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

LN2 = np.log(2.0)


def bell_pure() -> PureState:
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), (2, 2))


def ghz_pure() -> PureState:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return PureState(v, (2, 2, 2))


def w_pure() -> PureState:
    v = np.zeros(8, dtype=complex)
    v[0b001] = v[0b010] = v[0b100] = 1 / np.sqrt(3)
    return PureState(v, (2, 2, 2))


def random_pure(rng: np.random.Generator, dims) -> PureState:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v), tuple(dims))


def random_density(rng: np.random.Generator, dims) -> DensityOperator:
    """Full-rank random state (Wishart construction)."""
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T + 1e-3 * np.eye(d)
    return DensityOperator(rho / np.trace(rho).real, tuple(dims))


def loop_partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Index-loop partial trace, independent of the package's einsum path."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def ravel(idx, sites):
        flat = 0
        for s in sites:
            flat = flat * dims[s] + idx[s]
        return flat

    dim = int(np.prod(dims))
    for r in range(dim):
        ri = unravel(r)
        for c in range(dim):
            ci = unravel(c)
            if all(ri[t] == ci[t] for t in traced):
                out[ravel(ri, keep), ravel(ci, keep)] += mat[r, c]
    return out


def pauli_string(n_sites: int, sites, labels: str) -> np.ndarray:
    """Kronecker product of Pauli matrices at ``sites``, identity elsewhere."""
    paulis = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
    ops = ["I"] * n_sites
    for s, c in zip(sites, labels):
        ops[s] = c
    out = paulis[ops[0]]
    for c in ops[1:]:
        out = np.kron(out, paulis[c])
    return out


def kron_hamiltonian(spec) -> np.ndarray:
    """Reference dense Hamiltonian of a SpinModelSpec: Kronecker-product
    Pauli strings summed term by term, with the package's sign conventions."""
    from thermwit.models import chain_bonds

    n = spec.n_sites
    h = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    bonds = chain_bonds(n, spec.boundary)
    if spec.kind == "heisenberg":
        for i, j in bonds:
            for p in "XYZ":
                h += spec.coupling * pauli_string(n, (i, j), p + p)
    elif spec.kind == "xy":
        for i, j in bonds:
            for p in "XY":
                h += spec.coupling * pauli_string(n, (i, j), p + p)
    elif spec.kind == "transverse_ising":
        for i, j in bonds:
            h -= spec.coupling * pauli_string(n, (i, j), "ZZ")
        for i in range(n):
            h -= spec.field * pauli_string(n, (i,), "X")
    else:
        for sites, labels, coeff in spec.custom_terms:
            h += coeff * pauli_string(n, sites, labels)
    return h


def solve_recording_blocks(spec):
    """``spin_spectrum(spec)`` and the (rows, submatrix) blocks it hands to
    the eigensolver."""
    handed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_eig_blocks",
                   lambda blocks, dims: handed.extend(blocks) or _eig_blocks(blocks, dims))
        return spin_spectrum(spec), handed


def traced_peak(call, *args):
    """``call(*args)`` and the peak, in bytes, of the memory tracemalloc sees
    it allocate (numpy's buffers included) above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - before


def eigh_sizes(solve, *args, split: bool = True):
    """``solve(*args)`` and the row counts of the matrices it hands to
    ``np.linalg.eigh``. With ``split=False`` the cutoff ``qops.SPLIT_ROWS``
    is raised past every block, so each block goes to ``eigh`` whole."""
    sizes, eigh = [], np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        if not split:
            mp.setattr(qops, "SPLIT_ROWS", math.inf)
        mp.setattr(np.linalg, "eigh", lambda a, *rest: sizes.append(len(a)) or eigh(a, *rest))
        return solve(*args), sizes


def loop_cut_entropies(psi: PureState, sides) -> list[float]:
    """Reference entanglement entropy across each cut (sorted site tuples):
    one SVD call per cut, with the Schmidt-weight rule of
    ``thermwit.ent._cut_entropies``."""
    n = len(psi.dims)
    tensor = psi.amplitudes.reshape(psi.dims)
    out = []
    for side in sides:
        rows = math.prod(psi.dims[j] for j in side)
        mat = tensor.transpose(side + tuple(j for j in range(n) if j not in side))
        lam = np.linalg.svd(mat.reshape(rows, -1), compute_uv=False) ** 2
        lam = lam[lam > EIG_CLAMP]
        out.append(0.0 if lam.size == 1 else float(-np.sum(lam * np.log(lam))))
    return out


def bloch_grid_extreme(op4x4: np.ndarray, mode: str, n_theta: int = 180, n_phi: int = 180):
    """Independent two-qubit grid oracle: grid one site over n_theta*n_phi
    Bloch points, solve the other site exactly per point (extremal effective
    eigenvector)."""
    thetas = np.linspace(0, np.pi, n_theta)
    phis = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    b = np.stack(
        [np.cos(tt / 2).ravel(), np.exp(1j * pp.ravel()) * np.sin(tt / 2).ravel()],
        axis=1,
    )
    tensor = op4x4.reshape(2, 2, 2, 2)
    eff = np.einsum("acbd,nc,nd->nab", tensor, b.conj(), b)
    evals = np.linalg.eigvalsh(eff)
    return float(evals[:, 0].min()) if mode == "min" else float(evals[:, -1].max())


def loop_alternating_minimum(matrix, dims, rng, restarts, warm=None):
    """Reference product-state oracle: one start at a time, one einsum per
    site update. It draws the same starts from ``rng`` as
    ``thermwit.ent._alternating_minimum`` and shares its stopping rule and
    its extrapolated step: after pass p, a start whose site updates lowered
    its value by more than half of what they lowered it in the pass before
    tries, on every site, the top eigenvector of (1 + a) P - a P'
    (a = p**(1/3), P the projector on the factor after the pass, P' before
    it), kept if its <v|A|v> is lower by more than 1e-12 max(1, |value|)."""
    from thermwit.ent import _MAX_ROUNDS, _STATIONARITY_TOL

    n = len(dims)
    tensor = matrix.reshape(tuple(dims) * 2)
    bra, ket = string.ascii_letters[:n], string.ascii_letters[n:2 * n]
    starts = [] if warm is None else [[np.array(f) for f in warm]]
    for _ in range(restarts):
        draws = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
        starts.append([v / np.linalg.norm(v) for v in draws])
    best_val, best_factors = None, None
    for factors in starts:
        val, fell = None, math.inf
        for p in range(1, _MAX_ROUNDS + 1):
            prev, before = val, [f.copy() for f in factors]
            for k in range(n):
                subs, operands = [bra + ket], [tensor]
                for j in range(n):
                    if j != k:
                        subs += [bra[j], ket[j]]
                        operands += [factors[j].conj(), factors[j]]
                eff = np.einsum(",".join(subs) + "->" + bra[k] + ket[k], *operands)
                w, vecs = np.linalg.eigh(eff)
                factors[k] = vecs[:, 0]
                val = float(w[0])
            fall = math.inf if prev is None else prev - val
            if fall > 0.5 * fell:
                a = p ** (1 / 3)
                trial = [np.linalg.eigh((1 + a) * np.outer(f, f.conj())
                                        - a * np.outer(g, g.conj()))[1][:, -1]
                         for f, g in zip(factors, before)]
                v = trial[0]
                for f in trial[1:]:
                    v = np.kron(v, f)
                trial_val = float(np.vdot(v, matrix @ v).real)
                if trial_val < val - 1e-12 * max(1.0, abs(val)):
                    factors, val = trial, trial_val
            fell = fall
            if prev is not None and abs(val - prev) < _STATIONARITY_TOL:
                break
        if best_val is None or val < best_val:
            best_val, best_factors = val, [f.copy() for f in factors]
    return best_val, best_factors


def dense_frank_wolfe(rho: DensityOperator, cfg) -> float:
    """Reference Frank-Wolfe upper bound: the start, steps, gap tests (a
    negative gap takes no step), warm starts, seeded draws and best-iterate
    memory of ``thermwit.ent.ree_upper_bound``, with the dense oracle
    ``_alternating_minimum`` on every state, qubits included."""
    from thermwit.ent import (_FW_GAP_TOL, _FW_MISS_TOL, _MIX_EPSILON, ProductStateAnsatz,
                              _alternating_minimum, _objective_and_gradient)
    from thermwit.qops import von_neumann_entropy

    rng = np.random.default_rng(cfg.seed)
    d, mat = rho.dim, rho.matrix
    tr_rho_ln_rho = -von_neumann_entropy(rho)
    sigma = (1.0 - _MIX_EPSILON) * np.eye(d) / d + _MIX_EPSILON * np.diag(np.diag(mat))
    best, grad = _objective_and_gradient(mat, tr_rho_ln_rho, sigma)
    factors = None
    for t in range(1, cfg.max_iter + 1):
        _, factors = _alternating_minimum(-grad, rho.dims, rng, cfg.restarts, warm=factors)
        atom = ProductStateAnsatz(factors=tuple(factors)).vector()
        pi = np.outer(atom, atom.conj())
        gap = np.real(np.trace(grad @ (pi - sigma)))
        if gap < -_FW_MISS_TOL:
            continue
        if gap < _FW_GAP_TOL:
            break
        gamma = 2.0 / (t + 2.0)
        sigma = (1.0 - gamma) * sigma + gamma * pi
        objective, grad = _objective_and_gradient(mat, tr_rho_ln_rho, sigma)
        best = min(best, objective)
    return max(best, 0.0)


def point_canonical(energies, temperature: float) -> dict:
    """Reference canonical quantities at one temperature, evaluated point by
    point from the identity S = -ln p + (U - E0)/T, with p = 1/(1 + rest)
    and rest the Boltzmann weights above the ground level summed: the
    spectrum is sorted again for every temperature."""
    e = np.sort(np.asarray(energies, dtype=np.float64))
    levels = e[1:] - e[0]
    w = np.exp(-(levels / temperature))
    rest = float(np.sum(w))
    neg_ln_p = float(np.log1p(rest))
    excess = float(np.sum(levels * w)) / (1.0 + rest)
    return {
        "log_Z": -(1.0 / temperature) * e[0] + neg_ln_p,
        "F": e[0] - temperature * neg_ln_p,
        "U": e[0] + excess,
        "S": neg_ln_p + excess / temperature,
        "p": 1.0 / (1.0 + rest),
        "neg_ln_p": neg_ln_p,
    }


def point_report(spectral, temperature: float, est):
    """Reference witness report at one temperature from ``point_canonical``."""
    from thermwit.witness import GUARD, WitnessReport

    sc = point_canonical(spectral.eigenvalues, temperature)
    neg_ln_p = sc["neg_ln_p"]
    return WitnessReport(
        T=float(temperature), S=sc["S"], p=sc["p"], neg_ln_p=neg_ln_p,
        E_lower=float(est.lower), E_upper=est.upper,
        eq2_fires=bool(neg_ln_p < est.lower - GUARD),
        eq4_fires=bool(sc["S"] < est.lower - GUARD),
        ground_degeneracy=spectral.ground_degeneracy,
    )


def point_threshold(spectral, kind: str, e_lower: float, bracket, tol: float):
    """Reference threshold bisection on ``point_canonical``: the steps and
    comparisons of ``witness.critical_temperature``, with its input checks
    left out. Like every witness verdict, a step fires when the quantity
    lies below ``e_lower - GUARD``."""
    from thermwit.witness import GUARD, T_CEILING

    if e_lower <= 0:
        return None
    bound = e_lower - GUARD

    def quantity(t):
        sc = point_canonical(spectral.eigenvalues, t)
        return sc["S"] if kind == "eq4" else sc["neg_ln_p"]

    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if quantity(t_lo) >= bound:
        return None
    while quantity(t_hi) < bound:
        t_hi *= 10.0
        if t_hi > T_CEILING:
            return None
    while t_hi - t_lo >= tol and math.nextafter(t_lo, t_hi) < t_hi:
        mid = 0.5 * (t_lo + t_hi)
        if quantity(mid) < bound:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def shannon(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log(p)))


def heis2_closed_form(T: float) -> dict:
    """Closed-form canonical quantities for the 4-level spectrum (-3, 1, 1, 1)."""
    beta = 1.0 / T
    w = np.exp(-beta * np.array([0.0, 4.0, 4.0, 4.0]))
    sw = w.sum()
    probs = w / sw
    return {
        "Z": np.exp(3.0 * beta) * sw,
        "p": 1.0 / sw,
        "S": shannon(probs),
        "U": float(probs @ np.array([-3.0, 1.0, 1.0, 1.0])),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
