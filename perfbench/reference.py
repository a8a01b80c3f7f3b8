"""Independent reference values for the benchmark's correctness checks.

Nothing here imports thermwit. Spin Hamiltonians are assembled from Pauli
strings with bit operations instead of Kronecker products, the ground-state
entanglement lower bound is recomputed from Schmidt coefficients, and the
ideal-gas mode sums use closed forms in x = (omega - mu) / T that differ from
the ones in thermwit.gas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

#: Ground levels closer than this are treated as degenerate: the reported
#: ground vector then depends on the eigensolver, so ``E_lower`` is not
#: compared against the reference.
GAP_MIN = 1e-6


def spin_terms(model: dict) -> list[tuple[tuple[int, ...], str, float]]:
    """Expand a model file's contents into (sites, labels, coeff) terms."""
    n = model["n_sites"]
    kind = model["kind"]
    if kind == "custom_terms":
        return [(tuple(s), lab, float(c)) for s, lab, c in model["custom_terms"]]
    j = float(model.get("J", 1.0))
    h = float(model.get("h", 0.0))
    bonds = [(i, i + 1) for i in range(n - 1)]
    if model.get("boundary", "open") == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    if kind == "heisenberg":
        return [(b, p + p, j) for b in bonds for p in "XYZ"]
    if kind == "xy":
        return [(b, p + p, j) for b in bonds for p in "XY"]
    if kind == "transverse_ising":
        return [(b, "ZZ", -j) for b in bonds] + [((i,), "X", -h) for i in range(n)]
    raise ValueError(f"unknown model kind {kind!r}")


def dense_hamiltonian(model: dict) -> np.ndarray:
    """Dense matrix; site 0 is the most significant bit of the basis index.

    A Pauli string maps basis state s to s ^ flip with amplitude
    coeff * i**(#Y) * (-1)**popcount(s & (Y|Z mask)).
    """
    n = model["n_sites"]
    dim = 1 << n
    states = np.arange(dim)
    terms = spin_terms(model)
    complex_terms = any(lab.count("Y") % 2 for _, lab, _ in terms)
    h = np.zeros((dim, dim), dtype=np.complex128 if complex_terms else np.float64)
    for sites, labels, coeff in terms:
        flip = sign_mask = 0
        for site, label in zip(sites, labels):
            bit = 1 << (n - 1 - site)
            if label in "XY":
                flip |= bit
            if label in "YZ":
                sign_mask |= bit
        parity = _popcount_parity(states & sign_mask)
        amp = coeff * (1j ** labels.count("Y")) * np.where(parity, -1.0, 1.0)
        if not complex_terms:
            amp = amp.real
        np.add.at(h, (states ^ flip, states), amp)
    return h


def _popcount_parity(values: np.ndarray) -> np.ndarray:
    parity = np.zeros(values.shape, dtype=bool)
    v = values.copy()
    while np.any(v):
        parity ^= (v & 1).astype(bool)
        v >>= 1
    return parity


def max_cut_entropy(psi: np.ndarray, n: int) -> float:
    """Largest entanglement entropy over every bipartition of n qubits."""
    tensor = psi.reshape((2,) * n)
    best = 0.0
    for size in range(1, n):
        for rest in combinations(range(1, n), size - 1):
            side = (0,) + rest
            other = tuple(i for i in range(n) if i not in side)
            mat = tensor.transpose(side + other).reshape(1 << size, -1)
            lam = np.linalg.svd(mat, compute_uv=False) ** 2
            lam = lam[lam > 0]
            best = max(best, float(-np.sum(lam * np.log(lam))))
    return best


@dataclass(frozen=True)
class SpinReference:
    energies: np.ndarray
    gap: float
    e_lower: float | None  # None when the ground level is (near-)degenerate

    @property
    def e0(self) -> float:
        return float(self.energies[0])


def spin_reference(model: dict) -> SpinReference:
    energies, vecs = np.linalg.eigh(dense_hamiltonian(model))
    gap = float(energies[1] - energies[0])
    e_lower = max_cut_entropy(vecs[:, 0], model["n_sites"]) if gap > GAP_MIN else None
    return SpinReference(energies, gap, e_lower)


def canonical(energies: np.ndarray, temps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy S(T) and -ln p(T) for each temperature, p the single-ground weight."""
    temps = np.atleast_1d(np.asarray(temps, dtype=np.float64))
    shifted = energies - energies[0]
    log_w = -np.outer(1.0 / temps, shifted)
    log_z = np.logaddexp.reduce(log_w, axis=1)
    prob = np.exp(log_w - log_z[:, None])
    mean_shift = prob @ shifted
    return log_z + mean_shift / temps, log_z


def crossing_ok(
    quantity,
    e_lower: float,
    t_star: float | None,
    t_lo: float,
    tol: float,
    eps: float = 1e-10,
    t_ceiling: float = 1e6,
) -> bool:
    """Does the nondecreasing ``quantity`` cross ``e_lower`` within ``tol`` of
    ``t_star``? ``t_star`` None claims it never crosses above ``t_lo``.

    ``eps`` absorbs rounding in the compared quantity, so a near-tie is
    accepted either way instead of depending on the last bit.
    """
    if e_lower <= 0:
        return t_star is None
    if t_star is None:
        return quantity(t_lo) >= e_lower - eps or quantity(t_ceiling) <= e_lower + eps
    below = quantity(max(t_star - tol, t_lo))
    above = quantity(t_star + tol)
    return below <= e_lower + eps and above >= e_lower - eps


def ring_product_minimum(n: int, j: float) -> float:
    """Lowest <H> over product states of a periodic Heisenberg ring, J > 0.

    Classical unit spins at the neighbour angle closest to pi that closes
    the ring: pi (the Neel state) for even n, pi (n - 1) / n for odd n.
    """
    angle = math.pi if n % 2 == 0 else math.pi * (n - 1) / n
    return n * j * math.cos(angle)


def gas_mode_sums(
    freqs: np.ndarray, mu: float, temperature: float, statistics: str
) -> tuple[float, float, float]:
    """(N, S, F) of an ideal gas from closed forms in x = (omega - mu) / T."""
    x = (freqs - mu) / temperature
    with np.errstate(over="ignore"):  # e^x overflows to inf: occupation 0
        return _mode_sums(x, temperature, statistics)


def _mode_sums(x: np.ndarray, temperature: float, statistics: str):
    if statistics == "bose":
        n = 1.0 / np.expm1(x)
        log_term = -np.log(-np.expm1(-x))  # -ln(1 - e^-x)
        s = np.sum(n * x + log_term)
        f = -temperature * np.sum(log_term)
    elif statistics == "fermi":
        n = np.exp(-np.logaddexp(0.0, x))
        log_term = np.logaddexp(0.0, -x)  # ln(1 + e^-x)
        s = np.sum(n * x + log_term)
        f = -temperature * np.sum(log_term)
    else:
        raise ValueError(f"unsupported statistics {statistics!r}")
    return float(np.sum(n)), float(s), float(f)
