"""Canonical-ensemble quantities for an exactly diagonalized Hamiltonian.

Temperatures are in energy units (k_B = 1), entropies in nats. All partition
sums are evaluated in the shifted domain (weights relative to the ground
energy), so inverse temperatures up to ~1e6 never overflow; ``log_Z`` is the
primary stored quantity and ``Z`` may round to inf for extreme parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qops import _STACK_BYTES, DensityOperator, PureState, SpectralDecomposition, _real_array


@dataclass(frozen=True)
class CanonicalScalars:
    """Scalar canonical quantities for an energy spectrum at one temperature."""

    log_Z: float
    F: float
    U: float
    S: float
    p: float  # Boltzmann weight of a single ground state, exp(-beta E0)/Z
    neg_ln_p: float  # -ln p, the log of the partition sum shifted by E0


def _checked_temperatures(temperatures) -> np.ndarray:
    """The temperatures as a flat float64 array, each a finite positive
    real number (``qops._real_array``), else ``ValueError``."""
    temps = _real_array(temperatures, "temperatures").reshape(-1)
    bad = temps[~((temps > 0) & (temps < math.inf))]
    if bad.size:
        raise ValueError(f"temperature must be finite and positive, got {bad[0]}")
    return temps


def _boltzmann(levels: np.ndarray, temps: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boltzmann weights of the levels above the lowest, one row per
    temperature, and per row their sum ``rest``, -ln p, U - E0 and S;
    ``levels`` ascend from 0.

    With p = 1/(1 + rest), the paper's identity S = -ln p + (U - E0)/T gives
    S from two nonnegative terms, so S >= -ln p holds bit for bit, and a
    weight that underflowed to 0 adds 0. Rows are reduced with
    ``ndarray.sum``, so each has the bits of a grid of that one temperature.
    """
    above = levels[1:]
    w = np.exp(-(above / temps[:, None]))
    rest = w.sum(axis=1)
    neg_ln_p = np.log1p(rest)
    excess = (above * w).sum(axis=1) / (1.0 + rest)
    return w, rest, neg_ln_p, excess, neg_ln_p + excess / temps


def entropy_and_weight(levels: np.ndarray, temperatures) -> tuple[np.ndarray, ...]:
    """Entropy S, single-ground-state weight p and -ln p at every temperature.

    ``levels`` ascend from 0, as ``SpectralDecomposition.levels`` does. Each
    value has the same bits as ``canonical_scalars`` at that temperature; a
    temperature that is not a finite positive real number is rejected.
    """
    temps = _checked_temperatures(temperatures)
    s, rest, neg_ln_p = np.empty(temps.size), np.empty(temps.size), np.empty(temps.size)
    rows = max(1, _STACK_BYTES // (8 * levels.size))  # the grid in row blocks of one stack
    for lo in range(0, temps.size, rows):
        block = slice(lo, lo + rows)
        _, rest[block], neg_ln_p[block], _, s[block] = _boltzmann(levels, temps[block])
    return s, 1.0 / (1.0 + rest), neg_ln_p


def canonical_scalars(energies: np.ndarray, temperature: float) -> CanonicalScalars:
    """Evaluate log Z, F, U, S, the single-ground-state weight p and -ln p.

    ``p`` is the weight of one ground state: for a g-fold degenerate ground
    level the total ground population is g*p. Every spin-side thermal
    quantity passes through ``_boltzmann``, which ``entropy_and_weight``
    runs over a whole grid; a temperature that is not a finite positive real
    number is rejected.
    """
    temps = _checked_temperatures(temperature)
    e = np.sort(np.asarray(energies, dtype=np.float64))
    e0 = float(e[0])
    rest, neg_ln_p, excess, s = (float(x[0]) for x in _boltzmann(e - e0, temps)[1:])
    return CanonicalScalars(log_Z=-(1.0 / temperature) * e0 + neg_ln_p,
                            F=e0 - temperature * neg_ln_p, U=e0 + excess, S=s,
                            p=1.0 / (1.0 + rest), neg_ln_p=neg_ln_p)


@dataclass(frozen=True)
class ThermalEnsemble(CanonicalScalars):
    """Gibbs state of a diagonalized Hamiltonian at one temperature: the
    canonical scalars together with the spectrum they were computed from."""

    spectral: SpectralDecomposition
    temperature: float

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature

    @property
    def Z(self) -> float:
        """Partition function; may overflow to inf when |log_Z| > ~709."""
        try:
            return math.exp(self.log_Z)
        except OverflowError:
            return math.inf

    @cached_property
    def rho_T(self) -> DensityOperator:
        """Dense Gibbs density matrix, built on first read (it costs O(d^3))."""
        w, rest = _boltzmann(self.spectral.levels, np.array([self.temperature]))[:2]
        probs = np.concatenate(([1.0], w[0])) / (1.0 + rest[0])
        vecs = self.spectral.eigenvectors
        rho = (vecs * probs) @ vecs.conj().T
        return DensityOperator(0.5 * (rho + rho.conj().T), self.spectral.dims)


def thermal_ensemble(spectral: SpectralDecomposition, temperature: float) -> ThermalEnsemble:
    """Gibbs ensemble of the diagonalized Hamiltonian at ``temperature``.

    The construction is pure, so a temperature sweep diagonalizes once and
    builds one ensemble per temperature from the same spectrum.
    """
    sc = canonical_scalars(spectral.eigenvalues, temperature)
    return ThermalEnsemble(**vars(sc), spectral=spectral, temperature=float(temperature))


def rel_entropy_pure_to_thermal(psi: PureState, ens: ThermalEnsemble) -> float:
    """Relative entropy of |psi><psi| to the thermal state, in closed form.

    Equals beta <psi|H|psi> + ln Z = beta (<psi|H|psi> - E0) - ln p, which
    stays finite for large beta; for a ground state this is -ln p.
    """
    if psi.dims != ens.spectral.dims:
        raise ValueError(f"dimension mismatch: {psi.dims} vs {ens.spectral.dims}")
    e = ens.spectral.eigenvalues
    overlaps = np.abs(ens.spectral.eigenvectors.conj().T @ psi.amplitudes) ** 2
    energy = float(overlaps @ e)
    return ens.beta * (energy - float(e[0])) + ens.neg_ln_p


@dataclass(frozen=True)
class Eq3Check:
    """Result of the Boltzmann-weight vs entropy inequality p >= exp(-S)."""

    p: float
    exp_neg_S: float
    holds: bool
    slack: float  # ln p + S == beta (U - E0), nonnegative


def check_eq3(ens: ThermalEnsemble) -> Eq3Check:
    """Verify p >= exp(-S); the gap in log form is beta (U - E0) >= 0."""
    e0 = float(ens.spectral.eigenvalues[0])
    exp_neg_s = math.exp(-ens.S)
    return Eq3Check(p=ens.p, exp_neg_S=exp_neg_s, holds=bool(ens.p >= exp_neg_s - 1e-10),
                    slack=ens.beta * (ens.U - e0))
