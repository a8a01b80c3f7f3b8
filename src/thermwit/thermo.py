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

from .qops import DensityOperator, PureState, SpectralDecomposition


@dataclass(frozen=True)
class CanonicalScalars:
    """Scalar canonical quantities for an energy spectrum at one temperature."""

    log_Z: float
    F: float
    U: float
    S: float
    p: float  # Boltzmann weight of a single ground state, exp(-beta E0)/Z


def canonical_scalars(energies: np.ndarray, temperature: float) -> CanonicalScalars:
    """Evaluate log Z, F, U, S and the single-ground-state weight p.

    ``p`` is the weight of one ground state: for a g-fold degenerate ground
    level the total ground population is g*p. Every spin-side thermal
    quantity passes through here, so this is where a temperature that is not
    finite and positive is rejected.
    """
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {temperature}")
    e = np.sort(np.asarray(energies, dtype=np.float64))
    beta = 1.0 / temperature
    w = np.exp(-beta * (e - e[0]))  # w[0] == 1 exactly
    sw = float(np.sum(w))
    probs = w / sw
    log_sw = math.log(sw)
    log_z = -beta * e[0] + log_sw
    f = e[0] - temperature * log_sw
    u = float(probs @ e)
    nz = probs[probs > 0]
    s = float(-np.sum(nz * np.log(nz)))
    return CanonicalScalars(log_Z=log_z, F=f, U=u, S=s, p=1.0 / sw)


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
        e = self.spectral.eigenvalues
        probs = np.exp(-self.beta * (e - e[0]))
        probs /= probs.sum()
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

    Equals beta <psi|H|psi> + ln Z; for a ground state this is -ln p.
    Evaluated in the shifted domain so large beta stays finite.
    """
    if psi.dims != ens.spectral.dims:
        raise ValueError(f"dimension mismatch: {psi.dims} vs {ens.spectral.dims}")
    e = ens.spectral.eigenvalues
    overlaps = np.abs(ens.spectral.eigenvectors.conj().T @ psi.amplitudes) ** 2
    energy = float(overlaps @ e)
    # beta*energy + log_Z, grouped as beta*(energy - E0) + log(sum of shifted weights)
    log_sw = ens.log_Z + ens.beta * e[0]
    return ens.beta * (energy - float(e[0])) + log_sw


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
    slack = ens.beta * (ens.U - e0)
    exp_neg_s = math.exp(-ens.S)
    return Eq3Check(
        p=ens.p,
        exp_neg_S=exp_neg_s,
        holds=bool(ens.p >= exp_neg_s - 1e-10),
        slack=slack,
    )
