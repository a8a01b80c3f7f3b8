"""Spin-chain Hamiltonians and free-mode spectra.

Pauli convention: X, Y, Z with eigenvalues +/-1 (not spin-1/2 halves).
Model sign conventions:

* heisenberg:       H =  J * sum_bonds (XX + YY + ZZ)
* xy:               H =  J * sum_bonds (XX + YY)
* transverse_ising: H = -J * sum_bonds ZZ - h * sum_sites X

Bonds run over nearest neighbours of the chain; periodic boundaries add the
wrap-around bond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qops import (
    DimensionCapError,
    HermitianOperator,
    PureState,
    SpectralDecomposition,
    _fix_phases,
)
from .seeding import named_rng

SPIN_KINDS = ("heisenberg", "xy", "transverse_ising", "custom_terms")
BOUNDARIES = ("open", "periodic")
STATISTICS = ("bose", "fermi", "boltzmann")

#: Largest qubit chain accepted (2**12 = 4096 dense).
MAX_SPIN_SITES = 12

#: Term = (site indices, Pauli labels, coefficient), e.g. ((0, 2), "XZ", 0.5).
CustomTerm = tuple[tuple[int, ...], str, float]


@dataclass(frozen=True)
class SpinModelSpec:
    kind: str
    n_sites: int
    coupling: float = 1.0
    field: float = 0.0
    boundary: str = "open"
    custom_terms: tuple[CustomTerm, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in SPIN_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {SPIN_KINDS}")
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        if self.n_sites > MAX_SPIN_SITES:
            raise DimensionCapError(
                f"n_sites {self.n_sites} exceeds the {MAX_SPIN_SITES}-qubit dense cap"
            )
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}; expected one of {BOUNDARIES}")
        if not (math.isfinite(self.coupling) and math.isfinite(self.field)):
            raise ValueError(f"coupling {self.coupling} and field {self.field} must be finite")
        if self.kind == "custom_terms":
            if not self.custom_terms:
                raise ValueError("custom_terms model needs a nonempty custom_terms list")
            terms = tuple(
                (tuple(int(s) for s in sites), str(labels).upper(), float(coeff))
                for sites, labels, coeff in self.custom_terms
            )
            for sites, labels, coeff in terms:
                if not math.isfinite(coeff):
                    raise ValueError(f"term coefficient {coeff} must be finite")
                if len(sites) != len(labels) or not sites:
                    raise ValueError(f"term sites {sites} do not match labels {labels!r}")
                if len(set(sites)) != len(sites):
                    raise ValueError(f"repeated site in term {sites}")
                if any(s < 0 or s >= self.n_sites for s in sites):
                    raise ValueError(f"term site out of range: {sites}")
                if any(c not in "XYZ" for c in labels):
                    raise ValueError(f"labels must be drawn from XYZ, got {labels!r}")
            object.__setattr__(self, "custom_terms", terms)
        elif self.custom_terms is not None:
            raise ValueError("custom_terms are only allowed with kind='custom_terms'")


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Positive eigenfrequencies plus particle statistics.

    Exactly one of ``particle_target`` (mean particle number, resolved through
    the chemical potential at each temperature) or ``chemical_potential``
    (pinned) must be supplied. Frequencies are sorted ascending on
    construction.
    """

    frequencies: np.ndarray
    statistics: str
    particle_target: float | None = None
    chemical_potential: float | None = None

    def __post_init__(self) -> None:
        freqs = np.sort(np.asarray(self.frequencies, dtype=np.float64))
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("frequencies must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(freqs)):
            raise ValueError("all frequencies must be finite")
        if np.any(freqs <= 0):
            raise ValueError("all frequencies must be positive")
        freqs.setflags(write=False)
        if self.statistics not in STATISTICS:
            raise ValueError(f"unknown statistics {self.statistics!r}; expected one of {STATISTICS}")
        has_n = self.particle_target is not None
        has_mu = self.chemical_potential is not None
        if has_n == has_mu:
            raise ValueError("exactly one of particle_target and chemical_potential is required")
        name = "particle_target" if has_n else "chemical_potential"
        if not math.isfinite(getattr(self, name)):
            raise ValueError(f"{name} {getattr(self, name)} must be finite")
        if has_n and self.particle_target <= 0:
            raise ValueError("particle_target must be positive")
        if has_mu and self.statistics == "bose" and self.chemical_potential >= freqs[0]:
            raise ValueError(
                f"bose chemical potential {self.chemical_potential} must lie below "
                f"the lowest frequency {freqs[0]}"
            )
        object.__setattr__(self, "frequencies", freqs)

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)


def chain_bonds(n_sites: int, boundary: str) -> list[tuple[int, int]]:
    """Nearest-neighbour bond list; periodic adds the wrap-around bond."""
    bonds = [(i, i + 1) for i in range(n_sites - 1)]
    if boundary == "periodic" and n_sites > 2:  # a 2-site ring would double-count its bond
        bonds.append((n_sites - 1, 0))
    return bonds


def pauli_terms(spec: SpinModelSpec) -> list[CustomTerm]:
    """The model as (sites, labels, coeff) Pauli-string terms.

    Built-in kinds expand bond by bond in the order of the sign conventions
    above; ``custom_terms`` models return their terms unchanged.
    """
    if spec.kind == "custom_terms":
        return list(spec.custom_terms)
    n, j = spec.n_sites, spec.coupling
    bonds = chain_bonds(n, spec.boundary)
    if spec.kind == "heisenberg":
        return [(b, p + p, j) for b in bonds for p in "XYZ"]
    if spec.kind == "xy":
        return [(b, p + p, j) for b in bonds for p in "XY"]
    return [(b, "ZZ", -j) for b in bonds] + [((i,), "X", -spec.field) for i in range(n)]


def build_spin_hamiltonian(spec: SpinModelSpec) -> HermitianOperator:
    """Assemble the dense Hamiltonian from its Pauli terms with bit operations.

    Site 0 is the most significant bit of the basis index. A term flips the
    bits of its X and Y sites, so it maps basis state s to s ^ flip with the
    amplitude coeff * i**(#Y) * (-1)**(number of set Y/Z bits of s). Terms
    are added in order, so the sum is the same as adding Kronecker products.
    """
    n = spec.n_sites
    dim = 2 ** n
    states = np.arange(dim)
    h = np.zeros((dim, dim), dtype=np.complex128)
    for sites, labels, coeff in pauli_terms(spec):
        flip = 0
        parity = np.zeros(dim, dtype=np.int64)
        for site, label in zip(sites, labels):
            bit = n - 1 - site
            if label in "XY":
                flip |= 1 << bit
            if label in "YZ":
                parity ^= (states >> bit) & 1
        amp = coeff * 1j ** labels.count("Y") * np.where(parity, -1.0, 1.0)
        h[states ^ flip, states] += amp
    h.setflags(write=False)  # the operator then keeps this array instead of a copy
    return HermitianOperator(h, (2,) * n)


def ground_state(spectral: SpectralDecomposition) -> PureState:
    """The canonical ground vector; E0 and the degeneracy of the ground level
    are ``spectral.eigenvalues[0]`` and ``spectral.ground_degeneracy``.

    The state follows one rule for every ground level: project a fixed
    reference vector (the first d complex draws of the ``ground-vector``
    seeding stream) onto the ground level, the levels within DEGENERACY_TOL
    of the lowest, normalize, and turn the largest-magnitude amplitude real
    positive. It does not depend on which orthonormal basis of a degenerate
    ground level the eigensolver returns, and for a nondegenerate ground
    level it is that level's eigenvector.
    """
    basis = spectral.columns(spectral.ground_degeneracy)
    draws = named_rng(0, "ground-vector").standard_normal(2 * spectral.eigenvalues.size)
    vec = basis @ (basis.conj().T @ draws.view(np.complex128))
    vec /= np.linalg.norm(vec)
    return PureState(_fix_phases(vec[:, None])[:, 0], spectral.dims)


def make_spectrum(
    kind: str,
    *,
    statistics: str,
    n_modes: int | None = None,
    omega: float | None = None,
    velocity: float | None = None,
    particle_target: float | None = None,
    chemical_potential: float | None = None,
) -> ModeSpectrum:
    """Build a ModeSpectrum: ``uniform`` (n_modes copies of omega) or
    ``linear_dispersion`` (velocity * k for k = 1..n_modes). An explicit
    frequency list is a ``ModeSpectrum`` itself."""
    if kind == "uniform":
        if n_modes is None or omega is None:
            raise ValueError("uniform spectrum needs n_modes and omega")
        freqs = np.full(int(n_modes), float(omega))
    elif kind == "linear_dispersion":
        if n_modes is None or velocity is None:
            raise ValueError("linear_dispersion spectrum needs n_modes and velocity")
        freqs = float(velocity) * np.arange(1, int(n_modes) + 1, dtype=np.float64)
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    return ModeSpectrum(
        frequencies=freqs,
        statistics=statistics,
        particle_target=particle_target,
        chemical_potential=chemical_potential,
    )
