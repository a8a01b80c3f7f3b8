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
from typing import Sequence

import numpy as np

from .qops import (
    DimensionCapError,
    HermitianOperator,
    PureState,
    eig_hermitian,
)
from .thermo import ground_level_degeneracy

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

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
        if self.kind == "custom_terms":
            if not self.custom_terms:
                raise ValueError("custom_terms model needs a nonempty custom_terms list")
            terms = tuple(
                (tuple(int(s) for s in sites), str(labels).upper(), float(coeff))
                for sites, labels, coeff in self.custom_terms
            )
            for sites, labels, _ in terms:
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
class GroundStateResult:
    state: PureState
    energy: float
    degeneracy: int


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
        if np.any(freqs <= 0):
            raise ValueError("all frequencies must be positive")
        freqs.setflags(write=False)
        if self.statistics not in STATISTICS:
            raise ValueError(f"unknown statistics {self.statistics!r}; expected one of {STATISTICS}")
        has_n = self.particle_target is not None
        has_mu = self.chemical_potential is not None
        if has_n == has_mu:
            raise ValueError("exactly one of particle_target and chemical_potential is required")
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


def pauli_string(n_sites: int, sites: Sequence[int], labels: str) -> np.ndarray:
    """Kronecker product of Pauli matrices at ``sites``, identity elsewhere."""
    ops = ["I"] * n_sites
    for s, c in zip(sites, labels):
        ops[s] = c
    out = PAULI[ops[0]]
    for c in ops[1:]:
        out = np.kron(out, PAULI[c])
    return out


def build_spin_hamiltonian(spec: SpinModelSpec) -> HermitianOperator:
    """Assemble the dense Hamiltonian from Pauli-string terms."""
    n = spec.n_sites
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=np.complex128)
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
    return HermitianOperator(h, (2,) * n)


def ground_state(h: HermitianOperator) -> GroundStateResult:
    """Lowest eigenpair with the degeneracy count of the ground level.

    For a degenerate ground level the returned state is the
    deterministic-phase eigenvector of lowest index; callers should consult
    ``degeneracy`` before treating it as canonical.
    """
    dec = eig_hermitian(h)
    state = PureState(dec.eigenvectors[:, 0], h.dims)
    return GroundStateResult(
        state=state,
        energy=float(dec.eigenvalues[0]),
        degeneracy=ground_level_degeneracy(dec.eigenvalues),
    )


def make_spectrum(
    kind: str,
    *,
    statistics: str,
    n_modes: int | None = None,
    omega: float | None = None,
    velocity: float | None = None,
    frequencies: Sequence[float] | None = None,
    particle_target: float | None = None,
    chemical_potential: float | None = None,
) -> ModeSpectrum:
    """Build a ModeSpectrum: ``uniform`` (n_modes copies of omega),
    ``linear_dispersion`` (velocity * k for k = 1..n_modes) or ``custom``
    (validated pass-through, sorted ascending)."""
    if kind == "uniform":
        if n_modes is None or omega is None:
            raise ValueError("uniform spectrum needs n_modes and omega")
        freqs = np.full(int(n_modes), float(omega))
    elif kind == "linear_dispersion":
        if n_modes is None or velocity is None:
            raise ValueError("linear_dispersion spectrum needs n_modes and velocity")
        freqs = float(velocity) * np.arange(1, int(n_modes) + 1, dtype=np.float64)
    elif kind == "custom":
        if frequencies is None:
            raise ValueError("custom spectrum needs explicit frequencies")
        freqs = np.asarray(frequencies, dtype=np.float64)
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    return ModeSpectrum(
        frequencies=freqs,
        statistics=statistics,
        particle_target=particle_target,
        chemical_potential=chemical_potential,
    )
