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

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .qops import (HermitianOperator, PureState, SpectralDecomposition, _check_hermitian,
                   _eig_blocks, _fix_phases, _real_array, check_dense_size)
from .seeding import named_rng

SPIN_KINDS = ("heisenberg", "xy", "transverse_ising", "custom_terms")
BOUNDARIES = ("open", "periodic")
STATISTICS = ("bose", "fermi", "boltzmann")

#: Term = (site indices, Pauli labels, coefficient), e.g. ((0, 2), "XZ", 0.5).
CustomTerm = tuple[tuple[int, ...], str, float]


def _integer(value, what: str) -> int:
    """A count or site index; a float, string or bool is refused, not
    truncated or parsed."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} {value!r} is not an integer")
    return operator.index(value)


def _real(value, what: str) -> float:
    """A finite real number, as a float; a bool, a string or a non-finite
    value is refused, not parsed or rounded."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the largest float
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{what} {value!r} is not a finite real number")


def site_count(n_sites) -> int:
    """A spin model's number of sites: an integer of at least 2."""
    n = _integer(n_sites, "n_sites")
    if n < 2:
        raise ValueError("n_sites must be >= 2")
    return n


def checked_terms(terms, n_sites: int) -> tuple[CustomTerm, ...]:
    """Pauli terms as (int sites, upper-case labels, float coefficient), after
    the checks every term list passes: at least one term, each with as many
    labels as sites, its sites distinct and in range(n_sites), its labels
    from XYZ and its coefficient finite. ``n_sites`` is a ``site_count``.
    ``SpinModelSpec`` and the term form of ``ent.energy_witness`` both call
    it; only ``SpinModelSpec`` also caps the size of the dense Hamiltonian."""
    if not terms:
        raise ValueError("custom_terms model needs a nonempty custom_terms list")
    terms = tuple((tuple(_integer(s, "term site") for s in sites), str(labels).upper(),
                   _real(coeff, "term coefficient"))
                  for sites, labels, coeff in terms)
    for sites, labels, _ in terms:
        if len(sites) != len(labels) or not sites:
            raise ValueError(f"term sites {sites} do not match labels {labels!r}")
        if len(set(sites)) != len(sites):
            raise ValueError(f"repeated site in term {sites}")
        if any(s < 0 or s >= n_sites for s in sites):
            raise ValueError(f"term site out of range: {sites}")
        if any(c not in "XYZ" for c in labels):
            raise ValueError(f"labels must be drawn from XYZ, got {labels!r}")
    return terms


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
        object.__setattr__(self, "n_sites", site_count(self.n_sites))
        check_dense_size(2 ** min(self.n_sites, 64))  # 2**64 is over any cap; keeps the int small
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}; expected one of {BOUNDARIES}")
        for name in ("coupling", "field"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        # a value the kind would ignore is refused, not silently dropped
        if self.field != 0 and self.kind != "transverse_ising":
            raise ValueError(f"field {self.field} is only used by kind 'transverse_ising'")
        if self.kind == "custom_terms":
            if self.coupling != 1 or self.boundary != "open":
                raise ValueError("custom_terms take their couplings and sites from the terms, "
                                 f"got coupling {self.coupling} and boundary {self.boundary!r}")
            object.__setattr__(self, "custom_terms",
                               checked_terms(self.custom_terms, self.n_sites))
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
        freqs = _real_array(self.frequencies, "frequencies")
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("frequencies must be a nonempty 1-D sequence")
        freqs = np.sort(freqs)
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
        object.__setattr__(self, name, _real(getattr(self, name), name))
        if has_n and self.particle_target <= 0:
            raise ValueError("particle_target must be positive")
        if has_mu and self.statistics == "bose" and self.chemical_potential >= freqs[0]:
            raise ValueError(
                f"bose chemical potential {self.chemical_potential} must lie below "
                f"the lowest frequency {freqs[0]}"
            )
        object.__setattr__(self, "frequencies", freqs)


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


def _amplitudes(spec: SpinModelSpec) -> dict[int, np.ndarray]:
    """The Hamiltonian as a table {flip: amp}: entry (s ^ flip, s) is amp[s].
    Site 0 is the most significant bit; a term flips the bits of its X and Y
    sites with amplitude coeff * i**(#Y) * (-1)**(set bits of s on its Y and
    Z sites). A flip's terms are added to zero in order, as a Kronecker sum
    adds them, so every entry equals that sum bit for bit. Finite terms whose
    sum overflows are a ``ValueError``."""
    n = spec.n_sites
    states = np.arange(2 ** n)
    popcount = sum((states >> bit) & 1 for bit in range(n))
    table = {}
    with np.errstate(over="ignore"):  # counted and rejected below
        for sites, labels, coeff in pauli_terms(spec):
            flip, signs = (sum(1 << (n - 1 - site) for site, label in zip(sites, labels)
                               if label in axes) for axes in ("XY", "YZ"))
            amp = (coeff * 1j ** labels.count("Y")
                   * np.where(popcount[states & signs] % 2, -1.0, 1.0))
            table[flip] = table.get(flip, 0) + amp
    bad = sum(amp.size - np.count_nonzero(np.isfinite(amp)) for amp in table.values())
    if bad:
        raise ValueError(
            f"the Hamiltonian has {bad} non-finite entries: its terms overflow when summed")
    return table


def _submatrices(table: dict[int, np.ndarray],
                 components: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, submatrix) of each component, ascending rows the table never
    leaves: entry (s ^ flip, s) is amp[s], one pass per flip into one buffer."""
    sizes = np.array([rows.size for rows in components])
    ends = np.cumsum(sizes ** 2)
    every = np.concatenate(components)
    pos = np.arange(every.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # in its block
    col, row = np.empty((2, every.size), np.intp)
    col[every] = np.repeat(ends - sizes ** 2, sizes) + pos  # flat index of entry (first row, s)
    row[every] = np.repeat(sizes, sizes) * pos  # offset of row s from its block's first row
    lone = len(components) == 1  # its block is then the buffer, which owns its data
    buf = np.zeros((every.size,) * 2 if lone else ends[-1], np.result_type(*table.values()))
    for flip, amp in table.items():
        s = np.flatnonzero(amp)
        buf.reshape(-1)[col[s] + row[s ^ flip]] = amp[s]  # a view: the writes land in buf
    return [(components[0], buf)] if lone else [
        (rows, buf[end - rows.size ** 2:end].reshape(rows.size, rows.size))
        for rows, end in zip(components, ends)]


def build_spin_hamiltonian(spec: SpinModelSpec) -> HermitianOperator:
    """The dense Hamiltonian: the one component of all 2**n rows (``_submatrices``)."""
    [(_, h)] = _submatrices(_amplitudes(spec), [np.arange(2 ** spec.n_sites)])
    h.setflags(write=False)  # the operator then keeps this array instead of a copy
    return HermitianOperator(h, (2,) * spec.n_sites)


#: i**k for k = 0..3, exactly.
_I_POWERS = np.array([1, 1j, -1, -1j])


def _blocks(table: dict[int, np.ndarray], dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(basis indices, submatrix) of each connected component of the table's
    nonzero entries, by lowest index. A label propagates to the lowest index,
    with pointer jumping; the nonzero pattern is Hermitian, so every link is
    seen from both ends."""
    links = [(np.flatnonzero(amp), flip) for flip, amp in table.items() if flip]
    label, old = np.arange(dim), None
    while not np.array_equal(label, old):
        old = label.copy()
        for s, flip in links:
            label[s] = np.minimum(label[s], label[s ^ flip])
        label = label[label]  # a label is never above its index, so this only lowers it
    order = np.argsort(label, kind="stable")  # grouped by component, ascending within
    return _submatrices(table, np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


def spin_spectrum(spec: SpinModelSpec) -> SpectralDecomposition:
    """Diagonalize block by block, straight from ``_amplitudes``, with no
    2**n x 2**n array; each block is the dense submatrix bit for bit. A
    complex table that is real in the gauge D = diag(1, i) on every site
    (entry (s ^ flip, s) times conj(i**popcount(s ^ flip)) * i**popcount(s))
    is diagonalized in it with real LAPACK, and eigenvector row s is then
    multiplied by i**popcount(s). As D^dag X D = -Y, D^dag Y D = X and
    D^dag Z D = Z, that is a complex model with no term of an odd number of X."""
    n = spec.n_sites
    states = np.arange(2 ** n)
    popcount = sum((states >> bit) & 1 for bit in range(n))
    table = _amplitudes(spec)
    gauged = False
    if any(amp.imag.any() for amp in table.values()):
        turned = {flip: amp * _I_POWERS[(popcount - popcount[states ^ flip]) % 4]
                  for flip, amp in table.items()}
        gauged = not any(amp.imag.any() for amp in turned.values())
        table = turned if gauged else table
    if not any(amp.imag.any() for amp in table.values()):
        table = {flip: amp.real for flip, amp in table.items()}
    blocks = _blocks(table, states.size)
    for _, sub in blocks:
        _check_hermitian(sub)
    dec = _eig_blocks(blocks, (2,) * n)
    if not gauged:
        return dec
    blocks = tuple((rows, positions, vecs * _I_POWERS[popcount[rows] % 4, None])
                   for rows, positions, vecs in dec.blocks)
    return SpectralDecomposition(dec.eigenvalues, blocks, dec.dims)


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
        freqs = np.full(_integer(n_modes, "n_modes"), _real(omega, "omega"))
    elif kind == "linear_dispersion":
        if n_modes is None or velocity is None:
            raise ValueError("linear_dispersion spectrum needs n_modes and velocity")
        freqs = _real(velocity, "velocity") * np.arange(1, _integer(n_modes, "n_modes") + 1,
                                                        dtype=np.float64)
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    return ModeSpectrum(
        frequencies=freqs,
        statistics=statistics,
        particle_target=particle_target,
        chemical_potential=chemical_potential,
    )
