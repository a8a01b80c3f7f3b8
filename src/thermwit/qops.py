"""Dense complex Hermitian linear algebra and quantum-information primitives.

Conventions used throughout the package:

* all entropies and relative entropies are in nats (natural logarithm),
* k_B = 1 and hbar = 1, so temperatures are measured in energy units,
* multi-site Hilbert spaces are Kronecker products in site order
  (site 0 is the leftmost, most significant factor).

Everything here is a pure function on immutable values; matrices are stored
as read-only complex arrays and may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

#: Maximum total Hilbert-space dimension accepted by constructors.
DIM_CAP = 16384

#: Tolerance for the Hermiticity invariant (max-entry norm of A - A^dag).
HERMITICITY_TOL = 1e-10

#: Tile edge of the Hermiticity check, which bounds its scratch memory.
_TILE = 256

#: Eigenvalues below this are treated as exact zeros in log-domain functions.
EIG_CLAMP = 1e-12

#: Levels within this of the lowest count as one degenerate ground level.
DEGENERACY_TOL = 1e-9

#: Support-overlap threshold for the infinite-relative-entropy sentinel.
SUPPORT_TOL = 1e-10


class DimensionCapError(ValueError):
    """Requested Hilbert space exceeds the dense-storage dimension cap."""


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1:
        raise ValueError("need at least one site")
    if any(d < 2 for d in dims):
        raise ValueError(f"every local dimension must be >= 2, got {dims}")
    total = math.prod(dims)
    if total > DIM_CAP:
        raise DimensionCapError(f"total dimension {total} exceeds cap {DIM_CAP}")
    return dims


def _as_locked_complex(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` itself when it is a read-only complex128 array owning its
    data (nobody can change it under us), else a locked complex copy."""
    if (isinstance(matrix, np.ndarray) and matrix.dtype == np.complex128
            and matrix.flags.owndata and not matrix.flags.writeable):
        return matrix
    out = np.array(matrix, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian matrix on a multi-site Hilbert space.

    ``matrix`` is square with dimension prod(dims); Hermiticity is enforced to
    HERMITICITY_TOL in the max-entry norm at construction.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        mat = _as_locked_complex(self.matrix)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        # tiles on and above the diagonal cover every entry of A - A^dag
        t = _TILE
        dev = np.max([
            np.max(np.abs(mat[i:i + t, j:j + t] - mat[j:j + t, i:i + t].conj().T))
            for i in range(0, d, t)
            for j in range(i, d, t)
        ])
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class DensityOperator(HermitianOperator):
    """Unit-trace positive-semidefinite operator (state of a system)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr:.12g} is not 1 within 1e-10")
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if lo < -1e-10:
            raise ValueError(f"negative eigenvalue {lo:.3e} below -1e-10")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on a multi-site Hilbert space."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        amps.setflags(write=False)
        if amps.shape != (math.prod(dims),):
            raise ValueError(f"amplitude shape {amps.shape} does not match dims {dims}")
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state norm {nrm:.15g} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def to_density(self) -> DensityOperator:
        """Projector |psi><psi| as a DensityOperator."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with the eigenvectors kept per block, on the
    site dimensions ``dims`` of the diagonalized operator.

    A block is a set of basis indices that the operator never leaves (a
    connected component of its nonzero pattern), stored as (those indices,
    the positions of its eigenvalues in ``eigenvalues``, its eigenvector
    columns). The dense eigenvector matrix is assembled only when
    ``eigenvectors`` is read; ``columns`` gives the lowest few columns.
    """

    eigenvalues: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        vals.setflags(write=False)
        for block in self.blocks:
            for arr in block:
                arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @cached_property
    def ground_degeneracy(self) -> int:
        """Number of levels within DEGENERACY_TOL of the lowest."""
        e = self.eigenvalues
        return int(np.count_nonzero(e - e[0] <= DEGENERACY_TOL))

    def columns(self, count: int) -> np.ndarray:
        """Dense eigenvector columns of the ``count`` lowest eigenvalues."""
        out = np.zeros((self.eigenvalues.size, count), dtype=np.complex128)
        for rows, positions, vecs in self.blocks:
            keep = positions < count
            out[np.ix_(rows, positions[keep])] = vecs[:, keep]
        return out

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        vecs = self.columns(self.eigenvalues.size)
        vecs.setflags(write=False)
        return vecs


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Deterministic gauge: largest-magnitude component real positive.

    Ties resolve to the lowest index, so results are byte-stable for
    identical inputs. Scales the (nonzero) columns of ``vecs`` in place.
    """
    a = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs *= a.conj() / np.abs(a)
    return vecs


def _connected_blocks(mat: np.ndarray) -> list[np.ndarray]:
    """Basis indices of each connected component of the nonzero pattern,
    in order of their lowest index."""
    pattern = mat != 0
    pattern |= pattern.T
    unseen = np.ones(len(mat), dtype=bool)
    blocks = []
    while unseen.any():
        members = frontier = np.arange(len(mat)) == np.argmax(unseen)
        while frontier.any():
            frontier = pattern[frontier].any(axis=0) & ~members
            members = members | frontier
        unseen &= ~members
        blocks.append(np.flatnonzero(members))
    return blocks


def eig_hermitian(a: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition with ascending eigenvalues.

    The matrix is split into the connected components of its nonzero
    pattern, and each block is diagonalized on its own, with real LAPACK
    when its imaginary part is exactly zero. Raises RuntimeError if the
    solver fails to converge; partial results are never returned.
    """
    mat = a.matrix
    rows_of = _connected_blocks(mat)
    vals_of, vecs_of = [], []
    for rows in rows_of:
        sub = mat if rows.size == a.dim else mat[np.ix_(rows, rows)]
        if not sub.imag.any():
            sub = sub.real
        try:
            vals, vecs = np.linalg.eigh(sub)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
            raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
        vals_of.append(vals)
        vecs_of.append(_fix_phases(vecs))
    vals = np.concatenate(vals_of)
    order = np.argsort(vals, kind="stable")
    positions = np.split(np.argsort(order), np.cumsum([v.size for v in vals_of])[:-1])
    blocks = tuple(zip(rows_of, positions, vecs_of))
    return SpectralDecomposition(vals[order], blocks, a.dims)


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product with concatenated site dimensions."""
    dims = a.dims + b.dims
    _check_dims(dims)
    return HermitianOperator(np.kron(a.matrix, b.matrix), dims)


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced state on the kept sites (trace over the complement)."""
    keep = sorted(set(int(k) for k in keep))
    n = rho.n_sites
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"site index out of range for {n} sites: {keep}")
    order = keep + [i for i in range(n) if i not in keep]
    d_keep = math.prod(rho.dims[i] for i in keep)
    d_rest = rho.dim // d_keep
    tensor = rho.matrix.reshape(rho.dims * 2).transpose(order + [n + i for i in order])
    reduced = np.trace(tensor.reshape(d_keep, d_rest, d_keep, d_rest), axis1=1, axis2=3)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return DensityOperator(reduced, tuple(rho.dims[i] for i in keep))


def partial_transpose(rho: DensityOperator, subsystem: Iterable[int]) -> HermitianOperator:
    """Transpose the chosen site factors; Hermiticity is preserved."""
    sub = sorted(set(int(k) for k in subsystem))
    n = rho.n_sites
    if sub and (sub[0] < 0 or sub[-1] >= n):
        raise ValueError(f"site index out of range for {n} sites: {sub}")
    tensor = rho.matrix.reshape(rho.dims * 2)
    perm = list(range(2 * n))
    for i in sub:
        perm[i], perm[n + i] = perm[n + i], perm[i]
    out = tensor.transpose(perm).reshape(rho.dim, rho.dim)
    return HermitianOperator(out, rho.dims)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum(lambda ln lambda) in nats, with 0 ln 0 := 0.

    Eigenvalues below EIG_CLAMP are clamped to zero before the logarithm.
    """
    vals = np.linalg.eigvalsh(rho.matrix)
    vals = vals[vals > EIG_CLAMP]
    return float(-np.sum(vals * np.log(vals)))


def quantum_relative_entropy(sigma: DensityOperator, rho: DensityOperator) -> float:
    """tr sigma (ln sigma - ln rho) in nats; +inf on support mismatch.

    The sentinel fires when sigma has weight above SUPPORT_TOL on the kernel
    of rho (rho eigenvalues below EIG_CLAMP).
    """
    if sigma.dims != rho.dims:
        raise ValueError(f"dimension mismatch: {sigma.dims} vs {rho.dims}")
    vals_r, vecs_r = np.linalg.eigh(rho.matrix)
    kernel = vals_r < EIG_CLAMP
    if np.any(kernel):
        k_vecs = vecs_r[:, kernel]
        overlap = float(np.real(np.sum(k_vecs.conj() * (sigma.matrix @ k_vecs))))
        if overlap > SUPPORT_TOL:
            return math.inf
    vals_s = np.linalg.eigvalsh(sigma.matrix)
    vals_s = vals_s[vals_s > EIG_CLAMP]
    tr_s_ln_s = float(np.sum(vals_s * np.log(vals_s)))
    support = ~kernel
    weights = np.real(np.sum(vecs_r[:, support].conj()
                             * (sigma.matrix @ vecs_r[:, support]), axis=0))
    tr_s_ln_r = float(np.sum(weights * np.log(vals_r[support])))
    return tr_s_ln_s - tr_s_ln_r
