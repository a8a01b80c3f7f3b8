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
import string
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Maximum total Hilbert-space dimension accepted by constructors.
DIM_CAP = 16384

#: Tolerance for the Hermiticity invariant (max-entry norm of A - A^dag).
HERMITICITY_TOL = 1e-10

#: Eigenvalues below this are treated as exact zeros in log-domain functions.
EIG_CLAMP = 1e-12

#: Support-overlap threshold for the infinite-relative-entropy sentinel.
SUPPORT_TOL = 1e-10


class DimensionCapError(ValueError):
    """Requested Hilbert space exceeds the dense-storage dimension cap."""


def _check_dims(dims: Iterable[int], cap: int | None = None) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1:
        raise ValueError("need at least one site")
    if any(d < 2 for d in dims):
        raise ValueError(f"every local dimension must be >= 2, got {dims}")
    total = math.prod(dims)
    if total > (DIM_CAP if cap is None else cap):
        raise DimensionCapError(
            f"total dimension {total} exceeds cap {DIM_CAP if cap is None else cap}"
        )
    return dims


def _as_locked_complex(matrix: np.ndarray) -> np.ndarray:
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
        dev = np.max(np.abs(mat - mat.conj().T))
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


def _density_unchecked(matrix: np.ndarray, dims: tuple[int, ...]) -> DensityOperator:
    # For internal assembly paths where positivity/trace hold by construction;
    # skips the O(d^3) validation of the public constructor.
    obj = object.__new__(DensityOperator)
    object.__setattr__(obj, "matrix", _as_locked_complex(matrix))
    object.__setattr__(obj, "dims", tuple(dims))
    return obj


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
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return _density_unchecked(mat, self.dims)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        vecs = np.array(self.eigenvectors, dtype=np.complex128, copy=True)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Deterministic gauge: largest-magnitude component real positive.

    Ties resolve to the lowest index, so results are byte-stable for
    identical inputs.
    """
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        a = col[k]
        if abs(a) > 0:
            out[:, j] = col * (a.conjugate() / abs(a))
    return out


def eig_hermitian(a: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition with ascending eigenvalues.

    Raises RuntimeError if the underlying solver fails to converge; partial
    results are never returned.
    """
    try:
        vals, vecs = np.linalg.eigh(a.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    return SpectralDecomposition(vals, _fix_phases(vecs))


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product with concatenated site dimensions."""
    dims = a.dims + b.dims
    _check_dims(dims)
    return HermitianOperator(np.kron(a.matrix, b.matrix), dims)


#: einsum subscript letters, one per tensor axis.
_AXIS_LETTERS = string.ascii_letters


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced state on the kept sites (trace over the complement)."""
    keep = sorted(set(int(k) for k in keep))
    n = rho.n_sites
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"site index out of range for {n} sites: {keep}")
    tensor = rho.matrix.reshape(rho.dims * 2)
    bra = list(_AXIS_LETTERS[:n])
    ket = []
    next_letter = n
    for i in range(n):
        if i in keep:
            ket.append(_AXIS_LETTERS[next_letter])
            next_letter += 1
        else:
            ket.append(bra[i])  # trace: same index on bra and ket
    out_sub = "".join(bra[i] for i in keep) + "".join(ket[i] for i in keep)
    reduced = np.einsum("".join(bra) + "".join(ket) + "->" + out_sub, tensor)
    d_keep = math.prod(rho.dims[i] for i in keep)
    reduced = reduced.reshape(d_keep, d_keep)
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
