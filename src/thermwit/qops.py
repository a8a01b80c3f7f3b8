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

#: Largest dense operator accepted, in bytes: one complex 12-qubit matrix.
DENSE_BYTES = 16 * 4096 ** 2

#: Tolerance for the Hermiticity invariant (max-entry norm of A - A^dag).
HERMITICITY_TOL = 1e-10

#: Eigenvalues below this are treated as exact zeros in log-domain functions.
EIG_CLAMP = 1e-12

#: Levels within this of the lowest count as one degenerate ground level.
DEGENERACY_TOL = 1e-9

#: Support-overlap threshold for the infinite-relative-entropy sentinel.
SUPPORT_TOL = 1e-10

#: A block of more rows than this that equals itself reversed along both
#: axes is diagonalized as two half-size blocks. At 32 rows or fewer two
#: calls cost more than one; up to 128, every golden output keeps its bits.
SPLIT_ROWS = 128

#: Byte size of one stack of scratch work: a complex tile of the Hermiticity
#: check, the column magnitudes of ``_fix_phases``, the cut matrices of the
#: max-cut bound, a row block of a temperature grid's Boltzmann weights.
#: Scratch memory then does not grow with the system.
_STACK_BYTES = 1 << 20


def check_dense_size(dim: int) -> None:
    """Raise ``MemoryError`` when a dense complex ``dim`` x ``dim`` matrix
    would exceed DENSE_BYTES; callers check before they allocate."""
    size = 16 * dim * dim
    if size > DENSE_BYTES:
        raise MemoryError(f"dimension {dim} needs {size} bytes per dense operator, "
                          f"over the {DENSE_BYTES}-byte cap")


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array when every entry is a real number, else
    ``ValueError`` naming the first bool or string, or the dtype. An ndarray
    is judged by its dtype alone, with no per-element loop; the elements of
    a list or tuple, or a lone value, are looked at too, since numpy
    promotes [0.5, True] and ["0.5"] to numbers it can convert."""
    arr = np.asarray(values)
    listed = (() if isinstance(values, np.ndarray)
              else values if isinstance(values, (list, tuple)) else (values,))
    odd = [v for v in listed if isinstance(v, (bool, np.bool_, str))]
    if odd or arr.dtype.kind not in "iuf":  # bools, strings, complex or objects
        got = repr(odd[0]) if odd else f"dtype {arr.dtype}"
        raise ValueError(f"{what} must be real numbers, got {got}")
    return arr.astype(np.float64, copy=False)


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1:
        raise ValueError("need at least one site")
    if any(d < 2 for d in dims):
        raise ValueError(f"every local dimension must be >= 2, got {dims}")
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


def _check_hermitian(mat: np.ndarray) -> None:
    """Raise ``ValueError`` unless the square ``mat`` is finite and Hermitian
    to HERMITICITY_TOL in the max-entry norm."""
    t = math.isqrt(_STACK_BYTES // 16)  # the edge of a complex tile of one stack
    # tiles on and above the diagonal cover every entry of A - A^dag; a
    # non-finite entry makes its tile's deviation NaN or inf
    with np.errstate(invalid="ignore"):
        dev = np.max([
            np.max(np.abs(mat[i:i + t, j:j + t] - mat[j:j + t, i:i + t].conj().T))
            for i in range(0, len(mat), t)
            for j in range(i, len(mat), t)
        ])
    if not dev <= HERMITICITY_TOL:
        bad = mat.size - np.count_nonzero(np.isfinite(mat))
        if bad:
            raise ValueError(f"matrix has {bad} non-finite entries")
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")


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
        d = math.prod(dims)
        check_dense_size(d)
        mat = _as_locked_complex(self.matrix)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        _check_hermitian(mat)
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
        if not abs(tr - 1.0) <= 1e-10:
            raise ValueError(f"trace {tr:.12g} is not 1 within 1e-10")
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if not lo >= -1e-10:
            raise ValueError(f"negative eigenvalue {lo:.3e} below -1e-10")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on a multi-site Hilbert space."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        d = math.prod(dims)
        if 16 * d > DENSE_BYTES:  # a vector's bytes, not a d x d operator's
            raise MemoryError(f"dimension {d} needs {16 * d} bytes per state vector, "
                              f"over the {DENSE_BYTES}-byte cap")
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        amps.setflags(write=False)
        if amps.shape != (d,):
            raise ValueError(f"amplitude shape {amps.shape} does not match dims {dims}")
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"state norm {nrm:.15g} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def to_density(self) -> DensityOperator:
        """Projector |psi><psi| as a DensityOperator."""
        check_dense_size(self.amplitudes.size)
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with the eigenvectors kept per block, on the
    site dimensions ``dims`` of the diagonalized operator.

    A block is a set of basis indices that the operator never leaves, as the
    caller supplies them, stored as (those indices, the positions of its
    eigenvalues in ``eigenvalues``, its eigenvector columns). The dense
    eigenvector matrix is assembled only when ``eigenvectors`` is read;
    ``columns`` gives the lowest few columns.

    Construction checks the order every reader relies on: the eigenvalues
    are finite and non-decreasing, so position 0 is a ground level, and the
    blocks' indices and positions each cover 0..d-1 once, with eigenvector
    columns of matching shape. Any failure raises ``ValueError``.
    """

    eigenvalues: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        vals.setflags(write=False)
        if (vals.ndim != 1 or not vals.size or not np.isfinite(vals).all()
                or (vals[1:] < vals[:-1]).any()):
            raise ValueError("eigenvalues must be a nonempty 1-D array, finite and non-decreasing")
        for rows, positions, vecs in self.blocks:
            if vecs.shape != (rows.size, positions.size):
                raise ValueError(f"block vectors of shape {vecs.shape} do not match "
                                 f"{rows.size} indices and {positions.size} positions")
            for arr in (rows, positions, vecs):
                arr.setflags(write=False)
        for name, part in (("indices", 0), ("positions", 1)):
            index = np.concatenate([np.empty(0, np.intp)] + [b[part] for b in self.blocks])
            if (index < 0).any() or not np.array_equal(
                    np.bincount(index, minlength=vals.size), np.ones(vals.size)):
                raise ValueError(f"block {name} must cover 0..{vals.size - 1} once each")
        object.__setattr__(self, "eigenvalues", vals)

    @cached_property
    def levels(self) -> np.ndarray:
        """The eigenvalues relative to the lowest, which is 0 (read-only)."""
        out = self.eigenvalues - self.eigenvalues[0]
        out.setflags(write=False)
        return out

    @cached_property
    def ground_degeneracy(self) -> int:
        """Number of levels within DEGENERACY_TOL of the lowest."""
        return int(np.count_nonzero(self.levels <= DEGENERACY_TOL))

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
    identical inputs. Scales the (nonzero) columns of ``vecs`` in place. The
    largest entries are found one stack of columns at a time, whose
    magnitudes take at most _STACK_BYTES, not an m x m temporary.
    """
    top = np.empty(vecs.shape[1], np.intp)
    step = max(1, _STACK_BYTES // (8 * len(vecs)))  # float64 magnitudes per stack
    for j in range(0, top.size, step):
        np.argmax(np.abs(vecs[:, j:j + step]), axis=0, out=top[j:j + step])
    a = vecs[top, np.arange(top.size)]
    vecs *= a.conj() / np.abs(a)
    return vecs


def _eigh(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian block, ascending, or
    ascending within each half when the block is split.

    A block of even size m above SPLIT_ROWS that equals itself reversed
    along both axes commutes with the order-reversing permutation J; on a
    flip-closed set of qubit states, J is the global spin flip. With A its
    top-left and C its top-right half, CJ is Hermitian, and the vectors are
    [u; Ju]/sqrt(2) for the eigenvectors u of A + CJ, then [u; -Ju]/sqrt(2)
    for those of A - CJ; the stable sort of ``_eig_blocks`` merges them."""
    m = len(sub)
    if m <= SPLIT_ROWS or m % 2 or not np.array_equal(sub, sub[::-1, ::-1]):
        return np.linalg.eigh(sub)
    k = m // 2
    a, cj = sub[:k, :k], sub[:k, k:][:, ::-1]
    (even_vals, even), (odd_vals, odd) = np.linalg.eigh(a + cj), np.linalg.eigh(a - cj)
    vecs = np.empty((m, m), dtype=even.dtype)
    vecs[:k, :k], vecs[k:, :k], vecs[:k, k:] = even, even[::-1], odd
    np.negative(odd[::-1], out=vecs[k:, k:])
    vecs *= math.sqrt(0.5)
    return np.concatenate([even_vals, odd_vals]), vecs


def _eig_blocks(blocks: list, dims: tuple[int, ...]) -> SpectralDecomposition:
    """Ascending eigendecomposition of an operator given as (basis indices,
    square submatrix) blocks that cover every index, by lowest index. Each is
    diagonalized on its own (``_eigh``), with real LAPACK when its imaginary
    part is exactly zero; ``np.linalg.LinAlgError`` propagates, never a
    partial result."""
    vals_of, vecs_of = [], []
    for _, sub in blocks:
        if np.iscomplexobj(sub) and not sub.imag.any():
            sub = sub.real
        vals, vecs = _eigh(sub)
        vals_of.append(vals)
        vecs_of.append(_fix_phases(vecs))
    vals = np.concatenate(vals_of)
    order = np.argsort(vals, kind="stable")
    positions = np.split(np.argsort(order), np.cumsum([v.size for v in vals_of])[:-1])
    out = tuple((rows, p, v) for (rows, _), p, v in zip(blocks, positions, vecs_of))
    return SpectralDecomposition(vals[order], out, dims)


def eig_hermitian(a: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of the whole matrix as one block (``_eig_blocks``)."""
    return _eig_blocks([(np.arange(a.dim), a.matrix)], a.dims)


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product with concatenated site dimensions."""
    dims = a.dims + b.dims
    check_dense_size(math.prod(dims))
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
