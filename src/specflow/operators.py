"""Fourier-truncated operators on the circle.

A first-order operator -i d/dx + V(x) acting on C^N-valued functions is
modeled on the span of the Fourier modes e^{ikx}, |k| <= K.  The basis is
mode-major: index (k + K) * N + n holds component n of mode k.  Spectral
truncation keeps the integer eigenvalues of the free operator exact and
avoids spurious doubler modes; assertions that involve products of symbols
exclude the modes near +-K where truncation bites.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack

from .config import DEFAULT, Tolerances
from .errors import IllConditioned


@dataclass(frozen=True)
class FourierTruncation:
    """Finite Fourier window: modes -K..K, each carrying a C^N factor."""

    max_mode: int
    bundle_rank: int = 1

    def __post_init__(self):
        if self.max_mode < 1:
            raise ValueError(f"max_mode must be >= 1, got {self.max_mode}")
        if self.bundle_rank < 1:
            raise ValueError(f"bundle_rank must be >= 1, got {self.bundle_rank}")

    @property
    def dim(self) -> int:
        return (2 * self.max_mode + 1) * self.bundle_rank

    def modes(self) -> np.ndarray:
        """Mode number of each basis index (length ``dim``)."""
        return np.repeat(np.arange(-self.max_mode, self.max_mode + 1),
                         self.bundle_rank)

    def doubled(self) -> "FourierTruncation":
        return FourierTruncation(2 * self.max_mode, self.bundle_rank)

    def interior(self) -> np.ndarray:
        """Mask of the interior modes |k| <= K/2, away from the
        truncation edge."""
        return np.abs(self.modes()) <= self.max_mode // 2


def _gamma(m: int) -> float:
    """Higham's ``gamma_m = m u / (1 - m u)``, u the unit roundoff of
    float64."""
    mu = m * np.finfo(float).eps / 2
    return mu / (1 - mu)


def _block_norms(blocks: Mapping[int, np.ndarray]) -> dict[int, float]:
    """Frobenius norm of each block, inf where it passes the float range
    (without a warning)."""
    with np.errstate(over="ignore"):
        return {k: float(np.linalg.norm(c)) for k, c in blocks.items()}


def _as_block(value, rank: int) -> np.ndarray:
    block = np.asarray(value, dtype=complex)
    if block.ndim == 0:
        block = block * np.eye(rank)
    if block.shape != (rank, rank):
        raise ValueError(f"coefficient block has shape {block.shape}, "
                         f"expected ({rank}, {rank})")
    block = block.copy()
    block.setflags(write=False)
    return block


@dataclass(frozen=True)
class SymbolFunction:
    """Matrix-valued function on the circle, stored by Fourier coefficients.

    g(x) = sum_k c_k e^{ikx} with c_k an N x N complex matrix.  Sampled
    input is converted by the discrete Fourier transform.  The ``unitary``
    flag is a promise that is verified on a sample grid at construction.
    The symbol is immutable, so its unitarity defect is computed at most
    once and shared by every check that reads it.
    """

    coefficients: Mapping[int, np.ndarray]
    rank: int
    unitary: bool = False
    native_grid: int | None = field(default=None, repr=False, compare=False)
    tolerances: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        clean = {}
        for k, c in self.coefficients.items():
            block = _as_block(c, self.rank)
            # a NaN propagates through the max, and fails every comparison
            peak = np.abs(block).max()
            if not math.isfinite(peak):
                raise ValueError(f"coefficient of mode {k} is not finite")
            if peak > 0:
                clean[int(k)] = block
        object.__setattr__(self, "coefficients", clean)
        if self.unitary:
            err = self.unitarity_defect
            if err > self.tolerances.unitary:
                raise ValueError(
                    f"symbol marked unitary but ||g g* - I|| = {err:.3e}")

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, matrix, rank: int | None = None, **kw) -> "SymbolFunction":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim == 0:
            rank = rank or 1
            m = m * np.eye(rank)
        return cls({0: m}, rank=m.shape[0], **kw)

    @classmethod
    def exponential(cls, n: int, rank: int = 1, **kw) -> "SymbolFunction":
        """e^{inx} times the identity."""
        return cls({n: np.eye(rank)}, rank=rank, unitary=True, **kw)

    @classmethod
    def from_samples(cls, samples, **kw) -> "SymbolFunction":
        """Uniform samples g(2*pi*j/M), j = 0..M-1; DFT gives coefficients
        for modes in [-M/2, M/2)."""
        arr = np.asarray(samples, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None, None]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("samples must be scalars or square matrices")
        m = arr.shape[0]
        # non-finite samples give non-finite coefficients, which the
        # constructor refuses
        with np.errstate(invalid="ignore", divide="ignore"):
            coeff = np.fft.fft(arr, axis=0) / m
        freqs = np.fft.fftfreq(m, d=1.0 / m).astype(int)
        return cls({int(k): coeff[i] for i, k in enumerate(freqs)},
                   rank=arr.shape[1], native_grid=m, **kw)

    # -- basic queries -----------------------------------------------------
    @property
    def bandwidth(self) -> int:
        return max((abs(k) for k in self.coefficients), default=0)

    def evaluate(self, xs) -> np.ndarray:
        """Values g(x) at the given points, shape (len(xs), N, N)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros((len(xs), self.rank, self.rank), dtype=complex)
        for k, c in self.coefficients.items():
            out += np.exp(1j * k * xs)[:, None, None] * c[None]
        return out

    @cached_property
    def unitarity_defect(self) -> float:
        """max ||g g* - I||_2 over a sample grid: sampled-input symbols
        promise unitarity at their own sample points, coefficient-built
        ones are checked on a dense grid."""
        m = self.native_grid or max(4 * self.bandwidth + 8, 32)
        vals = self.evaluate(2 * np.pi * np.arange(m) / m)
        defect = vals @ np.swapaxes(vals.conj(), -1, -2) - np.eye(self.rank)
        return float(np.linalg.norm(defect, 2, axis=(-2, -1)).max())

    def hermitian_defect(self) -> float:
        """max_k ||c_{-k} - c_k*||, the coefficient form of pointwise
        self-adjointness."""
        worst = 0.0
        for k, c in self.coefficients.items():
            other = self.coefficients.get(-k, np.zeros_like(c))
            worst = max(worst, float(np.abs(other - c.conj().T).max()))
        return worst

    # -- algebra -----------------------------------------------------------
    def adjoint(self) -> "SymbolFunction":
        """g* with the same sample grid and tolerances: g*(x) is the
        adjoint of g(x) at every point, so a sampled symbol's promise of
        unitarity carries over at its own sample points."""
        return SymbolFunction({-k: c.conj().T for k, c in self.coefficients.items()},
                              rank=self.rank, unitary=self.unitary,
                              native_grid=self.native_grid,
                              tolerances=self.tolerances)

    def derivative(self) -> "SymbolFunction":
        return SymbolFunction({k: 1j * k * c for k, c in self.coefficients.items()},
                              rank=self.rank)

    def __add__(self, other: "SymbolFunction") -> "SymbolFunction":
        self._check_rank(other)
        keys = set(self.coefficients) | set(other.coefficients)
        z = np.zeros((self.rank, self.rank))
        return SymbolFunction(
            {k: self.coefficients.get(k, z) + other.coefficients.get(k, z)
             for k in keys}, rank=self.rank)

    def __sub__(self, other: "SymbolFunction") -> "SymbolFunction":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "SymbolFunction":
        return SymbolFunction({k: factor * c for k, c in self.coefficients.items()},
                              rank=self.rank)

    def product(self, other: "SymbolFunction", unitary: bool = False) -> "SymbolFunction":
        """Pointwise product gh via coefficient convolution (exact for
        trigonometric polynomials), without the blocks that are roundoff.

        Output block k, the sum over its ``terms`` pairs k1 + k2 = k of
        c1 c2, is dropped when its Frobenius norm is at most
        ``gamma_m sum ||c1||_F ||c2||_F`` with ``m = 5 N + terms``,
        ``gamma_m = m u / (1 - m u)`` and u the unit roundoff (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3).
        A computed sum of products of N x N blocks is off from the exact
        one by at most ``gamma_{N + terms - 1}`` times that sum of norms
        (its section 3.5, with ``|| |A| |B| ||_F <= ||A||_F ||B||_F``), so a
        block at that size cannot be told from a sum that cancels.  Each
        operand is charged ``gamma_2N`` of its norm besides, as for a
        block that is itself a rounded product of two N x N factors, such
        as ``U E V``; the pair charge ``2 gamma_2N + gamma_2N^2`` and the
        sum's are at most ``gamma_{5N + terms}`` together (Higham's lemma
        3.3).  Without that charge, 8 of the 80 cancelled blocks of the
        potentials ``i g' g*`` of ``U diag(e^{i n_j x}) V`` (windings
        (1, 0) and (0, -1), 40 Haar seeds) are kept, at up to 5.7 u; with
        it, none of those is, nor any of the 144 cancelled blocks of the
        12x12 Bott family.

        Dropping moves the multiplication operator, and every eigenvalue
        of a Hermitian operator built on it, by at most the summed 2-norm
        of the dropped blocks (Weyl's inequality), which is at most the
        summed bound: about 1e-15 for operands of unit norm.  Each
        operand block's norm is taken once.  A block whose bound is not
        finite (an operand norm past the float range) is kept, so an
        overflowing sum is refused by the constructor.  Coefficients given
        to the constructor keep its rule: only exact zeros go.
        """
        self._check_rank(other)
        norms1 = _block_norms(self.coefficients)
        norms2 = _block_norms(other.coefficients)
        out: dict[int, np.ndarray] = {}
        scale: dict[int, float] = {}
        terms: dict[int, int] = {}
        for k1, c1 in self.coefficients.items():
            for k2, c2 in other.coefficients.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 @ c2
                scale[k] = scale.get(k, 0.0) + norms1[k1] * norms2[k2]
                terms[k] = terms.get(k, 0) + 1
        norms = _block_norms(out)
        # a bound past the float range keeps its block, whose finiteness
        # the constructor then checks
        kept = {k: c for k, c in out.items()
                if not norms[k]
                <= _gamma(5 * self.rank + terms[k]) * scale[k] < math.inf}
        return SymbolFunction(kept, rank=self.rank, unitary=unitary)

    def hermitized(self) -> "SymbolFunction":
        """Project onto pointwise-Hermitian symbols (kills roundoff skew)."""
        keys = set(self.coefficients)
        keys |= {-k for k in keys}
        z = np.zeros((self.rank, self.rank))
        return SymbolFunction(
            {k: 0.5 * (self.coefficients.get(k, z)
                       + self.coefficients.get(-k, z).conj().T)
             for k in keys}, rank=self.rank)

    def _check_rank(self, other: "SymbolFunction"):
        if other.rank != self.rank:
            raise ValueError(f"symbol ranks differ: {self.rank} vs {other.rank}")


def gauge_transformed_potential(g: SymbolFunction,
                                potential: SymbolFunction | None = None) -> SymbolFunction:
    """Potential of g (-i d/dx + V) g^{-1}, namely i g' g* + g V g*.

    Requires a pointwise-unitary g; the result is Hermitian up to roundoff
    and is re-symmetrized exactly.  The products drop every block that
    lies within their roundoff bound (``SymbolFunction.product``), so the
    blocks that cancel in exact arithmetic are absent: for
    g = U diag(e^{i n_j x}) V, or the Bott symbol e^{ix} q + (1 - q), the
    potential i g' g* is the constant it is exactly, and its Dirac operator
    keeps the half-bandwidth N - 1 of a constant potential.  Every
    eigenvalue of that operator moves by at most the summed norm of the
    dropped blocks (Weyl), about 1e-15 for unit operands.
    """
    gstar = g.adjoint()
    out = g.derivative().product(gstar).scale(1j)
    if potential is not None:
        out = out + g.product(potential).product(gstar)
    return out.hermitized()


@dataclass(frozen=True, init=False)
class TruncatedOperator:
    """Hermitian matrix with its truncation metadata, held as its band.

    ``band`` (2b + 1, dim) holds both triangles of the matrix M as its
    diagonals, ``band[b + d, j] = M[j + d, j]`` for d = -b..b (LAPACK's
    general band layout with b sub- and b superdiagonals; the corners
    beyond the matrix are zero), where b is the exact half-bandwidth of M,
    the largest |i - j| over its nonzero entries.  ``matrix`` builds the
    dense M on demand.

    The operator of a family (``bundles.OperatorFamily``) holds a stack of
    bands (vertices, 2b + 1, dim) at the exact half-bandwidth of the whole
    stack, and its ``matrix`` is the stack of dense members.

    A dense matrix given to the constructor is stored by its band; the
    Hermiticity guard reads the band (``_non_hermitian_band``).
    """

    band: np.ndarray
    truncation: FourierTruncation
    tolerances: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    def __init__(self, matrix, truncation: FourierTruncation,
                 tolerances: Tolerances = DEFAULT):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (truncation.dim, truncation.dim):
            raise ValueError(f"matrix shape {m.shape} does not match "
                             f"truncation dim {truncation.dim}")
        self._hold(_band_of(m), truncation, tolerances)

    @classmethod
    def _of_band(cls, band: np.ndarray, truncation: FourierTruncation,
                 tolerances: Tolerances) -> "TruncatedOperator":
        """The operator whose band, possibly padded with zero diagonals,
        is ``band``; it is held without a copy, cut to its exact width."""
        op = cls.__new__(cls)
        op._hold(_exact_band(band), truncation, tolerances)
        return op

    def _hold(self, band: np.ndarray, truncation: FourierTruncation,
              tolerances: Tolerances):
        _require_hermitian(band, tolerances)
        band.setflags(write=False)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "tolerances", tolerances)

    @property
    def dim(self) -> int:
        return self.truncation.dim

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix or stack, read-only and built anew per call."""
        m = _dense(self.band)
        m.setflags(write=False)
        return m


def _band_of(m: np.ndarray) -> np.ndarray:
    """The ``TruncatedOperator.band`` of a matrix, or of each member of a
    stack (..., n, n), at the exact half-bandwidth of the whole stack."""
    width = int(max(np.max(half_bandwidth(m), initial=0),
                    np.max(half_bandwidth(np.swapaxes(m, -1, -2)), initial=0)))
    n = m.shape[-1]
    band = np.zeros(m.shape[:-2] + (2 * width + 1, n), dtype=m.dtype)
    for d in range(-width, width + 1):
        band[..., width + d, max(-d, 0):n - max(d, 0)] = \
            np.diagonal(m, -d, axis1=-2, axis2=-1)
    return band


def _dense(band: np.ndarray) -> np.ndarray:
    """The matrices (..., n, n) of a band or a stack of bands."""
    width, n = band.shape[-2] // 2, band.shape[-1]
    out = np.zeros(band.shape[:-2] + (n, n), dtype=band.dtype)
    flat = out.reshape(band.shape[:-2] + (n * n,))
    # diagonal d holds n - |d| entries from flat index d n (d >= 0) or
    # -d, with stride n + 1
    for d in range(-width, width + 1):
        flat[..., d * n if d >= 0 else -d::n + 1][..., :n - abs(d)] = \
            band[..., width + d, max(-d, 0):n - max(d, 0)]
    return out


def _exact_band(band: np.ndarray) -> np.ndarray:
    """A band stack cut, as a view, to the largest |d| whose diagonal is
    nonzero in some member."""
    width = band.shape[-2] // 2
    rows = (band != 0).any(axis=-1).reshape(-1, 2 * width + 1).any(axis=0)
    exact = int(np.abs(np.flatnonzero(rows) - width).max(initial=0))
    return band[..., width - exact:width + exact + 1, :]


def _lower_width(band: np.ndarray):
    """``half_bandwidth`` of the matrix of a band, or of each member of a
    stack of bands: the largest d >= 0 whose diagonal ``band[b + d]`` is
    nonzero, 0 for the zero matrix."""
    width = band.shape[-2] // 2
    nonzero = (band[..., width:, :] != 0).any(axis=-1)
    return np.where(nonzero.any(axis=-1),
                    width - np.argmax(nonzero[..., ::-1], axis=-1), 0)


def _non_hermitian_band(band: np.ndarray,
                        tolerances: Tolerances = DEFAULT
                        ) -> tuple[int, float] | None:
    """The first member M of a band stack (..., 2b + 1, n), in C order,
    that fails ``||M - M*||_max <= hermitian_max (1 + ||M||_max)``, as
    (flat index, defect); None when every member passes.  A NaN entry
    fails every comparison, and an infinite one is refused by its scale,
    which would pass any defect.

    Diagonal d is compared with the conjugate of diagonal -d,
    ``|M[j + d, j] - conj M[j, j + d]|``, which is also the defect of the
    mirrored entry, so the defect and the scale are those of the dense
    formula to the last bit."""
    width, n = band.shape[-2] // 2, band.shape[-1]
    scale = 1.0 + np.abs(band).max(axis=(-2, -1))
    diagonal = band[..., width, :]
    # an infinite entry minus its mirror is NaN, and its member is
    # refused by its scale
    with np.errstate(invalid="ignore"):
        defect = np.abs(diagonal - diagonal.conj()).max(axis=-1)
        for d in range(1, width + 1):
            mirrored = np.abs(band[..., width + d, :n - d]
                              - band[..., width - d, d:].conj()).max(axis=-1)
            defect = np.maximum(defect, mirrored)
    passed = (defect <= tolerances.hermitian_max * scale) & np.isfinite(scale)
    bad = np.flatnonzero(~passed)
    if bad.size == 0:
        return None
    return int(bad[0]), float(np.ravel(defect)[bad[0]])


def _require_hermitian(band: np.ndarray, tolerances: Tolerances = DEFAULT):
    """ValueError for the first member of a band stack that
    ``_non_hermitian_band`` finds, as ``TruncatedOperator`` reports it."""
    bad = _non_hermitian_band(band, tolerances)
    if bad is not None:
        raise ValueError(f"matrix is not Hermitian: defect {bad[1]:.3e}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with an orthonormal eigenbasis; the
    decomposition of a stack carries its leading axes on both."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(operator, tolerances: Tolerances = DEFAULT) -> EigenDecomposition:
    """Hermitian eigendecomposition of a matrix or a stack (..., n, n),
    or of the operator of a family, from the lower triangle.

    The Hermiticity test reads the operator's band, or the band of an
    array (``_non_hermitian_band``).  A band that splits into diagonal
    blocks (``_split_starts``) is solved block by block (``_split_eigh``),
    its 1 x 1 and 2 x 2 blocks in closed form with no LAPACK call; any
    other goes to ``np.linalg.eigh``, whose ``w, v`` are returned as they
    are.  Inside a degenerate cluster the basis is the solver's:
    consumers read a cluster's span, not its frame.  A fixed input and
    thread count give a deterministic result, and the members of a stack
    agree with lone calls to within roundoff, bit for bit where both
    split alike.
    """
    if isinstance(operator, TruncatedOperator):
        band, m = operator.band, None
    else:
        m = np.asarray(operator)
        band = _band_of(m)
    if _non_hermitian_band(band, tolerances) is not None:
        raise ValueError("eigh requires a Hermitian matrix")
    starts = _split_starts(band)
    if len(starts) > 1:
        w, v = _split_eigh(band, starts)
    else:
        w, v = np.linalg.eigh(operator.matrix if m is None else m)
    v.setflags(write=False)
    w.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def _split_starts(band: np.ndarray) -> np.ndarray:
    """The first index of each diagonal block of the matrices of a band
    stack (..., 2b + 1, n), ascending from 0: p > 0 starts a block when
    no lower entry (j + d, j) with j < p <= j + d is nonzero in any
    member, that is when max_{j < p} (j + reach_j) < p, reach_j the
    largest such d at column j (0 if none).  It reads the lower triangle,
    as the Hermitian solvers do, exactly and in O(n b): the deflation
    test of LAPACK's tridiagonal solvers (Parlett, The Symmetric
    Eigenvalue Problem, ch. 7) read off the band."""
    width, n = band.shape[-2] // 2, band.shape[-1]
    coupled = np.any(band[..., width + 1:, :] != 0,
                     axis=tuple(range(band.ndim - 2)))
    reach = np.where(coupled, np.arange(1, width + 1)[:, None], 0).max(
        axis=0, initial=0)
    bridged = np.maximum.accumulate(np.arange(n) + reach)
    p = np.arange(1, n)
    return np.r_[0, p[bridged[:-1] < p]]


def _block_groups(band: np.ndarray, starts: np.ndarray):
    """The diagonal blocks of a band stack (..., 2b + 1, n) that splits
    at ``starts``, by size s: yields the indices (k, s) of the k blocks
    of each size, the blocks and their shift.  A 1 x 1 block is its real
    diagonal entry (..., k, 1), shift None.  Larger blocks are bands
    (..., k, 2w + 1, s), w = min(b, s - 1), centred on the mean of their
    real diagonal, which is the shift (..., k, 1) to add back to their
    eigenvalues: the roundoff of a block k + c_0 at mode k = 4096 is then
    relative to c_0, not to 4096."""
    width, n = band.shape[-2] // 2, band.shape[-1]
    band = band.astype(np.result_type(band.dtype, 1.0), copy=False)
    sizes = np.diff(np.r_[starts, n])
    for s in np.unique(sizes):
        rows = starts[sizes == s][:, None] + np.arange(s)
        if s == 1:
            yield rows, band[..., width, rows].real, None
            continue
        w = min(width, s - 1)
        # (..., 2w + 1, k, s) -> (..., k, 2w + 1, s), a copy
        blocks = np.moveaxis(band[..., width - w:width + w + 1, rows], -3, -2)
        at = np.arange(s) + np.arange(-w, w + 1)[:, None]
        blocks[..., (at < 0) | (at >= s)] = 0
        shift = blocks[..., w, :].real.mean(axis=-1, keepdims=True)
        blocks[..., w, :] -= shift
        yield rows, blocks, shift


def _eigh_2x2(blocks: np.ndarray):
    """Ascending eigenvalues (..., 2) and an orthonormal eigenbasis
    (..., 2, 2) of each 2 x 2 Hermitian matrix of a band stack (..., 3, 2),
    read from its real diagonal a, c and lower entry z, in closed form:
    one complex Jacobi rotation per matrix, the 2 x 2 symmetric Schur
    decomposition of Golub and Van Loan, Matrix Computations, sec. 8.5
    (LAPACK's ``zlaev2``).

    With p = (a + c) / 2, q = (a - c) / 2 and r = hypot(q, |z|) the
    eigenvalues are p - r and p + r.  An eigenvector (x, y) of p + r is
    (q + r, z) for q >= 0 and (conj z, r - q) otherwise, so neither entry
    cancels; (conj y, -conj x) is then one of p - r.  A multiple of the
    identity (r = 0) gets the identity, with no division by zero."""
    a, c = blocks[..., 1, 0].real, blocks[..., 1, 1].real
    z = blocks[..., 2, 0]
    p, q = 0.5 * (a + c), 0.5 * (a - c)
    r = np.hypot(q, np.abs(z))
    upper = q >= 0
    x = np.where(upper, q + r, z.conj())
    y = np.where(upper, z, r - q)
    norm = np.hypot(np.abs(x), np.abs(y))
    # r = 0 leaves (x, y) = (0, 0), for which (0, 1) gives the identity
    flat = norm == 0
    y, norm = np.where(flat, 1.0, y), np.where(flat, 1.0, norm)
    x, y = x / norm, y / norm
    v = np.empty(x.shape + (2, 2), dtype=np.result_type(x, y))
    v[..., 0, 0], v[..., 1, 0] = y.conj(), -x.conj()
    v[..., 0, 1], v[..., 1, 1] = x, y
    return np.stack([p - r, p + r], axis=-1), v


def _split_eigh(band: np.ndarray, starts: np.ndarray):
    """``w, v`` of a band stack that splits at ``starts``, block size by
    block size (``_block_groups``): a unit vector for a 1 x 1 block, the
    closed form ``_eigh_2x2`` for 2 x 2 blocks, and one stacked
    ``np.linalg.eigh`` for each larger size.  A stable argsort over the
    block positions merges the eigenvalues, and each block's eigenvectors
    are written straight to their sorted columns."""
    n, lead = band.shape[-1], band.shape[:-2]
    dtype = np.result_type(band.dtype, 1.0)
    slots = np.empty(lead + (n,), dtype=np.finfo(dtype).dtype)
    solved = []
    for rows, blocks, shift in _block_groups(band, starts):
        if shift is None:
            slots[..., rows] = blocks
            solved.append((rows, 1))
            continue
        w, v = _eigh_2x2(blocks) if rows.shape[1] == 2 \
            else np.linalg.eigh(_dense(blocks))
        slots[..., rows] = w + shift
        solved.append((rows, v.reshape((-1,) + v.shape[-3:])))
    order = np.argsort(slots, axis=-1, kind="stable")
    # the column of each slot in the ascending order
    column = np.empty_like(order)
    np.put_along_axis(column, order, np.arange(n), axis=-1)
    v = np.zeros(lead + (n, n), dtype=dtype)
    flat_v, flat_column = v.reshape(-1, n, n), column.reshape(-1, n)
    member = np.arange(len(flat_v))[:, None, None, None]
    for rows, vectors in solved:
        # component r of eigenvector c of block i sits in row rows[i, r]
        # and in the column of slot rows[i, c]
        flat_v[member, rows[:, :, None],
               flat_column[:, rows][:, :, None, :]] = vectors
    return np.take_along_axis(slots, order, axis=-1), v


def half_bandwidth(m: np.ndarray):
    """Largest i - j over the nonzero entries m[i, j] with i >= j, for a
    matrix or for each member of a stack (..., n, n).

    No tolerance is applied: every entry below the band is exactly zero,
    so the band holds the whole lower triangle, which is all a Hermitian
    eigensolver reads.
    """
    nonzero = m != 0
    offset = np.arange(m.shape[-2]) - nonzero.argmax(axis=-1)
    return np.where(nonzero.any(axis=-1), offset, 0).max(axis=-1, initial=0)


def eigvalsh(operator) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each member of a
    stack (..., n, n), from the lower triangle.

    A band that splits into diagonal blocks (``_split_starts``) is solved
    block by block (``_block_groups``): a 1 x 1 block is its diagonal
    entry, 2 x 2 blocks take the closed form ``_eigh_2x2``, so their
    eigenvalues are bit-identical to those of ``eigh``, and each larger
    block is routed as a matrix is.
    A matrix whose band of half-bandwidth b fills at most a sixteenth of
    each column, 16 (b + 1) <= n, goes to LAPACK's Hermitian band solver,
    whose reduction to tridiagonal form (``?hbtrd``) costs O(n^2 b); any
    other to the dense one.  Both see the same entries.  The crossover was
    measured on random Hermitian band matrices with one BLAS thread: the
    band solver costs about as much as the dense one once b reaches
    n / 12 (n = 130 to 1026), and below n = 24 the dense one wins for any
    b >= 1.  Members of a stack are routed one by one: the band members
    are solved one at a time, the dense ones by one LAPACK call.  Every
    matrix is read by its band (``_band_eigvalsh``): a band member hands
    the solver the lower rows as they are, and only a dense member is
    made dense.
    """
    if isinstance(operator, TruncatedOperator):
        return _band_eigvalsh(operator.band)
    m = np.asarray(operator)
    return _band_eigvalsh(_band_of(m.astype(np.result_type(m.dtype, float),
                                            copy=False)))


def _band_eigvalsh(band: np.ndarray) -> np.ndarray:
    """``eigvalsh`` of the matrices of a band stack (..., 2b + 1, n): a
    split band block by block (2 x 2 blocks by ``_eigh_2x2``, as in
    ``_split_eigh``), and any other routed member by member on each
    member's exact lower half-bandwidth."""
    width, n = band.shape[-2] // 2, band.shape[-1]
    starts = _split_starts(band)
    if len(starts) > 1:
        w = np.empty(band.shape[:-2] + (n,))
        for rows, blocks, shift in _block_groups(band, starts):
            if shift is None:
                w[..., rows] = blocks
            elif rows.shape[1] == 2:
                w[..., rows] = _eigh_2x2(blocks)[0] + shift
            else:
                w[..., rows] = _band_eigvalsh(blocks) + shift
        return np.sort(w, axis=-1)
    lower = np.ravel(_lower_width(band))
    flat = band.reshape(-1, 2 * width + 1, n)
    banded = 16 * (lower + 1) <= n
    if not banded.any():
        return np.linalg.eigvalsh(_dense(band))
    out = np.empty((len(flat), n), dtype=float)
    if not banded.all():
        out[~banded] = np.linalg.eigvalsh(_dense(flat[~banded]))
    for i in np.flatnonzero(banded):
        out[i] = _banded_eigvals(flat[i, width:width + lower[i] + 1])
    return out.reshape(band.shape[:-2] + (n,))


def _banded_eigvals(band: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix whose lower band is
    stored row by row, ``band[d, j] = m[j + d, j]``."""
    return scipy.linalg.eigvals_banded(band, lower=True)


# -- builders ---------------------------------------------------------------

def build_multiplication(symbol: SymbolFunction,
                         trunc: FourierTruncation) -> np.ndarray:
    """Block-Toeplitz matrix of pointwise multiplication by the symbol:
    B[j, k] = c_{j-k} over modes j, k in [-K, K].  Coefficients beyond
    mode 2K cannot couple truncated modes and are dropped.  The result is
    Hermitian exactly when the symbol is."""
    return _dense(_multiplication_bands([symbol], trunc,
                                        np.arange(trunc.dim))[0])


def _coefficient_table(symbols, trunc: FourierTruncation) -> np.ndarray:
    """The coefficients of each symbol that couple truncated modes, as
    one flat row per symbol: entry (a, c) of c_k at ``_coupling`` position
    ((k + 2K) N + a) N + c, followed by one zero that stands for every
    entry outside the window."""
    for symbol in symbols:
        if symbol.rank != trunc.bundle_rank:
            raise ValueError(f"symbol rank {symbol.rank} does not match "
                             f"bundle rank {trunc.bundle_rank}")
    span, N = 2 * trunc.max_mode, trunc.bundle_rank
    table = np.zeros((len(symbols), 2 * span + 2, N, N), dtype=complex)
    for i, symbol in enumerate(symbols):
        for k, c in symbol.coefficients.items():
            if abs(k) <= span:
                table[i, k + span] = c
    return table.reshape(len(symbols), -1)


def _coupling(trunc: FourierTruncation, rows, cols) -> np.ndarray:
    """Position in ``_coefficient_table`` of the multiplication entry
    (rows, cols) (broadcast basis indices): entry (j N + a, k N + c)
    is entry (a, c) of c_{j-k}."""
    N = trunc.bundle_rank
    (mode_r, comp_r), (mode_c, comp_c) = np.divmod(rows, N), np.divmod(cols, N)
    return ((mode_r - mode_c + 2 * trunc.max_mode) * N + comp_r) * N + comp_c


def _table_bands(table: np.ndarray, trunc: FourierTruncation,
                 rows: np.ndarray, width: int) -> np.ndarray:
    """The bands (len(table), 2 width + 1, len(rows)), in the layout of
    ``TruncatedOperator.band``, of the multiplication matrices whose
    ``_coefficient_table`` is ``table``, restricted to the ascending basis
    indices ``rows``: every entry on the diagonals -width..width is read
    from the table, and every corner beyond the block is zero."""
    size = len(rows)
    cols = np.arange(size)
    at = cols + np.arange(-width, width + 1)[:, None]
    inside = (at >= 0) & (at < size)
    coupling = _coupling(trunc, rows[np.clip(at, 0, size - 1)], rows)
    return np.take(table, np.where(inside, coupling, table.shape[1] - 1),
                   axis=1)


def _multiplication_bands(symbols, trunc: FourierTruncation,
                          rows: np.ndarray) -> np.ndarray:
    """The ``build_multiplication`` matrix of each symbol restricted to
    the ascending basis indices ``rows``, as one band stack
    (len(symbols), 2w + 1, len(rows)) written from the coefficients.

    Entry (a, c) of c_k sits on diagonal k N + a - c of the full matrix,
    and a block on ascending rows keeps each entry on a diagonal no
    farther out, so w = (bandwidth + 1) N - 1 over the symbols, at most
    len(rows) - 1, holds every coefficient entry, signed zeros too: the
    dense matrix of the band is the block, bit for bit."""
    rows = np.asarray(rows)
    bandwidth = max(symbol.bandwidth for symbol in symbols)
    width = min((bandwidth + 1) * trunc.bundle_rank - 1, len(rows) - 1)
    return _table_bands(_coefficient_table(symbols, trunc), trunc, rows,
                        width)


def build_dirac(potential: SymbolFunction, trunc: FourierTruncation,
                tolerances: Tolerances = DEFAULT) -> TruncatedOperator:
    """-i d/dx tensor I_N plus multiplication by a Hermitian potential."""
    return TruncatedOperator._of_band(
        _dirac_bands([potential], trunc, tolerances)[0], trunc, tolerances)


def _dirac_bands(potentials, trunc: FourierTruncation,
                 tolerances: Tolerances) -> np.ndarray:
    """The ``TruncatedOperator.band`` of the ``build_dirac`` matrix of each
    potential, as one stack (len(potentials), 2b + 1, dim) written from
    the coefficients, b the exact half-bandwidth of the whole stack: the
    largest |k N + a - c| over the nonzero entries (a, c) of the
    coefficients c_k with |k| <= 2K.  A potential whose
    ``hermitian_defect`` exceeds ``potential_hermitian`` is refused (the
    first one, in order)."""
    for potential in potentials:
        defect = potential.hermitian_defect()
        if defect > tolerances.potential_hermitian:
            raise ValueError("Dirac potential must be Hermitian-valued "
                             f"(defect {defect:.3e})")
    table = _coefficient_table(potentials, trunc)
    n, N = trunc.dim, trunc.bundle_rank
    # table position ((k + 2K) N + a) N + c sits on diagonal k N + a - c
    mode, entry = np.divmod(np.flatnonzero(table.any(axis=0)), N * N)
    width = int(np.abs((mode - 2 * trunc.max_mode) * N + entry // N
                       - entry % N).max(initial=0))
    bands = _table_bands(table, trunc, np.arange(n), width)
    # adding the mode diagonal as a full complex band, as the dense sum
    # M_V + diag(modes) did, turns every -0.0 into 0.0 there too
    modes = np.zeros((2 * width + 1, n), dtype=complex)
    modes[width] = trunc.modes()
    bands += modes
    return bands


@dataclass(frozen=True)
class NullSplit:
    """One singular spectrum of an m x n matrix read as a rank decision:
    the kernel (n x (n - rank)) and cokernel (m x (m - rank)) are
    orthonormal frames of the singular subspaces of the dropped values,
    and ``gap_ratio`` is the smallest kept over the largest dropped
    singular value (inf when nothing is dropped).  On the dense route the
    values and frames come from one SVD; on the band route the values
    come from the band's bidiagonal form and the frames span the same
    subspaces as singular vectors do (see ``null_split``).  Band-route
    frames are real for a matrix whose entries are all real, whatever its
    dtype and rank, since ``small_singular_vectors`` then runs in real
    arithmetic.  The splits of a group of stacked members
    (``null_splits``) carry a leading member axis on every array field
    and on ``gap_ratio``."""

    rank: int
    kernel: np.ndarray
    cokernel: np.ndarray
    singular_values: np.ndarray
    gap_ratio: float


def split_rank(s, threshold, tolerances: Tolerances = DEFAULT):
    """Rank of a descending singular spectrum: the number of values at or
    above the absolute threshold, and the gap ratio across that split.

    Raises IllConditioned when the smallest kept value exceeds the largest
    nonzero dropped one by less than ``svd_gap_factor``.  A stack of
    spectra (..., k) with one threshold per member gives arrays of ranks
    and ratios, and the error reports the first member that fails.
    """
    s = np.asarray(s)
    threshold = np.asarray(threshold, dtype=float)
    k = s.shape[-1]
    rank = np.count_nonzero(s >= threshold[..., None], axis=-1)
    kept = np.take_along_axis(s, np.clip(rank - 1, 0, None)[..., None],
                              axis=-1)[..., 0] if k else np.zeros(rank.shape)
    dropped = np.take_along_axis(s, np.clip(rank, None, k - 1)[..., None],
                                 axis=-1)[..., 0] if k else np.zeros(rank.shape)
    split = (rank > 0) & (rank < k) & (dropped > 0)
    ratio = np.full(rank.shape, np.inf)
    np.divide(kept, dropped, out=ratio, where=split)
    bad = np.flatnonzero(ratio < tolerances.svd_gap_factor)
    if bad.size:
        i = bad[0]
        raise IllConditioned(
            f"singular values cluster at the rank threshold "
            f"{np.ravel(threshold)[i]:.3e}: {np.ravel(kept)[i]:.3e} / "
            f"{np.ravel(dropped)[i]:.3e} = {np.ravel(ratio)[i]:.1f} "
            f"< {tolerances.svd_gap_factor}")
    if s.ndim == 1:
        return int(rank), float(ratio)
    return rank, ratio


def null_split(matrix, tolerances: Tolerances = DEFAULT) -> NullSplit:
    """Singular-value split at ``rank_rtol`` times the largest singular
    value; the zero and the empty matrix have rank 0.

    A square matrix T whose band is narrow takes the band route, read off
    its band (``_band_of``).  Its singular values come from LAPACK's band
    bidiagonal reduction and dqds (``_band_singular_values``), with no
    dense matrix and no doubled one, and the rank decision reads them as
    the dense route reads its SVD.  The n - rank kernel and cokernel
    directions come from ``small_singular_vectors`` on the sparse T*T and
    T T*, counted at a cut ``sqrt(svd_gap_factor)`` below the smallest
    kept value; both sides must count n - rank (IllConditioned
    otherwise).  The frames span the singular subspaces of the dropped
    values, but within the span they are Ritz vectors, not the dense
    SVD's singular vectors.  T*T resolves a kept value only well above
    ``sqrt(eps)`` times the largest, so a split whose smallest kept value
    is below ``_BAND_FRAME_RTOL`` times the largest takes its frames from
    the dense SVD.

    The route is taken when n >= 160 and 8 (b + 3) <= n (``_band_pays``),
    b = max(2 ku + 1, 2 kl - 1) the half-bandwidth of
    ``[[0, T], [T*, 0]]`` with rows and columns interleaved, for lower and
    upper half-bandwidths kl and ku of T.  The whole band route (band
    singular values and the two frames of ``small_singular_vectors``) was
    timed against a full dense SVD with one BLAS thread on a 2-core host,
    on random complex band matrices with kl = ku (diagonally dominant, two
    rows zeroed, so both frames have two columns): the two cost as much at
    about b = 18
    for n = 160, b = 24 for n = 194, b = 32 for n = 258 and beyond b = 33
    from n = 322 on, and the band route takes 0.13 of the dense time at
    b = 1 and n = 258, and 0.10 at b = 3 and n = 514.  The floor n >= 160
    keeps every matrix up to n = 159 dense, so the compressions of a
    small family stay on one stacked SVD (``null_splits``).  Every other
    matrix, including each non-square one, takes the dense SVD.
    """
    m = np.asarray(matrix)
    if m.ndim == 2 and m.shape[0] == m.shape[1] and _band_pays(1, len(m)):
        split = _band_null_split(_band_of(m), tolerances)
        if split is not None:
            return split
    u, s, vh = np.linalg.svd(m)
    rank, ratio = _relative_split(s, tolerances)
    return NullSplit(rank=rank, kernel=vh[rank:].conj().T,
                     cokernel=u[:, rank:], singular_values=s, gap_ratio=ratio)


def null_splits(stack, tolerances: Tolerances = DEFAULT,
                banded: bool = False) -> list[tuple[np.ndarray, NullSplit]]:
    """``null_split`` of every member of a stack (members, m, n), grouped
    by rank: each entry holds the ascending indices of the members of one
    rank and their splits as one ``NullSplit`` whose array fields carry a
    leading member axis (``rank`` is the group's).  Every member's split
    equals its own ``null_split``.

    With ``banded`` the stack holds square matrices by their bands
    (members, 2w + 1, n), in the layout of ``TruncatedOperator.band``, as
    ``toeplitz._compressions`` writes them; a member of a dense stack of
    square matrices large enough for the band route is read by its band
    (``_band_of``).  Members that take the band route are split one by
    one, first, with no dense matrix formed; the rest are made dense for
    one stacked SVD.  A refusal reports the first refused band member,
    else the first refused member of the stacked SVD.
    """
    stack = np.asarray(stack)
    count, n = len(stack), stack.shape[-1]
    alone = {}
    if (banded or stack.shape[1] == n) and _band_pays(1, n):
        for i in range(count):
            band = stack[i] if banded else _band_of(stack[i])
            split = _band_null_split(band, tolerances)
            if split is not None:
                alone[i] = split
    dense = np.array([i for i in range(count) if i not in alone], dtype=int)
    ranks = np.empty(count, dtype=int)
    if dense.size:
        picked = stack if not alone else stack[dense]
        u, s, vh = np.linalg.svd(_dense(picked) if banded else picked)
        ranks[dense], ratios = _relative_split(s, tolerances)
        at = np.full(count, -1)
        at[dense] = np.arange(dense.size)
    for i, split in alone.items():
        ranks[i] = split.rank
    groups = []
    for rank in np.unique(ranks):
        members = np.flatnonzero(ranks == rank)
        if not alone:
            sel = slice(None) if members.size == count else members
            split = NullSplit(
                rank=int(rank),
                kernel=np.swapaxes(vh[sel, rank:].conj(), -1, -2),
                cokernel=u[sel, :, rank:], singular_values=s[sel],
                gap_ratio=ratios[sel])
        else:
            parts = [alone[i] if i in alone else NullSplit(
                rank=int(rank), kernel=vh[at[i], rank:].conj().T,
                cokernel=u[at[i], :, rank:], singular_values=s[at[i]],
                gap_ratio=float(ratios[at[i]])) for i in members]
            split = NullSplit(
                rank=int(rank),
                kernel=np.stack([p.kernel for p in parts]),
                cokernel=np.stack([p.cokernel for p in parts]),
                singular_values=np.stack([p.singular_values for p in parts]),
                gap_ratio=np.array([p.gap_ratio for p in parts]))
        groups.append((members, split))
    return groups


#: Smallest kept singular value, relative to the largest, whose split the
#: band route reads from T*T.  Its square exceeds the shift (1e-12) of
#: ``_smallest_block`` by 1e4, so each inverse iteration shrinks the kept
#: part of the null block by that factor, and its convergence tolerance
#: (1e-10), both relative to the largest value squared, by 100, so the
#: iteration stops only once that part is below a tenth.
_BAND_FRAME_RTOL = 1e-4


def _band_pays(b: int, n: int) -> bool:
    """Whether an n x n matrix whose interleaved half-bandwidth is b,
    max(2 ku + 1, 2 kl - 1), takes the band route (see ``null_split``)."""
    return n >= 160 and 8 * (b + 3) <= n


def _band_widths(band: np.ndarray) -> tuple[int, int]:
    """Exact lower and upper half-bandwidths kl and ku of the square
    matrix of a band (2w + 1, n): its outermost nonzero diagonals."""
    # reversing the rows of a band mirrors its diagonals
    return int(_lower_width(band)), int(_lower_width(band[::-1]))


@functools.cache
def _lapack(name: str):
    """The LAPACK routine ``name`` that ``scipy.linalg.cython_lapack``
    exports, as a ctypes function, bound on its first call from the
    module's C-API capsule.  The capsule's name is the C signature, and a
    Fortran routine takes every argument by pointer, so each argument is
    declared a ``c_void_p``."""
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = cython_lapack.__pyx_capi__[name]
    signature = capsule_name(capsule)
    arguments = [ctypes.c_void_p] * (signature.count(b",") + 1)
    return ctypes.CFUNCTYPE(None, *arguments)(
        capsule_pointer(capsule, signature))


def _call_lapack(name: str, *args) -> int:
    """Call ``_lapack(name)`` with ``args`` and a trailing ``info``; a
    negative ``info`` (an illegal argument) raises ValueError, and a
    positive one is returned."""
    info = ctypes.c_int()
    _lapack(name)(*args, ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"LAPACK {name}: argument {-info.value} is illegal")
    return info.value


def _band_singular_values(band: np.ndarray) -> np.ndarray:
    """Descending singular values of the square matrix T of a band
    (2w + 1, n), in the layout of ``TruncatedOperator.band``.

    With kl and ku the exact half-bandwidths (``_band_widths``), the band
    rows w - ku .. w + kl, in Fortran order, are LAPACK's general band
    storage of T.  ``?gbbrd`` reduces T by Givens rotations to a real
    upper bidiagonal B with the same singular values (Kaufman, ACM TOMS
    26, 2000), and ``dlasq1`` takes those of B by the dqds algorithm, to
    high relative accuracy in B (Fernando and Parlett, Numer. Math. 67,
    1994); the reduction is backward stable, so each value is exact to
    roundoff in the largest.  IllConditioned when dqds does not converge,
    ValueError for an argument LAPACK refuses.

    Measured on a 2-core host with one BLAS thread (random complex band,
    kl = ku = 3, best of 7): n = 258, 514 and 1026 take 3.9, 14.3 and
    58 ms, against 18.1, 71 and 267 ms for the Hermitian band eigenvalues
    of the doubled matrix ``[[0, T], [T*, 0]]``.
    """
    kl, ku = _band_widths(band)
    width, n = band.shape[0] // 2, band.shape[1]
    dtype = np.result_type(band.dtype, float)
    ab = np.array(band[width - ku:width + kl + 1], dtype=dtype, order="F")
    d, e = np.empty(n), np.empty(n)
    unused = np.zeros(1, dtype=dtype)

    def at(a):
        return a.ctypes.data_as(ctypes.c_void_p)

    def by(value):
        return ctypes.byref(ctypes.c_int(value))

    args = [ctypes.c_char_p(b"N"), by(n), by(n), by(0), by(kl), by(ku),
            at(ab), by(kl + ku + 1), at(d), at(e), at(unused), by(1),
            at(unused), by(1), at(unused), by(1)]
    if np.iscomplexobj(ab):
        _call_lapack("zgbbrd", *args, at(np.empty(n, dtype=dtype)),
                     at(np.empty(n)))
    else:
        _call_lapack("dgbbrd", *args, at(np.empty(2 * n)))
    if _call_lapack("dlasq1", by(n), at(d), at(e), at(np.empty(4 * n))):
        raise IllConditioned("dqds did not converge on the bidiagonal "
                             "form of a band matrix")
    return d


def _csc_of_band(band: np.ndarray) -> sp.csc_matrix:
    """The square matrix of a band (2w + 1, n) in CSC form, its exact
    zeros dropped and each column's rows ascending: entry for entry the
    ``sp.csc_matrix`` of the dense matrix."""
    width, n = band.shape[0] // 2, band.shape[1]
    # column j of the matrix is row j of the transposed band, its rows
    # j - w..j + w ascending
    keep = band.T != 0
    rows = np.arange(n)[:, None] + np.arange(-width, width + 1)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sp.csc_matrix((band.T[keep], rows[keep].astype(np.int32), indptr),
                         shape=(n, n))


def _band_null_split(band: np.ndarray,
                     tolerances: Tolerances) -> NullSplit | None:
    """``null_split`` of the square T of a band (2w + 1, n) on the band
    route; None when its band does not pay (``_band_pays`` at the
    half-bandwidth max(2 ku + 1, 2 kl - 1) of ``[[0, T], [T*, 0]]`` with
    rows and columns interleaved, the width that the route was measured
    at) or the smallest kept value is too small for T*T to resolve."""
    kl, ku = _band_widths(band)
    n = band.shape[1]
    if not _band_pays(max(2 * ku + 1, 2 * kl - 1), n):
        return None
    s = _band_singular_values(band)
    rank, ratio = _relative_split(s, tolerances)
    # the iteration runs a matrix without imaginary parts in real
    # arithmetic, so the trivial frames take the dtype it would return
    dtype = complex if np.iscomplexobj(band) and band.imag.any() else float
    if rank == n:
        kernel = cokernel = np.zeros((n, 0), dtype=dtype)
    elif rank == 0:
        # s[0] = 0: only the zero matrix, whose whole space is null
        kernel = cokernel = np.eye(n, dtype=dtype)
    elif s[rank - 1] < _BAND_FRAME_RTOL * s[0]:
        return None
    else:
        cut = s[rank - 1] / np.sqrt(tolerances.svd_gap_factor)
        kernel, cokernel, _, _ = small_singular_vectors(
            _csc_of_band(band), cut, float(s[0]) ** 2, n - rank + 1,
            count=n - rank)
    return NullSplit(rank=rank, kernel=kernel, cokernel=cokernel,
                     singular_values=s, gap_ratio=ratio)


def numerical_rank(matrix, tolerances: Tolerances = DEFAULT) -> int:
    """The rank ``null_split`` decides, from the singular values alone;
    an empty matrix is not factored."""
    m = np.asarray(matrix)
    s = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    return _relative_split(s, tolerances)[0]


def _relative_split(s: np.ndarray, tolerances: Tolerances):
    """``split_rank`` at ``rank_rtol`` times the largest singular value,
    of a spectrum or of each member of a stack of spectra."""
    top = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    threshold = np.where(top > 0, tolerances.rank_rtol * top, np.inf)
    return split_rank(s, threshold, tolerances)


def small_singular_vectors(a, threshold: float, scale: float, k: int,
                           count: int | None = None):
    """Right and left singular vectors of the square sparse matrix ``a``
    with singular value below the threshold, their singular values, and
    ``s_next``, a lower bound on the first singular value at or above the
    threshold; ``scale`` bounds ``||a||^2``.

    Block inverse iteration (``_smallest_block``) on ``a*a`` starts with
    ``k`` vectors and doubles the block, up to 64, until the bound clears
    the threshold; ``a a*`` is then searched with two more vectors than
    the count found, and both sides must count the same (IllConditioned
    otherwise).  The singular values are the residual norms ``||a v||``
    and ``||a* u||`` of the Ritz vectors, in ascending order, and the
    count they give must equal the count of Ritz values below
    ``threshold ** 2`` (IllConditioned otherwise: the two differ only
    for a value within roundoff of the threshold).  Only the count below
    the threshold and the spans are exact to working precision: the
    Rayleigh-Ritz matrix ``x* (a*a) x`` carries roundoff of about
    ``eps ||a||^2``, so values below about ``sqrt(eps) ||a||`` are not
    resolved one by one, and the Ritz vectors of a cluster of such values
    are mixtures whose residual norms mix the cluster's values.

    ``s_next`` is the square root of ``_smallest_block``'s bound on the
    eigenvalue of ``a*a`` that follows the ns values below the threshold.
    It clears the threshold, and ``s_next <= sigma_{ns+1}`` to roundoff
    in ``||a||^2`` under the assumption ``_smallest_block`` states: the
    block spans the low invariant subspace to within its residuals, which
    nothing checks.  Its square falls short of ``sigma_{ns+1}^2`` by at
    most the residual norm of the Ritz vector it was read from; the
    iteration stops as soon as it clears the threshold, not when it is
    tight.  Where the assumption holds, a rank decision that reads
    ``s_next`` as the smallest kept value (``split_rank``) can only
    refuse more often than one that reads ``sigma_{ns+1}``.

    A caller that knows from an exact spectrum that ``count`` values lie
    below the threshold and the next one far above it passes ``count``:
    the iteration then judges convergence on those values alone, since
    the next Ritz value bounds its eigenvalue from above and so cannot
    fall below the threshold, and both sides must count exactly that
    many.  No bound is computed on that route, and ``s_next`` is nan
    (its one caller, ``null_split``, reads the rank from the exact
    spectrum instead).

    A complex ``a`` whose entries have no nonzero imaginary part (an exact
    test, not a tolerance) is iterated as its real part: ``a*a`` and
    ``a a*`` are then real symmetric, so they have a real eigenbasis, a
    real block finds the same subspaces, and the vectors returned are
    real.
    """
    if np.iscomplexobj(a.data) and not a.data.imag.any():
        a = a.real
    a_h = a.getH()
    cut = threshold ** 2

    def smallest(gram, factor, k):
        vecs, below, bound = _smallest_block(gram.tocsc(), k, scale, cut,
                                             count)
        s = np.linalg.norm(factor @ vecs, axis=0)
        order = np.argsort(s, kind="stable")
        return s[order], vecs[:, order], below, bound

    while True:
        s_r, v_r, below, bound = smallest(a_h @ a, a, k)
        if count is not None or below < k or k >= 64:
            break
        k *= 2
    ns = int(np.count_nonzero(s_r < threshold))
    if ns >= k:
        raise IllConditioned("could not isolate the small singular "
                             "spectrum within the search budget")
    if ns != below:
        raise IllConditioned(
            f"{ns} singular values lie below the threshold {threshold:.3e} "
            f"by their residual norms and {below} by their Ritz values"
            if count is None else f"{ns} small singular values found "
            f"where the spectrum has {count}")
    s_l, v_l, _, _ = smallest(a @ a_h, a_h, max(ns + 2, 4))
    nl = int(np.count_nonzero(s_l < threshold))
    if nl != ns:
        raise IllConditioned(f"two-sided small-singular counts differ "
                             f"({ns} vs {nl}); threshold sits in the spectrum")
    return v_r[:, :ns], v_l[:, :ns], s_r[:ns], float(np.sqrt(bound))


def _orthonormal_columns(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of a full-rank n x k block
    (k <= n): the Q of LAPACK's Householder QR (``geqrf``/``ungqr``).

    ``scipy.linalg.qr`` returns Q in Fortran order, which is the layout
    ``SuperLU.solve`` reads, so the next solve takes it without a copy.
    Householder QR stays orthonormal to working precision whatever the
    condition of the block; after one inverse-iteration step the null
    columns of ``_smallest_block`` outgrow the rest by about 1e8, past
    where a Cholesky QR of the Gram matrix breaks down.
    """
    return scipy.linalg.qr(x, mode="economic", check_finite=False)[0]


def _smallest_block(mat, k: int, scale: float, cut: float,
                    count: int | None = None):
    """Ritz vectors of the smallest k eigenvalues of a sparse PSD matrix,
    in ascending order of Ritz value, by seeded block inverse iteration
    (block methods resolve degenerate clusters, which single-vector
    Lanczos misses with a fixed start); with them, the number r of Ritz
    values below ``cut`` (``count`` when it is given) and a lower bound on
    the eigenvalue lambda_{r+1} that follows them (nan when ``count`` is
    given: that route computes no bound).

    The iteration stops once the r values below the cut have settled, to
    ``1e-10 (scale + |value|)`` between two steps, and the bound on
    lambda_{r+1} clears the cut; with a known ``count`` it stops once the
    ``count`` smallest values have settled.  When all
    k Ritz values lie below the cut it stops at once, with r = k and the
    bound -inf: each Ritz value bounds its eigenvalue from above, so at
    least k eigenvalues lie below the cut and only a larger block can
    split them.  The values above lambda_{r+1} are never read, and in
    inverse iteration they are the slowest to settle; a Ritz value in a
    cluster settles slowly too, which is why lambda_{r+1} is bounded
    rather than waited for.

    The bound (Parlett, The Symmetric Eigenvalue Problem, ch. 10) reads
    the Ritz pair (theta, y) of lambda_{r+1} and its residual norm
    ``rho = ||mat y - theta y||``.  Weinstein's interval
    ``[theta - rho, theta + rho]`` holds an eigenvalue; where the next
    Ritz pair's own interval starts above theta at beta (the block shows
    a gap), Kato and Temple's ``theta - rho^2 / (beta - theta)`` bounds
    that eigenvalue from below too, and the larger of the two is taken.
    Both bound lambda_{r+1} under one assumption: the eigenvalue each
    interval holds is the one its Ritz value approximates, lambda_{r+1}
    and lambda_{r+2}.  That holds when the block spans the invariant
    subspace of the r + 1 smallest eigenvalues to within the residuals.
    Nothing checks it, and a stop after as few as two solves does not
    guarantee it: a block that has not yet taken in an eigenvector just
    above the cut can return a bound above lambda_{r+1}.  Under the
    assumption the bound lies at most rho below lambda_{r+1} <= theta,
    and carries roundoff of about ``eps scale``.

    The shifted matrix ``mat + 1e-12 scale I`` is Hermitian positive
    definite, so SuperLU factors it with a symmetric ordering of
    ``A + A^T`` and diagonal pivots, which is as stable as Cholesky for
    such a matrix.  The block is orthonormalized by LAPACK's Householder
    QR (``_orthonormal_columns``) at the start and after every solve.
    The arithmetic follows ``mat.dtype``: a complex matrix is iterated
    from a seeded complex start, and a real one in real arithmetic from
    the real part of that start.  IllConditioned after 60 steps, naming
    the last bound and the cut.
    """
    n = mat.shape[0]
    shift = 1e-12 * scale + 1e-300
    lu = spla.splu((mat + shift * sp.identity(n, format="csc",
                                              dtype=mat.dtype)).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    rng = np.random.default_rng(1234567)
    x = rng.standard_normal((n, k))
    if np.iscomplexobj(mat):
        x = x + 1j * rng.standard_normal((n, k))
    x = _orthonormal_columns(x)
    previous = None
    bound = -np.inf
    for _ in range(60):
        x = _orthonormal_columns(lu.solve(x))
        small = x.conj().T @ (mat @ x)
        vals, rot = np.linalg.eigh(0.5 * (small + small.conj().T))
        read = count if count is not None else \
            int(np.count_nonzero(vals < cut))
        if read == k and count is None:
            return x @ rot, read, -np.inf
        settled = previous is not None and np.all(
            np.abs(vals[:read] - previous[:read])
            <= 1e-10 * scale + 1e-10 * np.abs(vals[:read]))
        previous = vals
        if settled and count is not None:
            return x @ rot, count, np.nan
        if settled:
            vectors = x @ rot
            bound = _next_eigenvalue_bound(mat, vectors[:, read:read + 2],
                                           vals[read:read + 2])
            if bound > cut:
                return vectors, read, bound
    raise IllConditioned(f"block inverse iteration did not converge in 60 "
                         f"steps: last lower bound {bound:.6e} on the first "
                         f"eigenvalue above the cut {cut:.6e}")


def _next_eigenvalue_bound(mat, y: np.ndarray, theta: np.ndarray) -> float:
    """Lower bound on the eigenvalue that the first of one or two
    ascending Ritz pairs (theta, y) of ``mat`` approximates: Weinstein's
    ``theta - rho``, or Kato and Temple's ``theta - rho^2 / (beta -
    theta)`` where the second pair's Weinstein bound beta lies above
    theta, whichever is larger (see ``_smallest_block``); -inf when no
    pair is given."""
    if not len(theta):
        return -np.inf
    rho = np.linalg.norm(mat @ y - y * theta, axis=0)
    weinstein = theta - rho
    if len(theta) < 2 or weinstein[1] <= theta[0]:
        return float(weinstein[0])
    return float(max(weinstein[0],
                     theta[0] - rho[0] ** 2 / (weinstein[1] - theta[0])))


def interior_directions(vectors: np.ndarray, mask: np.ndarray,
                        tolerances: Tolerances = DEFAULT) -> np.ndarray:
    """Orthonormal basis of the directions in the span of ``vectors``
    (orthonormal columns) that keep more than ``localization_mass`` of
    their weight on the rows selected by ``mask`` (a principal-angle
    count); its column count is the number of localized directions."""
    return _interior_split(vectors, mask, tolerances)[1]


def _interior_split(vectors: np.ndarray, mask: np.ndarray,
                   tolerances: Tolerances = DEFAULT):
    """``interior_directions`` of each member of a stack of frames
    (..., dim, k), by one SVD and one QR: the number of localized
    directions of each member, and their bases as one stack
    (..., dim, count), or None when the members keep different numbers.
    A frame is a stack of one."""
    if vectors.shape[-1] == 0:
        return np.zeros(vectors.shape[:-2], dtype=int), vectors
    _, sv, vh = np.linalg.svd(vectors[..., mask, :], full_matrices=False)
    counts = np.count_nonzero(sv > np.sqrt(tolerances.localization_mass),
                              axis=-1)
    kept = np.unique(counts)
    if kept.size > 1:
        return counts, None
    if kept[0] == 0:
        return counts, vectors[..., :0]
    localized = np.swapaxes(vh[..., :kept[0], :].conj(), -1, -2)
    return counts, np.linalg.qr(vectors @ localized)[0]
