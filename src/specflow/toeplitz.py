"""Hardy-space Toeplitz compressions, their Fredholm indices, winding
numbers, and discrete odd-Chern cochains.

Truncation-edge handling.  The compression of multiplication by e^{inx} to
modes 0..K is a square matrix, so its raw kernel and cokernel dimensions
are forced equal; the classical index lives in where the null vectors sit.
Genuine kernel/cokernel vectors of a band-limited unitary symbol decay
away from mode 0, while truncation artifacts concentrate within a
bandwidth of the top mode K.  The index routine therefore splits the small
singular subspaces of T and T* by mode localization (interior means
|mode| <= K/2) and counts only the interior part.  Every index is
recomputed at truncation 2K and must agree; that stability contract is the
module's main correctness device.

A single compression is a family over one point: one stacked split and
localization count (``_small_subspaces``) and one doubling check
(``_stable_subspaces``) serve ``fredholm_index`` and the family index.

Degree-1 normalization.  The per-plaquette odd-Chern cochain carries the
frozen constant 1/(2 pi)^2: one factor of 2 pi per cohomology degree.  It
was fixed once by requiring the reference rank-1 twist family (Bott-type
symbol over the two-torus) to integrate to its plaquette Chern number and
is asserted by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .basegrid import BaseGrid
from .config import DEFAULT, Tolerances
from .errors import GridResolutionError, RoundingAmbiguous, UnstableIndex
from .flow import SpectralSection, _single, aps_projection
from .operators import (FourierTruncation, SymbolFunction, _band_of, _dense,
                        _interior_split, _multiplication_bands, build_dirac,
                        null_splits)

#: Degree-1 cochain normalization, one (2 pi) per cohomology degree; see
#: the module docstring for how the sign and power were frozen.
CH1_NORMALIZATION = 1.0 / (4.0 * np.pi ** 2)

#: Fiber sample points of the degree-1 cochain's x-integral.
_FIBER_GRID = 256

#: Fiber points evaluated together by ``odd_chern_integral``: each array
#: of a block is (rank, rank, m, m, block), so the peak memory does not
#: grow with the fiber grid.
_FIBER_BLOCK = 32


def hardy_section(trunc: FourierTruncation,
                  tolerances: Tolerances = DEFAULT) -> SpectralSection:
    """Projection onto the nonnegative Fourier modes (the discrete Hardy
    space), i.e. the inclusive-at-zero positive projector of -i d/dx.

    -i d/dx is diagonal with the integer mode numbers on the diagonal, so
    the section is the coordinate selection of the modes k >= 0, in basis
    order: the last (K + 1) N basis indices, which the section holds as
    its index set (``SpectralSection.rows``), so no dim x rank frame is
    formed unless ``basis`` is read.  Its window is the one
    ``aps_projection`` gives at cutoff 0: the tolerance band plus half the
    distance to the modes +-1.
    """
    rank = (trunc.max_mode + 1) * trunc.bundle_rank
    atol = tolerances.cutoff_atol
    return SpectralSection._of_rows(
        np.arange(trunc.dim - rank, trunc.dim), trunc.dim,
        atol + 0.5 * (1.0 - atol), "hardy",
        rebuilder=lambda tr: hardy_section(tr, tolerances))


def dirac_aps_section(potential: SymbolFunction, trunc: FourierTruncation,
                      cutoff: float = 0.0, policy: str = "inclusive",
                      tolerances: Tolerances = DEFAULT) -> SpectralSection:
    """Positive-cutoff projector of -i d/dx + V with a rebuild recipe, so
    Toeplitz indices over it can run the two-truncation stability check."""
    section = aps_projection(build_dirac(potential, trunc, tolerances),
                             cutoff, policy=policy, tolerances=tolerances)
    return SpectralSection(
        section.basis, section.threshold_window, f"dirac-aps cutoff {cutoff:g}",
        rebuilder=lambda tr: dirac_aps_section(potential, tr, cutoff, policy,
                                               tolerances))


@dataclass(frozen=True)
class ToeplitzOperator:
    """Compression P M_g P written in an orthonormal basis of Im P, held
    as its band (2w + 1, rank) in the layout of ``TruncatedOperator.band``
    (``band[w + d, j] = T[j + d, j]``): written from the symbol's
    coefficients over a coordinate section (``hardy_section``), the band
    of the dense product B* M_g B over any other.  ``matrix`` builds the
    dense compression on demand."""

    band: np.ndarray
    section: SpectralSection
    symbol: SymbolFunction
    truncation: FourierTruncation

    @property
    def matrix(self) -> np.ndarray:
        """The dense compression, read-only and built anew per call."""
        m = _dense(self.band)
        m.setflags(write=False)
        return m

    @property
    def rank(self) -> int:
        return self.band.shape[-1]


def toeplitz_compress(section: SpectralSection, symbol: SymbolFunction,
                      trunc: FourierTruncation,
                      tolerances: Tolerances = DEFAULT) -> ToeplitzOperator:
    """Band of P M_g P on Im P for a pointwise-unitary symbol."""
    _single("toeplitz_compress", section)
    band = _compressions(section, [symbol], trunc, tolerances)[0]
    band.setflags(write=False)
    return ToeplitzOperator(band, section, symbol, trunc)


def _require_unitary(symbol: SymbolFunction, tolerances: Tolerances):
    """ValueError for a symbol whose unitarity defect exceeds
    ``unitary``."""
    defect = symbol.unitarity_defect
    if defect > tolerances.unitary:
        raise ValueError(f"symbol must be unitary-valued "
                         f"(defect {defect:.3e})")


def _compressions(section: SpectralSection, symbols,
                  trunc: FourierTruncation,
                  tolerances: Tolerances) -> np.ndarray:
    """The ``toeplitz_compress`` band of each symbol, as one stack
    (len(symbols), 2w + 1, rank); the first symbol whose unitarity defect
    exceeds ``unitary`` is refused."""
    for symbol in symbols:
        _require_unitary(symbol, tolerances)
    if section.dim != trunc.dim:
        raise ValueError("section dimension does not match truncation")
    if section.rows is not None:
        # B* M B of a coordinate selection B only multiplies by 0 and 1,
        # so it is the block of M on those rows, written from the
        # coefficients
        return _multiplication_bands(symbols, trunc, section.rows)
    mg = _dense(_multiplication_bands(symbols, trunc, np.arange(trunc.dim)))
    return _band_of(section.basis.conj().T @ mg @ section.basis)


# ---------------------------------------------------------------------------
# kernel/cokernel splitting at the truncation edge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallSubspaces:
    """Numerically-null data of a stack of Toeplitz compressions, split by
    localization, with a leading member axis on every field, as
    ``NullSplit`` has for a group: interior kernel and cokernel counts,
    edge artifacts, singular values and ``gap_ratio``, the rank split's
    smallest kept over largest dropped singular value (inf when nothing
    is dropped).  The lifted interior frames are stacks, or None where
    the members' counts differ.  ``toeplitz_small_subspaces`` gives the
    record of one compression, without the member axis."""

    kernel_interior: np.ndarray | None     # lifted, members x dim x n_k
    cokernel_interior: np.ndarray | None   # lifted, members x dim x n_c
    kernel_dim: np.ndarray
    cokernel_dim: np.ndarray
    edge_artifacts: np.ndarray
    singular_values: np.ndarray
    gap_ratio: np.ndarray


def toeplitz_small_subspaces(t: ToeplitzOperator,
                             tolerances: Tolerances = DEFAULT) -> SmallSubspaces:
    """The small subspaces of one compression: its stack of one, with
    ints, floats and arrays in place of the member axis."""
    sub = _small_subspaces(t.section, t.band[None], t.truncation,
                           tolerances)
    return SmallSubspaces(sub.kernel_interior[0], sub.cokernel_interior[0],
                          int(sub.kernel_dim[0]), int(sub.cokernel_dim[0]),
                          int(sub.edge_artifacts[0]), sub.singular_values[0],
                          float(sub.gap_ratio[0]))


def _small_subspaces(section: SpectralSection, bands: np.ndarray,
                     trunc: FourierTruncation,
                     tolerances: Tolerances) -> SmallSubspaces:
    """The small subspaces of every compression in a band stack (members,
    2w + 1, rank) over ``section``: one split per group of members of
    equal rank (``null_splits``) and one stacked ``_interior_split`` of
    their lifted kernels and of their cokernels.  Every member's fields
    are those of the same two steps on a stack of it alone."""
    count, interior = len(bands), trunc.interior()
    dims = np.zeros((3, count), dtype=int)   # interior kernel, cokernel, raw
    singular_values = np.empty((count, bands.shape[-1]))
    gap_ratio = np.empty(count)
    frames: list = [[], []]
    for members, split in null_splits(bands, tolerances, banded=True):
        singular_values[members] = split.singular_values
        gap_ratio[members] = split.gap_ratio
        dims[2, members] = split.kernel.shape[-1] + split.cokernel.shape[-1]
        for side, null in enumerate((split.kernel, split.cokernel)):
            counts, lifted = _interior_split(section.lift(null), interior,
                                             tolerances)
            dims[side, members] = counts
            frames[side].append((members, lifted))
    return SmallSubspaces(
        *(_gather(parts, count, section.dim) for parts in frames),
        dims[0], dims[1], dims[2] - dims[0] - dims[1], singular_values,
        gap_ratio)


def _gather(parts, count: int, dim: int) -> np.ndarray | None:
    """One stack of every member's frame from (members, frames) groups, or
    None when the frames' widths differ."""
    widths = {None if f is None else f.shape[-1] for _, f in parts}
    if len(widths) != 1 or None in widths:
        return None
    if len(parts) == 1:
        return parts[0][1]
    out = np.empty((count, dim, widths.pop()),
                   dtype=np.result_type(*(f for _, f in parts)))
    for members, f in parts:
        out[members] = f
    return out


def fredholm_index(t: ToeplitzOperator,
                   tolerances: Tolerances = DEFAULT) -> int:
    """dim ker - dim coker of the compression, counting only
    interior-localized null directions; recomputed at doubled truncation,
    over the section's rebuild recipe, and required to agree."""
    sub = _stable_subspaces(t.section, [t.symbol], t.band[None],
                            t.truncation, tolerances)
    return int(sub.kernel_dim[0] - sub.cokernel_dim[0])


def _stable_subspaces(section: SpectralSection, symbols, bands: np.ndarray,
                      trunc: FourierTruncation,
                      tolerances: Tolerances) -> SmallSubspaces:
    """``_small_subspaces`` of the compression bands ``bands`` of
    ``symbols`` over ``section`` at ``trunc``, once their compressions at
    doubled truncation, over the section's rebuild recipe, have shown the
    same index member by member (UnstableIndex at the first that
    differs)."""
    if section.rebuilder is None:
        raise UnstableIndex(
            "section carries no rebuild recipe, so the two-truncation "
            "stability contract cannot run; use hardy_section or "
            "dirac_aps_section")
    trunc2 = trunc.doubled()
    section2 = section.rebuilder(trunc2)
    sub = _small_subspaces(section, bands, trunc, tolerances)
    del bands   # the compressions at K are not held through those at 2K
    sub2 = _small_subspaces(
        section2, _compressions(section2, symbols, trunc2, tolerances),
        trunc2, tolerances)
    index, index2 = (s.kernel_dim - s.cokernel_dim for s in (sub, sub2))
    bad = np.flatnonzero(index != index2)
    if bad.size:
        raise UnstableIndex(
            f"index {index[bad[0]]} at K={trunc.max_mode} but "
            f"{index2[bad[0]]} at K={trunc2.max_mode}")
    return sub


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindingData:
    winding: int
    raw_integral: float
    grid: int


def winding(symbol: SymbolFunction,
            tolerances: Tolerances = DEFAULT) -> WindingData:
    """Degree of det g : S^1 -> U(1) via the trapezoid integral of
    tr(g^{-1} g') / (2 pi i) on ``winding_grid`` points."""
    grid = tolerances.winding_grid
    if grid < 64:
        raise ValueError("winding needs at least 64 sample points")
    _require_unitary(symbol, tolerances)
    xs = 2 * np.pi * np.arange(grid) / grid
    g = symbol.evaluate(xs)
    dg = symbol.derivative().evaluate(xs)
    ginv = np.conj(np.swapaxes(g, -1, -2))
    integrand = np.trace(ginv @ dg, axis1=-2, axis2=-1)
    raw = complex(integrand.sum()) / (1j * grid)
    nearest = int(np.round(raw.real))
    if abs(raw.real - nearest) > tolerances.winding_ambiguity:
        raise RoundingAmbiguous(
            f"winding integral {raw.real:.6f} is {abs(raw.real - nearest):.3f} "
            f"from the nearest integer")
    return WindingData(winding=nearest, raw_integral=float(raw.real), grid=grid)


# ---------------------------------------------------------------------------
# odd Chern cochains over a base grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OddChernCochain:
    degree: int
    values: Mapping[tuple, float]
    total: float


def _family_values(g_family, base: BaseGrid) -> list:
    """The symbols of a family, a map or a callable from vertex to
    symbol, in the order of ``base.vertices``."""
    if callable(g_family):
        return [g_family(v) for v in base.vertices]
    return [g_family[v] for v in base.vertices]


def odd_chern_integral(g_family, base: BaseGrid, n: int,
                       tolerances: Tolerances = DEFAULT) -> OddChernCochain:
    """Discrete Chern-character cochain of the Toeplitz index bundle of a
    unitary symbol family.

    n = 0: the 0-cochain vertex -> -winding(g_v); checked locally constant.
    n = 1 (torus base): per-plaquette numbers built from the degree-three
    trace form of g^{-1} dg, base derivatives taken spectrally over the
    periodic grid, normalized by the frozen constant so the total over the
    closed base is the first Chern number of the index bundle.  Every
    symbol must pass the ``unitary`` guard, as in ``winding``, so each
    value g is inverted by its adjoint g*.
    """
    symbols = _family_values(g_family, base)
    if n == 0:
        values = {v: float(-winding(s, tolerances=tolerances).winding)
                  for v, s in zip(base.vertices, symbols)}
        for a, b in base.edges:
            if values[a] != values[b]:
                raise GridResolutionError(
                    f"degree-0 cochain jumps across edge {a} -> {b}")
        return OddChernCochain(0, values, float(sum(values.values())))
    if n != 1:
        raise ValueError("only degrees 0 and 1 are implemented")
    if not base.is_torus:
        raise ValueError("the degree-1 cochain needs a torus base")
    for symbol in symbols:
        _require_unitary(symbol, tolerances)

    # every array is rank-first, (rank, rank, m, m, fiber): each small
    # product is an einsum over the rank axes of contiguous base x fiber
    # blocks, taken over ``_FIBER_BLOCK`` fiber points at a time
    m = base.size
    rank = symbols[0].rank
    modes = sorted({k for s in symbols for k in s.coefficients})
    column = {k: col for col, k in enumerate(modes)}
    coeffs = np.zeros((rank, rank, len(symbols), len(modes)), dtype=complex)
    for p, s in enumerate(symbols):
        for k, c in s.coefficients.items():
            coeffs[:, :, p, column[k]] = c
    # base.vertices run over (i, j) row by row
    coeffs = coeffs.reshape(rank, rank, m, m, len(modes))
    xs = 2 * np.pi * np.arange(_FIBER_GRID) / _FIBER_GRID
    freq = 1j * np.fft.fftfreq(m, d=1.0 / m)

    def product(x, y):
        return np.einsum("ab...,bc...->ac...", x, y)

    density = np.zeros((m, m), dtype=complex)
    for start in range(0, _FIBER_GRID, _FIBER_BLOCK):
        waves = np.exp(1j * np.multiply.outer(
            modes, xs[start:start + _FIBER_BLOCK]))
        g = coeffs @ waves
        dxg = (coeffs * (1j * np.array(modes))) @ waves
        d1g = np.fft.ifft(freq[:, None, None] * np.fft.fft(g, axis=2),
                          axis=2)
        d2g = np.fft.ifft(freq[:, None] * np.fft.fft(g, axis=3), axis=3)
        # einsum runs several times slower on the strided view of g*
        ginv = np.ascontiguousarray(np.swapaxes(g, 0, 1)).conj()
        b1 = product(ginv, d1g)
        b2 = product(ginv, d2g)
        density += np.einsum("ab...,ba...->...", product(ginv, dxg),
                             product(b1, b2) - product(b2, b1)).sum(axis=-1)
    density = 0.5 * density.real * (2 * np.pi / _FIBER_GRID)

    h = 2 * np.pi / m
    plaquettes = density.reshape(-1)[base.plaquette_index].mean(axis=1)
    values = dict(zip(base.plaquettes,
                      (CH1_NORMALIZATION * plaquettes * h * h).tolist()))
    total = float(sum(values.values()))
    if abs(total - round(total)) > tolerances.chern_integer_guard:
        raise GridResolutionError(
            f"degree-1 cochain total {total:.4f} is not near an integer; "
            f"refine the base grid")
    # a 2-cochain on a closed surface has no 3-cells, so its discrete
    # exterior derivative vanishes identically; nothing further to check
    return OddChernCochain(1, values, total)
