"""Index of the loop operator d/du + D_u on a twisted two-torus.

A loop of circle operators D_u, glued at u = 1 by a unitary multiplier g
(D_1 = g D_0 g^{-1}), defines a first-order operator on sections over the
torus whose index equals the spectral flow of the open path.  The
u-derivative is discretized by the two-point Cayley (Crank-Nicolson)
stencil on midpoints, which couples only neighboring u-slices and has no
spurious doubler modes; the twist enters once, on the wrap-around row,
through the truncated multiplication matrix of g.  The stencil is
assembled in one sparse pass: every slice is read on the nonzero pattern
of the path's sample bands, so no slice is formed as a dense matrix except
the wrap row's.

At finite mode truncation the square discretization forces raw kernel and
cokernel counts to coincide, exactly as for Toeplitz compressions; genuine
null states of the flux problem concentrate on interior Fourier modes
while the gluing artifacts live at the mode edges, so the index counts
only interior-localized small singular directions of A and A*.  Those
directions come from one path at every size, which the band route of
``operators.null_split`` shares: seeded block inverse iteration on the
sparse A*A and A A*.  The small singular values are the
residual norms ||A v|| and ||A* u|| of its Ritz vectors.  A loop whose
samples and gluing matrix are real (every constant-shift path with an
``e^{inx}`` gluing, for one) has a real A, and it is iterated in real
arithmetic.  Doubling both grid parameters must leave the counts
unchanged (mandatory check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .config import DEFAULT, Tolerances
from .errors import DoublingDetected, GluingInconsistent
from .flow import OperatorCurve
from .operators import (FourierTruncation, SymbolFunction, _band_eigvalsh,
                        _non_hermitian_band, build_multiplication,
                        gauge_transformed_potential, interior_directions,
                        small_singular_vectors, split_rank)

#: Largest coefficient of the endpoint potential minus the glued one.
GLUING_ATOL = 1e-9


@dataclass(frozen=True)
class TwistedLoopSpec:
    """Open operator path plus the unitary gluing that closes it.

    The identity gluing recovers a literally periodic loop D_0 = D_1; a
    nontrivial g is the twisted extension that produces nonzero flux
    examples.  Consistency D_1 = g D_0 g^{-1} is checked at the symbol
    level, where it is exact (the truncated matrices differ at the mode
    edges by construction), so a path built from matrices is refused.
    The gluing symbol must be unitary within the ``unitary`` guard of the
    record it was built with.
    """

    path: OperatorCurve
    glue: SymbolFunction | None = None

    def __post_init__(self):
        if self.path.potentials is None:
            raise ValueError("the loop path must be potential-backed so the "
                             "gluing identity can be verified")
        g = self.glue
        if g is not None:
            defect = g.unitarity_defect
            if defect > g.tolerances.unitary:
                raise ValueError(f"gluing symbol must be unitary "
                                 f"(defect {defect:.3e})")
            expected = gauge_transformed_potential(g, self.path.potentials[0])
        else:
            expected = self.path.potentials[0]
        diff = expected - self.path.potentials[-1]
        worst = max((float(np.abs(c).max()) for c in diff.coefficients.values()),
                    default=0.0)
        if worst > GLUING_ATOL:
            raise GluingInconsistent(
                f"endpoint potential differs from the glued one by {worst:.3e}")

    @property
    def truncation(self) -> FourierTruncation:
        return self.path.truncation

    def glue_matrix(self) -> np.ndarray:
        if self.glue is None:
            return np.eye(self.truncation.dim, dtype=complex)
        return build_multiplication(self.glue, self.truncation)


@dataclass(frozen=True)
class MappingTorusOperator:
    """Discretized A = d/du + D_u on twisted sections; the full loop
    operator is the Hermitian block matrix [[0, A], [A*, 0]]."""

    matrix: sp.csc_matrix
    spec: TwistedLoopSpec = field(compare=False)
    m_u: int
    truncation: FourierTruncation
    sigma_max_bound: float

    @property
    def shape(self):
        return self.matrix.shape


def build_mapping_torus(spec: TwistedLoopSpec, m_u: int,
                        tolerances: Tolerances = DEFAULT
                        ) -> MappingTorusOperator:
    """Assemble the Cayley-stencil discretization on m_u slices.

    Slice j is the path at its midpoint u_j = (j + 1/2) / m_u, formed as
    its band by the path's own interpolation (``_bands``, the rule of
    ``OperatorCurve.at`` between samples), all slices in one
    ``(m_u, 2b + 1, dim)`` stack.  Each slice must be Hermitian by the
    ``TruncatedOperator`` test (``_non_hermitian_band``) at the given
    ``hermitian_max``.  The slices are then read on the nonzero pattern
    of the sample bands ``path.samples`` (its union over the samples, made
    symmetric, plus the diagonal, in row-major order).  Row j holds
    ``-I/h + D_j/2`` on the diagonal block and ``I/h + D_j/2`` on block
    j + 1; the wrap row's second block is multiplied by the gluing matrix.
    Exact zeros are dropped, as a dense-to-sparse conversion would.

    The path is affine between its samples and ``||D(s)||_2`` is convex on
    an affine segment, so the largest sample norm, from one ``eigvalsh``
    of the band stack, bounds every midpoint slice in ``sigma_max_bound``.
    """
    if m_u < 8:
        raise ValueError("need at least 8 u-slices")
    trunc = spec.truncation
    dim = trunc.dim
    h = 1.0 / m_u
    path = spec.path
    width = path.samples.shape[-2] // 2
    # band entry (width + d, j) is matrix entry (j + d, j)
    offset, cols = np.nonzero((path.samples != 0).any(axis=0))
    rows = cols + offset - width
    keys = np.union1d(np.concatenate([rows * dim + cols, cols * dim + rows]),
                      np.arange(dim) * (dim + 1))
    rows, cols = np.divmod(keys, dim)

    bands = path._bands((np.arange(m_u) + 0.5) * h)
    bad = _non_hermitian_band(bands, tolerances)
    if bad is not None:
        raise ValueError(f"u-slice {bad[0]} is not Hermitian: "
                         f"defect {bad[1]:.3e}")
    d_mid = bands[:, width + rows - cols, cols]

    eye = (rows == cols).astype(float)
    left = -eye / h + 0.5 * d_mid
    right = eye / h + 0.5 * d_mid
    last = np.zeros((dim, dim), dtype=complex)
    last[rows, cols] = right[-1]
    wrap = last @ spec.glue_matrix()
    wrap_rows, wrap_cols = np.nonzero(wrap)

    base = dim * np.arange(m_u)[:, None]
    keep_l = left != 0
    keep_r = right[:-1] != 0
    row_idx = np.concatenate([(base + rows)[keep_l],
                              (base[:-1] + rows)[keep_r],
                              base[-1] + wrap_rows])
    col_idx = np.concatenate([(base + cols)[keep_l],
                              (base[1:] + cols)[keep_r], wrap_cols])
    data = np.concatenate([left[keep_l], right[:-1][keep_r],
                           wrap[wrap_rows, wrap_cols]])
    a = sp.coo_matrix((data, (row_idx, col_idx)),
                      shape=(m_u * dim, m_u * dim)).tocsc()
    dnorm = float(np.abs(_band_eigvalsh(path.samples)).max())
    return MappingTorusOperator(a, spec, m_u, trunc,
                                sigma_max_bound=2.0 / h + dnorm + 1.0)


def _small_singular_vectors(op: MappingTorusOperator, threshold: float):
    """``small_singular_vectors`` of A below the threshold, with the norm
    bound squared as its scale and a first block of 8 vectors."""
    return small_singular_vectors(op.matrix, threshold,
                                  op.sigma_max_bound ** 2, 8)


def index(op: MappingTorusOperator,
          tolerances: Tolerances = DEFAULT) -> int:
    """dim ker A - dim ker A* restricted to interior-localized directions.

    Requires a clean gap (configured factor) between the numerically-zero
    singular values and the rest; the count is recomputed, with the given
    tolerances, at doubled m_u and at doubled truncation, on the path
    rebuilt from its potentials (``_doubled``), and must not change.
    """
    value = _interior_index(op, tolerances)
    spec = op.spec
    for label, finer in (
            ("m_u", build_mapping_torus(spec, 2 * op.m_u, tolerances)),
            ("truncation", build_mapping_torus(
                TwistedLoopSpec(spec.path._doubled(tolerances), spec.glue),
                op.m_u, tolerances))):
        other = _interior_index(finer, tolerances)
        if other != value:
            raise DoublingDetected(
                f"index changed from {value} to {other} when doubling "
                f"{label}; the discretization has spurious modes")
    return value


def _interior_index(op: MappingTorusOperator, tolerances: Tolerances) -> int:
    """The count of ``index`` at the operator's own grid, with the gap
    check at ``mapping_torus_rank_rtol`` times the norm bound."""
    threshold = tolerances.mapping_torus_rank_rtol * op.sigma_max_bound
    right, left, s_small, s_next = _small_singular_vectors(op, threshold)
    split_rank(np.concatenate([[s_next], s_small[::-1]]), threshold,
               tolerances)
    interior = np.tile(op.truncation.interior(), op.m_u)
    gk = interior_directions(right, interior, tolerances).shape[1]
    gc = interior_directions(left, interior, tolerances).shape[1]
    return gk - gc
