"""Index of the loop operator d/du + D_u on a twisted two-torus.

A loop of circle operators D_u, glued at u = 1 by a unitary multiplier g
(D_1 = g D_0 g^{-1}), defines a first-order operator on sections over the
torus whose index equals the spectral flow of the open path.  The
u-derivative is discretized by the two-point Cayley (Crank-Nicolson)
stencil on midpoints, which couples only neighboring u-slices and has no
spurious doubler modes; the twist enters once, on the wrap-around row,
through the truncated multiplication matrix of g.

At finite mode truncation the square discretization forces raw kernel and
cokernel counts to coincide, exactly as for Toeplitz compressions; genuine
null states of the flux problem concentrate on interior Fourier modes
while the gluing artifacts live at the mode edges, so the index counts
only interior-localized small singular directions of A and A*.  Those
directions come from one path at every size: seeded block inverse
iteration on the sparse A*A and A A*.  Doubling both grid parameters must
leave the counts unchanged (mandatory check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT, Tolerances
from .errors import (DoublingDetected, GluingInconsistent,
                     IllConditioned)
from .flow import OperatorCurve
from .operators import (FourierTruncation, SymbolFunction,
                        build_multiplication, eigvalsh,
                        gauge_transformed_potential, interior_directions,
                        split_rank)


@dataclass(frozen=True)
class TwistedLoopSpec:
    """Open operator path plus the unitary gluing that closes it.

    The identity gluing recovers a literally periodic loop D_0 = D_1; a
    nontrivial g is the twisted extension that produces nonzero flux
    examples.  Consistency D_1 = g D_0 g^{-1} is checked at the symbol
    level, where it is exact (the truncated matrices differ at the mode
    edges by construction).
    """

    path: OperatorCurve
    glue: SymbolFunction | None = None
    gluing_atol: float = 1e-9

    def __post_init__(self):
        if self.path.potentials is None:
            raise ValueError("the loop path must be potential-backed so the "
                             "gluing identity can be verified")
        g = self.glue
        if g is not None:
            defect = g.unitarity_defect()
            if defect > 1e-10:
                raise ValueError(f"gluing symbol must be unitary "
                                 f"(defect {defect:.3e})")
            expected = gauge_transformed_potential(g, self.path.potentials[0])
        else:
            expected = self.path.potentials[0]
        diff = expected - self.path.potentials[-1]
        worst = max((float(np.abs(c).max()) for c in diff.coefficients.values()),
                    default=0.0)
        if worst > self.gluing_atol:
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


def build_mapping_torus(spec: TwistedLoopSpec, m_u: int) -> MappingTorusOperator:
    """Assemble the Cayley-stencil discretization on m_u slices.

    The path is affine between its samples and ``||D(s)||_2`` is convex on
    an affine segment, so the largest sample norm bounds every midpoint
    slice in ``sigma_max_bound``.
    """
    if m_u < 8:
        raise ValueError("need at least 8 u-slices")
    trunc = spec.truncation
    dim = trunc.dim
    h = 1.0 / m_u
    eye = np.eye(dim)
    g = spec.glue_matrix()
    blocks = [[None] * m_u for _ in range(m_u)]
    dnorm = max(float(np.abs(eigvalsh(op)).max())
                for op in spec.path.operators)
    for j in range(m_u):
        d_mid = spec.path.at((j + 0.5) * h).matrix
        left = -eye / h + 0.5 * d_mid
        right = eye / h + 0.5 * d_mid
        blocks[j][j] = left
        if j + 1 < m_u:
            blocks[j][j + 1] = right
        else:
            blocks[j][0] = right @ g
    a = sp.bmat(blocks, format="csc")
    return MappingTorusOperator(a, spec, m_u, trunc,
                                sigma_max_bound=2.0 / h + dnorm + 1.0)


def _smallest_block(mat, k: int, scale: float, cut: float):
    """Smallest k eigenpairs of a sparse PSD matrix by seeded block
    inverse iteration (block methods resolve degenerate clusters, which
    single-vector Lanczos misses with a fixed start).

    Convergence is judged on the Ritz values a rank decision at ``cut``
    reads: every value below it and the first one above it.  The values
    above those are never read, and in inverse iteration they are the
    slowest to settle.
    """
    n = mat.shape[0]
    shift = 1e-12 * scale + 1e-300
    lu = spla.splu((mat + shift * sp.identity(n, format="csc",
                                              dtype=complex)).tocsc())
    rng = np.random.default_rng(1234567)
    x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    x, _ = np.linalg.qr(x)
    previous = None
    for _ in range(60):
        x, _ = np.linalg.qr(lu.solve(x))
        small = x.conj().T @ (mat @ x)
        vals, rot = np.linalg.eigh(0.5 * (small + small.conj().T))
        read = min(int(np.count_nonzero(vals < cut)) + 1, len(vals))
        if previous is not None and np.all(
                np.abs(vals[:read] - previous[:read])
                <= 1e-10 * scale + 1e-10 * np.abs(vals[:read])):
            break
        previous = vals
    else:
        raise IllConditioned("block inverse iteration did not converge")
    return np.maximum(vals, 0.0), x @ rot


def _small_singular_vectors(op: MappingTorusOperator, threshold: float,
                            k_seek: int = 8):
    """Right and left singular vectors with singular value below the
    threshold, plus the first retained singular value."""
    a = op.matrix
    scale = op.sigma_max_bound ** 2

    def smallest(mat, k):
        vals, vecs = _smallest_block(mat.tocsc(), k, scale, threshold ** 2)
        return np.sqrt(vals), vecs

    k = k_seek
    while True:
        s_r, v_r = smallest(a.getH() @ a, k)
        if s_r[-1] >= threshold or k >= 64:
            break
        k *= 2
    ns = int(np.count_nonzero(s_r < threshold))
    if ns >= k:
        raise IllConditioned("could not isolate the small singular "
                             "spectrum within the search budget")
    s_l, v_l = smallest(a @ a.getH(), max(ns + 2, 4))
    nl = int(np.count_nonzero(s_l < threshold))
    if nl != ns:
        raise IllConditioned(f"two-sided small-singular counts differ "
                             f"({ns} vs {nl}); threshold sits in the spectrum")
    return v_r[:, :ns], v_l[:, :ns], s_r[:ns], s_r[ns] if ns < len(s_r) else np.inf


def index(op: MappingTorusOperator, tol: float | None = None,
          check_stability: bool = True,
          tolerances: Tolerances = DEFAULT) -> int:
    """dim ker A - dim ker A* restricted to interior-localized directions.

    Requires a clean gap (configured factor) between the numerically-zero
    singular values and the rest; with ``check_stability`` the count is
    recomputed at doubled m_u and doubled truncation and must not change.
    """
    tol = tolerances.mapping_torus_rank_rtol if tol is None else tol
    threshold = tol * op.sigma_max_bound
    right, left, s_small, s_next = _small_singular_vectors(op, threshold)
    split_rank(np.concatenate([[s_next], s_small[::-1]]), threshold,
               tolerances)
    interior = np.tile(op.truncation.interior(), op.m_u)
    gk = interior_directions(right, interior, tolerances).shape[1]
    gc = interior_directions(left, interior, tolerances).shape[1]
    value = gk - gc

    if check_stability:
        for label, finer in (("m_u", _with_doubled_mu(op)),
                             ("truncation", _with_doubled_truncation(op))):
            other = index(finer, tol, check_stability=False,
                          tolerances=tolerances)
            if other != value:
                raise DoublingDetected(
                    f"index changed from {value} to {other} when doubling "
                    f"{label}; the discretization has spurious modes")
    return value


def _with_doubled_mu(op: MappingTorusOperator) -> MappingTorusOperator:
    return build_mapping_torus(op.spec, 2 * op.m_u)


def _with_doubled_truncation(op: MappingTorusOperator) -> MappingTorusOperator:
    trunc2 = op.truncation.doubled()
    path = op.spec.path
    curve2 = OperatorCurve.from_potentials(path.ts, path.potentials, trunc2)
    spec2 = TwistedLoopSpec(curve2, op.spec.glue, op.spec.gluing_atol)
    return build_mapping_torus(spec2, op.m_u)
