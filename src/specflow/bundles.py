"""Index bundles over discretized bases.

Projector families model subbundles of the trivial bundle over a loop or
torus grid; a numeric K-class is a formal difference of two such families
with cached Chern data.  The first Chern number uses the plaquette
link-variable method: the phase of the product of frame-overlap
determinants around each plaquette, summed and divided by 2 pi, is an
integer by construction.  The plaquette circulation of ``BaseGrid`` is
oriented so that the reference two-band wrap

    q(b) = (1 + n . sigma) / 2,   n = normalize(sin b1, sin b2,
                                                1 - cos b1 - cos b2)

has Chern number +1; the complementary projector then has -1.

Rank jumps are errors, not stabilization triggers: a family whose
pointwise kernel dimension varies must be perturbed by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.linalg

from .basegrid import BaseGrid
from .config import DEFAULT, Tolerances
from .errors import (InvalidSection, RankJump, SingularOverlap,
                     UnstableIndex)
from .flow import (OperatorCurve, Partition, SpectralSection, _brackets,
                   _gram_defect, _SpectrumCache, _validate_section,
                   aps_projection, comparison_map, gap_partition)
from .operators import (FourierTruncation, SymbolFunction, TruncatedOperator,
                        null_split)
from .toeplitz import _doubling_checked, hardy_section, toeplitz_compress


# ---------------------------------------------------------------------------
# operator and projector families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorFamily:
    """Map from base vertices to truncated operators (shared truncation)."""

    base: BaseGrid
    operators: Mapping[tuple, TruncatedOperator]

    def __post_init__(self):
        ops = {v: self.operators[v] for v in self.base.vertices}
        truncs = {op.truncation for op in ops.values()}
        if len(truncs) != 1:
            raise ValueError("family members must share one truncation")
        object.__setattr__(self, "operators", ops)

    @property
    def truncation(self) -> FourierTruncation:
        return next(iter(self.operators.values())).truncation

    def __getitem__(self, vertex) -> TruncatedOperator:
        return self.operators[vertex]


class ProjectorFamily:
    """Constant-rank family of orthogonal projectors over a base grid, held
    as one orthonormal frame (dim x rank) per vertex.

    Validation works on the frames: ``||F* F - I||_2`` is the idempotency
    defect of ``F F*``, and across an edge ``||P_a - P_b||_2`` is the sine
    of the largest principal angle between the two ranges.
    """

    def __init__(self, base: BaseGrid, frames: Mapping[tuple, np.ndarray],
                 tolerances: Tolerances = DEFAULT):
        self.base = base
        self._frames = {v: np.asarray(frames[v], dtype=complex)
                        for v in base.vertices}
        if any(f.ndim != 2 for f in self._frames.values()):
            raise ValueError("a frame must be a dim x rank matrix")
        ranks = {v: f.shape[1] for v, f in self._frames.items()}
        self.rank = ranks[base.vertices[0]]
        if any(r != self.rank for r in ranks.values()):
            bad = sorted(v for v, r in ranks.items() if r != self.rank)
            raise RankJump(f"frame rank varies over the base: e.g. at "
                           f"{bad[:4]} (got {sorted(set(ranks.values()))}); "
                           f"perturb the family")
        if self.rank:
            self._validate(tolerances)

    @classmethod
    def from_projectors(cls, base: BaseGrid,
                        projectors: Mapping[tuple, np.ndarray],
                        tolerances: Tolerances = DEFAULT) -> "ProjectorFamily":
        """Family of Hermitian projector matrices, one per vertex, framed by
        the eigenvectors of eigenvalue one.  For Hermitian P the eigenvalues
        w give ``||P^2 - P||_2 = max |w^2 - w|`` exactly."""
        frames = {}
        for v in base.vertices:
            p = np.asarray(projectors[v], dtype=complex)
            if np.linalg.norm(p - p.conj().T, 2) > tolerances.projector_hermitian:
                raise InvalidSection(f"family member at {v} is not Hermitian")
            w, vecs = np.linalg.eigh(p)
            if np.abs(w * w - w).max() > tolerances.projector_idempotent:
                raise InvalidSection(f"family member at {v} is not a projector")
            frames[v] = vecs[:, w > 0.5]
        return cls(base, frames, tolerances)

    @classmethod
    def empty(cls, base: BaseGrid, dim: int) -> "ProjectorFamily":
        return cls(base, {v: np.zeros((dim, 0)) for v in base.vertices})

    @property
    def dim(self) -> int:
        return self._frames[self.base.vertices[0]].shape[0]

    def _validate(self, tolerances: Tolerances):
        vertices = self.base.vertices
        stack = np.stack([self._frames[v] for v in vertices])
        defects = _gram_defect(stack)
        bad = np.flatnonzero(defects > tolerances.projector_idempotent)
        if bad.size:
            raise InvalidSection(
                f"frame at {vertices[bad[0]]} is not orthonormal (Gram defect "
                f"{defects[bad[0]]:.2e}), so its projector is not idempotent")
        at = {v: i for i, v in enumerate(vertices)}
        edges = self.base.edges
        steps = _projector_steps(stack[[at[a] for a, _ in edges]],
                                 stack[[at[b] for _, b in edges]])
        bad = np.flatnonzero(steps >= tolerances.neighbor_continuity)
        if bad.size:
            (a, b), step = edges[bad[0]], steps[bad[0]]
            raise InvalidSection(
                f"projector family moves by {step:.3f} across edge "
                f"{a} -> {b}; refine the base grid")

    def frame(self, vertex) -> np.ndarray:
        """Orthonormal basis of the range at a vertex."""
        return self._frames[vertex]

    def direct_sum(self, other: "ProjectorFamily") -> "ProjectorFamily":
        if other.base != self.base:
            raise ValueError("direct sum needs a common base")
        return ProjectorFamily(self.base, {
            v: scipy.linalg.block_diag(self._frames[v], other._frames[v])
            for v in self.base.vertices})


def _projector_steps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``||A A* - B B*||_2`` for stacks of orthonormal frames of equal rank
    (..., dim, rank): the sine of the largest principal angle,
    ``sqrt(1 - sigma_min(A* B)^2)``."""
    overlaps = np.swapaxes(a.conj(), -1, -2) @ b
    s_min = np.linalg.svd(overlaps, compute_uv=False)[..., -1]
    return np.sqrt(np.maximum(1.0 - s_min * s_min, 0.0))


# ---------------------------------------------------------------------------
# kernel bundles and Chern numbers
# ---------------------------------------------------------------------------

def kernel_bundle(base: BaseGrid, matrices: Mapping[tuple, np.ndarray],
                  tolerances: Tolerances = DEFAULT) -> ProjectorFamily:
    """Orthogonal projector onto the numerical kernel (``null_split`` at
    ``rank_rtol``) at each vertex.

    The kernel dimension must be constant (RankJump otherwise) and the
    singular spectrum must split by the configured gap factor at every
    vertex (IllConditioned otherwise).
    """
    frames = {v: null_split(np.asarray(matrices[v], dtype=complex),
                            tolerances).kernel
              for v in base.vertices}
    return ProjectorFamily(base, frames, tolerances)


def chern_number(family: ProjectorFamily,
                 tolerances: Tolerances = DEFAULT) -> int:
    """Plaquette link-variable Chern number of a projector family on the
    torus: sum of overlap-determinant phases around plaquettes over 2 pi."""
    if not family.base.is_torus:
        raise ValueError("Chern numbers are defined on torus bases only")
    if family.base.size < 8:
        raise ValueError("plaquette method needs a grid of at least 8 x 8")
    if family.rank == 0:
        return 0
    frames = {v: family.frame(v) for v in family.base.vertices}
    total = 0.0
    for p in family.base.plaquettes:
        # traverse clockwise in (b1, b2) so the reference wrap lands on +1
        corners = list(reversed(family.base.plaquette_corners(p)))
        u = 1.0 + 0.0j
        for a, b in zip(corners, corners[1:] + corners[:1]):
            det = np.linalg.det(frames[a].conj().T @ frames[b])
            if abs(det) < tolerances.overlap_min_det:
                raise SingularOverlap(
                    f"overlap determinant {abs(det):.2e} across {a} -> {b}; "
                    f"the base grid is too coarse")
            u *= det
        total += float(np.angle(u))
    c = total / (2 * np.pi)
    if abs(c - round(c)) > 1e-6:
        raise AssertionError(f"plaquette sum {c} is not an integer")
    return int(round(c))


# ---------------------------------------------------------------------------
# numeric K-classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KClassNumeric:
    """Formal difference of projector families with cached Chern data."""

    base: BaseGrid
    positive: ProjectorFamily
    negative: ProjectorFamily
    ch0: int
    ch1: int | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        rank = self.positive.rank - self.negative.rank
        if self.ch0 != rank:
            raise ValueError(f"ch0 {self.ch0} does not match rank "
                             f"difference {rank}")

    def equivalent(self, other: "KClassNumeric") -> bool:
        """Class equality at the implemented invariants: the virtual rank
        ``ch0`` plus the first Chern number on torus bases.  Torsion is
        invisible to this test."""
        if self.base != other.base or self.ch0 != other.ch0:
            return False
        return not self.base.is_torus or self.ch1 == other.ch1


def _class_from_parts(base: BaseGrid, positive: ProjectorFamily,
                      negative: ProjectorFamily, tolerances: Tolerances,
                      meta: dict) -> KClassNumeric:
    ch1 = None
    if base.is_torus:
        ch1 = ((chern_number(positive, tolerances) if positive.rank else 0)
               - (chern_number(negative, tolerances) if negative.rank else 0))
    return KClassNumeric(base=base, positive=positive, negative=negative,
                         ch0=positive.rank - negative.rank, ch1=ch1,
                         meta=meta)


# ---------------------------------------------------------------------------
# Toeplitz family index
# ---------------------------------------------------------------------------

def toeplitz_family_index(g_family, base: BaseGrid, trunc: FourierTruncation,
                          tolerances: Tolerances = DEFAULT) -> KClassNumeric:
    """Index bundle of the Toeplitz family over the Hardy sections.

    positive part = kernel bundle, negative part = cokernel bundle of the
    compressed family (interior-localized null directions only); ch0 is
    the constant pointwise index and ch1 comes from the plaquette method
    on torus bases.  Every vertex is re-checked at doubled truncation.
    """
    fam = {v: (g_family(v) if callable(g_family) else g_family[v])
           for v in base.vertices}
    trunc2 = trunc.doubled()
    section = hardy_section(trunc, tolerances)
    section2 = hardy_section(trunc2, tolerances)

    ker_bases, cok_bases, indices = {}, {}, {}
    for v in base.vertices:
        sub = _doubling_checked(
            toeplitz_compress(section, fam[v], trunc, tolerances),
            toeplitz_compress(section2, fam[v], trunc2, tolerances),
            tolerances)
        indices[v] = sub.kernel_dim - sub.cokernel_dim
        ker_bases[v] = sub.kernel_interior
        cok_bases[v] = sub.cokernel_interior
    first = indices[base.vertices[0]]
    if any(i != first for i in indices.values()):
        raise RankJump(f"pointwise Toeplitz index is not constant: "
                       f"{sorted(set(indices.values()))}")

    out = _class_from_parts(base, ProjectorFamily(base, ker_bases, tolerances),
                            ProjectorFamily(base, cok_bases, tolerances),
                            tolerances, meta={"pointwise_index": first})
    assert out.ch0 == first
    return out


# ---------------------------------------------------------------------------
# higher spectral flow of a curve of families
# ---------------------------------------------------------------------------

class CurveOfFamilies:
    """A curve u -> operator family, stored as one operator curve per
    vertex over a common sample grid and truncation."""

    def __init__(self, base: BaseGrid, curves: Mapping[tuple, OperatorCurve]):
        self.base = base
        self.curves = {v: curves[v] for v in base.vertices}
        truncs = {c.truncation for c in self.curves.values()}
        if len(truncs) != 1:
            raise ValueError("vertex curves must share one truncation")
        t0 = self.curves[base.vertices[0]].ts
        for c in self.curves.values():
            if len(c.ts) != len(t0) or np.any(np.abs(c.ts - t0) > 1e-12):
                raise ValueError("vertex curves must share the sample grid")

    @classmethod
    def from_potentials(cls, base: BaseGrid, potential_fn, ts,
                        trunc: FourierTruncation) -> "CurveOfFamilies":
        """potential_fn(vertex, t) -> Hermitian SymbolFunction."""
        curves = {}
        for v in base.vertices:
            pots = [potential_fn(v, float(t)) for t in ts]
            curves[v] = OperatorCurve.from_potentials(ts, pots, trunc)
        return cls(base, curves)

    @property
    def truncation(self) -> FourierTruncation:
        return self.curves[self.base.vertices[0]].truncation

    @property
    def ts(self):
        return self.curves[self.base.vertices[0]].ts

    def family_at(self, t: float) -> OperatorFamily:
        return OperatorFamily(self.base,
                              {v: c.at(t) for v, c in self.curves.items()})


def _common_partition(curve_fam: CurveOfFamilies, tolerances: Tolerances,
                      caches: Mapping[tuple, _SpectrumCache]) -> Partition:
    """Gap partition certified simultaneously for every vertex, with
    levels whose eigenvalue counts agree across the base (so transported
    projectors have constant rank)."""

    class _PerVertex:
        def __call__(self, t):
            return [caches[v](t) for v in curve_fam.base.vertices]

        def lipschitz(self, u, v, safety):
            return max(caches[w].lipschitz(u, v, safety)
                       for w in curve_fam.base.vertices)

    anchor = curve_fam.curves[curve_fam.base.vertices[0]]
    return gap_partition(anchor, tolerances, _cache=_PerVertex())


def higher_spectral_flow(curve_fam: CurveOfFamilies,
                         q0: Mapping[tuple, SpectralSection],
                         q1: Mapping[tuple, SpectralSection],
                         tolerances: Tolerances = DEFAULT) -> KClassNumeric:
    """K-class of a curve of operator families between endpoint section
    families.

    A single partition with per-interval levels is certified across the
    whole base; the class is the sum over the brackets of ``flow`` of the
    kernel bundle minus the cokernel bundle of each bracket's comparison
    maps, and ch0 is checked to be the constant pointwise flow.  Each
    vertex operator is diagonalized at most once, and its
    eigendecomposition is dropped once the brackets at its breakpoint are
    built.
    """
    base = curve_fam.base
    caches = {v: _SpectrumCache(curve_fam.curves[v], tolerances)
              for v in base.vertices}
    for v in base.vertices:
        _validate_section(caches[v].decomposition(0.0), q0[v], tolerances)
        _validate_section(caches[v].decomposition(1.0), q1[v], tolerances)

    part = _common_partition(curve_fam, tolerances, caches)

    def transported(t, level) -> dict:
        return {v: caches[v].section(t, level) for v in base.vertices}

    # one split of the comparison map Y* X : Im X -> Im Y gives the kernel
    # frame in X's basis and the cokernel frame in Y's basis; lifted to the
    # ambient space they frame the bracket's kernel and cokernel bundles
    pointwise = {v: 0 for v in base.vertices}
    positive: ProjectorFamily | None = None
    negative: ProjectorFamily | None = None
    for t, x_fam, y_fam in _brackets(part, transported, q0, q1):
        for cache in caches.values():
            cache.release(t)
        ker, cok = {}, {}
        for v in base.vertices:
            x, y = x_fam[v], y_fam[v]
            split = null_split(comparison_map(x, y), tolerances)
            pointwise[v] += x.rank - y.rank
            ker[v], cok[v] = x.basis @ split.kernel, y.basis @ split.cokernel
        fam = ProjectorFamily(base, ker, tolerances)
        if fam.rank:
            positive = fam if positive is None else positive.direct_sum(fam)
        fam = ProjectorFamily(base, cok, tolerances)
        if fam.rank:
            negative = fam if negative is None else negative.direct_sum(fam)

    first = pointwise[base.vertices[0]]
    if any(x != first for x in pointwise.values()):
        raise RankJump(f"pointwise spectral flow is not locally constant: "
                       f"{sorted(set(pointwise.values()))}")
    dim = curve_fam.truncation.dim
    if positive is None:
        positive = ProjectorFamily.empty(base, dim)
    if negative is None:
        negative = ProjectorFamily.empty(base, dim)
    if positive.rank - negative.rank != first:
        raise UnstableIndex(
            f"assembled class rank {positive.rank - negative.rank} disagrees "
            f"with pointwise flow {first}")
    return _class_from_parts(base, positive, negative, tolerances,
                             meta={"partitions": len(part.intervals),
                                   "min_gap": part.min_gap})


def aps_section_family(family: OperatorFamily, cutoff: float = 0.0,
                       policy: str = "inclusive",
                       tolerances: Tolerances = DEFAULT) -> dict:
    """Pointwise positive-cutoff sections of an operator family."""
    return {v: aps_projection(family[v], cutoff, policy=policy,
                              tolerances=tolerances)
            for v in family.base.vertices}
