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
from typing import Mapping, NamedTuple

import numpy as np

from .basegrid import BaseGrid
from .config import DEFAULT, Tolerances
from .errors import (InvalidSection, RankJump, RoundingAmbiguous,
                     SingularOverlap, UnstableIndex)
# ``gap_partition`` is not called here, but the benchmark's tracer wraps
# it under every name a specflow module holds it by, this one included
from .flow import (GapInterval, Partition, SpectralSection, _brackets,
                   _constant_rank, _first_invalid, _gap_intervals,
                   _gram_defect, _SampledCurve, _section_above,
                   _SpectrumCache, comparison_map, gap_partition)  # noqa: F401
from .operators import FourierTruncation, TruncatedOperator, eigh, null_splits
from .toeplitz import (_compressions, _family_values, _stable_subspaces,
                       hardy_section)


# ---------------------------------------------------------------------------
# operator and projector families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorFamily:
    """Truncated operators over the base vertices, held as one
    ``operator`` whose band is a stack (vertices, 2b + 1, dim) in the
    order of ``base.vertices``; ``family[v]`` is the operator at vertex v,
    a view of its member's band."""

    base: BaseGrid
    operator: TruncatedOperator

    def __post_init__(self):
        shape = self.operator.band.shape
        if shape[:-2] != (len(self.base.vertices),):
            raise ValueError(f"operator band has shape {shape}, expected "
                             f"one member per base vertex")

    @property
    def truncation(self) -> FourierTruncation:
        return self.operator.truncation

    @property
    def matrices(self) -> np.ndarray:
        """The dense members (vertices, dim, dim), built on every call."""
        return self.operator.matrix

    def __getitem__(self, vertex) -> TruncatedOperator:
        return TruncatedOperator._of_band(
            self.operator.band[self.base.positions[vertex]], self.truncation,
            self.operator.tolerances)


class _FrameMeasures(NamedTuple):
    """What validating a stack of frames F measures: the Gram defect
    ``||F_v* F_v - I||_2`` of every vertex, the step ``||P_a - P_b||_2``
    of every edge a -> b, and the link determinants ``det F_a* F_b`` of
    every edge, forward, then ``det F_b* F_a``, backward (2 * edges)."""

    defects: np.ndarray
    steps: np.ndarray
    links: np.ndarray

    @classmethod
    def of(cls, base: BaseGrid, frames: np.ndarray) -> "_FrameMeasures":
        """Measured on the frames: one overlap ``F_a* F_b`` per edge,
        factored once in each direction, whose smallest singular value
        gives the step: the sine of the largest principal angle between
        the ranges, ``sqrt(1 - sigma_min^2)``."""
        defects = _gram_defect(frames)
        tails, heads = base.edge_index
        if frames.shape[-1] == 0:
            return cls(defects, np.zeros(len(tails)),
                       np.ones(2 * len(tails), dtype=complex))
        overlaps = np.swapaxes(frames[tails].conj(), -1, -2) @ frames[heads]
        s_min = np.linalg.svd(overlaps, compute_uv=False)[..., -1]
        links = np.concatenate([np.linalg.det(overlaps), np.linalg.det(
            np.swapaxes(overlaps.conj(), -1, -2))])
        return cls(defects, np.sqrt(np.maximum(1.0 - s_min * s_min, 0.0)),
                   links)

    def direct_sum(self, other: "_FrameMeasures") -> "_FrameMeasures":
        """The measures of the block-diagonal sum of the frames: a
        block-diagonal matrix has the largest of its blocks' 2-norms,
        the smallest of their smallest singular values, and the product
        of their determinants."""
        return _FrameMeasures(np.maximum(self.defects, other.defects),
                              np.maximum(self.steps, other.steps),
                              self.links * other.links)


class ProjectorFamily:
    """Constant-rank family of orthogonal projectors over a base grid, held
    as one stack of orthonormal frames (vertices, dim, rank) in the order
    of ``base.vertices``.

    Validation works on the frames: ``||F* F - I||_2`` is the idempotency
    defect of ``F F*``, and across an edge ``||P_a - P_b||_2`` is the sine
    of the largest principal angle between the two ranges.  The family
    keeps what validation measures (``_FrameMeasures``): with them
    ``direct_sum`` validates the sum without measuring its frames again,
    and ``chern_number`` reads the link determinants.  ``tolerances`` is
    the record the family was validated with, and its ``direct_sum`` is
    validated with it too.
    """

    def __init__(self, base: BaseGrid, frames: np.ndarray,
                 tolerances: Tolerances = DEFAULT,
                 _measures: _FrameMeasures | None = None):
        """``frames`` is the (vertices, dim, rank) stack of orthonormal
        frames in ``base.vertices`` order; ``_measures``, when given, are
        their measures, which are then checked and not taken again."""
        self.base = base
        stack = np.asarray(frames, dtype=complex)
        if stack.ndim != 3 or len(stack) != len(base.vertices):
            raise ValueError("a frame stack must be vertices x dim x rank")
        self._frames = stack
        self.rank = stack.shape[2]
        self.tolerances = tolerances
        self._measures = _measures if _measures is not None \
            else _FrameMeasures.of(base, stack)
        self._validate(tolerances)

    @classmethod
    def from_projectors(cls, base: BaseGrid,
                        projectors: Mapping[tuple, np.ndarray],
                        tolerances: Tolerances = DEFAULT) -> "ProjectorFamily":
        """Family of Hermitian projector matrices, one per vertex, framed by
        the eigenvectors of eigenvalue one.  For Hermitian P the eigenvalues
        w give ``||P^2 - P||_2 = max |w^2 - w|`` exactly."""
        p = np.stack([np.asarray(projectors[v], dtype=complex)
                      for v in base.vertices])
        skew = np.linalg.norm(p - np.swapaxes(p.conj(), -1, -2), 2,
                              axis=(-2, -1))
        w, vecs = np.linalg.eigh(p)
        idempotent = np.abs(w * w - w).max(axis=-1)
        not_hermitian = skew > tolerances.projector_hermitian
        bad = np.flatnonzero(not_hermitian
                             | (idempotent > tolerances.projector_idempotent))
        if bad.size:
            v = base.vertices[bad[0]]
            if not_hermitian[bad[0]]:
                raise InvalidSection(f"family member at {v} is not Hermitian")
            raise InvalidSection(f"family member at {v} is not a projector")
        rank = _constant_rank(np.count_nonzero(w > 0.5, axis=-1),
                              "frame rank", base.vertices)
        # ascending eigenvalues: the ones above 1/2 are the last columns
        return cls(base, vecs[..., vecs.shape[-1] - rank:], tolerances)

    @classmethod
    def empty(cls, base: BaseGrid, dim: int,
              tolerances: Tolerances = DEFAULT) -> "ProjectorFamily":
        return cls(base, np.zeros((len(base.vertices), dim, 0)), tolerances)

    @property
    def dim(self) -> int:
        return self._frames.shape[1]

    def _validate(self, tolerances: Tolerances):
        """Refuse frames that are not orthonormal at some vertex, then a
        family that moves by ``neighbor_continuity`` or more across some
        edge, each by the first offender."""
        defects, steps, _ = self._measures
        bad = np.flatnonzero(defects > tolerances.projector_idempotent)
        if bad.size:
            raise InvalidSection(
                f"frame at {self.base.vertices[bad[0]]} is not orthonormal "
                f"(Gram defect {defects[bad[0]]:.2e}), so its projector is "
                f"not idempotent")
        bad = np.flatnonzero(steps >= tolerances.neighbor_continuity)
        if bad.size:
            (a, b), step = self.base.edges[bad[0]], steps[bad[0]]
            raise InvalidSection(
                f"projector family moves by {step:.3f} across edge "
                f"{a} -> {b}; refine the base grid")

    def frame(self, vertex) -> np.ndarray:
        """Orthonormal basis of the range at a vertex."""
        return self._frames[self.base.positions[vertex]]

    def direct_sum(self, other: "ProjectorFamily") -> "ProjectorFamily":
        """The family of block-diagonal frames ``diag(F, G)``, validated
        with this family's record on measures assembled from the parts'
        (``_FrameMeasures.direct_sum``)."""
        if other.base != self.base:
            raise ValueError("direct sum needs a common base")
        a, b = self._frames, other._frames
        out = np.zeros((len(a), self.dim + other.dim, self.rank + other.rank),
                       dtype=complex)
        out[:, :self.dim, :self.rank] = a
        out[:, self.dim:, self.rank:] = b
        return ProjectorFamily(self.base, out, self.tolerances,
                               self._measures.direct_sum(other._measures))


# ---------------------------------------------------------------------------
# kernel bundles and Chern numbers
# ---------------------------------------------------------------------------

def _null_frames(base: BaseGrid, stack: np.ndarray,
                 tolerances: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and cokernel frames of every member of a stack (in the
    order of ``base.vertices``), by ``null_splits``; the kernel dimension
    must not vary over the base (RankJump otherwise), so the members
    share one rank and one group."""
    groups = null_splits(stack, tolerances)
    nullity = np.empty(len(stack), dtype=int)
    for members, split in groups:
        nullity[members] = split.kernel.shape[-1]
    _constant_rank(nullity, "frame rank", base.vertices)
    (_, split), = groups
    return split.kernel, split.cokernel


def kernel_bundle(base: BaseGrid, matrices: Mapping[tuple, np.ndarray],
                  tolerances: Tolerances = DEFAULT) -> ProjectorFamily:
    """Orthogonal projector onto the numerical kernel (the ``null_splits``
    kernel at ``rank_rtol``) at each vertex.

    The kernel dimension must be constant (RankJump otherwise) and the
    singular spectrum must split by the configured gap factor at every
    vertex (IllConditioned otherwise).  The matrices are split as one
    stack (``null_splits``).
    """
    stack = np.stack([np.asarray(matrices[v], dtype=complex)
                      for v in base.vertices])
    kernel, _ = _null_frames(base, stack, tolerances)
    return ProjectorFamily(base, kernel, tolerances)


def chern_number(family: ProjectorFamily,
                 tolerances: Tolerances = DEFAULT) -> int:
    """Plaquette link-variable Chern number of a projector family on the
    torus: sum of overlap-determinant phases around plaquettes over 2 pi.

    The link determinants are the ones the family recorded when it was
    validated, each edge factored once in each direction; they are
    multiplied around each plaquette in traversal order.  A link
    determinant below ``overlap_min_det`` in modulus raises
    SingularOverlap, and a total more than 1e-6 from an integer raises
    RoundingAmbiguous.
    """
    base = family.base
    if not base.is_torus:
        raise ValueError("Chern numbers are defined on torus bases only")
    if base.size < 8:
        raise ValueError("plaquette method needs a grid of at least 8 x 8")
    if family.rank == 0:
        return 0
    links = _clockwise_links(base)
    dets = family._measures.links[links]
    small = np.flatnonzero(np.abs(dets) < tolerances.overlap_min_det)
    if small.size:
        p, k = divmod(int(small[0]), 4)
        corners = base.plaquette_index[p, ::-1]
        a, b = (base.vertices[corners[j % 4]] for j in (k, k + 1))
        raise SingularOverlap(
            f"overlap determinant {abs(dets[p, k]):.2e} across {a} -> {b}; "
            f"the base grid is too coarse")
    u = np.ones(len(dets), dtype=complex)
    for k in range(4):
        u = u * dets[:, k]
    c = float(np.angle(u).sum()) / (2 * np.pi)
    if abs(c - round(c)) > 1e-6:
        raise RoundingAmbiguous(f"plaquette sum {c} is not an integer")
    return int(round(c))


def _clockwise_links(base: BaseGrid) -> np.ndarray:
    """The links around every plaquette, traversed clockwise in (b1, b2)
    so the reference wrap lands on +1, as positions in
    ``_FrameMeasures.links``: edge e run forward is e, run backward
    ``len(base.edges) + e`` (plaquettes x 4)."""
    tails, heads = base.edge_index.tolist()
    position = {}
    for e, (a, b) in enumerate(zip(tails, heads)):
        position[a, b], position[b, a] = e, len(tails) + e
    return np.array([[position[c[k], c[(k + 1) % 4]] for k in range(4)]
                     for c in base.plaquette_index[:, ::-1].tolist()])


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
    on torus bases.  The compressions are split as one stack over the
    base and re-checked at doubled truncation, vertex by vertex, by the
    split and check of ``fredholm_index`` (``toeplitz._stable_subspaces``).
    """
    symbols = _family_values(g_family, base)
    section = hardy_section(trunc, tolerances)
    sub = _stable_subspaces(section, symbols,
                            _compressions(section, symbols, trunc, tolerances),
                            trunc, tolerances)
    index = sub.kernel_dim - sub.cokernel_dim
    first = int(index[0])
    if np.any(index != first):
        raise RankJump(f"pointwise Toeplitz index is not constant: "
                       f"{sorted(set(index.tolist()))}")

    parts = []
    for dims, frames in ((sub.kernel_dim, sub.kernel_interior),
                         (sub.cokernel_dim, sub.cokernel_interior)):
        _constant_rank(dims, "frame rank", base.vertices)
        parts.append(ProjectorFamily(base, frames, tolerances))
    return _class_from_parts(base, *parts, tolerances,
                             meta={"pointwise_index": first})


# ---------------------------------------------------------------------------
# higher spectral flow of a curve of families
# ---------------------------------------------------------------------------

class CurveOfFamilies(_SampledCurve):
    """A curve u -> operator family over a common sample grid and
    truncation, built from potentials only and stored as one read-only
    band stack ``samples`` of shape (samples, vertices, 2b + 1, dim),
    vertices in the order of ``base.vertices``: an ``OperatorCurve`` with
    a vertex axis, whose ``at(t)`` is the operator of the whole family at
    t, its band a stack (vertices, 2b + 1, dim)."""

    @classmethod
    def from_potentials(cls, base: BaseGrid, potential_fn, ts,
                        trunc: FourierTruncation,
                        tolerances: Tolerances = DEFAULT) -> "CurveOfFamilies":
        """potential_fn(vertex, t) -> Hermitian SymbolFunction, within
        ``potential_hermitian`` (the ``build_dirac`` guard)."""
        ts = [float(t) for t in ts]
        curve = cls.__new__(cls)
        curve.base = base
        curve._build(ts, [[potential_fn(v, t) for v in base.vertices]
                          for t in ts], trunc, tolerances)
        return curve

    def family_at(self, t: float,
                  tolerances: Tolerances = DEFAULT) -> OperatorFamily:
        """The family at t, checked Hermitian at ``tolerances``."""
        return OperatorFamily(self.base, self.at(t, tolerances))


def _common_partition(curve_fam: CurveOfFamilies, tolerances: Tolerances,
                      cache: _SpectrumCache):
    """The intervals of a gap partition certified simultaneously for
    every vertex, yielded left to right as they are certified
    (``flow._gap_intervals``), with levels whose eigenvalue counts agree
    across the base (so transported projectors have constant rank): the
    cache's spectra are (vertices, n) stacks, which ``certify_level``
    reads member by member."""
    return _gap_intervals(cache, tolerances)


def higher_spectral_flow(curve_fam: CurveOfFamilies, q0: SpectralSection,
                         q1: SpectralSection,
                         tolerances: Tolerances = DEFAULT) -> KClassNumeric:
    """K-class of a curve of operator families between endpoint section
    families.

    ``q0`` and ``q1`` are the section families of the families at t = 0
    and t = 1, each one stacked section with a member per base vertex in
    the order of ``base.vertices`` (``aps_section_family``); any other
    stack is refused with ValueError.  A single partition with
    per-interval levels is certified across the whole base; the class is
    the sum over the brackets of ``flow`` of the kernel bundle minus the
    cokernel bundle of each bracket's comparison maps, and ch0 is checked
    to be the constant pointwise flow.  The family at each breakpoint is
    diagonalized once, as one stack: the partition reads its spectra off
    the eigendecompositions that the brackets' sections need.  The
    partition is streamed: the bracket at a breakpoint is built as soon
    as the interval to its right is certified, and the decomposition
    there is dropped at once, so a refusal of a bracket can come before a
    refusal of the partition farther right.  Each bracket's comparison
    maps are split as one stack, and the brackets' bundles are summed
    from their recorded measures (``ProjectorFamily.direct_sum``).
    """
    base = curve_fam.base
    if any(q.basis.shape[:-2] != (len(base.vertices),) for q in (q0, q1)):
        raise ValueError("an endpoint section family needs one member per "
                         "base vertex")
    cache = _SpectrumCache(curve_fam, tolerances, _spectra_from_eigh=True)
    # the first vertex whose q0 or q1 fails is reported, q0 first
    failures = [f for f in (_first_invalid(cache.decomposition(0.0), q0,
                                           tolerances),
                            _first_invalid(cache.decomposition(1.0), q1,
                                           tolerances)) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]

    intervals: list[GapInterval] = []

    def certified():
        for interval in _common_partition(curve_fam, tolerances, cache):
            intervals.append(interval)
            yield interval

    # one split of the comparison map Y* X : Im X -> Im Y gives the kernel
    # frame in X's basis and the cokernel frame in Y's basis; lifted to the
    # ambient space they frame the bracket's kernel and cokernel bundles
    flow = 0
    positive: ProjectorFamily | None = None
    negative: ProjectorFamily | None = None
    for t, x, y in _brackets(certified(), cache.section, q0, q1):
        cache.release(t)
        kernel, cokernel = _null_frames(base, comparison_map(x, y),
                                        tolerances)
        flow += x.rank - y.rank
        fam = ProjectorFamily(base, x.basis @ kernel, tolerances)
        if fam.rank:
            positive = fam if positive is None else positive.direct_sum(fam)
        fam = ProjectorFamily(base, y.basis @ cokernel, tolerances)
        if fam.rank:
            negative = fam if negative is None else negative.direct_sum(fam)

    dim = curve_fam.truncation.dim
    if positive is None:
        positive = ProjectorFamily.empty(base, dim, tolerances)
    if negative is None:
        negative = ProjectorFamily.empty(base, dim, tolerances)
    if positive.rank - negative.rank != flow:
        raise UnstableIndex(
            f"assembled class rank {positive.rank - negative.rank} disagrees "
            f"with pointwise flow {flow}")
    part = Partition(tuple(intervals))
    return _class_from_parts(base, positive, negative, tolerances,
                             meta={"partitions": len(part.intervals),
                                   "min_gap": part.min_gap})


def aps_section_family(family: OperatorFamily, cutoff: float = 0.0,
                       policy: str = "inclusive",
                       tolerances: Tolerances = DEFAULT) -> SpectralSection:
    """The family of positive-cutoff sections of an operator family, as
    one stacked section: member i is the ``aps_projection`` of the
    operator at ``base.vertices[i]``, read off one stacked ``eigh`` of
    the family's operator.  The members keep one rank, or RankJump names
    the vertices whose rank differs."""
    return _section_above(eigh(family.operator, tolerances), cutoff, policy,
                          tolerances, family.base.vertices)
