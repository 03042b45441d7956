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
from typing import Callable, Mapping

import numpy as np

from .basegrid import BaseGrid
from .config import DEFAULT, Tolerances
from .errors import (InvalidSection, RankJump, SingularOverlap,
                     UnstableIndex)
from .flow import (OperatorCurve, Partition, SpectralSection, _SpectrumCache,
                   _validate_section, aps_projection, comparison_map,
                   gap_partition)
from .operators import (FourierTruncation, SymbolFunction, TruncatedOperator,
                        null_split)
from .toeplitz import (hardy_section, toeplitz_compress,
                       toeplitz_small_subspaces)


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
    """Constant-rank family of orthogonal projectors over a base grid."""

    def __init__(self, base: BaseGrid, projectors: Mapping[tuple, np.ndarray],
                 bases: Mapping[tuple, np.ndarray] | None = None,
                 tolerances: Tolerances = DEFAULT, validate: bool = True):
        self.base = base
        self.projectors = {v: np.asarray(projectors[v], dtype=complex)
                           for v in base.vertices}
        self._bases = dict(bases) if bases is not None else None
        ranks = {v: int(round(np.trace(p).real))
                 for v, p in self.projectors.items()}
        first = ranks[base.vertices[0]]
        if any(r != first for r in ranks.values()):
            bad = sorted(v for v, r in ranks.items() if r != first)
            raise RankJump(f"projector rank varies over the base at {bad[:4]}")
        self.rank = first
        if validate:
            self._validate(tolerances)

    @classmethod
    def from_bases(cls, base: BaseGrid, bases: Mapping[tuple, np.ndarray],
                   dim: int | None = None, **kw) -> "ProjectorFamily":
        projectors = {}
        for v in base.vertices:
            b = np.asarray(bases[v], dtype=complex)
            if b.ndim != 2:
                raise ValueError("basis must be a dim x rank matrix")
            projectors[v] = b @ b.conj().T
        return cls(base, projectors, bases=bases, **kw)

    @classmethod
    def empty(cls, base: BaseGrid, dim: int) -> "ProjectorFamily":
        z = np.zeros((dim, dim), dtype=complex)
        return cls(base, {v: z for v in base.vertices}, validate=False)

    @classmethod
    def constant(cls, base: BaseGrid, projector, **kw) -> "ProjectorFamily":
        p = np.asarray(projector, dtype=complex)
        return cls(base, {v: p for v in base.vertices}, **kw)

    @classmethod
    def from_function(cls, base: BaseGrid, fn: Callable, **kw) -> "ProjectorFamily":
        """fn takes the vertex coordinates (angles) and returns a
        projector matrix."""
        return cls(base, {v: fn(*base.coordinates(v)) for v in base.vertices},
                   **kw)

    @property
    def dim(self) -> int:
        return self.projectors[self.base.vertices[0]].shape[0]

    def __getitem__(self, vertex) -> np.ndarray:
        return self.projectors[vertex]

    def _validate(self, tolerances: Tolerances):
        for v, p in self.projectors.items():
            if np.linalg.norm(p @ p - p, 2) > tolerances.projector_idempotent:
                raise InvalidSection(f"family member at {v} is not a projector")
            if np.linalg.norm(p - p.conj().T, 2) > tolerances.projector_hermitian:
                raise InvalidSection(f"family member at {v} is not Hermitian")
        for a, b in self.base.edges:
            step = np.linalg.norm(self.projectors[a] - self.projectors[b], 2)
            if step >= tolerances.neighbor_continuity:
                raise InvalidSection(
                    f"projector family moves by {step:.3f} across edge "
                    f"{a} -> {b}; refine the base grid")

    def frame(self, vertex) -> np.ndarray:
        """Deterministic orthonormal basis of the range at a vertex."""
        if self._bases is not None:
            return self._bases[vertex]
        if self.rank == 0:
            return self.projectors[vertex][:, :0]
        w, vecs = np.linalg.eigh(self.projectors[vertex])
        return vecs[:, w > 0.5]

    def complement(self) -> "ProjectorFamily":
        eye = np.eye(self.dim)
        return ProjectorFamily(self.base,
                               {v: eye - p for v, p in self.projectors.items()},
                               validate=False)

    def direct_sum(self, other: "ProjectorFamily") -> "ProjectorFamily":
        if other.base != self.base:
            raise ValueError("direct sum needs a common base")
        both = {}
        for v in self.base.vertices:
            a, b = self.projectors[v], other.projectors[v]
            out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
            out[:a.shape[0], :a.shape[0]] = a
            out[a.shape[0]:, a.shape[0]:] = b
            both[v] = out
        return ProjectorFamily(self.base, both, validate=False)


# ---------------------------------------------------------------------------
# kernel bundles and Chern numbers
# ---------------------------------------------------------------------------

def _frame_family(base: BaseGrid, frames: Mapping[tuple, np.ndarray],
                  what: str, tolerances: Tolerances) -> ProjectorFamily:
    """Projector family spanned by per-vertex orthonormal frames; the
    frame width must be constant (RankJump otherwise)."""
    dims = {v: f.shape[1] for v, f in frames.items()}
    first_frame = frames[base.vertices[0]]
    first = first_frame.shape[1]
    if any(d != first for d in dims.values()):
        bad = sorted(v for v, d in dims.items() if d != first)
        raise RankJump(f"{what} dimension varies over the base: e.g. at "
                       f"{bad[:4]} (got {sorted(set(dims.values()))}); "
                       f"perturb the family")
    if first == 0:
        return ProjectorFamily.empty(base, first_frame.shape[0])
    return ProjectorFamily.from_bases(base, frames, tolerances=tolerances)


def kernel_bundle(base: BaseGrid, matrices: Mapping[tuple, np.ndarray],
                  tol: float | None = None,
                  tolerances: Tolerances = DEFAULT) -> ProjectorFamily:
    """Orthogonal projector onto the numerical kernel (``null_split`` at
    ``tol``) at each vertex.

    The kernel dimension must be constant (RankJump otherwise) and the
    singular spectrum must split by the configured gap factor at every
    vertex (IllConditioned otherwise).
    """
    tol = tolerances.rank_rtol if tol is None else tol
    frames = {v: null_split(np.asarray(matrices[v], dtype=complex), tol,
                            tolerances).kernel
              for v in base.vertices}
    return _frame_family(base, frames, "kernel", tolerances)


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
    positive: ProjectorFamily | None
    negative: ProjectorFamily | None
    ch0: int
    ch1: int | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        rp = self.positive.rank if self.positive is not None else 0
        rn = self.negative.rank if self.negative is not None else 0
        if self.ch0 != rp - rn:
            raise ValueError(f"ch0 {self.ch0} does not match rank "
                             f"difference {rp - rn}")

    def virtual_rank(self, vertex) -> int:
        rp = self.positive.rank if self.positive is not None else 0
        rn = self.negative.rank if self.negative is not None else 0
        return rp - rn

    def equivalent(self, other: "KClassNumeric") -> bool:
        """Class equality at the implemented invariants: pointwise virtual
        rank plus the first Chern number on torus bases.  Torsion is
        invisible to this test."""
        if self.base != other.base:
            return False
        if any(self.virtual_rank(v) != other.virtual_rank(v)
               for v in self.base.vertices):
            return False
        if self.base.is_torus:
            return self.ch1 == other.ch1
        return True


def _class_from_parts(base: BaseGrid, positive: ProjectorFamily | None,
                      negative: ProjectorFamily | None,
                      tolerances: Tolerances, meta: dict) -> KClassNumeric:
    rp = positive.rank if positive is not None else 0
    rn = negative.rank if negative is not None else 0
    ch1 = None
    if base.is_torus:
        cp = chern_number(positive, tolerances) if positive is not None and rp else 0
        cn = chern_number(negative, tolerances) if negative is not None and rn else 0
        ch1 = cp - cn
    return KClassNumeric(base=base, positive=positive, negative=negative,
                         ch0=rp - rn, ch1=ch1, meta=meta)


# ---------------------------------------------------------------------------
# Toeplitz family index
# ---------------------------------------------------------------------------

def toeplitz_family_index(g_family, base: BaseGrid, trunc: FourierTruncation,
                          tol: float | None = None,
                          check_stability: bool = True,
                          tolerances: Tolerances = DEFAULT) -> KClassNumeric:
    """Index bundle of the Toeplitz family over the Hardy sections.

    positive part = kernel bundle, negative part = cokernel bundle of the
    compressed family (interior-localized null directions only); ch0 is
    the constant pointwise index and ch1 comes from the plaquette method
    on torus bases.  Every vertex is re-checked at doubled truncation.
    """
    fam = {v: (g_family(v) if callable(g_family) else g_family[v])
           for v in base.vertices}
    section = hardy_section(trunc, tolerances)
    section2 = hardy_section(trunc.doubled(), tolerances) if check_stability \
        else None

    ker_bases, cok_bases, indices = {}, {}, {}
    for v in base.vertices:
        t = toeplitz_compress(section, fam[v], trunc, tolerances)
        sub = toeplitz_small_subspaces(t, tol, tolerances)
        indices[v] = sub.kernel_dim - sub.cokernel_dim
        ker_bases[v] = sub.kernel_interior
        cok_bases[v] = sub.cokernel_interior
        if check_stability:
            t2 = toeplitz_compress(section2, fam[v], trunc.doubled(),
                                   tolerances)
            sub2 = toeplitz_small_subspaces(t2, tol, tolerances)
            if sub2.kernel_dim - sub2.cokernel_dim != indices[v]:
                raise UnstableIndex(
                    f"Toeplitz index at vertex {v} changed under truncation "
                    f"doubling: {indices[v]} vs "
                    f"{sub2.kernel_dim - sub2.cokernel_dim}")
    first = indices[base.vertices[0]]
    if any(i != first for i in indices.values()):
        raise RankJump(f"pointwise Toeplitz index is not constant: "
                       f"{sorted(set(indices.values()))}")

    kdims = {v: b.shape[1] for v, b in ker_bases.items()}
    cdims = {v: b.shape[1] for v, b in cok_bases.items()}
    if len(set(kdims.values())) > 1 or len(set(cdims.values())) > 1:
        raise RankJump("kernel/cokernel dimensions vary over the base")
    dim = trunc.dim
    positive = (ProjectorFamily.from_bases(base, ker_bases, tolerances=tolerances)
                if kdims[base.vertices[0]] else ProjectorFamily.empty(base, dim))
    negative = (ProjectorFamily.from_bases(base, cok_bases, tolerances=tolerances)
                if cdims[base.vertices[0]] else ProjectorFamily.empty(base, dim))
    out = _class_from_parts(base, positive, negative, tolerances,
                            meta={"pointwise_index": first})
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
    whole base; the class is assembled from the kernel bundles of the
    comparison maps between consecutive transported sections (plus the
    endpoint comparisons), and ch0 is checked to be the constant pointwise
    flow.  Each vertex operator is diagonalized at most once, and its
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
    n = len(part.intervals)

    def transported(t, level) -> dict:
        return {v: caches[v].section(t, level) for v in base.vertices}

    # brackets [X - Y]: (P^(1)(0) - Q0), (P^(j+1) - P^(j)) at interior
    # breakpoints, (Q1 - P^(n)(1)); the class is their sum
    def brackets():
        iv0 = part.intervals[0]
        yield iv0.t_left, transported(iv0.t_left, iv0.level), dict(q0)
        for j in range(1, n):
            prev, nxt = part.intervals[j - 1], part.intervals[j]
            t = prev.t_right
            yield t, transported(t, nxt.level), transported(t, prev.level)
        ivn = part.intervals[-1]
        yield ivn.t_right, dict(q1), transported(ivn.t_right, ivn.level)

    # one split of the comparison map Y* X : Im X -> Im Y gives the
    # kernel frame (in X's basis) and the cokernel frame (in Y's basis)
    pointwise = {v: 0 for v in base.vertices}
    positive: ProjectorFamily | None = None
    negative: ProjectorFamily | None = None
    for t, x_fam, y_fam in brackets():
        for cache in caches.values():
            cache.release(t)
        ker, cok = {}, {}
        for v in base.vertices:
            x, y = x_fam[v], y_fam[v]
            split = null_split(comparison_map(x, y), tolerances.rank_rtol,
                               tolerances)
            pointwise[v] += x.rank - y.rank
            ker[v], cok[v] = split.kernel, split.cokernel
        if _frame_family(base, ker, "kernel", tolerances).rank:
            lifted = {v: x_fam[v].basis @ ker[v] for v in base.vertices}
            fam = ProjectorFamily.from_bases(base, lifted, tolerances=tolerances)
            positive = fam if positive is None else positive.direct_sum(fam)
        if _frame_family(base, cok, "cokernel", tolerances).rank:
            lifted = {v: y_fam[v].basis @ cok[v] for v in base.vertices}
            fam = ProjectorFamily.from_bases(base, lifted, tolerances=tolerances)
            negative = fam if negative is None else negative.direct_sum(fam)

    first = pointwise[base.vertices[0]]
    if any(x != first for x in pointwise.values()):
        raise RankJump(f"pointwise spectral flow is not locally constant: "
                       f"{sorted(set(pointwise.values()))}")
    rp = positive.rank if positive is not None else 0
    rn = negative.rank if negative is not None else 0
    if rp - rn != first:
        raise UnstableIndex(
            f"assembled class rank {rp - rn} disagrees with pointwise flow "
            f"{first}")
    dim = curve_fam.truncation.dim
    out = _class_from_parts(
        base,
        positive if positive is not None else ProjectorFamily.empty(base, dim),
        negative if negative is not None else ProjectorFamily.empty(base, dim),
        tolerances, meta={"partitions": n, "min_gap": part.min_gap})
    return out


def aps_section_family(family: OperatorFamily, cutoff: float = 0.0,
                       policy: str = "inclusive",
                       tolerances: Tolerances = DEFAULT) -> dict:
    """Pointwise positive-cutoff sections of an operator family."""
    return {v: aps_projection(family[v], cutoff, policy=policy,
                              tolerances=tolerances)
            for v in family.base.vertices}
