"""Spectral flow of operator curves and finite spectral sections.

The flow is Phillips' finite sum over a gap partition.  The parameter
interval is adaptively bisected until every subinterval j admits a level
a_j > 0 with both +a_j and -a_j certifiably outside the spectrum throughout
(sampled spectra plus a Lipschitz bound on the operator curve), so the
section P_j(t) above a_j moves continuously over it.  The flow is the sum
of the brackets [P_1(0) - Q_0], [P_{j+1}(t_j) - P_j(t_j)] at each interior
breakpoint t_j, and [Q_1 - P_n(1)], where Q_0 and Q_1 are the endpoint
sections.  ``spectral_flow`` reads each bracket as a difference of
eigenvalue counts, ``sf_pairs`` as a difference element, and
``bundles.higher_spectral_flow`` as a difference of kernel bundles.

Sign convention: an eigenvalue moving from lambda < 0 to lambda >= 0
contributes +1; zero eigenvalues at interval ends count on the
nonnegative side, matching the inclusive-at-zero default of
``aps_projection``.
"""

from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (EigenvalueAtCutoff, InvalidSection, NoGapFound,
                     RankJump, ResolutionExceeded, UnstableIndex)
from .operators import (EigenDecomposition, FourierTruncation, SymbolFunction,
                        TruncatedOperator, _band_eigvalsh, _dirac_bands,
                        _require_hermitian, eigh, eigvalsh, numerical_rank)


# ---------------------------------------------------------------------------
# spectral sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, eq=False)
class SpectralSection:
    """Orthogonal projector onto the span of an orthonormal frame
    (``basis``, dim x rank) that agrees with the positive spectral
    projector above a threshold window and vanishes below it.

    A family of sections of one rank is one section whose ``basis`` is a
    stack (..., dim, rank) with one ``threshold_window`` per member.

    A coordinate section, whose frame is the standard basis vectors of
    some ascending basis indices (``toeplitz.hardy_section``), holds those
    indices as ``rows`` instead of a frame: its ``basis`` is built anew
    on every read, as ``TruncatedOperator.matrix`` is, and ``lift``
    scatters coordinates into those rows.  Every other section holds its
    frame, and its ``rows`` is None."""

    threshold_window: float | np.ndarray
    provenance: str
    rows: np.ndarray | None = field(default=None, repr=False)
    rebuilder: Callable[[FourierTruncation], "SpectralSection"] | None = \
        field(default=None, repr=False, compare=False)

    def __init__(self, basis, threshold_window: float | np.ndarray,
                 provenance: str,
                 rebuilder: Callable[[FourierTruncation], "SpectralSection"]
                 | None = None):
        """Hold a copy of the basis, or the basis itself when it is a
        read-only complex array that owns its data, which no one can
        write."""
        b = np.asarray(basis, dtype=complex)
        if b.flags.writeable or b.base is not None:
            b = b.copy()
            b.setflags(write=False)
        self._hold(b, None, b.shape[-2], threshold_window, provenance,
                   rebuilder)

    @classmethod
    def _of_rows(cls, rows: np.ndarray, dim: int,
                 threshold_window: float, provenance: str,
                 rebuilder=None) -> "SpectralSection":
        """The coordinate section of the ascending basis indices ``rows``
        of a ``dim``-dimensional space; ``rows`` is held without a
        copy."""
        rows.setflags(write=False)
        section = cls.__new__(cls)
        section._hold(None, rows, dim, threshold_window, provenance,
                      rebuilder)
        return section

    def _hold(self, frame, rows, dim, threshold_window, provenance,
              rebuilder):
        for name, value in (("_frame", frame), ("rows", rows), ("_dim", dim),
                            ("threshold_window", threshold_window),
                            ("provenance", provenance),
                            ("rebuilder", rebuilder)):
            object.__setattr__(self, name, value)

    @property
    def basis(self) -> np.ndarray:
        """The frame, read-only; a coordinate section's is built anew on
        every read."""
        if self.rows is None:
            return self._frame
        frame = np.zeros((self._dim, len(self.rows)), dtype=complex)
        frame[self.rows, np.arange(len(self.rows))] = 1
        frame.setflags(write=False)
        return frame

    @property
    def rank(self) -> int:
        return len(self.rows) if self.rows is not None \
            else self._frame.shape[-1]

    @property
    def dim(self) -> int:
        return self._dim

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """The complex vectors ``basis @ coords`` of coordinates (...,
        rank, k) in the frame; a coordinate section scatters them into
        its rows, with no frame formed."""
        if self.rows is None:
            return self._frame @ coords
        out = np.zeros(coords.shape[:-2] + (self._dim, coords.shape[-1]),
                       dtype=complex)
        out[..., self.rows, :] = coords
        return out

    def validate(self, tolerances: Tolerances = DEFAULT):
        failure = _first_invalid(None, self, tolerances)
        if failure is not None:
            raise failure[1]


def _gram_defect(frames: np.ndarray) -> np.ndarray:
    """``||B* B - I||_2`` of each frame B in a stack (..., dim, rank).

    B B* is an orthogonal projector exactly when this is zero, and for a
    near-orthonormal frame it equals ``||P^2 - P||_2`` of P = B B* to first
    order, on a rank x rank matrix instead of a dim x dim one.
    """
    rank = frames.shape[-1]
    if rank == 0:
        return np.zeros(frames.shape[:-2])
    gram = np.swapaxes(frames.conj(), -1, -2) @ frames - np.eye(rank)
    return np.linalg.norm(gram, 2, axis=(-2, -1))


def aps_projection(operator: TruncatedOperator, cutoff: float,
                   policy: str = "strict",
                   tolerances: Tolerances = DEFAULT) -> SpectralSection:
    """Projector onto the eigenspaces with eigenvalue >= cutoff.

    ``policy`` controls eigenvalues within ``cutoff_atol`` of the cutoff:
    "strict" raises, "inclusive" keeps them, "exclusive" drops them.
    """
    return _section_above(eigh(operator, tolerances), cutoff, policy,
                          tolerances)


def _section_above(dec: EigenDecomposition, cutoff: float, policy: str,
                   tolerances: Tolerances) -> SpectralSection:
    """The ``aps_projection`` section of an operator, read off its
    eigendecomposition; the decomposition of a stack gives the stacked
    section, whose members must keep equal numbers of eigenvectors
    (RankJump otherwise)."""
    counts, window = _kept_above(dec.eigenvalues, cutoff, policy, tolerances)
    rank = int(np.ravel(counts)[0])
    if np.any(counts != rank):
        raise RankJump(f"section rank varies over the family: "
                       f"{sorted(set(np.ravel(counts).tolist()))}")
    return _top_section(dec.eigenvectors, rank, window, cutoff, policy)


def _top_section(vectors: np.ndarray, rank: int, window, cutoff: float,
                 policy: str) -> SpectralSection:
    """The ``aps_projection`` section framed by the last ``rank`` of the
    ascending eigenvectors (..., n, n)."""
    return SpectralSection(vectors[..., vectors.shape[-1] - rank:], window,
                           provenance=f"aps cutoff {cutoff:g} ({policy})")


def _kept_above(w: np.ndarray, cutoff: float, policy: str,
                tolerances: Tolerances):
    """How many of the ascending eigenvalues (..., n) an ``aps_projection``
    section keeps (the top ones), and its window, for each member.

    The window covers the cutoff tolerance band plus, as slack, half the
    gap to the nearest eigenvalue beyond the band."""
    if policy not in ("strict", "inclusive", "exclusive"):
        raise ValueError(f"unknown cutoff policy {policy!r}")
    atol = tolerances.cutoff_atol
    at_cut = np.abs(w - cutoff) <= atol
    if policy == "strict":
        bad = np.flatnonzero(at_cut.any(axis=-1))
        if bad.size:
            member = w.reshape(-1, w.shape[-1])[bad[0]]
            value = member[np.abs(member - cutoff) <= atol][0]
            raise EigenvalueAtCutoff(
                f"eigenvalue {value:.12g} within {atol:g} of cutoff "
                f"{cutoff:g}; pass policy='inclusive' or 'exclusive'")
        keep = w >= cutoff
    elif policy == "inclusive":
        keep = w >= cutoff - atol
    else:
        keep = w > cutoff + atol

    outside = np.abs(w - cutoff) - atol
    nearest = np.where(outside > 0, outside, np.inf).min(axis=-1,
                                                         initial=np.inf)
    slack = np.where(np.isfinite(nearest), 0.5 * nearest, 0.0)
    window = abs(cutoff) + atol + slack
    if window.ndim == 0:
        window = float(window)
    return np.count_nonzero(keep, axis=-1), window


def validate_section_for(operator: TruncatedOperator, section: SpectralSection,
                         tolerances: Tolerances = DEFAULT):
    _validate_section(eigh(operator, tolerances), section, tolerances)


def _validate_section(dec: EigenDecomposition, section: SpectralSection,
                      tolerances: Tolerances):
    """Raise InvalidSection unless the section is an orthogonal projector
    that fixes the eigenvectors above its window and annihilates those
    below it (``||B B* c - c||`` and ``||B* c||`` per eigenvector c); for
    stacks, the first member that fails is reported."""
    failure = _first_invalid(dec, section, tolerances)
    if failure is not None:
        raise failure[1]


def _first_invalid(dec: EigenDecomposition | None, section: SpectralSection,
                   tolerances: Tolerances) -> tuple[int, InvalidSection] | None:
    """The first member (flat index) of a section, or of a stack of them,
    that fails ``_validate_section`` against its decomposition, with the
    error to raise; with no decomposition only the frames are checked.
    A member's frame is checked before its section condition."""
    b = section.basis
    gram = np.ravel(_gram_defect(b))
    if dec is None:
        worst = np.zeros(gram.shape)
    else:
        w, v = dec.eigenvalues, dec.eigenvectors
        window = np.asarray(section.threshold_window)[..., None]
        coeffs = np.swapaxes(b.conj(), -1, -2) @ v
        fixed = np.linalg.norm(b @ coeffs - v, axis=-2)
        killed = np.linalg.norm(coeffs, axis=-2)
        worst = np.maximum(np.where(w > window, fixed, 0.0),
                           np.where(w < -window, killed, 0.0))
        worst = np.ravel(worst.max(axis=-1, initial=0.0))
    bad_gram = gram > tolerances.projector_idempotent
    bad = np.flatnonzero(bad_gram | (worst > tolerances.section_condition))
    if bad.size == 0:
        return None
    i = int(bad[0])
    if bad_gram[i]:
        return i, InvalidSection(
            f"section basis is not orthonormal (Gram defect {gram[i]:.2e}), "
            f"so its projector is not idempotent")
    window = np.ravel(section.threshold_window)[i]
    return i, InvalidSection(
        f"section condition fails with defect {worst[i]:.3e} "
        f"(window R = {window:g})")


# ---------------------------------------------------------------------------
# difference elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferenceElement:
    """Index data of the comparison map between two projector ranges."""

    value: int
    kernel_dim: int
    cokernel_dim: int

    def __post_init__(self):
        if self.value != self.kernel_dim - self.cokernel_dim:
            raise ValueError(f"value {self.value} does not match dimensions "
                             f"{self.kernel_dim} - {self.cokernel_dim}")


def comparison_map(p: SpectralSection, q: SpectralSection) -> np.ndarray:
    """Matrix of Q restricted to Im P -> Im Q in orthonormal bases (one
    per member for stacked sections)."""
    if p.dim != q.dim:
        raise ValueError("projectors act on different spaces")
    return np.swapaxes(q.basis.conj(), -1, -2) @ p.basis


def difference_element(p: SpectralSection, q: SpectralSection,
                       tolerances: Tolerances = DEFAULT) -> DifferenceElement:
    """Index of Q o P : Im P -> Im Q, the finite difference element [P - Q].

    The rank of the comparison map is its ``numerical_rank`` at
    ``rank_rtol``, which raises IllConditioned when the singular spectrum
    does not split cleanly.
    """
    rank = numerical_rank(comparison_map(p, q), tolerances)
    return DifferenceElement(value=p.rank - q.rank, kernel_dim=p.rank - rank,
                             cokernel_dim=q.rank - rank)


# ---------------------------------------------------------------------------
# operator curves
# ---------------------------------------------------------------------------

class _SampledCurve:
    """A curve [0, 1] -> Hermitian matrices, or stacks of them, held as one
    read-only band stack ``samples`` (samples, ..., 2b + 1, dim) over
    ``ts``: every member as the diagonals of ``TruncatedOperator.band``,
    b the exact half-bandwidth of the whole stack.  It is affine on every
    sample segment [t_k, t_{k+1}], which is exactly what the per-segment
    Lipschitz rate of the gap partition certifies.  A curve built from
    matrices is checked Hermitian at the default tolerances and has no
    ``potentials``; one built by ``from_potentials`` is checked at the
    record it is given and owns its read-only table of ``potentials``,
    (samples,) or (samples, vertices), from which ``_doubled`` rebuilds
    it."""

    potentials: np.ndarray | None = None

    def _store(self, ts, samples: np.ndarray, truncation: FourierTruncation,
               tolerances: Tolerances):
        """Hold ``samples``, a complex band stack no one else writes,
        without a copy, once the grid runs strictly up from 0 to 1
        (``_sample_grid``) and every member is Hermitian at ``tolerances``
        (checked on the band, one sample at a time)."""
        ts = _sample_grid(ts, len(samples))
        for sample in samples:
            _require_hermitian(sample, tolerances)
        samples.setflags(write=False)
        self.ts, self.samples, self.truncation = ts, samples, truncation

    def _build(self, ts, potentials, truncation: FourierTruncation,
               tolerances: Tolerances):
        """Hold the bands of a table of potentials, (samples,) or
        (samples, vertices), written in one ``_dirac_bands`` call, and a
        read-only copy of the table."""
        table = np.array(potentials, dtype=object)
        table.setflags(write=False)
        bands = _dirac_bands(table.ravel(), truncation, tolerances)
        if table.ndim > 1:
            bands = bands.reshape(table.shape + bands.shape[1:])
        self._store(ts, bands, truncation, tolerances)
        self.potentials = table

    def _doubled(self, tolerances: Tolerances) -> "_SampledCurve":
        """This curve rebuilt from its potentials at
        ``truncation.doubled()``, checked at ``tolerances``, on the same
        ``ts`` (and base); ValueError for a curve built from matrices."""
        if self.potentials is None:
            raise ValueError("the curve has no potentials to rebuild from")
        curve = copy.copy(self)
        curve._build(self.ts, self.potentials, self.truncation.doubled(),
                     tolerances)
        return curve

    def _bands(self, ts) -> np.ndarray:
        """The bands at the parameters ``ts``, stacked on the axes of ``ts``
        (none for one t, which reads views of its two samples):
        ``(1 - lam) S_i + lam S_{i+1}`` on the segment [t_i, t_{i+1}) of
        each t (the last one closed), the dense interpolation's arithmetic
        on every entry of the band."""
        ts = np.asarray(ts, dtype=float)
        i = np.clip(np.searchsorted(self.ts, ts, side="right") - 1,
                    0, len(self.ts) - 2)
        lam = (ts - self.ts[i]) / (self.ts[i + 1] - self.ts[i])
        lam = lam.reshape(lam.shape + (1,) * (self.samples.ndim - 1))
        return (1 - lam) * self.samples[i] + lam * self.samples[i + 1]

    def at(self, t: float,
           tolerances: Tolerances = DEFAULT) -> TruncatedOperator:
        """The operator at t, built anew on every call (on a view of the
        sample band at a sample point, else of ``_bands``) and checked
        Hermitian at ``tolerances``; for a curve of families, the operator
        of the whole family, whose band is a stack over the vertices."""
        k = np.flatnonzero(self.ts == float(t))
        band = self.samples[k[0]] if k.size else self._bands(float(t))
        return TruncatedOperator._of_band(band, self.truncation, tolerances)


def _sample_grid(ts, count: int) -> np.ndarray:
    """The parameter samples as floats, once there are at least 2, one
    per sample of the curve, strictly increasing from 0 to 1."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) != count or len(ts) < 2:
        raise ValueError("need matching ts/operators with at least 2 "
                         "samples")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("parameter samples must be strictly increasing")
    if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise ValueError("curve must be sampled on [0, 1] with endpoints")
    return ts


class OperatorCurve(_SampledCurve):
    """Sampled curve [0, 1] -> Hermitian truncated operators, held as one
    read-only band stack ``samples`` (samples, 2b + 1, dim).

    A curve built from potentials is the same curve (``build_dirac`` is
    affine in the potential) and keeps ``potentials`` for rebuilding at
    another truncation and for the gluing check of a twisted loop.
    """

    def __init__(self, ts: Sequence[float],
                 operators: Sequence[TruncatedOperator]):
        ts = _sample_grid(ts, len(operators))
        if len({op.truncation for op in operators}) > 1:
            raise ValueError("all operators must share one truncation")
        # one band wide enough for every operator, zero beyond each one's
        width = max(len(op.band) for op in operators) // 2
        samples = np.zeros((len(operators), 2 * width + 1, operators[0].dim),
                           dtype=complex)
        for sample, op in zip(samples, operators):
            own = len(op.band) // 2
            sample[width - own:width + own + 1] = op.band
        self._store(ts, samples, operators[0].truncation, DEFAULT)

    @classmethod
    def from_potentials(cls, ts, potentials: Sequence[SymbolFunction],
                        trunc: FourierTruncation,
                        tolerances: Tolerances = DEFAULT) -> "OperatorCurve":
        curve = cls.__new__(cls)
        curve._build(ts, list(potentials), trunc, tolerances)
        return curve


# ---------------------------------------------------------------------------
# gap partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapInterval:
    t_left: float
    t_right: float
    level: float
    margin: float


@dataclass(frozen=True)
class Partition:
    intervals: tuple[GapInterval, ...]

    @property
    def breakpoints(self) -> list[float]:
        return [self.intervals[0].t_left] + [iv.t_right for iv in self.intervals]

    @property
    def min_gap(self) -> float:
        return min(iv.margin for iv in self.intervals)


def certify_level(evals_left, evals_right, lipschitz: float, width: float,
                  tolerances: Tolerances = DEFAULT) -> tuple[float, float] | None:
    """Find a level a > 0 with +-a certifiably outside the sampled spectra
    for the whole subinterval, or None.

    The arguments are eigenvalue arrays, or lists of equal-length arrays
    (one per family member).  Certification: the distance from +-a to
    every sampled spectrum must exceed half the Lipschitz drift
    lipschitz * width, and for families the count of eigenvalues above the
    level must agree across members at each end, so the transported
    projectors have a well-defined constant rank over the base.  The
    candidates are the gap midpoints of the merged |spectrum|; among the
    certified ones, returns (a, margin) for the smallest a whose margin is
    within ``cutoff_atol`` of the best, so margins that differ only by
    roundoff cannot choose the level.
    """
    left, right = _member_spectra(evals_left), _member_spectra(evals_right)
    values = np.sort(np.concatenate([left.ravel(), right.ravel()]))
    merged = np.sort(np.abs(values))
    merged = merged[np.concatenate([[True], np.diff(merged) > 1e-14])]
    candidates = 0.5 * (merged[:-1] + merged[1:])
    if merged.size and merged[0] > 0:
        candidates = np.concatenate([[0.5 * merged[0]], candidates])
    if candidates.size == 0:
        candidates = np.array([1.0])
    atol = tolerances.cutoff_atol
    candidates = candidates[candidates > atol]

    margin = np.minimum(_distance(values, candidates),
                        _distance(values, -candidates))
    need = max(0.5 * lipschitz * width, atol)
    ok = (margin > need) & _count_constant(left, candidates) \
        & _count_constant(right, candidates)
    if not ok.any():
        return None
    best = margin[ok].max()
    i = int(np.argmax(ok & (margin >= best - atol)))
    return float(candidates[i]), float(margin[i])


def _member_spectra(evals) -> np.ndarray:
    """Members x eigenvalues, each row ascending."""
    return np.sort(np.atleast_2d(np.asarray(evals, dtype=float)), axis=-1)


def _distance(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Distance from each x to the nearest of the sorted values (inf when
    there are none)."""
    if values.size == 0:
        return np.full(xs.shape, np.inf)
    i = np.searchsorted(values, xs)
    above = values[np.minimum(i, values.size - 1)]
    below = values[np.maximum(i - 1, 0)]
    return np.minimum(np.abs(above - xs), np.abs(below - xs))


def _count_constant(spectra: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Whether every member (row, ascending) has the same number of
    eigenvalues above each level.

    Column j of the rows has its least and greatest value at lo[j] and
    hi[j], both ascending in j; every member's count lies between the
    number of lo above the level and the number of hi above it, and the
    counts agree exactly when those two numbers do.
    """
    lo, hi = spectra.min(axis=0), spectra.max(axis=0)
    return np.searchsorted(lo, levels, side="right") \
        == np.searchsorted(hi, levels, side="right")


class _SpectrumCache:
    """Spectral data of one curve, computed at most once per parameter
    value or sample segment and held for one public call: eigenvalues for
    the gap partition, eigendecompositions for sections, and the rate of
    each segment for the Lipschitz bound.

    The curve is an ``OperatorCurve`` or a ``bundles.CurveOfFamilies``,
    which hold their sample stack (and potentials, never read here) and
    build the operator at t anew on every ``at(t, tolerances)``, called
    here with the call's tolerances.  For a family the operator's band is
    a stack over the base, so the spectra are (vertices, n), the
    decompositions and sections stacked, and each factorization is one
    LAPACK call over the base.  The band-backed operator at t, O(n b) per
    member, is built once and held until ``release``, so its spectrum and
    its decomposition read one operator.

    With ``_spectra_from_eigh`` the spectra are read off the
    eigendecompositions, for a caller that needs a section at every
    point where it asks for a spectrum (as ``higher_spectral_flow`` does
    at every breakpoint): each operator is then factored once and dropped
    as soon as it is, and its decomposition held until ``release``.
    Otherwise the spectra come from ``eigvalsh``.
    """

    def __init__(self, curve, tolerances: Tolerances = DEFAULT,
                 _spectra_from_eigh: bool = False):
        self.curve = curve
        self.tolerances = tolerances
        self._spectra_from_eigh = _spectra_from_eigh
        self._ops: dict[float, TruncatedOperator] = {}
        self._evals: dict[float, np.ndarray] = {}
        self._decs: dict[float, EigenDecomposition] = {}
        self._rates: dict[int, float] = {}

    def __call__(self, t: float) -> np.ndarray:
        t = float(t)
        if t not in self._evals:
            self._evals[t] = (
                self.decomposition(t).eigenvalues if self._spectra_from_eigh
                else eigvalsh(self._operator(t)))
        return self._evals[t]

    def _operator(self, t: float) -> TruncatedOperator:
        if t not in self._ops:
            self._ops[t] = self.curve.at(t, self.tolerances)
        return self._ops[t]

    def decomposition(self, t: float) -> EigenDecomposition:
        t = float(t)
        if t not in self._decs:
            self._decs[t] = eigh(self._operator(t), self.tolerances)
            if self._spectra_from_eigh:
                # the spectrum at t is read off the decomposition, so
                # nothing reads the operator there again
                del self._ops[t]
        return self._decs[t]

    def section(self, t: float, cutoff: float) -> SpectralSection:
        """Inclusive-at-cutoff positive section of the operator at t."""
        return _section_above(self.decomposition(t), cutoff, "inclusive",
                              self.tolerances)

    def release(self, t: float):
        """Drop the operator at t and its eigendecomposition."""
        self._ops.pop(float(t), None)
        self._decs.pop(float(t), None)

    def lipschitz(self, u: float, v: float, safety: float) -> float:
        """Bound on the speed of every eigenvalue over [u, v].

        The curve is affine on each sample segment, so by Weyl's inequality
        the eigenvalues move at most ||D(t_{k+1}) - D(t_k)|| / (t_{k+1} - t_k)
        on segment k, and that rate is attained by the extreme eigenvalue
        of the difference.  An interval spanning several segments takes
        the largest of their rates, and a family the largest over its
        members.
        """
        ts = self.curve.ts
        last = len(ts) - 2
        first = min(max(bisect.bisect_right(ts, u) - 1, 0), last)
        stop = min(max(bisect.bisect_left(ts, v) - 1, first), last)
        return safety * max(self._segment_rate(k)
                            for k in range(first, stop + 1))

    def _segment_rate(self, k: int) -> float:
        if k not in self._rates:
            samples = self.curve.samples
            step = _band_eigvalsh(samples[k + 1] - samples[k])
            rates = np.abs(step).max(axis=-1) \
                / (self.curve.ts[k + 1] - self.curve.ts[k])
            self._rates[k] = float(np.max(rates))
        return self._rates[k]


def gap_partition(curve: OperatorCurve, tolerances: Tolerances = DEFAULT,
                  initial_breaks: Sequence[float] | None = None,
                  _cache: "_SpectrumCache | None" = None) -> Partition:
    """Adaptively bisect [0, 1] into subintervals each carrying a certified
    spectral-gap level.  Raises NoGapFound at the resolution floor and
    ResolutionExceeded past the subdivision budget."""
    cache = _cache if _cache is not None else _SpectrumCache(curve, tolerances)
    return Partition(tuple(_gap_intervals(cache, tolerances, initial_breaks)))


def _gap_intervals(cache: _SpectrumCache, tolerances: Tolerances,
                   initial_breaks: Sequence[float] | None = None):
    """The certified intervals of ``gap_partition``, yielded left to right
    as they are certified, on the spectra of the cache's curve; a refusal
    is raised when the bisection reaches it."""
    breaks = list(initial_breaks) if initial_breaks is not None \
        else list(cache.curve.ts)
    stack = [(breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)]
    stack.reverse()
    # the leftmost pending interval is on top, and a bisected one puts
    # its left half there
    certified = 0
    while stack:
        u, v = stack.pop()
        lip = cache.lipschitz(u, v, tolerances.lipschitz_safety)
        cert = certify_level(cache(u), cache(v), lip, v - u, tolerances)
        if cert is not None:
            certified += 1
            yield GapInterval(u, v, *cert)
            continue
        if v - u < tolerances.min_interval_width:
            raise NoGapFound(
                f"no certified spectral gap on [{u:.8f}, {v:.8f}] at the "
                f"resolution floor {tolerances.min_interval_width:g} "
                f"(Lipschitz bound {lip:.3g})")
        if certified + len(stack) >= tolerances.max_partitions:
            raise ResolutionExceeded(
                f"partition exceeded {tolerances.max_partitions} subintervals; "
                f"{certified} certified so far, current width {v - u:.3g}")
        mid = 0.5 * (u + v)
        stack.append((mid, v))
        stack.append((u, mid))


# ---------------------------------------------------------------------------
# spectral flow
# ---------------------------------------------------------------------------

def _brackets(intervals, section_at, q0, q1):
    """The brackets [X - Y] whose sum is the flow along a gap partition,
    given by its intervals in order (a sequence, or a stream such as
    ``_gap_intervals``).

    Yields (t, X, Y) for [P_1(0) - q0], for [P_{j+1}(t_j) - P_j(t_j)] at
    each interior breakpoint t_j, and for [q1 - P_n(1)], where
    ``P_j(t) = section_at(t, a_j)`` is taken above the level of interval
    j.  A breakpoint's sections are built before they are yielded, and
    the bracket at t_j as soon as interval j + 1 arrives, so the caller
    may drop the spectral data at t in its loop body before the next
    interval is asked for.
    """
    intervals = iter(intervals)
    prev = next(intervals)
    yield prev.t_left, section_at(prev.t_left, prev.level), q0
    for nxt in intervals:
        t = prev.t_right
        yield t, section_at(t, nxt.level), section_at(t, prev.level)
        prev = nxt
    yield prev.t_right, q1, section_at(prev.t_right, prev.level)


@dataclass(frozen=True)
class SpectralFlowResult:
    sf: int
    partitions: int
    min_gap: float


def spectral_flow_result(curve: OperatorCurve, cutoff0: float = 0.0,
                         cutoff1: float = 0.0,
                         tolerances: Tolerances = DEFAULT) -> SpectralFlowResult:
    """Spectral flow together with partition diagnostics.

    Each bracket is a difference of eigenvalue counts, the count of a
    section above level a being ``#(eig >= a - cutoff_atol)``.  Endpoint
    cutoffs move the reference projector at t=0 / t=1 from the zero level
    to the given one; eigenvalues within tolerance of a cutoff are counted
    on the nonnegative side (inclusive endpoint policy).
    """
    cache = _SpectrumCache(curve, tolerances)
    part = gap_partition(curve, tolerances, _cache=cache)
    atol = tolerances.cutoff_atol

    def count(t: float, level: float) -> int:
        return int(np.count_nonzero(cache(t) >= level - atol))

    sf = sum(x - y for _, x, y in _brackets(
        part.intervals, count, count(0.0, cutoff0), count(1.0, cutoff1)))
    return SpectralFlowResult(sf=sf, partitions=len(part.intervals),
                              min_gap=part.min_gap)


def spectral_flow(curve: OperatorCurve, cutoff0: float = 0.0,
                  cutoff1: float = 0.0,
                  tolerances: Tolerances = DEFAULT) -> int:
    """Net number of eigenvalues crossing zero, upward crossings +1,
    measured against endpoint cutoff levels.  The certificate covers the
    truncated curve only, with no check at another truncation: a curve
    built from matrices has the flow of the given matrices."""
    return spectral_flow_result(curve, cutoff0, cutoff1, tolerances).sf


def sf_pairs(curve: OperatorCurve, q0: SpectralSection, q1: SpectralSection,
             tolerances: Tolerances = DEFAULT) -> int:
    """Spectral flow between endpoint pairs (D_0, q0) and (D_1, q1).

    The sum of the difference elements of the brackets: the transported
    section on each gap subinterval is the inclusive projector above its
    certified level, so a partition of n intervals takes n + 1 difference
    elements.  The computation is repeated on a once-bisected partition
    and must agree.  Each operator on the curve is diagonalized at most
    once.
    """
    cache = _SpectrumCache(curve, tolerances)
    _validate_section(cache.decomposition(0.0), q0, tolerances)
    _validate_section(cache.decomposition(1.0), q1, tolerances)

    def run(part: Partition) -> int:
        return sum(difference_element(x, y, tolerances).value
                   for _, x, y in _brackets(part.intervals, cache.section,
                                            q0, q1))

    part = gap_partition(curve, tolerances, _cache=cache)
    value = run(part)
    finer = []
    for iv in part.intervals:
        finer.extend([iv.t_left, 0.5 * (iv.t_left + iv.t_right)])
    finer.append(1.0)
    refined = run(gap_partition(curve, tolerances, initial_breaks=finer,
                                _cache=cache))
    if refined != value:
        raise UnstableIndex(
            f"sf_pairs changed under partition refinement: "
            f"{value} vs {refined}")
    return value
