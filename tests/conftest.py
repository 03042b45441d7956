"""Shared fixtures and independent oracles for the test suite.

Oracles here never call the code paths they check: the finite-difference
Dirac spectrum, the Berry-curvature Riemann sum, and the random-object
constructions are self-contained.
"""

import dataclasses
import functools
from contextlib import contextmanager

import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import specflow.bundles
import specflow.flow
import specflow.mapping_torus
import specflow.operators
from specflow import SpectralSection, SymbolFunction, TruncatedOperator
from specflow.config import DEFAULT
from specflow.errors import IllConditioned
from specflow.operators import NullSplit, _interior_split, eigvalsh
from specflow.toeplitz import SmallSubspaces


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def derivative_matrix(trunc) -> np.ndarray:
    """The matrix of -i d/dx: entry k on every copy of mode k."""
    return np.diag(trunc.modes().astype(complex))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def section_family_of(section, members: int) -> SpectralSection:
    """The family of ``members`` copies of a single section, as one
    stacked section."""
    return SpectralSection(np.stack([section.basis] * members),
                           np.full(members, section.threshold_window),
                           "explicit")


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(dim, rng)
    return u[:, :rank] @ u[:, :rank].conj().T


def random_hermitian(dim: int, rng: np.random.Generator,
                     scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_hermitian_symbol(rank: int, bandwidth: int,
                            rng: np.random.Generator,
                            scale: float = 0.2) -> SymbolFunction:
    """Hermitian-valued trigonometric polynomial: c_{-k} = c_k*."""
    coeffs = {0: scale * random_hermitian(rank, rng)}
    for k in range(1, bandwidth + 1):
        c = scale * (rng.normal(size=(rank, rank))
                     + 1j * rng.normal(size=(rank, rank)))
        coeffs[k] = c
        coeffs[-k] = c.conj().T
    return SymbolFunction(coeffs, rank=rank)


def skewed_shift_potential(shift: float, skew: float) -> SymbolFunction:
    """The constant ``shift`` plus a coupling 0.1 of modes one apart whose
    c_{-1} is c_1* + skew i, so its Hermitian defect is ``skew``."""
    return SymbolFunction({0: np.array([[shift]]), 1: np.array([[0.1]]),
                           -1: np.array([[0.1 + 1j * skew]])}, rank=1)


def dense_of_band(band: np.ndarray) -> np.ndarray:
    """The dense matrices (..., n, n) of a band stack (..., 2b + 1, n) in
    the layout of ``TruncatedOperator.band``, ``band[..., b + d, j] =
    M[..., j + d, j]``, rebuilt one diagonal at a time."""
    b, n = band.shape[-2] // 2, band.shape[-1]
    out = np.zeros(band.shape[:-2] + (n, n), dtype=band.dtype)
    for d in range(-b, b + 1):
        j = np.arange(max(0, -d), min(n, n - d))
        out[..., j + d, j] = band[..., b + d, j]
    return out


def reference_multiplications(symbols, trunc) -> np.ndarray:
    """The dense multiplication matrices of the symbols, (len(symbols),
    dim, dim), as the library built them before operators were stored by
    their band: one block assignment per Fourier mode into a zero stack."""
    n, N = 2 * trunc.max_mode + 1, trunc.bundle_rank
    out = np.zeros((len(symbols), trunc.dim, trunc.dim), dtype=complex)
    blocks = out.reshape(len(symbols), n, N, n, N)
    for d in sorted(set().union(*(s.coefficients for s in symbols))):
        k = np.arange(max(0, -d), min(n, n - d))
        if k.size == 0:
            continue
        members = [i for i, s in enumerate(symbols) if d in s.coefficients]
        coeffs = np.stack([symbols[i].coefficients[d] for i in members])
        blocks[np.array(members)[:, None], (k + d)[None, :], :,
               k[None, :], :] = coeffs[:, None]
    return out


def reference_dirac(potentials, trunc) -> np.ndarray:
    """The dense Dirac matrices of the potentials, (len(potentials), dim,
    dim): ``reference_multiplications`` plus the mode diagonal, added as a
    full complex matrix."""
    out = reference_multiplications(potentials, trunc)
    out += np.diag(trunc.modes().astype(complex))
    return out


def reference_interpolation(ts, samples: np.ndarray, t: float) -> np.ndarray:
    """The dense operator at t of a curve of dense samples: the sample at
    a sample point, else ``(1 - lam) S_i + lam S_{i+1}``."""
    ts = list(ts)
    if t in ts:
        return samples[ts.index(t)]
    i = min(max(int(np.searchsorted(ts, t)) - 1, 0), len(ts) - 2)
    lam = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1 - lam) * samples[i] + lam * samples[i + 1]


def hermitian_guard_edge(stack: np.ndarray) -> float:
    """The smallest ``hermitian_max`` that accepts every member M of a
    stack: the largest ``||M - M*||_max / (1 + ||M||_max)``."""
    defect = np.abs(stack - np.swapaxes(stack.conj(), -1, -2))
    return float((defect.max(axis=(-2, -1))
                  / (1 + np.abs(stack).max(axis=(-2, -1)))).max())


def random_trig_unitary(rank: int, rng: np.random.Generator,
                        max_winding: int = 2,
                        product_factors: int = 1):
    """Pointwise-unitary trigonometric polynomial U diag(e^{i n_j x}) V,
    optionally a product of several; returns (symbol, total winding)."""
    symbol = None
    total = 0
    for _ in range(product_factors):
        ns = rng.integers(-max_winding, max_winding + 1, size=rank)
        u = random_unitary(rank, rng)
        v = random_unitary(rank, rng)
        coeffs = {}
        for j, nj in enumerate(ns):
            e = np.zeros((rank, rank), dtype=complex)
            e[j, j] = 1.0
            blk = u @ e @ v
            coeffs[int(nj)] = coeffs.get(int(nj), 0) + blk
        factor = SymbolFunction(coeffs, rank=rank, unitary=True)
        symbol = factor if symbol is None else symbol.product(factor,
                                                              unitary=True)
        total += int(ns.sum())
    return symbol, total


#: Windings (n_1, n_2) of the two symbols of the index_flow benchmark.
FLOW_WINDINGS = ((1, 0), (0, -1))


def flow_symbols(seed: int) -> list:
    """(windings, g, U) of the two symbols g = U diag(e^{i n_1 x},
    e^{i n_2 x}) V of the index_flow benchmark at a seed, drawn as the
    benchmark draws them: Haar U, then V, from one ``default_rng(seed)``,
    symbol by symbol over ``FLOW_WINDINGS``.  The potential i g' g* of g
    is the constant -U diag(n_1, n_2) U*."""
    rng = rng_for(seed)
    symbols = []
    for windings in FLOW_WINDINGS:
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        coefficients = {}
        for j, n in enumerate(windings):
            e = np.zeros((2, 2), dtype=complex)
            e[j, j] = 1.0
            coefficients[n] = coefficients.get(n, 0) + u @ e @ v
        symbols.append((windings, SymbolFunction(coefficients, rank=2,
                                                 unitary=True), u))
    return symbols


def factored_operators(monkeypatch) -> list:
    """Route specflow.flow.eigh through a recorder: one entry per call, in
    order, holding the operator it factors."""
    factored = []
    original = specflow.flow.eigh

    def recorded(operator, *args, **kwargs):
        factored.append(operator)
        return original(operator, *args, **kwargs)

    monkeypatch.setattr(specflow.flow, "eigh", recorded)
    return factored


def splu_calls(monkeypatch) -> list:
    """Record every ``scipy.sparse.linalg.splu`` factorization, which
    ``specflow.operators`` looks up on that module when it factors: one
    entry per factorization, in order, holding the order of its matrix."""
    calls = []
    original = scipy.sparse.linalg.splu

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    return calls


def block_solve_counts(monkeypatch) -> list:
    """Route every ``_smallest_block`` call of ``specflow.operators``
    through a wrapper that counts the solves of the solve it is handed:
    one entry per block, in order, holding its number of solves."""
    counts = []
    original = specflow.operators._smallest_block

    def counted(solve, *args):
        at = len(counts)
        counts.append(0)

        def counted_solve(x):
            counts[at] += 1
            return solve(x)

        return original(counted_solve, *args)

    monkeypatch.setattr(specflow.operators, "_smallest_block", counted)
    return counts


def next_bound_residuals(monkeypatch) -> dict:
    """Record the residual norm ``||mat y - theta y||`` of the Ritz pair
    behind each positive bound that ``_next_eigenvalue_bound`` of
    ``specflow.operators`` returns, keyed by the bound's square root: the
    ``s_next`` that ``small_singular_vectors`` reports from it."""
    residuals = {}
    original = specflow.operators._next_eigenvalue_bound

    def recorded(mat, y, theta):
        bound = original(mat, y, theta)
        if bound > 0:
            residuals[float(np.sqrt(bound))] = float(
                np.linalg.norm(mat @ y[:, 0] - theta[0] * y[:, 0]))
        return bound

    monkeypatch.setattr(specflow.operators, "_next_eigenvalue_bound",
                        recorded)
    return residuals


def clustered_band_matrix(seed: int, n: int = 200) -> np.ndarray:
    """A complex n x n band matrix, kl = ku = 2, with complex normal
    diagonals plus 10 I and rows 50 and 120 zeroed: two null directions
    on each side under kept singular values that cluster (5.1 to 6.2 for
    seeds 0 to 19; 6.009 and 6.012 at seed 17)."""
    rng = rng_for(seed)
    t = 10.0 * np.eye(n, dtype=complex)
    for d in range(-2, 3):
        size = n - abs(d)
        t += np.diag(rng.normal(size=size) + 1j * rng.normal(size=size), d)
    t[[50, 120]] = 0
    return t


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def fd_dirac_cos_spectrum(points: int = 1025, low_mode: int = 10,
                          n_wanted: int = 5) -> np.ndarray:
    """Finite-difference oracle for -i d/dx + cos(x): central differences
    on a periodic grid, keeping only eigenpairs whose eigenvectors are
    low-frequency (the central stencil also carries grid-scale doubler
    modes near zero, which the Fourier mass filter removes).  Returns the
    n_wanted eigenvalues closest to zero, sorted ascending."""
    m = points
    h = 2 * np.pi / m
    xs = h * np.arange(m)
    c = np.zeros((m, m), dtype=complex)
    idx = np.arange(m)
    c[idx, (idx + 1) % m] = 1.0 / (2 * h)
    c[idx, (idx - 1) % m] = -1.0 / (2 * h)
    ham = -1j * c + np.diag(np.cos(xs))
    w, v = np.linalg.eigh(ham)
    spectra = np.fft.fft(v, axis=0)
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    low = np.abs(freqs) <= low_mode
    mass = (np.abs(spectra[low, :]) ** 2).sum(axis=0) \
        / (np.abs(spectra) ** 2).sum(axis=0)
    keep = w[mass > 0.9]
    order = np.argsort(np.abs(keep))
    return np.sort(keep[order[:n_wanted]])


def berry_chern_oracle(proj_fn, grid: int = 64) -> float:
    """Riemann sum of the Berry curvature -Tr(P [d1 P, d2 P]) / (2 pi i)
    with central differences; sign matches the package's plaquette
    orientation (the reference two-band wrap integrates to +1)."""
    bs = 2 * np.pi * np.arange(grid) / grid
    h = 2 * np.pi / grid
    total = 0.0 + 0.0j
    for i in range(grid):
        for j in range(grid):
            p = proj_fn(bs[i], bs[j])
            d1 = (proj_fn(bs[(i + 1) % grid], bs[j])
                  - proj_fn(bs[i - 1], bs[j])) / (2 * h)
            d2 = (proj_fn(bs[i], bs[(j + 1) % grid])
                  - proj_fn(bs[i], bs[j - 1])) / (2 * h)
            total += np.trace(p @ (d1 @ d2 - d2 @ d1)) * h * h
    return float((-total / (2j * np.pi)).real)


def member_spectra(evals) -> list:
    """The spectra of a list of arrays, or the rows of a (members, n)
    array, or a single spectrum, each sorted."""
    if not isinstance(evals, list):
        evals = list(np.atleast_2d(np.asarray(evals)))
    return [np.sort(np.asarray(e)) for e in evals]


def reference_certify_level(evals_left, evals_right, lipschitz, width,
                            tolerances=DEFAULT):
    """``certify_level`` written out over the candidate levels: among the
    certified candidates, the smallest whose margin is within
    ``cutoff_atol`` of the best margin.  The distance from a level to a
    sorted spectrum is read at the two neighbours ``np.searchsorted``
    finds, and the count above it from the insertion point, so every
    candidate is checked in O(log n) per spectrum."""
    lists = member_spectra(evals_left)
    lists_r = member_spectra(evals_right)
    merged = np.sort(np.abs(np.concatenate(lists + lists_r)))
    merged = merged[np.concatenate([[True], np.diff(merged) > 1e-14])]
    candidates = []
    if merged.size and merged[0] > 0:
        candidates.append(0.5 * merged[0])
    candidates.extend(0.5 * (merged[:-1] + merged[1:]))
    if not candidates:
        candidates = [1.0]
    candidates = np.array(candidates)

    def dist(x):
        out = np.full(x.shape, np.inf)
        for sp in lists + lists_r:
            at = np.searchsorted(sp, x)
            for near in (np.clip(at - 1, 0, None), np.clip(at, None,
                                                           len(sp) - 1)):
                out = np.minimum(out, np.abs(sp[near] - x))
        return out

    def count_constant(a):
        constant = np.ones(a.shape, dtype=bool)
        for group in (lists, lists_r):
            counts = [len(sp) - np.searchsorted(sp, a, side="right")
                      for sp in group]
            for c in counts[1:]:
                constant &= c == counts[0]
        return constant

    atol = tolerances.cutoff_atol
    need = max(0.5 * lipschitz * width, atol)
    margins = np.minimum(dist(candidates), dist(-candidates))
    certified = (candidates > atol) & (margins > need) \
        & count_constant(candidates)
    if not certified.any():
        return None
    best = margins[certified].max()
    first = np.flatnonzero(certified & (margins >= best - atol))[0]
    return float(candidates[first]), float(margins[first])


@pytest.fixture(autouse=True)
def certify_level_matches_reference(monkeypatch):
    """Check every level the suite certifies against the reference loop."""
    original = specflow.flow.certify_level

    def checked(*args, **kwargs):
        level = original(*args, **kwargs)
        assert level == reference_certify_level(*args, **kwargs)
        return level

    monkeypatch.setattr(specflow.flow, "certify_level", checked)


def reference_mapping_torus_matrix(spec, m_u: int, samples=None):
    """The Cayley-stencil matrix and ``sigma_max_bound`` assembled block by
    block: one dense midpoint operator per slice, interpolated from the
    dense sample matrices (by default ``dense_of_band(spec.path.samples)``),
    the blocks ``-I/h + D/2`` and ``I/h + D/2`` (times the gluing matrix
    on the wrap row), and ``sp.bmat`` over all of them."""
    if samples is None:
        samples = dense_of_band(spec.path.samples)
    dim = spec.truncation.dim
    h = 1.0 / m_u
    eye = np.eye(dim)
    blocks = [[None] * m_u for _ in range(m_u)]
    for j in range(m_u):
        d_mid = reference_interpolation(spec.path.ts, samples, (j + 0.5) * h)
        blocks[j][j] = -eye / h + 0.5 * d_mid
        right = eye / h + 0.5 * d_mid
        if j + 1 < m_u:
            blocks[j][j + 1] = right
        else:
            blocks[j][0] = right @ spec.glue_matrix()
    dnorm = max(float(np.abs(eigvalsh(op)).max()) for op in samples)
    return sp.bmat(blocks, format="csc"), 2.0 / h + dnorm + 1.0


def assert_matches_reference_assembly(op, samples=None):
    matrix, bound = reference_mapping_torus_matrix(op.spec, op.m_u, samples)
    assert op.matrix.shape == matrix.shape
    assert op.matrix.dtype == matrix.dtype
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op.matrix, name), getattr(matrix, name))
    assert op.sigma_max_bound == bound


@pytest.fixture(autouse=True)
def mapping_torus_matches_reference(monkeypatch):
    """Check every matrix the suite assembles against the block-by-block
    reference, wherever ``build_mapping_torus`` was imported to."""
    original = specflow.mapping_torus.build_mapping_torus

    def checked(spec, m_u, tolerances=DEFAULT):
        op = original(spec, m_u, tolerances)
        assert_matches_reference_assembly(op)
        return op

    for module in list(sys.modules.values()):
        if vars(module).get("build_mapping_torus") is original:
            monkeypatch.setattr(module, "build_mapping_torus", checked)


def assert_same_eigenspaces(w, v, w_ref, v_ref, rtol=1e-12):
    """Two eigendecompositions of one Hermitian matrix, or of each member
    of a stack (..., n, n), agree: ascending eigenvalues within ``rtol``
    of the spectrum's scale (at least 1), orthonormal columns, and, for
    every cluster of the reference spectrum (values closer than 1e-8 of
    that scale), equal spectral projectors to within 1e-9.  Inside a
    cluster the two frames may differ."""
    assert w.shape == w_ref.shape and v.shape == v_ref.shape
    n = w_ref.shape[-1]
    w, w_ref = w.reshape(-1, n), w_ref.reshape(-1, n)
    v, v_ref = v.reshape(-1, n, n), v_ref.reshape(-1, n, n)
    scale = np.maximum(np.abs(w_ref).max(axis=-1, initial=0.0), 1.0)
    assert np.all(np.abs(w - w_ref).max(axis=-1, initial=0.0) <= rtol * scale)
    gram = np.swapaxes(v.conj(), -1, -2) @ v - np.eye(n)
    assert np.abs(gram).max(initial=0.0) <= 1e-12
    # every cluster as (member, first column, size), the clusters of one
    # size projected together, a few MB at a time
    first = np.ones(w_ref.shape, dtype=bool)
    first[:, 1:] = np.diff(w_ref, axis=-1) > 1e-8 * scale[:, None]
    member, start = np.nonzero(first)
    size = np.diff(np.r_[np.flatnonzero(first.ravel()), first.size])
    chunk = max(1, 2 ** 18 // max(n * n, 1))
    for s in np.unique(size):
        picked = np.flatnonzero(size == s)
        for at in range(0, len(picked), chunk):
            i = picked[at:at + chunk]
            columns = start[i][:, None] + np.arange(s)
            p, p_ref = (y @ np.swapaxes(y.conj(), -1, -2) for y in (
                np.swapaxes(x[member[i][:, None], :, columns], -1, -2)
                for x in (v, v_ref)))
            assert np.abs(p - p_ref).max() <= 1e-9


def svd_shapes(monkeypatch) -> list:
    """Record the shape of every matrix that ``np.linalg.svd`` factors."""
    shapes = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def dense_null_split(m, tolerances=DEFAULT, svd=np.linalg.svd):
    """Rank, kernel, cokernel and singular values of ``m`` from its full
    dense SVD, split at ``rank_rtol`` times the largest singular value;
    raises IllConditioned, as ``split_rank`` does, when the smallest kept
    value exceeds the largest nonzero dropped one by less than
    ``svd_gap_factor``."""
    u, s, vh = svd(m)
    threshold = tolerances.rank_rtol * s[0] if s[0] > 0 else np.inf
    rank = int(np.count_nonzero(s >= threshold))
    if 0 < rank < s.size and s[rank] > 0 \
            and s[rank - 1] / s[rank] < tolerances.svd_gap_factor:
        raise IllConditioned("singular values cluster at the rank threshold")
    return rank, vh[rank:].conj().T, u[:, rank:], s


def sine_of_largest_angle(a, b) -> float:
    """||(I - A A*) B||_2 for orthonormal frames A and B of equal width:
    the sine of the largest principal angle between their spans."""
    assert a.shape == b.shape
    if a.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(b - a @ (a.conj().T @ b), 2))


def assert_matches_dense_split(m, split, tolerances=DEFAULT,
                               svd=np.linalg.svd):
    """The split has the dense SVD's rank, singular values (to roundoff
    in the largest) and kernel and cokernel spans."""
    rank, kernel, cokernel, s = dense_null_split(m, tolerances, svd)
    assert split.rank == rank
    assert np.abs(split.singular_values - s).max() <= 1e-12 * max(s[0], 1e-300)
    assert sine_of_largest_angle(split.kernel, kernel) <= 1e-6
    assert sine_of_largest_angle(split.cokernel, cokernel) <= 1e-6


def member_split(split: NullSplit, j: int) -> NullSplit:
    """Member j of a group of stacked splits, without the member axis."""
    return NullSplit(rank=split.rank, kernel=split.kernel[j],
                     cokernel=split.cokernel[j],
                     singular_values=split.singular_values[j],
                     gap_ratio=float(split.gap_ratio[j]))


def lone_split(matrix, tolerances=DEFAULT) -> NullSplit:
    """The ``null_splits`` split of one matrix, given as a stack of one."""
    (_, split), = specflow.operators.null_splits(np.asarray(matrix)[None],
                                                 tolerances)
    return member_split(split, 0)


@pytest.fixture(autouse=True)
def band_null_split_matches_dense(monkeypatch, stacked_calls_match_members):
    """Repeat every band-route split of the suite (``_band_null_split``,
    which ``null_splits`` calls for each large square member) with the
    dense SVD of its matrix: a refusal must be the dense route's refusal
    too, and a split must have its rank, singular values and subspaces.
    The SVD is the one in place before the test runs, so a test that
    counts SVD calls does not count these.  It is set up after
    ``stacked_calls_match_members``, whose member-by-member repeats run
    on the unchecked split; ``inspect.unwrap`` gives that split too."""
    ops = specflow.operators
    original = ops._band_null_split
    svd = np.linalg.svd

    @functools.wraps(original)
    def checked(band, tolerances):
        try:
            split = original(band, tolerances)
        except IllConditioned:
            with pytest.raises(IllConditioned):
                dense_null_split(ops._dense(band), tolerances, svd)
            raise
        if split is not None:
            assert_matches_dense_split(ops._dense(band), split, tolerances,
                                       svd)
        return split

    monkeypatch.setattr(ops, "_band_null_split", checked)


def assert_same_split(a, b):
    """Two ``NullSplit`` records with bit-identical fields."""
    assert a.rank == b.rank
    for name in ("kernel", "cokernel", "singular_values"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and np.array_equal(x, y), name
    assert a.gap_ratio == b.gap_ratio


def reference_small_subspaces(t, tolerances=DEFAULT) -> SmallSubspaces:
    """The small subspaces of one Toeplitz compression from the split of
    its dense matrix alone (``lone_split``) and ``_interior_split`` of
    each lifted frame: the single-compression route, against which the
    stacked split is compared bit for bit."""
    split = lone_split(t.matrix, tolerances)
    basis, interior = t.section.basis, t.truncation.interior()
    ker = _interior_split(basis @ split.kernel, interior, tolerances)[1]
    cok = _interior_split(basis @ split.cokernel, interior, tolerances)[1]
    nk, nc = ker.shape[1], cok.shape[1]
    return SmallSubspaces(kernel_interior=ker, cokernel_interior=cok,
                          kernel_dim=nk, cokernel_dim=nc,
                          edge_artifacts=split.kernel.shape[1]
                          + split.cokernel.shape[1] - nk - nc,
                          singular_values=split.singular_values,
                          gap_ratio=split.gap_ratio)


def assert_same_subspaces(a, b):
    """Two ``SmallSubspaces`` records of one compression with equal
    counts and ratio and bit-identical arrays of one dtype."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.dtype == y.dtype, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def kernels_now(*names):
    """A context manager that puts back, for its body, the kernels the
    (owner, name) pairs hold now, and then whatever they hold by then; a
    kernel that a class only inherits is inherited again afterwards."""
    kernels = [(owner, name, getattr(owner, name)) for owner, name in names]
    inherited = object()

    @contextmanager
    def pristine():
        current = [(owner, name, vars(owner).get(name, inherited))
                   for owner, name, _ in kernels]
        for owner, name, kernel in kernels:
            setattr(owner, name, kernel)
        try:
            yield
        finally:
            for owner, name, kernel in current:
                if kernel is inherited:
                    delattr(owner, name)
                else:
                    setattr(owner, name, kernel)

    return pristine


@pytest.fixture(autouse=True)
def stacked_calls_match_members(monkeypatch):
    """Repeat every stacked ``eigh`` and ``null_splits`` of the suite
    member by member, wherever they were imported to: each member's
    eigenvalues, eigenvectors and split must be bit-identical to those of
    its own call, and each member must sit in the group of its rank.  A
    member that splits into other diagonal blocks alone than in its stack
    (``_split_starts``) is solved from other blocks, so its eigenvalues
    and cluster projectors must agree to roundoff instead
    (``assert_same_eigenspaces``).  A
    member of a family's operator is repeated as the operator of its own
    band, a member of an array as a stack of one, and a member of a band
    stack as a stack of one holding the dense matrix of its band; a dense
    stack of one is not repeated, since that would be its own call.  The
    repeats run on the numpy and scipy kernels and the band split in
    place before the test, so a test that counts factorizations does not
    count them."""
    eigh = specflow.operators.eigh
    null_splits = specflow.operators.null_splits
    pristine_kernels = kernels_now(
        (np.linalg, "eigh"), (np.linalg, "svd"),
        (specflow.operators, "_band_singular_values"),
        (specflow.operators, "_band_null_split"),
        (specflow.operators, "_band_spectrum"))

    def checked_eigh(operator, tolerances=DEFAULT):
        dec = eigh(operator, tolerances)
        banded = isinstance(operator, TruncatedOperator)
        held = operator.band if banded else np.asarray(operator)
        if held.ndim > 2:
            n = held.shape[-1]
            w = dec.eigenvalues.reshape(-1, n)
            v = dec.eigenvectors.reshape(-1, n, n)
            ops = specflow.operators

            def starts(a):
                return ops._split_starts(a if banded else ops._band_of(a))

            whole = starts(held)
            for i, member in enumerate(held.reshape(-1, *held.shape[-2:])):
                alike = np.array_equal(starts(member), whole)
                if banded:
                    member = TruncatedOperator._of_band(
                        member, operator.truncation, tolerances)
                with pristine_kernels():
                    alone = eigh(member, tolerances)
                if alike:
                    assert np.array_equal(alone.eigenvalues, w[i])
                    assert np.array_equal(alone.eigenvectors, v[i])
                else:
                    assert_same_eigenspaces(alone.eigenvalues,
                                            alone.eigenvectors, w[i], v[i])
        return dec

    def checked_null_splits(stack, tolerances=DEFAULT, banded=False):
        groups = null_splits(stack, tolerances, banded)
        stack = np.asarray(stack)
        seen = []
        for members, split in groups:
            seen.extend(members.tolist())
            # a dense stack of one would only repeat its own call
            if len(stack) == 1 and not banded:
                continue
            for j, i in enumerate(members):
                member = dense_of_band(stack[i]) if banded else stack[i]
                with pristine_kernels():
                    (_, alone), = null_splits(member[None], tolerances)
                assert_same_split(member_split(alone, 0),
                                  member_split(split, j))
        assert sorted(seen) == list(range(len(stack)))
        return groups

    for module in list(sys.modules.values()):
        if vars(module).get("eigh") is eigh:
            monkeypatch.setattr(module, "eigh", checked_eigh)
        if vars(module).get("null_splits") is null_splits:
            monkeypatch.setattr(module, "null_splits", checked_null_splits)


@pytest.fixture(autouse=True)
def split_solves_match_dense(monkeypatch, stacked_calls_match_members):
    """Repeat every split-band solve of the suite (``_band_spectrum`` of a
    band that splits into blocks, which ``eigh`` and ``eigvalsh`` both
    call) with the dense solver of the same matrices: with ``vectors``,
    each member's eigenvalues and cluster projectors must agree with
    ``np.linalg.eigh`` (``assert_same_eigenspaces``), and without, its
    eigenvalues with ``np.linalg.eigvalsh`` within 1e-12 of the spectrum's
    scale (at least 1), a few MB of members at a time.  A member too large
    to hold densely (n > 2048, a Dirac operator at K = 4096) is compared
    with LAPACK's band solver on its lower rows instead.  The solvers are
    the ones in place before the test runs, so a test that counts LAPACK
    calls does not count these.  It is set up after
    ``stacked_calls_match_members``, whose member-by-member repeats run on
    the unchecked solver."""
    ops = specflow.operators
    original = ops._band_spectrum
    dense_eigh, dense_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    banded_eigvals = scipy.linalg.eigvals_banded

    def reference_eigvalsh(band):
        width, n = band.shape[-2] // 2, band.shape[-1]
        flat = band.reshape(-1, 2 * width + 1, n)
        if n > 2048:
            parts = [banded_eigvals(b[width:], lower=True)[None]
                     for b in flat]
        else:
            chunk = max(1, 2 ** 18 // (n * n))
            parts = [dense_eigvalsh(ops._dense(flat[i:i + chunk]))
                     for i in range(0, len(flat), chunk)]
        return np.concatenate(parts).reshape(band.shape[:-2] + (n,))

    def checked(band, vectors=False):
        w, v = original(band, vectors)
        if len(ops._split_starts(band)) == 1:
            return w, v
        if vectors:
            assert_same_eigenspaces(w, v, *dense_eigh(ops._dense(band)))
        else:
            w_ref = reference_eigvalsh(band)
            scale = np.maximum(np.abs(w_ref).max(axis=-1, initial=0.0), 1.0)
            assert np.all(np.abs(w - w_ref).max(axis=-1, initial=0.0)
                          <= 1e-12 * scale)
        return w, v

    monkeypatch.setattr(ops, "_band_spectrum", checked)


@pytest.fixture(autouse=True)
def sums_match_their_frames(monkeypatch):
    """Measure the frames of every ``ProjectorFamily.direct_sum`` of the
    suite afresh: the Gram defects, steps and link determinants the sum
    assembled from its parts must agree with them within 1e-12.  A step
    is ``sqrt(1 - s^2)`` of a singular value s that is exact to roundoff,
    so steps are compared by their squares: near s = 1 the square root
    turns a roundoff of 1e-16 in s into one of 1e-8 in the step.  The
    measures run on the numpy kernels in place before the test, so a
    test that counts factorizations does not count them."""
    family = specflow.bundles.ProjectorFamily
    original = family.direct_sum
    pristine_kernels = kernels_now((np.linalg, "det"), (np.linalg, "svd"),
                                   (np.linalg, "norm"))

    def checked(self, other):
        out = original(self, other)
        with pristine_kernels():
            fresh = specflow.bundles._FrameMeasures.of(out.base, out._frames)
        kept, measured = out._measures, fresh
        for x, y in ((kept.defects, measured.defects),
                     (kept.steps ** 2, measured.steps ** 2),
                     (kept.links, measured.links)):
            assert x.shape == y.shape
            assert np.abs(x - y).max(initial=0.0) <= 1e-12
        return out

    monkeypatch.setattr(family, "direct_sum", checked)


def assert_inclusions(x, y):
    """The comparison maps of two sections, or stacked sections, of one
    eigenbasis are coordinate inclusions: every singular value lies
    within 1e-12 of 1, so no ``rank_rtol`` or ``svd_gap_factor`` could
    refuse their rank."""
    maps = specflow.flow.comparison_map(x, y)
    if maps.size:
        s = np.linalg.svd(maps, compute_uv=False)
        assert np.abs(s - 1).max() <= 1e-12


def reference_sf_pairs(curve, q0, q1, tolerances=DEFAULT) -> int:
    """``sf_pairs`` as it was summed before its interior brackets were
    read as eigenvalue counts: a difference element of every bracket,
    from the sections of the eigendecomposition at each breakpoint, on
    the gap partition and on its once-bisected refinement, which must
    agree.  Every interior comparison map is checked to be an inclusion
    (``assert_inclusions``), and each interior breakpoint's data is
    dropped once its bracket is taken."""
    flow = specflow.flow
    cache = flow._SpectrumCache(curve, tolerances)
    part = flow.gap_partition(curve, tolerances, _cache=cache)
    finer = [t for iv in part.intervals
             for t in (iv.t_left, 0.5 * (iv.t_left + iv.t_right))] + [1.0]
    refined = flow.gap_partition(curve, tolerances, initial_breaks=finer,
                                 _cache=cache)
    values = []
    for intervals in (part.intervals, refined.intervals):
        first, last = intervals[0], intervals[-1]
        value = flow.difference_element(
            cache.section(first.t_left, first.level), q0, tolerances).value
        for a, b in zip(intervals, intervals[1:]):
            x = cache.section(a.t_right, b.level)
            y = cache.section(a.t_right, a.level)
            assert_inclusions(x, y)
            value += flow.difference_element(x, y, tolerances).value
            cache.release(a.t_right)
        values.append(value + flow.difference_element(
            q1, cache.section(last.t_right, last.level), tolerances).value)
    assert values[0] == values[1]
    return values[0]


def assert_interior_frames_span(x, y, frames):
    """The kernel and cokernel frames of the interior bracket [X - Y] of
    stacked sections of one eigenbasis span what the split of its
    comparison maps, lifted, spans: the sine of the largest principal
    angle is at most 1e-10 in every member."""
    assert_inclusions(x, y)
    (_, split), = specflow.operators.null_splits(
        specflow.flow.comparison_map(x, y))
    for old, new in zip((x.basis @ split.kernel, y.basis @ split.cokernel),
                        frames):
        assert old.shape == new.shape
        if new.shape[-1]:
            residual = old - new @ (np.swapaxes(new.conj(), -1, -2) @ old)
            assert np.linalg.norm(residual, 2, axis=(-2, -1)).max() <= 1e-10


@pytest.fixture(autouse=True)
def interior_brackets_match_reference(monkeypatch):
    """Check every ``sf_pairs`` value of the suite against
    ``reference_sf_pairs``, wherever it was imported to, and every
    interior bracket that ``higher_spectral_flow`` frames against the
    split of its comparison maps (``assert_interior_frames_span``).
    The references run on the kernels in place before the test, so a
    test that counts factorizations, sections or operators does not
    count them."""
    flow, bundles = specflow.flow, specflow.bundles
    pristine = kernels_now(
        (np.linalg, "svd"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
        (flow, "eigh"), (flow, "eigvalsh"), (flow, "_band_spectrum"),
        (flow, "difference_element"), (flow, "gap_partition"),
        (flow.OperatorCurve, "at"), (specflow.operators, "null_splits"))
    sf_pairs, interior_frames = flow.sf_pairs, bundles._interior_frames

    def checked_sf_pairs(curve, q0, q1, tolerances=DEFAULT):
        value = sf_pairs(curve, q0, q1, tolerances)
        with pristine():
            assert value == reference_sf_pairs(curve, q0, q1, tolerances)
        return value

    def checked_interior_frames(x, y):
        frames = interior_frames(x, y)
        with pristine():
            assert_interior_frames_span(x, y, frames)
        return frames

    for module in list(sys.modules.values()):
        if vars(module).get("sf_pairs") is sf_pairs:
            monkeypatch.setattr(module, "sf_pairs", checked_sf_pairs)
    monkeypatch.setattr(bundles, "_interior_frames", checked_interior_frames)


def reference_odd_chern_cochain(g_family, base):
    """The degree-1 odd-Chern cochain vertex by vertex: each symbol and
    its derivative evaluated on the fiber grid by ``evaluate``, spectral
    base derivatives, and rank x rank ``matmul``s over the
    (m, m, fiber) batch; returns the plaquette values and their total."""
    from specflow.toeplitz import _FIBER_GRID, CH1_NORMALIZATION
    fam = {v: g_family(v) if callable(g_family) else g_family[v]
           for v in base.vertices}
    m = base.size
    rank = fam[base.vertices[0]].rank
    xs = 2 * np.pi * np.arange(_FIBER_GRID) / _FIBER_GRID
    g = np.empty((m, m, _FIBER_GRID, rank, rank), dtype=complex)
    dxg = np.empty_like(g)
    for (i, j) in base.vertices:
        g[i, j] = fam[i, j].evaluate(xs)
        dxg[i, j] = fam[i, j].derivative().evaluate(xs)
    freq = 1j * np.fft.fftfreq(m, d=1.0 / m)
    d1g = np.fft.ifft(freq[:, None, None, None, None] * np.fft.fft(g, axis=0),
                      axis=0)
    d2g = np.fft.ifft(freq[None, :, None, None, None] * np.fft.fft(g, axis=1),
                      axis=1)
    ginv = np.linalg.inv(g)
    a, b1, b2 = ginv @ dxg, ginv @ d1g, ginv @ d2g
    density = np.trace(a @ (b1 @ b2 - b2 @ b1), axis1=-2, axis2=-1)
    density = 0.5 * density.sum(axis=2).real * (2 * np.pi / _FIBER_GRID)
    h = 2 * np.pi / m
    values = {p: float(CH1_NORMALIZATION * h * h * np.mean(
        [density[c] for c in base.plaquette_corners(p)]))
        for p in base.plaquettes}
    return values, float(sum(values.values()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
