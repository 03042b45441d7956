"""Shared fixtures and independent oracles for the test suite.

Oracles here never call the code paths they check: the finite-difference
Dirac spectrum, the Berry-curvature Riemann sum, and the random-object
constructions are self-contained.
"""

import dataclasses
from collections import Counter
from contextlib import contextmanager

import sys

import numpy as np
import pytest
import scipy.sparse as sp

import specflow.bundles
import specflow.flow
import specflow.mapping_torus
import specflow.operators
from specflow import SpectralSection, SymbolFunction, TruncatedOperator
from specflow.config import DEFAULT
from specflow.errors import IllConditioned
from specflow.operators import NullSplit, eigvalsh, interior_directions
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


def count_eigh(monkeypatch):
    """Route specflow.flow.eigh through a counter keyed by the operator
    object; the list keeps every operator alive so ids stay unique."""
    calls, seen = Counter(), []
    original = specflow.flow.eigh

    def counted(operator, *args, **kwargs):
        seen.append(operator)
        calls[id(operator)] += 1
        return original(operator, *args, **kwargs)

    monkeypatch.setattr(specflow.flow, "eigh", counted)
    return calls


def lu_solve_counts(monkeypatch) -> list:
    """Route every ``splu`` factorization of ``specflow.operators``
    through a wrapper whose ``solve`` is counted: one entry per
    factorization, in order, holding its number of solves."""
    counts = []
    original = specflow.operators.spla.splu

    class Counted:
        def __init__(self, lu):
            self.lu, self.at = lu, len(counts)
            counts.append(0)

        def solve(self, rhs):
            counts[self.at] += 1
            return self.lu.solve(rhs)

    monkeypatch.setattr(specflow.operators.spla, "splu",
                        lambda *args, **kwargs: Counted(original(*args,
                                                                 **kwargs)))
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


@pytest.fixture(autouse=True)
def band_null_split_matches_dense(monkeypatch):
    """Repeat every band-route ``null_split`` of the suite with the dense
    SVD, wherever ``null_split`` was imported to: a refusal must be the
    dense route's refusal too, and a split must have its rank and
    subspaces.  The SVD is the one in place before the test runs, so a
    test that counts SVD calls does not count these."""
    original = specflow.operators.null_split
    svd = np.linalg.svd

    def band_route(m):
        ops = specflow.operators
        if not (m.ndim == 2 and m.shape[0] == m.shape[1]
                and ops._band_pays(1, len(m))):
            return False
        kl, ku = ops._band_widths(ops._band_of(m))
        return ops._band_pays(max(2 * ku + 1, 2 * kl - 1), len(m))

    def checked(matrix, tolerances=DEFAULT):
        m = np.asarray(matrix)
        if not band_route(m):
            return original(matrix, tolerances)
        try:
            split = original(matrix, tolerances)
        except IllConditioned:
            with pytest.raises(IllConditioned):
                dense_null_split(m, tolerances, svd)
            raise
        assert_matches_dense_split(m, split, tolerances, svd)
        return split

    for module in list(sys.modules.values()):
        if vars(module).get("null_split") is original:
            monkeypatch.setattr(module, "null_split", checked)


def assert_same_split(a, b):
    """Two ``NullSplit`` records with bit-identical fields."""
    assert a.rank == b.rank
    for name in ("kernel", "cokernel", "singular_values"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and np.array_equal(x, y), name
    assert a.gap_ratio == b.gap_ratio


def reference_small_subspaces(t, tolerances=DEFAULT) -> SmallSubspaces:
    """The small subspaces of one Toeplitz compression from its own
    ``null_split`` and ``interior_directions``: the single-compression
    route, against which the stacked split is compared bit for bit."""
    split = specflow.operators.null_split(t.matrix, tolerances)
    basis, interior = t.section.basis, t.truncation.interior()
    ker = interior_directions(basis @ split.kernel, interior, tolerances)
    cok = interior_directions(basis @ split.cokernel, interior, tolerances)
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
    (owner, name) pairs hold now, and then whatever they hold by then."""
    kernels = [(owner, name, getattr(owner, name)) for owner, name in names]

    @contextmanager
    def pristine():
        current = [(owner, name, getattr(owner, name))
                   for owner, name, _ in kernels]
        for owner, name, kernel in kernels:
            setattr(owner, name, kernel)
        try:
            yield
        finally:
            for owner, name, kernel in current:
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
    band, a member of an array as a matrix, and a member of a band stack
    as the dense matrix of its band.  The repeats run on the numpy
    and scipy kernels in place before the test, so a test that counts
    factorizations does not count them."""
    eigh = specflow.operators.eigh
    null_splits = specflow.operators.null_splits
    pristine_kernels = kernels_now(
        (np.linalg, "eigh"), (np.linalg, "svd"),
        (specflow.operators, "_band_singular_values"),
        (specflow.operators, "_split_eigh"))

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
            for j, i in enumerate(members):
                member = dense_of_band(stack[i]) if banded else stack[i]
                with pristine_kernels():
                    alone = specflow.operators.null_split(member, tolerances)
                assert_same_split(alone, NullSplit(
                    rank=split.rank, kernel=split.kernel[j],
                    cokernel=split.cokernel[j],
                    singular_values=split.singular_values[j],
                    gap_ratio=split.gap_ratio[j]))
        assert sorted(seen) == list(range(len(stack)))
        return groups

    for module in list(sys.modules.values()):
        if vars(module).get("eigh") is eigh:
            monkeypatch.setattr(module, "eigh", checked_eigh)
        if vars(module).get("null_splits") is null_splits:
            monkeypatch.setattr(module, "null_splits", checked_null_splits)


@pytest.fixture(autouse=True)
def split_eigh_matches_dense(monkeypatch, stacked_calls_match_members):
    """Repeat every split-band solve of the suite (``_split_eigh``, which
    ``eigh`` calls for a band that splits into blocks) with the dense
    ``np.linalg.eigh`` of the same matrices: each member's eigenvalues and
    cluster projectors must agree (``assert_same_eigenspaces``).  The
    dense solver is the one in place before the test runs, so a test that
    counts LAPACK calls does not count these.  It is set up after
    ``stacked_calls_match_members``, whose member-by-member repeats run on
    the unchecked solver."""
    ops = specflow.operators
    original = ops._split_eigh
    dense_eigh = np.linalg.eigh

    def checked(band, starts):
        w, v = original(band, starts)
        assert_same_eigenspaces(w, v, *dense_eigh(ops._dense(band)))
        return w, v

    monkeypatch.setattr(ops, "_split_eigh", checked)


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
