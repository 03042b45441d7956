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
from specflow import SymbolFunction, TruncatedOperator
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
    """``certify_level`` as one Python loop over the candidate levels:
    among the certified candidates, the smallest whose margin is within
    ``cutoff_atol`` of the best margin."""
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

    def dist(x):
        return min(np.abs(sp - x).min() for sp in lists + lists_r)

    def count_constant(a):
        return all(len({int((sp > a).sum()) for sp in group}) == 1
                   for group in (lists, lists_r))

    atol = tolerances.cutoff_atol
    need = max(0.5 * lipschitz * width, atol)
    certified = []
    for a in candidates:
        if a <= atol:
            continue
        margin = min(dist(a), dist(-a))
        if margin > need and count_constant(a):
            certified.append((float(a), float(margin)))
    if not certified:
        return None
    best = max(margin for _, margin in certified)
    return next(c for c in certified if c[1] >= best - atol)


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


def lapack_eigh(m, tolerances=DEFAULT):
    """``operators.eigh`` of a Hermitian matrix or stack on the LAPACK
    route, written out on its own: ``np.linalg.eigh`` of the dense array,
    each column's leading entry (the first above 1e-8 of its largest
    modulus) made real positive, and each degenerate cluster's columns
    sorted by leading index, then by the entries rounded to 9 decimals as
    (re, im) pairs row by row.  Returns (eigenvalues, eigenvectors)."""
    w, v = np.linalg.eigh(m)
    a = np.abs(v)
    floor = 1e-8 * np.maximum(a.max(axis=-2, keepdims=True), 1e-300)
    lead = np.argmax(a > floor, axis=-2)
    top = np.take_along_axis(v, lead[..., None, :], axis=-2)
    v = v * (np.abs(top) / top)
    n = w.shape[-1]
    flat_w, flat_v, flat_lead = (w.reshape(-1, n), v.reshape(-1, n, n),
                                 lead.reshape(-1, n))
    for i in range(len(flat_w)):
        tol = tolerances.degenerate_cluster \
            * max(np.abs(flat_w[i]).max(initial=0.0), 1.0)
        start = 0
        for j in range(1, n + 1):
            if j < n and flat_w[i, j] - flat_w[i, j - 1] <= tol:
                continue
            block = flat_v[i, :, start:j]
            keys = [(int(flat_lead[i, start + c]),)
                    + tuple(np.round(np.c_[block[:, c].real,
                                           block[:, c].imag].ravel(), 9))
                    for c in range(j - start)]
            order = sorted(range(j - start), key=keys.__getitem__)
            flat_v[i, :, start:j] = block[:, order]
            start = j
    return w, v


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
    member of a family's operator is repeated as the operator of its own
    band, a member of an array as a matrix, and a member of a band stack
    as the dense matrix of its band.  The repeats run on the numpy
    and scipy kernels in place before the test, so a test that counts
    factorizations does not count them."""
    eigh = specflow.operators.eigh
    null_splits = specflow.operators.null_splits
    pristine_kernels = kernels_now(
        (np.linalg, "eigh"), (np.linalg, "svd"),
        (specflow.operators, "_band_singular_values"))

    def checked_eigh(operator, tolerances=DEFAULT):
        dec = eigh(operator, tolerances)
        held = operator.band if isinstance(operator, TruncatedOperator) \
            else np.asarray(operator)
        if held.ndim > 2:
            n = held.shape[-1]
            w = dec.eigenvalues.reshape(-1, n)
            v = dec.eigenvectors.reshape(-1, n, n)
            for i, member in enumerate(held.reshape(-1, *held.shape[-2:])):
                if isinstance(operator, TruncatedOperator):
                    member = TruncatedOperator._of_band(
                        member, operator.truncation, tolerances)
                with pristine_kernels():
                    alone = eigh(member, tolerances)
                assert np.array_equal(alone.eigenvalues, w[i])
                assert np.array_equal(alone.eigenvectors, v[i])
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
