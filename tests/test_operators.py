import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from specflow import (BaseGrid, CurveOfFamilies, FourierTruncation,
                      OperatorCurve, SymbolFunction, TruncatedOperator,
                      build_dirac, build_multiplication, dirac_aps_section,
                      eigh, eigvalsh, fredholm_index,
                      gauge_transformed_potential, hardy_section,
                      spectral_flow, toeplitz_compress)
from specflow.config import DEFAULT, Tolerances
from specflow.errors import IllConditioned
from specflow.models import bott_symbol_family
from specflow.flow import _SpectrumCache
import specflow.operators
from specflow.operators import (NullSplit, _orthonormal_columns,
                                half_bandwidth, interior_directions,
                                null_split, null_splits, numerical_rank,
                                small_singular_vectors, split_rank)
from conftest import (assert_matches_dense_split,
                      assert_same_eigenspaces, clustered_band_matrix,
                      dense_null_split, dense_of_band, derivative_matrix,
                      fd_dirac_cos_spectrum, flow_symbols,
                      lu_solve_counts, next_bound_residuals,
                      random_hermitian,
                      random_hermitian_symbol, random_trig_unitary,
                      random_unitary, rng_for, sine_of_largest_angle,
                      svd_shapes)
from test_perfbench_workloads import load_workloads


class TestTruncation:
    def test_dim(self):
        assert FourierTruncation(3, 2).dim == 14

    @pytest.mark.parametrize("k,n", [(0, 1), (1, 0), (-2, 3)])
    def test_invalid(self, k, n):
        with pytest.raises(ValueError):
            FourierTruncation(k, n)

    def test_modes(self):
        assert list(FourierTruncation(1, 2).modes()) == [-1, -1, 0, 0, 1, 1]


class TestDerivative:
    def test_k1_n1(self):
        d = derivative_matrix(FourierTruncation(1, 1))
        assert np.array_equal(d, np.diag([-1.0, 0.0, 1.0]))

    def test_k2_n2(self):
        d = derivative_matrix(FourierTruncation(2, 2))
        expected = np.diag([-2, -2, -1, -1, 0, 0, 1, 1, 2, 2]).astype(complex)
        assert np.array_equal(d, expected)

    @pytest.mark.parametrize("k,n", [(3, 1), (5, 2), (8, 3)])
    def test_trace_zero(self, k, n):
        assert np.trace(derivative_matrix(FourierTruncation(k, n))) == 0


class TestMultiplication:
    def test_constant_scalar(self):
        tr = FourierTruncation(3, 1)
        m = build_multiplication(SymbolFunction.constant(0.3), tr)
        assert np.allclose(m, 0.3 * np.eye(7))

    def test_single_mode_shift(self):
        tr = FourierTruncation(1, 1)
        m = build_multiplication(SymbolFunction.exponential(1), tr)
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = 1.0
        assert np.array_equal(m, expected)

    def test_sampled_cos_roundtrip(self):
        # DFT of 256 samples of cos(x) must reproduce the coefficient form
        # c_{+-1} = 1/2
        tr = FourierTruncation(6, 1)
        xs = 2 * np.pi * np.arange(256) / 256
        sampled = SymbolFunction.from_samples(np.cos(xs))
        exact = SymbolFunction({1: np.array([[0.5]]), -1: np.array([[0.5]])},
                               rank=1)
        diff = np.abs(build_multiplication(sampled, tr)
                      - build_multiplication(exact, tr)).max()
        assert diff <= 1e-10

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            build_multiplication(SymbolFunction.constant(np.eye(2)),
                                 FourierTruncation(2, 1))

    def test_constant_matrix_block_diagonal(self):
        a = np.array([[1.0, 2j], [-2j, 0.5]])
        tr = FourierTruncation(2, 2)
        m = build_multiplication(SymbolFunction.constant(a), tr)
        assert np.allclose(m, np.kron(np.eye(5), a))


def reference_multiplication(symbol, trunc):
    """``build_multiplication`` as one block copy per mode pair."""
    K, N = trunc.max_mode, trunc.bundle_rank
    out = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for d, c in symbol.coefficients.items():
        for k in range(-K, K + 1):
            j = k + d
            if -K <= j <= K:
                out[(j + K) * N:(j + K + 1) * N,
                    (k + K) * N:(k + K + 1) * N] = c
    return out


class TestMultiplicationFill:
    # max_mode 0 is no truncation (FourierTruncation rejects it), so the
    # smallest window is K = 1
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_per_mode_loop(self, k, rank):
        rng = rng_for(100 * k + rank)
        reach = 2 * k + 3         # offsets up to and beyond 2K
        symbol = SymbolFunction(
            {d: rng.normal(size=(rank, rank))
             + 1j * rng.normal(size=(rank, rank))
             for d in range(-reach, reach + 1)}, rank=rank)
        tr = FourierTruncation(k, rank)
        assert np.array_equal(build_multiplication(symbol, tr),
                              reference_multiplication(symbol, tr))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_dirac_is_modes_plus_multiplication(self, rank):
        tr = FourierTruncation(5, rank)
        potential = random_hermitian_symbol(rank, 3, rng_for(rank))
        expected = (np.diag(tr.modes().astype(complex))
                    + reference_multiplication(potential, tr))
        assert np.array_equal(build_dirac(potential, tr).matrix, expected)


class TestDirac:
    def test_constant_shift(self):
        tr = FourierTruncation(4, 1)
        d = build_dirac(SymbolFunction.constant(0.25), tr)
        assert np.allclose(np.diag(d.matrix),
                           np.arange(-4, 5) + 0.25)

    def test_zero_potential(self):
        tr = FourierTruncation(3, 2)
        d = build_dirac(SymbolFunction.constant(np.zeros((2, 2))), tr)
        assert np.array_equal(d.matrix, derivative_matrix(tr))

    def test_cos_potential_vs_finite_differences(self):
        # oracle: 1025-point central-difference discretization with
        # low-frequency filtering; compare the five eigenvalues nearest zero
        tr = FourierTruncation(8, 1)
        cos = SymbolFunction({1: np.array([[0.5]]), -1: np.array([[0.5]])},
                             rank=1)
        w = eigvalsh(build_dirac(cos, tr))
        mine = np.sort(w[np.argsort(np.abs(w))[:5]])
        oracle = fd_dirac_cos_spectrum()
        assert np.abs(mine - oracle).max() <= 1e-4

    def test_non_hermitian_rejected(self):
        bad = SymbolFunction({1: np.array([[1.0]])}, rank=1)  # no c_{-1}
        with pytest.raises(ValueError, match="Hermitian"):
            build_dirac(bad, FourierTruncation(2, 1))

    def test_truncation_stability_near_zero(self):
        # the eigenvalue nearest zero of -i d/dx + a equals a at every K
        for a in (-0.4, 0.166, 0.49):
            for k in (1, 2, 5, 9):
                w = eigvalsh(build_dirac(SymbolFunction.constant(a),
                                         FourierTruncation(k, 1)))
                assert abs(w[np.argmin(np.abs(w))] - a) < 1e-12


def random_band(n: int, b: int, rng) -> np.ndarray:
    """Random Hermitian matrix whose entries beyond |i - j| = b are zero."""
    m = random_hermitian(n, rng)
    i, j = np.indices((n, n))
    m[np.abs(i - j) > b] = 0
    return m


def band_calls(monkeypatch) -> list:
    """Record the band-solver calls that ``operators.eigvalsh`` makes."""
    calls = []
    original = scipy.linalg.eigvals_banded

    def counted(band, *args, **kwargs):
        calls.append(band.shape)
        return original(band, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", counted)
    return calls


def band_svd_calls(monkeypatch) -> list:
    """Record the band singular-value solves that the band route of
    ``null_split`` makes."""
    calls = []
    original = specflow.operators._band_singular_values

    def counted(band):
        calls.append(band.shape)
        return original(band)

    monkeypatch.setattr(specflow.operators, "_band_singular_values", counted)
    return calls


class TestBandedEigvalsh:
    @pytest.mark.parametrize("n", [1, 2, 34, 514])
    @pytest.mark.parametrize("b", [0, 1, 3, 7])
    def test_matches_dense(self, n, b, monkeypatch):
        m = random_band(n, b, rng_for(1000 * n + b))
        calls = band_calls(monkeypatch)
        w = eigvalsh(m)
        dense = np.linalg.eigvalsh(m)
        assert half_bandwidth(m) == min(b, n - 1)
        # a diagonal splits into 1 x 1 blocks, which need no solver
        assert len(calls) == (b > 0 and 16 * (min(b, n - 1) + 1) <= n)
        assert np.abs(w - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_wide_matrix_takes_the_dense_path(self, rng, monkeypatch):
        m = random_band(64, 4, rng)  # 16 (b + 1) = 80 > 64
        calls = band_calls(monkeypatch)
        assert np.array_equal(eigvalsh(m), np.linalg.eigvalsh(m))
        assert calls == []

    def test_zero_and_diagonal(self, rng, monkeypatch):
        calls = band_calls(monkeypatch)
        assert half_bandwidth(np.zeros((40, 40))) == 0
        assert np.array_equal(eigvalsh(np.zeros((40, 40))), np.zeros(40))
        d = rng.normal(size=40)
        assert np.array_equal(eigvalsh(np.diag(d)), np.sort(d))
        # both split into 1 x 1 blocks, whose eigenvalues are their entries
        assert calls == []

    def test_band_reads_the_lower_triangle(self):
        # the Hermitian solvers read only the lower triangle, so an upper
        # entry beyond the band does not widen it
        m = np.diag(np.arange(5.0))
        m[0, 3] = 1.0
        assert half_bandwidth(m) == 0
        m[3, 0] = 1.0
        assert half_bandwidth(m) == 3

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_dirac_bandwidth(self, rank, b):
        potential = random_hermitian_symbol(rank, b, rng_for(10 * b + rank))
        d = build_dirac(potential, FourierTruncation(6, rank))
        assert half_bandwidth(d.matrix) == (b + 1) * rank - 1

    def test_tiny_coefficient_widens_the_band(self):
        coeffs = {0: np.array([[0.3]]), 2: np.array([[3e-17]]),
                  -2: np.array([[3e-17]])}
        d = build_dirac(SymbolFunction(coeffs, rank=1), FourierTruncation(6))
        assert half_bandwidth(d.matrix) == 2

    def test_midpoint_band(self, rng):
        tr = FourierTruncation(40, 1)
        curve = OperatorCurve.from_potentials(
            [0.0, 1.0], [random_hermitian_symbol(1, 1, rng),
                         random_hermitian_symbol(1, 3, rng)], tr)
        assert half_bandwidth(curve.at(0.0).matrix) == 1
        assert half_bandwidth(curve.at(0.37).matrix) == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_segment_rate_matches_dense(self, seed, monkeypatch):
        rng = rng_for(seed + 60)
        tr = FourierTruncation(64, 1)
        ts = [0.0, 0.3, 1.0]
        curve = OperatorCurve.from_potentials(
            ts, [random_hermitian_symbol(1, 2, rng) for _ in ts], tr)
        cache = _SpectrumCache(curve)
        calls = band_calls(monkeypatch)
        for k in range(2):
            step = dense_of_band(curve.samples[k + 1] - curve.samples[k])
            dense = np.abs(np.linalg.eigvalsh(step)).max() \
                / (ts[k + 1] - ts[k])
            assert abs(cache._segment_rate(k) - dense) <= 1e-12 * dense
        assert calls == [(3, tr.dim), (3, tr.dim)]


class TestEigh:
    def test_diagonal_sorted(self):
        tr = FourierTruncation(2, 1)
        dec = eigh(derivative_matrix(tr))
        assert np.array_equal(dec.eigenvalues, np.arange(-2.0, 3.0))

    def test_invariants_random(self, rng):
        m = random_hermitian(50, rng)
        dec = eigh(m)
        w, v = dec.eigenvalues, dec.eigenvectors
        assert np.all(np.diff(w) >= 0)
        residual = np.linalg.norm(m @ v - v * w[None, :], axis=0).max()
        assert residual <= 1e-9 * np.linalg.norm(m, 2)
        assert np.abs(v.conj().T @ v - np.eye(50)).max() <= 1e-10

    def test_reconstruction_idempotent(self, rng):
        m = random_hermitian(20, rng)
        dec = eigh(m)
        rebuilt = (dec.eigenvectors * dec.eigenvalues[None, :]) \
            @ dec.eigenvectors.conj().T
        dec2 = eigh(0.5 * (rebuilt + rebuilt.conj().T))
        assert np.abs(dec2.eigenvalues - dec.eigenvalues).max() < 1e-9

    def test_deterministic(self, rng):
        m = random_hermitian(30, rng)
        a, b = eigh(m), eigh(m)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_degenerate_tiebreak_standard_order(self):
        # a 0/1 projector-like diagonal: the degenerate clusters come back
        # as standard basis vectors in index order
        m = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        dec = eigh(m)
        lead = [int(np.argmax(np.abs(dec.eigenvectors[:, i]) > 0.5))
                for i in range(4)]
        assert lead == [1, 3, 0, 2]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_clusters_match_reference(self, seed):
        # clusters of sizes 3, 1, 4, 2, 2 of a dense matrix: inside a
        # cluster the basis is LAPACK's, and its span is the reference's
        values = np.repeat([-2.0, -0.5, 0.0, 1.0, 3.0], [3, 1, 4, 2, 2])
        u = random_unitary(12, rng_for(seed + 300))
        m = (u * values[None, :]) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
        dec = eigh(m)
        w, v = dec.eigenvalues, dec.eigenvectors
        assert np.abs(w - values).max() <= 1e-14
        assert np.abs(v.conj().T @ v - np.eye(12)).max() <= 1e-14
        for value in np.unique(values):
            cluster = values == value
            p = v[:, cluster] @ v[:, cluster].conj().T
            p_ref = u[:, cluster] @ u[:, cluster].conj().T
            assert np.abs(p - p_ref).max() <= 1e-13


class TestDiagonalEigh:
    """A stack of diagonal matrices splits into 1 x 1 blocks, which are
    decomposed without LAPACK: the eigenvalues are the stable sort of the
    real diagonal, bit for bit, and the eigenvectors the unit vectors in
    that order."""

    @staticmethod
    def lapack_calls(monkeypatch) -> list:
        calls = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @staticmethod
    def assert_stable_sort(operator, dec):
        m = operator.matrix if isinstance(operator, TruncatedOperator) \
            else operator
        d = np.diagonal(m, axis1=-2, axis2=-1).real
        order = np.argsort(d, axis=-1, kind="stable")
        w = np.take_along_axis(d, order, axis=-1)
        v = np.eye(m.shape[-1], dtype=m.dtype)[:, order]
        if m.ndim == 3:
            v = np.moveaxis(v, 0, 1)
        for got, want in ((dec.eigenvalues, w), (dec.eigenvectors, v)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def free_dirac(k):
        # the t = 0 end of a scale path t -> t V
        potential = random_hermitian_symbol(2, 1, rng_for(k))
        return OperatorCurve.from_potentials(
            [0.0, 1.0], [potential.scale(0.0), potential],
            FourierTruncation(k, 2)).at(0.0)

    @staticmethod
    def bott_family_at_zero():
        base = BaseGrid.torus(12)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        return CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0],
            FourierTruncation(8, 2)).at(0.0)

    @pytest.mark.parametrize("k", [32, 128])
    def test_free_dirac_operator(self, k, monkeypatch):
        op = self.free_dirac(k)
        calls = self.lapack_calls(monkeypatch)
        dec = eigh(op)
        assert calls == []
        self.assert_stable_sort(op, dec)

    def test_bott_family_at_zero(self, monkeypatch):
        op = self.bott_family_at_zero()
        assert op.band.shape == (144, 1, 34)
        calls = self.lapack_calls(monkeypatch)
        dec = eigh(op)
        assert calls == []
        self.assert_stable_sort(op, dec)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_near_ties_inside_a_cluster(self, dtype, monkeypatch):
        # near and exact ties, both zeros, and peaks at and past the
        # scales where LAPACK would rescale (2^-485 and 2^485): the route
        # keeps every entry's bits, -0.0 included
        d = np.array([2.0, 1e-12, 0.0, -1.0, 3e-12, 2.0 + 1e-10, -1.0,
                      -0.0, 5.0, 2.0 - 1e-10] * 5)
        peaks = [1.0, 2.0 ** -485, np.nextafter(2.0 ** -485, 0),
                 2.0 ** 485, 1e150]
        stack = np.stack([np.diag(d * peak) for peak in peaks]).astype(dtype)
        calls = self.lapack_calls(monkeypatch)
        for m in (*stack, stack):
            self.assert_stable_sort(m, eigh(m))
        assert calls == []

    def test_one_off_diagonal_entry_joins_a_pair_in_every_member(
            self, monkeypatch):
        # the entry couples indices 3 and 4 of one member, so every
        # member is solved as 1 x 1 blocks and one 2 x 2 block, the latter
        # in closed form: no call reaches LAPACK
        op = self.bott_family_at_zero()
        stack = op.matrix.copy()
        stack[7, 3, 4] = stack[7, 4, 3] = 0.25
        starts = specflow.operators._split_starts(op.band)
        joined = specflow.operators._split_starts(
            specflow.operators._band_of(stack))
        assert np.array_equal(starts, np.arange(34))
        assert np.array_equal(joined, np.delete(np.arange(34), 4))
        w, v = np.linalg.eigh(stack)
        calls = self.lapack_calls(monkeypatch)
        dec = eigh(stack)
        for i in range(len(stack)):
            assert_same_eigenspaces(dec.eigenvalues[i], dec.eigenvectors[i],
                                    w[i], v[i])
        self.assert_stable_sort(op, eigh(op))
        assert calls == []


def block_diagonal(blocks) -> np.ndarray:
    """The matrix, or stack, with the given diagonal blocks in order."""
    n = sum(b.shape[-1] for b in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, n), dtype=complex)
    at = 0
    for b in blocks:
        s = b.shape[-1]
        out[..., at:at + s, at:at + s] = b
        at += s
    return out


def dense_calls(monkeypatch) -> list:
    """Record the shape of every dense ``np.linalg.eigh`` and
    ``np.linalg.eigvalsh`` call, by name."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSplitBands:
    """A band that splits into diagonal blocks is solved block by block:
    1 x 1 and 2 x 2 blocks in closed form, and one stacked LAPACK call for
    each larger block size."""

    def mixed_blocks(self, members=()):
        # blocks of sizes 2, 3, 1, 2 with the eigenvalue 1 in three of
        # them, so one cluster spans three blocks
        rng = rng_for(500)
        spectra = [np.array(values) for values in
                   ([1.0, -0.5], [2.0, 1.0, -3.0], [1.0], [0.25, 4.0])]
        blocks, frames = [], []
        for values in spectra:
            u = random_unitary(len(values), rng)
            u = np.broadcast_to(u, members + u.shape)
            blocks.append((u * values) @ np.swapaxes(u.conj(), -1, -2))
            frames.append(u)
        return block_diagonal(blocks), block_diagonal(frames), \
            np.concatenate(spectra)

    @pytest.mark.parametrize("members", [(), (3,)], ids=["single", "stack"])
    def test_mixed_block_sizes_match_dense(self, members, monkeypatch):
        m, frame, values = self.mixed_blocks(members)
        m = 0.5 * (m + np.swapaxes(m.conj(), -1, -2))
        band = specflow.operators._band_of(m)
        assert np.array_equal(specflow.operators._split_starts(band),
                              [0, 2, 5, 6])
        w_ref, v_ref = np.linalg.eigh(m)
        calls = dense_calls(monkeypatch)
        dec = eigh(m)
        w = eigvalsh(m)
        # the two 2 x 2 blocks make no call, the 3 x 3 block one each
        assert calls == [("eigh", members + (1, 3, 3)),
                         ("eigvalsh", members + (1, 3, 3))]
        exact = frame[..., values == 1.0]
        exact = exact @ np.swapaxes(exact.conj(), -1, -2)
        for i in np.ndindex(members):
            got_w, got_v = dec.eigenvalues[i], dec.eigenvectors[i]
            assert_same_eigenspaces(got_w, got_v, w_ref[i], v_ref[i])
            assert np.abs(w[i] - np.sort(values)).max() <= 1e-14
            # the cluster at 1 spans columns of three blocks; its
            # projector is the exact one
            kept = got_v[:, np.abs(got_w - 1.0) < 1e-8]
            assert np.abs(kept @ kept.conj().T - exact[i]).max() <= 1e-14

    def test_a_far_diagonal_bridges_every_point_it_spans(self):
        # the entry (7, 2) couples indices 2 to 7, which form one block
        m = np.diag(np.arange(10.0)).astype(complex)
        m[7, 2] = m[2, 7] = 0.5
        band = specflow.operators._band_of(m)
        assert band.shape == (11, 10)
        assert np.array_equal(specflow.operators._split_starts(band),
                              [0, 1, 2, 8, 9])
        dec = eigh(m)
        w, v = np.linalg.eigh(m)
        assert_same_eigenspaces(dec.eigenvalues, dec.eigenvectors, w, v)
        assert np.abs(eigvalsh(m) - w).max() <= 1e-14

    def test_members_that_split_differently_split_at_the_union(self):
        # member 0 couples indices 0 and 1, member 1 couples 1 and 2:
        # alone each splits in two places, and the stack only at 3
        m = np.stack([np.diag([0.0, 1.0, 2.0, 3.0]),
                      np.diag([0.5, 1.5, 2.5, 3.5])]).astype(complex)
        m[0, 1, 0] = m[0, 0, 1] = 0.3
        m[1, 2, 1] = m[1, 1, 2] = 0.2
        starts = specflow.operators._split_starts
        band_of = specflow.operators._band_of
        assert np.array_equal(starts(band_of(m[0])), [0, 2, 3])
        assert np.array_equal(starts(band_of(m[1])), [0, 1, 3])
        assert np.array_equal(starts(band_of(m)), [0, 3])
        dec = eigh(m)
        w = eigvalsh(m)
        for i in range(2):
            alone = eigh(m[i])
            assert_same_eigenspaces(dec.eigenvalues[i], dec.eigenvectors[i],
                                    alone.eigenvalues, alone.eigenvectors)
            assert np.abs(w[i] - eigvalsh(m[i])).max() <= 1e-15

    def test_a_real_bandwidth_curve_keeps_its_band_solves(self, monkeypatch):
        # the conjugation path of a product of three index_flow symbols
        # (seed 5, windings (1, 0), (0, -2), (1, 1)) has a potential of
        # modes -1..1 and a Dirac band of b = 3 that never splits: each
        # of its band solves hands LAPACK the full lower band, as before
        # the split test; only the free operator at t = 0 splits
        rng = rng_for(5)
        g = None
        for windings in ((1, 0), (0, -2), (1, 1)):
            u, v = random_unitary(2, rng), random_unitary(2, rng)
            coefficients = {}
            for j, n in enumerate(windings):
                e = np.zeros((2, 2), dtype=complex)
                e[j, j] = 1.0
                coefficients[n] = coefficients.get(n, 0) + u @ e @ v
            factor = SymbolFunction(coefficients, rank=2, unitary=True)
            g = factor if g is None else g.product(factor, unitary=True)
        end = gauge_transformed_potential(g)
        tr, ts = FourierTruncation(16, 2), [0.0, 0.5, 1.0]
        curve = OperatorCurve.from_potentials(
            ts, [end.scale(t) for t in ts], tr)
        assert curve.samples.shape == (3, 7, tr.dim)
        calls = band_calls(monkeypatch)
        assert spectral_flow(curve) == -1
        assert calls == [(4, tr.dim)] * 11


class TestClosedFormPairs:
    """``_eigh_2x2``: the eigendecomposition of 2 x 2 Hermitian blocks by
    one complex Jacobi rotation, within a few units of roundoff of the
    block's norm."""

    @staticmethod
    def adversarial_blocks(dtype, count=20000):
        # random, diagonal, equal-diagonal and zero blocks, and blocks whose
        # off-diagonal entry is 1e-12 to 1e-6 of the diagonal, at
        # magnitudes from 1e-8 to 1e3
        rng = rng_for(28)
        a, c = rng.normal(size=(2, count))
        z = rng.normal(size=count)
        if dtype is complex:
            z = z + 1j * rng.normal(size=count)
        kind = np.arange(count) % 5
        z[kind == 1] = 0
        c[kind == 2] = a[kind == 2]
        a[kind == 3] = c[kind == 3] = z[kind == 3] = 0
        z[kind == 4] *= 10.0 ** rng.uniform(-12, -6, np.sum(kind == 4))
        scale = 10.0 ** rng.uniform(-8, 3, count)
        m = np.zeros((count, 2, 2), dtype=dtype)
        m[:, 0, 0], m[:, 1, 1] = a * scale, c * scale
        m[:, 1, 0], m[:, 0, 1] = z * scale, np.conj(z) * scale
        return m, kind

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_adversarial_blocks_are_exact_to_roundoff(self, dtype):
        m, kind = self.adversarial_blocks(dtype)
        band = np.zeros((len(m), 3, 2), dtype=dtype)
        band[:, 1] = np.diagonal(m, axis1=-2, axis2=-1)
        band[:, 2, 0], band[:, 0, 1] = m[:, 1, 0], m[:, 0, 1]
        w, v = specflow.operators._eigh_2x2(band)
        assert w.dtype == float and v.dtype == dtype
        eps = np.finfo(float).eps
        norm = np.linalg.norm(m, 2, axis=(-2, -1))
        residual = np.linalg.norm(m @ v - v * w[:, None, :], 2, axis=(-2, -1))
        assert np.all(residual <= 8 * eps * norm)
        gram = np.swapaxes(v.conj(), -1, -2) @ v - np.eye(2)
        assert np.abs(gram).max() <= 8 * eps
        assert np.all(np.abs(w - np.linalg.eigvalsh(m)).max(axis=-1)
                      <= 8 * eps * norm)
        # the zero block gets the identity, and eigenvalues ascend
        assert np.array_equal(v[kind == 3], np.broadcast_to(
            np.eye(2), (np.sum(kind == 3), 2, 2)))
        assert np.all(w[:, 0] <= w[:, 1])

    @pytest.mark.parametrize("members", [(), (3,)], ids=["single", "stack"])
    def test_eigh_and_eigvalsh_agree_on_a_band_of_pairs(self, members):
        # both read the eigenvalues of the 2 x 2 blocks from _eigh_2x2
        rng = rng_for(29)
        blocks = [random_hermitian(2, rng) + 3.0 * j * np.eye(2)
                  for j in range(6)]
        m = block_diagonal([np.broadcast_to(b, members + b.shape)
                            for b in blocks])
        band = specflow.operators._band_of(m)
        assert np.array_equal(specflow.operators._split_starts(band),
                              np.arange(0, 12, 2))
        assert np.array_equal(eigh(m).eigenvalues, eigvalsh(m))
        # the Bott family at t = 0.5: 2 x 2 blocks k + c_0 in every member
        base = BaseGrid.torus(4)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        op = CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0],
            FourierTruncation(4, 2)).at(0.5)
        assert np.array_equal(specflow.operators._split_starts(op.band),
                              np.arange(0, 18, 2))
        assert np.array_equal(eigh(op).eigenvalues, eigvalsh(op))


class TestRank:
    def test_identity(self):
        split = null_split(np.eye(7))
        assert split.rank == 7
        assert split.kernel.shape == (7, 0) and split.cokernel.shape == (7, 0)
        assert split.gap_ratio == np.inf

    def test_zero(self):
        # the zero matrix has rank 0: its whole domain is the kernel
        split = null_split(np.zeros((4, 6)))
        assert split.rank == 0
        assert np.allclose(split.kernel.conj().T @ split.kernel, np.eye(6))
        assert np.allclose(split.cokernel.conj().T @ split.cokernel, np.eye(4))

    def test_rank3_construction(self, rng):
        vs = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
        m = sum(np.outer(v, v.conj()) for v in vs)
        split = null_split(m)
        assert split.rank == 3
        assert np.abs(m @ split.kernel).max() <= 1e-10 * split.singular_values[0]
        assert np.abs(split.cokernel.conj().T @ m).max() \
            <= 1e-10 * split.singular_values[0]

    @pytest.mark.parametrize("tol", [0.0, 1.0, -0.5])
    def test_tol_domain(self, tol):
        # the record refuses the value, so no rank decision can read it
        for name in ("rank_rtol", "mapping_torus_rank_rtol"):
            with pytest.raises(ValueError, match="rank tolerance"):
                Tolerances(**{name: tol})
            with pytest.raises(ValueError, match="rank tolerance"):
                DEFAULT.with_(**{name: tol})

    def test_numerical_rank_is_the_null_split_rank(self, rng):
        vs = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
        cases = [np.eye(7), np.zeros((4, 6)), np.zeros((0, 3)),
                 np.diag([1.0, 1e-3]), np.diag([1.0, 0.5]),
                 sum(np.outer(v, v.conj()) for v in vs)]
        loose = DEFAULT.with_(rank_rtol=1e-3)
        for m in cases:
            assert numerical_rank(m, loose) == null_split(m, loose).rank
        with pytest.raises(IllConditioned, match="cluster"):
            numerical_rank(np.diag([1.0, 5e-8, 2e-9]))

    def test_gap_check(self):
        # values straddle the threshold within the required factor
        m = np.diag([1.0, 5e-8, 2e-9])
        with pytest.raises(IllConditioned, match="cluster"):
            null_split(m)
        assert null_split(np.diag([1.0, 0.5])).rank == 2

    def test_value_at_threshold_is_kept(self):
        assert null_split(np.diag([1.0, 1e-3]),
                          DEFAULT.with_(rank_rtol=1e-3)).rank == 2
        assert split_rank(np.array([1.0, 1e-3]), 1e-3) == (2, np.inf)

    def test_empty_matrix(self):
        split = null_split(np.zeros((0, 3)))
        assert split.rank == 0
        assert split.kernel.shape == (3, 3) and split.cokernel.shape == (0, 0)

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_split_rank_gap_factor(self, factor):
        # kept / dropped sits just below or just above svd_gap_factor
        dropped = 1e-6
        s = np.array([1.0, factor * DEFAULT.svd_gap_factor * dropped, dropped])
        if factor < 1:
            with pytest.raises(IllConditioned, match="cluster"):
                split_rank(s, 1e-5)
        else:
            rank, ratio = split_rank(s, 1e-5)
            assert rank == 2
            assert ratio == pytest.approx(factor * DEFAULT.svd_gap_factor)


class TestStackedSplits:
    def test_split_rank_reports_the_first_failing_member(self):
        s = np.array([[1.0, 0.5, 1e-9], [1.0, 2e-7, 1e-8],
                      [1.0, 5e-7, 1e-8]])
        with pytest.raises(IllConditioned, match=r"= 20\.0 <"):
            split_rank(s, np.full(3, 1e-7))
        ranks, ratios = split_rank(s[[0, 0]], np.array([1e-7, 0.7]),
                                   DEFAULT.with_(svd_gap_factor=2.0))
        assert ranks.tolist() == [2, 1]
        assert ratios.tolist() == [0.5 / 1e-9, 2.0]
        assert (int(ranks[0]), float(ratios[0])) == split_rank(s[0], 1e-7)

    def test_groups_by_rank(self):
        stack = np.stack([np.diag(d).astype(complex) for d in
                          ([1.0, 0.5, 0.0], [1.0, 0.0, 0.0],
                           [1.0, 0.3, 0.0], [2.0, 1.0, 0.5])])
        groups = null_splits(stack)
        assert [(m.tolist(), split.rank) for m, split in groups] \
            == [([1], 1), ([0, 2], 2), ([3], 3)]
        members, split = groups[1]
        assert split.kernel.shape == (2, 3, 1)
        assert split.gap_ratio.shape == (2,)
        for j, i in enumerate(members):
            alone = null_split(stack[i])
            assert np.array_equal(alone.kernel, split.kernel[j])
            assert alone.gap_ratio == split.gap_ratio[j]

    @staticmethod
    def mixed_stack():
        """Two band members, one with a zero row, next to a dense one."""
        n = 200
        rng = rng_for(13)
        band = random_square_band(n, 1, 1, rng)    # b = 3
        holed = band.copy()
        holed[70] = 0
        return np.stack([holed, random_unitary(n, rng), band])

    def test_band_members_split_alone(self, monkeypatch):
        # the band members take one band solve each, the dense one the SVD
        stack = self.mixed_stack()
        holed, n = stack[0], stack.shape[-1]
        shapes = svd_shapes(monkeypatch)
        bands = band_svd_calls(monkeypatch)
        groups = null_splits(stack)
        assert len(bands) == 2 and shapes == [(1, n, n)]
        assert [(m.tolist(), split.rank) for m, split in groups] \
            == [([0], n - 1), ([1, 2], n)]
        assert_matches_dense_split(holed, NullSplit(
            groups[0][1].rank, groups[0][1].kernel[0],
            groups[0][1].cokernel[0], groups[0][1].singular_values[0],
            float(groups[0][1].gap_ratio[0])))

    def test_a_band_stack_splits_as_its_matrices(self, monkeypatch):
        # the same members given by their bands take the same routes,
        # with only the dense member made dense, and split bit for bit
        stack = self.mixed_stack()
        expected = null_splits(stack)
        shapes = svd_shapes(monkeypatch)
        bands = band_svd_calls(monkeypatch)
        groups = null_splits(specflow.operators._band_of(stack), banded=True)
        assert len(bands) == 2 and shapes == [(1,) + stack.shape[1:]]
        assert len(groups) == len(expected)
        for (members, split), (members_d, split_d) in zip(groups, expected):
            assert np.array_equal(members, members_d)
            assert split.rank == split_d.rank
            for name in ("kernel", "cokernel", "singular_values",
                         "gap_ratio"):
                x, y = getattr(split, name), getattr(split_d, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestBuildDirac:
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_potential_hermiticity_guard(self, factor):
        # c_1 = d next to no c_{-1} has hermitian_defect d; the matrix
        # guard is loosened so that only the potential guard can refuse
        d = factor * DEFAULT.potential_hermitian
        pot = SymbolFunction({0: np.array([[0.2]]), 1: np.array([[d]])},
                             rank=1)
        assert pot.hermitian_defect() == d
        loose = DEFAULT.with_(hermitian_max=1e-6)
        tr = FourierTruncation(4)
        if factor < 1:
            assert build_dirac(pot, tr, loose).tolerances is loose
        else:
            with pytest.raises(ValueError, match="Dirac potential"):
                build_dirac(pot, tr, loose)
            # the guard reads the tolerances it is given
            wider = loose.with_(potential_hermitian=2 * d)
            assert build_dirac(pot, tr, wider).tolerances is wider

    def test_public_builders_pass_the_guard_through(self):
        # a large c_0 widens the matrix guard (relative to ||M||_max) past
        # d, so the potential guard alone decides, under default matrix
        # tolerances, for every public path that builds a Dirac operator
        d = 2 * DEFAULT.potential_hermitian
        pot = SymbolFunction({0: np.array([[1e3]]), 1: np.array([[d]])},
                             rank=1)
        tr = FourierTruncation(4)
        builders = [
            lambda tol: build_dirac(pot, tr, tol),
            lambda tol: dirac_aps_section(pot, tr, tolerances=tol),
            lambda tol: OperatorCurve.from_potentials([0.0, 1.0], [pot, pot],
                                                      tr, tol),
            lambda tol: CurveOfFamilies.from_potentials(
                BaseGrid.loop(3), lambda v, t: pot, [0.0, 1.0], tr, tol)]
        wider = DEFAULT.with_(potential_hermitian=2 * d)
        for build in builders:
            with pytest.raises(ValueError, match="Dirac potential"):
                build(DEFAULT)
            build(wider)

    def test_stacked_builders_match_one_by_one(self, rng):
        tr = FourierTruncation(5, 2)
        pots = [random_hermitian_symbol(2, b, rng) for b in (0, 1, 3)]
        pots.append(SymbolFunction({}, rank=2))
        stack = dense_of_band(
            specflow.operators._dirac_bands(pots, tr, DEFAULT))
        for m, pot in zip(stack, pots):
            assert np.array_equal(m, build_dirac(pot, tr).matrix)
            assert np.array_equal(m, np.diag(tr.modes().astype(complex))
                                  + build_multiplication(pot, tr))


def random_square_band(n: int, kl: int, ku: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Random complex n x n matrix with lower and upper half-bandwidths kl
    and ku, its diagonal shifted so every singular value is well above 0."""
    t = np.zeros((n, n), dtype=complex)
    for d in range(-kl, ku + 1):
        k = n - abs(d)
        t += np.diag(rng.normal(size=k) + 1j * rng.normal(size=k), d)
    return t + 3 * (kl + ku + 1) * np.eye(n)


class TestBandSingularValues:
    """``_band_singular_values`` (``?gbbrd`` and dqds) against the dense
    SVD."""

    @pytest.mark.parametrize("n", [160, 514])
    @pytest.mark.parametrize("kl, ku", [(0, 0), (1, 3), (3, 1), (2, 0),
                                        (0, 2), (5, 0)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_dense_svd(self, n, kl, ku, dtype):
        # zero rows and a row scaled by 1e-9 give zero and small values
        rng = rng_for(100 * kl + 10 * ku + n)
        t = random_square_band(n, kl, ku, rng)
        t = (t.real if dtype is float else t).astype(dtype)
        t[[3, n // 2]] = 0
        t[n - 5] *= 1e-9
        band = specflow.operators._band_of(t)
        assert specflow.operators._band_widths(band) == (kl, ku)
        s = specflow.operators._band_singular_values(band)
        dense = np.linalg.svd(t, compute_uv=False)
        assert s.dtype == np.float64 and s.shape == (n,)
        assert np.all(np.diff(s) <= 0)
        assert np.abs(s - dense).max() <= 1e-13 * dense[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_index_flow_compressions(self, seed, monkeypatch):
        # both symbols of the index_flow workload at K = 128 and at the
        # doubled truncation of its Fredholm check
        from specflow import hardy_section, toeplitz_compress
        workloads = load_workloads(monkeypatch)
        rng = np.random.default_rng(seed)
        symbols = [workloads.index_flow_symbol(rng, windings)[0]
                   for windings in workloads.INDEX_FLOW_WINDINGS]
        for symbol in symbols:
            for k in (128, 256):
                tr = FourierTruncation(k, 2)
                t = toeplitz_compress(hardy_section(tr), symbol, tr)
                calls = band_svd_calls(monkeypatch)
                split = null_split(t.matrix)
                assert len(calls) == 1
                rank, _, _, s = dense_null_split(t.matrix)
                assert split.rank == rank
                assert split.gap_ratio > DEFAULT.svd_gap_factor
                assert np.abs(split.singular_values - s).max() \
                    <= 1e-13 * s[0]

    @pytest.mark.parametrize("info, error", [(2, IllConditioned),
                                             (-3, ValueError)])
    def test_a_failing_dqds_raises(self, info, error, monkeypatch):
        lapack = specflow.operators._lapack

        def failing(name):
            if name != "dlasq1":
                return lapack(name)
            return lambda *args: setattr(args[-1]._obj, "value", info)

        monkeypatch.setattr(specflow.operators, "_lapack", failing)
        band = specflow.operators._band_of(
            random_square_band(200, 1, 1, rng_for(4)))
        with pytest.raises(error):
            specflow.operators._band_singular_values(band)


class TestCscOfBand:
    @pytest.mark.parametrize("kl, ku", [(0, 0), (1, 3), (3, 1), (2, 2)])
    def test_equals_the_csc_of_the_dense_matrix(self, kl, ku):
        # exact zeros inside the band (a zero row and a zero entry, both
        # signs) are dropped, as the CSC of the dense matrix drops them,
        # and a complex matrix with no imaginary part stays complex
        rng = rng_for(30 + kl + 5 * ku)
        n = 40
        for t in (random_square_band(n, kl, ku, rng),
                  random_square_band(n, kl, ku, rng).real + 0j):
            t[7] = 0
            t[12, 12] = -0.0
            band = specflow.operators._band_of(t)
            # a wider band, zero beyond T's diagonals, gives the same CSC
            wide = np.zeros((len(band) + 4, n), dtype=complex)
            wide[2:-2] = band
            expected = sp.csc_matrix(t)
            for b in (band, wide):
                got = specflow.operators._csc_of_band(b)
                assert got.shape == expected.shape
                for name in ("indptr", "indices", "data"):
                    x, y = getattr(got, name), getattr(expected, name)
                    assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestBandNullSplit:
    """The band route of ``null_split`` against the dense SVD.  Every
    matrix here has n >= 160 and n >= 8 (b + 3) for its interleaved
    half-bandwidth b, and each test checks that no n x n SVD ran."""

    @staticmethod
    def split(m, monkeypatch, tolerances=DEFAULT):
        shapes = svd_shapes(monkeypatch)
        bands = band_svd_calls(monkeypatch)
        try:
            return null_split(m, tolerances)
        finally:
            assert m.shape not in shapes and len(bands) == 1

    @pytest.mark.parametrize("kl, ku", [(1, 3), (3, 1), (2, 0), (0, 2)])
    def test_spans_match_dense(self, kl, ku, monkeypatch):
        # zero rows add cokernel lines, zero columns kernel lines
        n = 260
        t = random_square_band(n, kl, ku, rng_for(10 * kl + ku))
        t[[7, 130], :] = 0
        t[:, [40, 41, 250]] = 0
        split = self.split(t, monkeypatch)
        rank, kernel, cokernel, s = dense_null_split(t)
        assert split.rank == rank <= n - 3
        assert np.abs(split.singular_values - s).max() <= 1e-12 * s[0]
        assert sine_of_largest_angle(split.kernel, kernel) <= 1e-10
        assert sine_of_largest_angle(split.cokernel, cokernel) <= 1e-10
        assert np.abs(t @ split.kernel).max() <= 1e-12 * s[0]
        assert np.abs(split.cokernel.conj().T @ t).max() <= 1e-12 * s[0]

    def test_gap_ratio_matches_dense(self, monkeypatch):
        # two rows scaled to 1e-10 give dropped values far above roundoff,
        # so both routes read the same ratio
        n = 240
        t = random_square_band(n, 3, 1, rng_for(77))
        t[[20, 100]] *= 1e-10
        split = self.split(t, monkeypatch)
        s = np.linalg.svd(t, compute_uv=False)
        assert split.rank == n - 2
        assert split.gap_ratio == pytest.approx(s[n - 3] / s[n - 2], rel=1e-4)
        assert 1e9 < split.gap_ratio < np.inf

    def test_exactly_double_zero_singular_value(self, monkeypatch):
        # rows 5 and 6 and columns 5 and 6 vanish: a double zero on each
        # side, which a single-vector iteration would miss
        n = 240
        t = random_square_band(n, 1, 2, rng_for(5))
        t[[5, 6], :] = 0
        t[:, [5, 6]] = 0
        split = self.split(t, monkeypatch)
        assert split.rank == n - 2
        assert split.singular_values[-2:].max() <= 1e-14 * split.singular_values[0]
        eye = np.eye(n)[:, [5, 6]]
        assert sine_of_largest_angle(split.kernel, eye) <= 1e-12
        assert sine_of_largest_angle(split.cokernel, eye) <= 1e-12

    def test_rank_zero_and_full_rank(self, monkeypatch):
        n = 200
        split = self.split(np.zeros((n, n), dtype=complex), monkeypatch)
        assert split.rank == 0
        assert np.array_equal(split.kernel, np.eye(n))
        assert np.array_equal(split.cokernel, np.eye(n))
        assert not split.singular_values.any()
        t = random_square_band(n, 2, 1, rng_for(6))
        split = self.split(t, monkeypatch)
        assert split.rank == n and split.gap_ratio == np.inf
        assert split.kernel.shape == split.cokernel.shape == (n, 0)

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_gap_factor_boundary(self, factor, monkeypatch):
        # a band block next to diag(kept, dropped) with kept / dropped just
        # below or just above svd_gap_factor at rank_rtol = 1e-3
        n = 240
        block = random_square_band(n - 2, 3, 1, rng_for(8))
        s0 = np.linalg.svd(block, compute_uv=False)[0]
        kept = 3e-3 * s0
        t = np.zeros((n, n), dtype=complex)
        t[:n - 2, :n - 2] = block
        t[n - 2, n - 2] = kept
        t[n - 1, n - 1] = kept / (factor * DEFAULT.svd_gap_factor)
        loose = DEFAULT.with_(rank_rtol=1e-3)
        if factor < 1:
            for route in (lambda: self.split(t, monkeypatch, loose),
                          lambda: dense_null_split(t, loose)):
                with pytest.raises(IllConditioned, match="cluster"):
                    route()
        else:
            split = self.split(t, monkeypatch, loose)
            assert split.rank == n - 1
            assert split.gap_ratio == pytest.approx(factor * 100, rel=1e-9)
            e = np.eye(n)[:, [n - 1]]
            assert sine_of_largest_angle(split.kernel, e) <= 1e-12
            assert sine_of_largest_angle(split.cokernel, e) <= 1e-12

    def test_narrow_kept_value_takes_dense_frames(self, monkeypatch):
        # kept / largest below _BAND_FRAME_RTOL: T*T cannot resolve it, so
        # the frames come from the dense SVD of the same matrix
        n = 240
        block = random_square_band(n - 2, 0, 1, rng_for(9))
        t = np.zeros((n, n), dtype=complex)
        t[:n - 2, :n - 2] = block
        t[n - 2, n - 2] = 1e-6 * np.linalg.svd(block, compute_uv=False)[0]
        shapes = svd_shapes(monkeypatch)
        bands = band_svd_calls(monkeypatch)
        split = null_split(t)
        assert shapes == [(n, n)] and len(bands) == 1
        assert split.rank == n - 1
        assert_matches_dense_split(t, split)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_frame_dtype_does_not_depend_on_the_rank(self, dtype,
                                                     monkeypatch):
        # a matrix whose entries are all real has real frames at rank 0,
        # at an intermediate rank and at full rank, whatever its dtype;
        # e^{0.3i} times it has complex frames at every nonzero rank
        n = 200
        full = random_square_band(n, 2, 1, rng_for(12)).real.astype(dtype)
        middle = full.copy()
        middle[[5, 90], :] = 0
        ranks = []
        for m in (np.zeros((n, n), dtype=dtype), middle, full):
            split = self.split(m, monkeypatch)
            ranks.append(split.rank)
            assert split.kernel.dtype == split.cokernel.dtype == np.float64
        assert ranks == [0, n - 2, n]
        for m in (np.exp(0.3j) * middle, np.exp(0.3j) * full):
            split = self.split(m, monkeypatch)
            assert split.kernel.dtype == split.cokernel.dtype \
                == np.complex128

    def test_wide_or_small_matrices_stay_dense(self, monkeypatch):
        for m in (random_square_band(159, 0, 0, rng_for(1)),   # too small
                  random_square_band(240, 14, 14, rng_for(2)),  # b = 29
                  random_square_band(300, 1, 1, rng_for(3))[:, :299]):
            shapes = svd_shapes(monkeypatch)
            bands = band_svd_calls(monkeypatch)
            null_split(m)
            assert bands == [] and shapes == [m.shape]

    @pytest.mark.parametrize("n, kl, ku", [(160, 8, 8), (240, 13, 13),
                                           (240, 3, 4)])
    def test_the_widest_band_that_pays(self, n, kl, ku, monkeypatch):
        # b = 17 at n = 160 and b = 27 at n = 240 sit on the edge
        # 8 (b + 3) = n, b = 9 at n = 240 is well inside it, and b = 29
        # at n = 240 is past it (above)
        m = random_square_band(n, kl, ku, rng_for(n + kl))
        split = self.split(m, monkeypatch)
        assert split.rank == n


class TestSmallSingularVectors:
    def test_orthonormalization_of_an_ill_conditioned_block(self):
        # singular values from 1 down to 1e-13, mixed across the columns as
        # in an inverse-iteration iterate: the Gram matrix has condition
        # 1e26, far past 1 / eps, so the Cholesky factorization of plain
        # CholQR2 fails on such a block (a purely column-scaled block would
        # not show it, as Cholesky is invariant to diagonal scaling)
        rng = rng_for(3)
        n, k = 2000, 8

        def gaussian(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        frame = np.linalg.qr(gaussian(n, k))[0]
        mixing = np.linalg.qr(gaussian(k, k))[0]
        x = frame * np.logspace(0, -13, k) @ mixing
        assert np.linalg.cond(x) >= 1e12
        q = _orthonormal_columns(x)
        assert q.shape == (n, k) and q.flags.f_contiguous
        assert np.abs(q.conj().T @ q - np.eye(k)).max() <= 1e-13
        assert sine_of_largest_angle(q, np.linalg.qr(x)[0]) <= 1e-12

    def test_real_and_complex_routes_agree(self, monkeypatch):
        # a real band matrix stored as complex is iterated in real
        # arithmetic; e^{0.3i} times it has the same right singular
        # vectors, its left ones turned by the phase, and takes the
        # complex route
        n = 300
        rng = rng_for(21)
        t = np.zeros((n, n))
        for d in range(-2, 2):
            t += np.diag(rng.normal(size=n - abs(d)), d)
        t += np.diag(np.linspace(6.0, 60.0, n))
        t[[17, 160]] = 0
        t[230] *= 1e-5
        scale = np.linalg.norm(t, 2) ** 2
        threshold = 1e-4 * np.sqrt(scale)
        residuals = next_bound_residuals(monkeypatch)
        real = small_singular_vectors(sp.csc_matrix(t.astype(complex)),
                                      threshold, scale, 8)
        turned = small_singular_vectors(sp.csc_matrix(np.exp(0.3j) * t),
                                        threshold, scale, 8)
        assert real[0].dtype == real[1].dtype == np.float64
        assert turned[0].dtype == turned[1].dtype == np.complex128
        assert len(real[2]) == len(turned[2]) == 3
        assert np.abs(real[2] - turned[2]).max() <= 1e-12 * np.sqrt(scale)
        # each route bounds the first retained value from below, its
        # square short by at most its Ritz residual, and the bound clears
        # the threshold; so the two routes agree within the larger slack
        s = np.linalg.svd(t, compute_uv=False)
        for s_next in real[3], turned[3]:
            assert threshold <= s_next <= s[-4]
            assert s[-4] ** 2 - s_next ** 2 \
                <= residuals[s_next] + 1e-12 * scale
        assert abs(real[3] ** 2 - turned[3] ** 2) \
            <= max(residuals[real[3]], residuals[turned[3]]) + 1e-12 * scale
        assert sine_of_largest_angle(real[0], turned[0]) <= 1e-8
        assert sine_of_largest_angle(real[1], turned[1]) <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_clustered_kept_values_split(self, seed, monkeypatch):
        # the first value above the cut sits in a cluster, where its Ritz
        # value settles slowly; its lower bound clears the cut at once
        residuals = next_bound_residuals(monkeypatch)
        t = clustered_band_matrix(seed)
        u, s, vh = np.linalg.svd(t)
        threshold = 1e-4 * s[0]
        right, left, small, s_next = small_singular_vectors(
            sp.csc_matrix(t), threshold, s[0] ** 2, 8)
        assert right.shape == left.shape == (200, 2)
        assert np.all(small <= 1e-12 * s[0])
        assert threshold <= s_next <= s[-3]
        assert s[-3] ** 2 - s_next ** 2 \
            <= residuals[s_next] + 1e-12 * s[0] ** 2
        assert sine_of_largest_angle(right, vh[-2:].conj().T) <= 1e-8
        assert sine_of_largest_angle(left, u[:, -2:]) <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_next_value_at_the_cut_is_refused(self, seed):
        # the threshold between sigma_3 and sigma_4, so the next value
        # sits at the cut: no split there is clean, and the rank decision
        # (the bound read as the smallest kept value) refuses, in the
        # iteration or in split_rank, rather than count 2 or pass 3
        t = clustered_band_matrix(seed)
        s = np.linalg.svd(t, compute_uv=False)
        threshold = np.sqrt(s[-3] * s[-4])
        with pytest.raises(IllConditioned):
            _, _, small, s_next = small_singular_vectors(
                sp.csc_matrix(t), threshold, s[0] ** 2, 8)
            split_rank(np.concatenate([[s_next], small[::-1]]), threshold)

    def test_stalled_iteration_names_its_bound_and_the_cut(self):
        # seed 1 with the cut between sigma_3 and sigma_4: the Ritz value
        # of sigma_4 sits in the cluster above it, and after 60 steps its
        # bound is still below the cut
        t = clustered_band_matrix(1)
        s = np.linalg.svd(t, compute_uv=False)
        threshold = np.sqrt(s[-3] * s[-4])
        with pytest.raises(IllConditioned,
                           match="did not converge in 60 steps") as raised:
            small_singular_vectors(sp.csc_matrix(t), threshold, s[0] ** 2, 8)
        bound, cut = (float(value) for value in re.findall(
            r"[-+]?\d\.\d{6}e[-+]\d+", str(raised.value)))
        assert cut == float(f"{threshold ** 2:.6e}")
        assert bound < cut < s[-4] ** 2

    def test_band_route_takes_two_solves_per_block(self, monkeypatch):
        # the known count of the band route judges convergence on the
        # null values alone, which settle after two solves, and computes
        # no bound on the next value (the suite's checks repeat the
        # Toeplitz splits, so their factorizations are counted by value,
        # not by number)
        solves = lu_solve_counts(monkeypatch)

        def no_bound(*args):
            raise AssertionError("the known-count route computed a bound")

        monkeypatch.setattr(specflow.operators, "_next_eigenvalue_bound",
                            no_bound)
        assert null_split(clustered_band_matrix(0, n=300)).rank == 298
        assert solves == [2, 2]
        t = clustered_band_matrix(0)
        s = np.linalg.svd(t, compute_uv=False)
        assert np.isnan(small_singular_vectors(
            sp.csc_matrix(t), 1e-4 * s[0], s[0] ** 2, 8, count=2)[3])
        solves.clear()
        tr = FourierTruncation(128, 2)
        g, winding = random_trig_unitary(2, rng_for(0), max_winding=2)
        t = toeplitz_compress(hardy_section(tr), g, tr)
        assert fredholm_index(t) == -winding == -3
        assert solves and set(solves) == {2}


class TestInteriorDirections:
    def test_counts_localized_directions(self):
        # e0 lives on the masked rows, e3 off them; a mixture with mass
        # 0.4 on the masked rows stays below localization_mass
        eye = np.eye(4)
        mask = np.array([True, True, False, False])
        q = interior_directions(eye[:, [0, 3]], mask)
        assert q.shape == (4, 1)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-12
        mixed = np.sqrt(0.4) * eye[:, [0]] + np.sqrt(0.6) * eye[:, [3]]
        assert interior_directions(mixed, mask).shape == (4, 0)

    def test_empty(self):
        assert interior_directions(np.zeros((5, 0)),
                                   np.ones(5, dtype=bool)).shape == (5, 0)

    def test_truncation_interior(self):
        assert list(FourierTruncation(4, 1).interior()) == \
            [False, False, True, True, True, True, True, False, False]


class TestConjugate:
    def test_shift_sandwich_interior(self):
        # the truncated e^{ix} multiplication is an isometry away from the
        # edge; its sandwich of -i d/dx equals the shifted diagonal on the
        # interior modes (direct matrix product, edges excluded)
        tr = FourierTruncation(6, 1)
        d = derivative_matrix(tr)
        s = build_multiplication(SymbolFunction.exponential(1), tr)
        sandwich = s @ d @ s.conj().T
        interior = slice(1, 2 * 6)     # drop the lowest mode row/col
        expected = (d - np.eye(tr.dim))[interior, interior]
        assert np.abs(sandwich[interior, interior] - expected).max() < 1e-12


def _unitarity_defect_per_point(symbol):
    """The per-grid-point spectral norm the batched defect replaced."""
    m = symbol.native_grid or max(4 * symbol.bandwidth + 8, 32)
    vals = symbol.evaluate(2 * np.pi * np.arange(m) / m)
    eye = np.eye(symbol.rank)
    return max(np.linalg.norm(v @ v.conj().T - eye, 2) for v in vals)


class TestUnitarityDefect:
    @staticmethod
    def symbols():
        base = BaseGrid.torus(12)
        yield from bott_symbol_family(base).values()
        for rank in (1, 2, 3):
            yield SymbolFunction.exponential(2 * rank - 3, rank=rank)
            for seed in range(4):
                yield random_trig_unitary(rank, rng_for(740 + seed), 3,
                                          product_factors=1 + seed % 2)[0]
        xs = 2 * np.pi * np.arange(16) / 16
        yield SymbolFunction.from_samples(np.exp(1j * xs), unitary=True)

    def test_batched_equals_per_point_bit_for_bit(self):
        for symbol in self.symbols():
            assert symbol.unitarity_defect \
                == _unitarity_defect_per_point(symbol)


class TestSymbolAlgebra:
    def test_product_maps_to_matrix_product_on_interior(self, rng):
        # band-limited f, g with bandwidth <= K/2: M_{fg} = M_f M_g on the
        # interior modes |k| <= K/2
        k = 8
        tr = FourierTruncation(k, 2)
        f = random_hermitian_symbol(2, k // 2, rng)
        g = random_hermitian_symbol(2, k // 2, rng)
        mf = build_multiplication(f, tr)
        mg = build_multiplication(g, tr)
        mfg = build_multiplication(f.product(g), tr)
        interior = np.abs(tr.modes()) <= k // 2
        diff = (mfg - mf @ mg)[np.ix_(interior, interior)]
        assert np.abs(diff).max() <= 1e-9

    def test_linear_in_symbol(self, rng):
        tr = FourierTruncation(4, 1)
        f = random_hermitian_symbol(1, 2, rng)
        g = random_hermitian_symbol(1, 2, rng)
        lhs = build_multiplication(f + g.scale(2.0), tr)
        rhs = build_multiplication(f, tr) + 2.0 * build_multiplication(g, tr)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_hermiticity_preserved(self, rng):
        tr = FourierTruncation(5, 2)
        for seed in range(5):
            v = random_hermitian_symbol(2, 3, rng_for(seed))
            d = build_dirac(v, tr)   # constructor enforces the invariant
            assert np.abs(d.matrix - d.matrix.conj().T).max() <= 1e-12

    def test_unitary_flag_checked(self):
        with pytest.raises(ValueError, match="unitary"):
            SymbolFunction({0: np.array([[2.0]])}, rank=1, unitary=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_coefficient_refused(self, value):
        # a block holding a NaN is not the zero block: kept as one, it
        # made a Dirac endpoint with such a potential -i d/dx, so a curve
        # from 0.5 to it had spectral flow 0
        with pytest.raises(ValueError, match="mode 0 is not finite"):
            SymbolFunction({0: [[value]]}, rank=1)
        with pytest.raises(ValueError, match="mode -2 is not finite"):
            SymbolFunction({1: np.eye(2), -2: [[0, value], [0, 0]]}, rank=2)
        with pytest.raises(ValueError, match="mode 0 is not finite"):
            SymbolFunction.from_samples([value, 1, 1, 1])

    def test_adjoint_of_sampled_unitary_keeps_its_grid(self):
        # exp(i(x + 0.3 sin 3x)) is unitary at its 16 sample points, not
        # between them (defect 2e-3 on the dense grid); its adjoint keeps
        # the promise at those points, so the gauge potential builds
        xs = 2 * np.pi * np.arange(16) / 16
        record = DEFAULT.with_(unitary=1e-9)
        g = SymbolFunction.from_samples(np.exp(1j * (xs + 0.3 * np.sin(3 * xs))),
                                        unitary=True, tolerances=record)
        gstar = g.adjoint()
        assert gstar.native_grid == 16 and gstar.tolerances is record
        assert gstar.unitary and gstar.unitarity_defect <= 1e-14
        assert np.abs(gstar.evaluate(xs)
                      - g.evaluate(xs).conj().swapaxes(-1, -2)).max() <= 1e-15
        pot = gauge_transformed_potential(g)
        assert pot.hermitian_defect() == 0.0

    def test_evaluate_matches_coefficients(self, rng):
        s = random_hermitian_symbol(2, 3, rng)
        xs = np.array([0.0, 1.0, 2.5])
        vals = s.evaluate(xs)
        manual = sum(np.exp(1j * k * xs)[:, None, None] * c[None]
                     for k, c in s.coefficients.items())
        assert np.abs(vals - manual).max() < 1e-12


class TestRoundoffBlocks:
    """``SymbolFunction.product`` drops every output block within the
    roundoff bound of its convolution sum, so a gauge-transformed
    potential that is constant in exact arithmetic is constant."""

    def test_unitary_diagonal_potentials_are_constant(self):
        # i g' g* = -U diag(n_1, n_2) U*; its blocks at n_1 - n_2 and
        # n_2 - n_1 cancel, to up to 5.7 u at seeds 0 to 39
        for seed in range(40):
            for windings, g, u in flow_symbols(seed):
                potential = gauge_transformed_potential(g)
                exact = -u @ np.diag(windings) @ u.conj().T
                assert potential.bandwidth == 0
                assert np.abs(potential.coefficients[0] - exact).max() \
                    <= 1e-15

    def test_bott_potentials_are_constant(self):
        family = bott_symbol_family(BaseGrid.torus(12))
        assert {gauge_transformed_potential(g).bandwidth
                for g in family.values()} == {0}

    @pytest.mark.parametrize("delta, kept", [(1e-12, True), (2e-15, True),
                                             (1e-15, False)])
    def test_the_bound_of_a_two_term_sum(self, delta, kept):
        # over unit operands, mode 1 sums 1 * (-1 + delta) and 1 * 1
        # exactly to delta (rounded to a multiple of 2^-53), and its bound
        # is gamma_m (1 - delta + 1) with m = 5 N + terms = 7, about
        # 1.55e-15: a genuine block of 1e-12 is kept
        f = SymbolFunction({0: [[1.0]], 1: [[1.0]]}, rank=1)
        g = SymbolFunction({0: [[1.0]], 1: [[-1.0 + delta]]}, rank=1)
        fg = f.product(g)
        assert (1 in fg.coefficients) == kept
        if kept:
            assert abs(fg.coefficients[1][0, 0] - delta) <= 2.0 ** -53
        assert fg.coefficients[0][0, 0] == 1.0 and fg.bandwidth <= 2

    def test_a_bound_past_the_float_range_keeps_the_block(self):
        # ||1e155||^2 overflows, so the bound of the sum at mode 1, which
        # cancels to 2.4e139, is not finite and the block is kept; with
        # the norms in range its bound would be 1.6e140
        f = SymbolFunction({0: [[1e155]], 1: [[1e155]]}, rank=1)
        g = SymbolFunction({0: [[1.0]], 1: [[-1.0 + 2.0 ** -52]]}, rank=1)
        assert 1 in f.product(g).coefficients

    @pytest.mark.parametrize("seed", [0, 3])
    def test_conjugation_operator_spectrum_at_k_4096(self, seed):
        # the exact spectrum of the operator at t is {k - t n_j}; with
        # the roundoff blocks at modes +-1 kept, the band is b = 3 and its
        # solve is off by about 3e-9 here
        tr = FourierTruncation(4096, 2)
        ts = [0.0, 0.5, 1.0]
        for windings, g, _ in flow_symbols(seed):
            end = gauge_transformed_potential(g)
            curve = OperatorCurve.from_potentials(
                ts, [end.scale(t) for t in ts], tr)
            op = curve.at(0.25)
            assert op.band.shape == (3, tr.dim)
            exact = np.sort((np.arange(-4096, 4097)[:, None]
                             - 0.25 * np.array(windings)).ravel())
            assert np.abs(eigvalsh(op) - exact).max() <= 1e-12
