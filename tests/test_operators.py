import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from specflow import (BaseGrid, CurveOfFamilies, FourierTruncation,
                      OperatorCurve, SymbolFunction, TruncatedOperator,
                      build_dirac, build_multiplication, dirac_aps_section,
                      eigh, eigvalsh, gauge_transformed_potential)
from specflow.config import DEFAULT, Tolerances
from specflow.errors import IllConditioned
from specflow.models import bott_symbol_family
from specflow.flow import _SpectrumCache
import specflow.operators
from specflow.operators import (NullSplit, _orthonormal_columns,
                                half_bandwidth, interior_directions,
                                null_split, null_splits, numerical_rank,
                                small_singular_vectors, split_rank)
from conftest import (assert_matches_dense_split, dense_null_split,
                      dense_of_band, derivative_matrix, fd_dirac_cos_spectrum,
                      lapack_eigh, random_hermitian, random_hermitian_symbol,
                      random_trig_unitary, random_unitary, rng_for,
                      sine_of_largest_angle, svd_shapes)
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
        assert len(calls) == (16 * (min(b, n - 1) + 1) <= n)
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
        assert np.allclose(eigvalsh(np.diag(d)), np.sort(d),
                           rtol=0, atol=1e-15)
        assert calls == [(1, 40), (1, 40)]

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

    @staticmethod
    def reference_tiebreak(m, cluster_rtol=1e-10):
        """Column-by-column phase normalization and cluster sort: leading
        entry above 1e-8 of the column maximum made real positive, then
        clusters ordered by leading index and by the entries rounded to 9
        decimals as (re, im) pairs."""
        w, v = np.linalg.eigh(m)
        cols = []
        for i in range(v.shape[1]):
            col = v[:, i]
            idx = np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())
            cols.append(col * (abs(col[idx[0]]) / col[idx[0]]))
        v = np.stack(cols, axis=1)

        def key(col):
            a = np.abs(col)
            lead = int(np.argmax(a > 1e-8 * a.max()))
            return (lead,) + tuple(np.round(np.c_[col.real, col.imag].ravel(), 9))

        tol = cluster_rtol * max(np.abs(w).max(), 1.0)
        start = 0
        for i in range(1, len(w) + 1):
            if i == len(w) or w[i] - w[i - 1] > tol:
                block = v[:, start:i]
                order = sorted(range(i - start), key=lambda j: key(block[:, j]))
                v[:, start:i] = block[:, order]
                start = i
        return w, v

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_clusters_match_reference(self, seed):
        rng = rng_for(seed + 300)
        dim = 12
        u = random_unitary(dim, rng)
        # clusters of sizes 3, 1, 4, 2, 2; dense eigenvectors all lead at
        # row 0, so the entries decide the order inside each cluster
        values = np.repeat([-2.0, -0.5, 0.0, 1.0, 3.0], [3, 1, 4, 2, 2])
        m = (u * values[None, :]) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
        w_ref, v_ref = self.reference_tiebreak(m)
        dec = eigh(m)
        assert np.array_equal(dec.eigenvalues, w_ref)
        assert np.abs(dec.eigenvectors - v_ref).max() < 1e-13

    def test_cluster_sort_breaks_leading_index_ties_lexicographically(self):
        from specflow.operators import _cluster_order
        s = 1 / np.sqrt(2)
        block = np.array([[s, s, 0.0], [0.4j, -0.4j, 0.0], [0.0, 0.0, 1.0],
                          [np.sqrt(0.5 - 0.16), np.sqrt(0.5 - 0.16), 0.0]],
                         dtype=complex)
        # same leading row 0 and equal first entries: the imaginary part of
        # row 1 decides (-0.4 before 0.4); the column led by row 2 is last
        assert list(_cluster_order(block, np.zeros(3, dtype=int))) == [1, 0, 2]
        # a lower cluster label outranks the entries
        assert list(_cluster_order(block, np.array([0, 1, 1]))) == [0, 1, 2]


class TestDiagonalEigh:
    """A stack of diagonal matrices is decomposed without LAPACK, with the
    bytes of the LAPACK route (``conftest.lapack_eigh``)."""

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
    def assert_lapack_bytes(operator, dec):
        m = operator.matrix if isinstance(operator, TruncatedOperator) \
            else operator
        w, v = lapack_eigh(m)
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
        self.assert_lapack_bytes(op, dec)

    def test_bott_family_at_zero(self, monkeypatch):
        op = self.bott_family_at_zero()
        assert op.band.shape == (144, 1, 34)
        calls = self.lapack_calls(monkeypatch)
        dec = eigh(op)
        assert calls == []
        self.assert_lapack_bytes(op, dec)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_near_ties_inside_a_cluster(self, dtype, monkeypatch):
        # values closer than degenerate_cluster join one cluster, whose
        # columns the tie-break orders by leading index, apart from the
        # order of their values; exact ties and 0.0 sit among them
        d = np.array([2.0, 1e-12, 0.0, -1.0, 3e-12, 2.0 + 1e-10, -1.0,
                      0.0, 5.0, 2.0 - 1e-10] * 5)
        m = np.diag(d).astype(dtype)
        calls = self.lapack_calls(monkeypatch)
        dec = eigh(m)
        assert calls == []
        self.assert_lapack_bytes(m, dec)

    def test_a_negative_zero_takes_lapack(self, monkeypatch):
        # LAPACK's blocked tridiagonal reduction turns -0.0 into 0.0 on
        # part of a large diagonal, so a diagonal holding -0.0 is left to
        # LAPACK
        d = np.repeat([1.0, -0.0, 0.0, -2.0], 12)
        for m in (np.diag(d), np.diag(d).astype(complex)):
            calls = self.lapack_calls(monkeypatch)
            dec = eigh(m)
            assert calls == [m.shape]
            self.assert_lapack_bytes(m, dec)

    def test_a_diagonal_lapack_scales_takes_lapack(self, monkeypatch):
        # ?heevd scales a matrix whose largest entry lies below 2^-485 or
        # above 2^485, which moves the last bits of the eigenvalues
        d = rng_for(41).uniform(0.3, 1.0, size=6)
        for peak, routed in ((2.0 ** -485, []),
                             (np.nextafter(2.0 ** -485, 0), [(6, 6)]),
                             (2.0 ** 485, []), (1e150, [(6, 6)])):
            m = np.diag(np.r_[1.0, d[1:]] * peak).astype(complex)
            calls = self.lapack_calls(monkeypatch)
            dec = eigh(m)
            assert calls == routed
            self.assert_lapack_bytes(m, dec)

    def test_one_off_diagonal_entry_sends_the_stack_to_lapack(self,
                                                              monkeypatch):
        op = self.bott_family_at_zero()
        stack = op.matrix.copy()
        stack[7, 3, 4] = stack[7, 4, 3] = 0.25
        calls = self.lapack_calls(monkeypatch)
        dec = eigh(stack)
        assert calls == [stack.shape]
        self.assert_lapack_bytes(stack, dec)
        self.assert_lapack_bytes(op, eigh(op))


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
    matrix here has n >= 16 (b + 1) + 128 for its interleaved
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
                  random_square_band(240, 3, 4, rng_for(2)),   # b = 9
                  random_square_band(300, 1, 1, rng_for(3))[:, :299]):
            shapes = svd_shapes(monkeypatch)
            bands = band_svd_calls(monkeypatch)
            null_split(m)
            assert bands == [] and shapes == [m.shape]


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

    def test_real_and_complex_routes_agree(self):
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
        real = small_singular_vectors(sp.csc_matrix(t.astype(complex)),
                                      threshold, scale, 8)
        turned = small_singular_vectors(sp.csc_matrix(np.exp(0.3j) * t),
                                        threshold, scale, 8)
        assert real[0].dtype == real[1].dtype == np.float64
        assert turned[0].dtype == turned[1].dtype == np.complex128
        assert len(real[2]) == len(turned[2]) == 3
        assert np.abs(real[2] - turned[2]).max() <= 1e-12 * np.sqrt(scale)
        # the first retained value settles only with the Ritz values
        assert abs(real[3] - turned[3]) <= 1e-8 * real[3]
        assert sine_of_largest_angle(real[0], turned[0]) <= 1e-8
        assert sine_of_largest_angle(real[1], turned[1]) <= 1e-8


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
