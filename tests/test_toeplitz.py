import dataclasses

import numpy as np
import pytest

from specflow import (CH1_NORMALIZATION, BaseGrid, FourierTruncation,
                      OperatorCurve, SpectralSection, SymbolFunction,
                      aps_projection, build_multiplication,
                      dirac_aps_section, fredholm_index,
                      gauge_transformed_potential, hardy_section,
                      odd_chern_integral, spectral_flow, toeplitz_compress,
                      winding)
from specflow.config import DEFAULT
from specflow.errors import (GridResolutionError, IllConditioned,
                             RoundingAmbiguous, UnstableIndex)
from specflow.operators import _band_of
from specflow.models import bott_symbol_family, qwz_projector
import specflow.toeplitz
from specflow.toeplitz import (_FIBER_GRID, SmallSubspaces, _compressions,
                               _gather, _small_subspaces,
                               toeplitz_small_subspaces)
from conftest import (assert_same_subspaces, derivative_matrix,
                      random_hermitian_symbol, random_trig_unitary,
                      random_unitary, reference_odd_chern_cochain,
                      reference_small_subspaces, rng_for,
                      section_family_of, svd_shapes)


def interior_compression(symbol, trunc):
    """Hardy compression with the top bandwidth modes dropped from the
    domain, so every retained column equals the untruncated operator's."""
    t = toeplitz_compress(hardy_section(trunc), symbol, trunc)
    return t.matrix[:, :t.rank - symbol.bandwidth * trunc.bundle_rank]


class TestHardySection:
    def test_rank(self):
        assert hardy_section(FourierTruncation(2, 1)).rank == 3

    @pytest.mark.parametrize("rank", [1, 2])
    def test_holds_its_rows(self, rank):
        # the index set of the modes k >= 0; the frame is built on each
        # read, and lifting scatters coordinates into the rows
        tr = FourierTruncation(5, rank)
        h = hardy_section(tr)
        assert np.array_equal(h.rows, np.flatnonzero(tr.modes() >= 0))
        assert not h.rows.flags.writeable
        assert (h.dim, h.rank) == (tr.dim, len(h.rows))
        b = h.basis
        assert not b.flags.writeable and b is not h.basis
        assert b.dtype == complex
        assert np.array_equal(b, np.eye(tr.dim)[:, h.rows])
        coords = rng_for(5).normal(size=(3, h.rank, 2))
        for c in (coords, coords * np.exp(0.4j)):
            lifted = h.lift(c)
            assert lifted.dtype == complex
            assert np.array_equal(lifted, b @ c)

    def test_idempotent(self):
        b = hardy_section(FourierTruncation(4, 2)).basis
        p = b @ b.conj().T
        assert np.array_equal(p @ p, p)

    def test_commutes_with_derivative_exactly(self):
        tr = FourierTruncation(5, 1)
        b = hardy_section(tr).basis
        p = b @ b.conj().T
        d = derivative_matrix(tr)
        assert np.array_equal(p @ d, d @ p)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_equals_inclusive_aps_projection_of_derivative(self, rank):
        tr = FourierTruncation(6, rank)
        h = hardy_section(tr)
        ref = aps_projection(derivative_matrix(tr), 0.0, policy="inclusive")
        assert h.basis.shape == ref.basis.shape
        assert np.abs(h.basis - ref.basis).max() < 1e-14
        assert np.abs(h.basis @ h.basis.conj().T
                      - ref.basis @ ref.basis.conj().T).max() < 1e-14
        assert h.threshold_window == pytest.approx(ref.threshold_window,
                                                   rel=1e-15)


class TestCompression:
    def test_identity_symbol(self):
        tr = FourierTruncation(3, 1)
        t = toeplitz_compress(hardy_section(tr),
                              SymbolFunction.constant(1.0, rank=1,
                                                      unitary=True), tr)
        assert np.allclose(t.matrix, np.eye(4))

    def test_shift_structure(self):
        k = 5
        tr = FourierTruncation(k, 1)
        t = toeplitz_compress(hardy_section(tr), SymbolFunction.exponential(1),
                              tr)
        # one-sided shift once the truncation-edge column is dropped
        assert np.array_equal(t.matrix[1:, :-1], np.eye(k))
        assert np.array_equal(t.matrix[:, -1], np.zeros(k + 1))

    def test_adjoint_symmetry(self):
        tr = FourierTruncation(6, 1)
        h = hardy_section(tr)
        plus = toeplitz_compress(h, SymbolFunction.exponential(1), tr)
        minus = toeplitz_compress(h, SymbolFunction.exponential(-1), tr)
        assert np.abs(minus.matrix - plus.matrix.conj().T).max() <= 1e-12

    def test_non_unitary_rejected(self):
        tr = FourierTruncation(3, 1)
        with pytest.raises(ValueError, match="unitary"):
            toeplitz_compress(hardy_section(tr),
                              SymbolFunction.constant(0.5), tr)

    @pytest.mark.parametrize("seed", range(3))
    def test_coordinate_section_is_the_index_block(self, seed):
        # B* M_g B of a coordinate selection B, in any column order, is
        # the index block of M_g bit for bit
        rng = rng_for(seed + 40)
        symbol, _ = random_trig_unitary(2, rng)
        tr = FourierTruncation(12, 2)
        mg = build_multiplication(symbol, tr)
        hardy = hardy_section(tr)
        cols = rng.permutation(hardy.rank)
        shuffled = SpectralSection(hardy.basis[:, cols], 0.0, "explicit")
        for section in (hardy, shuffled):
            dense = section.basis.conj().T @ mg @ section.basis
            t = toeplitz_compress(section, symbol, tr)
            assert np.array_equal(t.matrix, dense)
        assert np.array_equal(
            toeplitz_compress(hardy, symbol, tr).matrix,
            mg[np.ix_(tr.modes() >= 0, tr.modes() >= 0)])

    def test_eigenvector_section_takes_the_product(self):
        rng = rng_for(7)
        symbol, _ = random_trig_unitary(2, rng)
        tr = FourierTruncation(8, 2)
        section = dirac_aps_section(random_hermitian_symbol(2, 1, rng), tr)
        mg = build_multiplication(symbol, tr)
        t = toeplitz_compress(section, symbol, tr)
        assert np.array_equal(t.matrix,
                              section.basis.conj().T @ mg @ section.basis)

    @pytest.mark.parametrize("members", [1, 2])
    def test_a_family_of_sections_is_refused(self, members):
        tr = FourierTruncation(4, 1)
        symbol = SymbolFunction.exponential(1)
        section = dirac_aps_section(SymbolFunction.constant(0.25), tr)
        with pytest.raises(ValueError, match="^toeplitz_compress takes "
                           "single sections, not a family$"):
            toeplitz_compress(section_family_of(section, members), symbol,
                              tr)
        mg = build_multiplication(symbol, tr)
        assert np.array_equal(toeplitz_compress(section, symbol, tr).matrix,
                              section.basis.conj().T @ mg @ section.basis)


class TestFredholmIndex:
    def test_constant_unitary(self):
        tr = FourierTruncation(8, 1)
        t = toeplitz_compress(hardy_section(tr),
                              SymbolFunction.constant(1j, rank=1,
                                                      unitary=True), tr)
        assert fredholm_index(t) == 0

    @pytest.mark.parametrize("n,expected", [(1, -1), (3, -3), (-2, 2)])
    def test_pure_phases(self, n, expected):
        tr = FourierTruncation(16, 1)
        t = toeplitz_compress(hardy_section(tr), SymbolFunction.exponential(n),
                              tr)
        assert fredholm_index(t) == expected

    def test_block_symbol(self):
        # diag(e^{ix}, e^{-4ix}): winding -3, index +3
        tr = FourierTruncation(16, 2)
        g = SymbolFunction({1: np.diag([1.0, 0.0]), -4: np.diag([0.0, 1.0])},
                           rank=2, unitary=True)
        t = toeplitz_compress(hardy_section(tr), g, tr)
        assert fredholm_index(t) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_index_is_minus_winding(self, seed):
        g, total = random_trig_unitary(2, rng_for(seed + 3), max_winding=2)
        tr = FourierTruncation(14, 2)
        t = toeplitz_compress(hardy_section(tr), g, tr)
        assert fredholm_index(t) == -total
        assert winding(g).winding == total

    @pytest.mark.parametrize("seed", range(5))
    def test_multiplicativity(self, seed):
        rng = rng_for(seed + 31)
        g, wg = random_trig_unitary(2, rng, max_winding=1)
        h, wh = random_trig_unitary(2, rng, max_winding=1)
        tr = FourierTruncation(14, 2)
        sec = hardy_section(tr)
        ig = fredholm_index(toeplitz_compress(sec, g, tr))
        ih = fredholm_index(toeplitz_compress(sec, h, tr))
        igh = fredholm_index(toeplitz_compress(sec, g.product(h, unitary=True),
                                               tr))
        assert igh == ig + ih

    def test_stability_contract_requires_rebuilder(self):
        from specflow import aps_projection, build_dirac
        tr = FourierTruncation(8, 1)
        d = build_dirac(SymbolFunction.constant(0.25), tr)
        bare = aps_projection(d, 0.0)    # no rebuild recipe attached
        t = toeplitz_compress(bare, SymbolFunction.exponential(1), tr)
        with pytest.raises(UnstableIndex, match="rebuild recipe"):
            fredholm_index(t)

    def test_unstable_at_tiny_truncation(self):
        # winding 2 at K = 2 cannot separate genuine from edge null
        # directions; the two-truncation contract must catch it
        tr = FourierTruncation(2, 1)
        t = toeplitz_compress(hardy_section(tr), SymbolFunction.exponential(2),
                              tr)
        with pytest.raises(UnstableIndex):
            fredholm_index(t)

    def test_dirac_aps_section_supports_stability(self):
        pot = SymbolFunction({1: np.array([[0.2]]), -1: np.array([[0.2]])},
                             rank=1)
        tr = FourierTruncation(12, 1)
        sec = dirac_aps_section(pot, tr, 0.0)
        t = toeplitz_compress(sec, SymbolFunction.exponential(2), tr)
        assert fredholm_index(t) == -2

    @pytest.mark.parametrize("tol", [0.0, 1.0])
    def test_tol_outside_unit_interval_rejected(self, tol):
        tr = FourierTruncation(8, 1)
        t = toeplitz_compress(hardy_section(tr), SymbolFunction.exponential(1),
                              tr)
        with pytest.raises(ValueError, match="tolerance"):
            fredholm_index(t, DEFAULT.with_(rank_rtol=tol))

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_clustered_split_raises(self, factor):
        # tol 1e-6 drops 1e-7 and keeps the value just below or just above
        # svd_gap_factor times it; the dropped direction is the top mode, so
        # its kernel and cokernel lines are both edge artifacts
        tr = FourierTruncation(4, 1)
        t = toeplitz_compress(hardy_section(tr), SymbolFunction.exponential(1),
                              tr)
        s = np.ones(t.rank)
        s[-2:] = factor * DEFAULT.svd_gap_factor * 1e-7, 1e-7
        t = dataclasses.replace(t, band=_band_of(np.diag(s).astype(complex)))
        loose = DEFAULT.with_(rank_rtol=1e-6)
        if factor < 1:
            with pytest.raises(IllConditioned, match="cluster"):
                toeplitz_small_subspaces(t, loose)
        else:
            sub = toeplitz_small_subspaces(t, loose)
            assert (sub.kernel_dim, sub.cokernel_dim, sub.edge_artifacts) \
                == (0, 0, 2)

    def test_small_subspaces_keep_the_gap_ratio(self):
        tr = FourierTruncation(4, 1)
        t = toeplitz_compress(hardy_section(tr), SymbolFunction.exponential(1),
                              tr)
        # the shift drops an exact zero, which bounds no ratio
        assert toeplitz_small_subspaces(t).gap_ratio == np.inf
        t = dataclasses.replace(t, band=_band_of(
            np.diag([1.0, 1.0, 1.0, 0.5, 1e-7]).astype(complex)))
        sub = toeplitz_small_subspaces(t, DEFAULT.with_(rank_rtol=1e-6))
        assert sub.gap_ratio == 0.5 / 1e-7
        # a band-route split keeps its ratio too
        tr = FourierTruncation(128, 2)
        t = toeplitz_compress(hardy_section(tr), winding_one_symbol(4), tr)
        sub = toeplitz_small_subspaces(t)
        s = sub.singular_values
        rank = int(np.count_nonzero(s >= DEFAULT.rank_rtol * s[0]))
        assert sub.gap_ratio == s[rank - 1] / s[rank] > 1e12


def winding_one_symbol(seed: int) -> SymbolFunction:
    """U diag(e^{ix}, 1) V with random unitaries U and V: winding 1, and
    its Hardy compression has lower and upper half-bandwidths 3 and 1."""
    rng = rng_for(seed)
    u, v = random_unitary(2, rng), random_unitary(2, rng)
    return SymbolFunction({1: u @ np.diag([1.0, 0.0]) @ v,
                           0: u @ np.diag([0.0, 1.0]) @ v},
                          rank=2, unitary=True)


class TestNullSplitRoute:
    @pytest.mark.parametrize("seed", range(3))
    def test_hardy_compression_takes_no_full_svd(self, seed, monkeypatch):
        # K = 128 and its doubling check at K = 256 (258 and 514 rows)
        # both take the band route; the only SVDs left are the localization
        # counts of the few null directions
        tr = FourierTruncation(128, 2)
        t = toeplitz_compress(hardy_section(tr), winding_one_symbol(seed), tr)
        shapes = svd_shapes(monkeypatch)
        assert fredholm_index(t) == -1
        assert shapes and all(shape[-1] <= 2 for shape in shapes)

    @pytest.mark.parametrize("k", [8, 16])
    def test_family_sized_compression_stays_dense(self, k, monkeypatch):
        # the 18- and 34-row compressions of the Bott family at K = 8 and
        # its doubling check at K = 16
        g = bott_symbol_family(BaseGrid.torus(12))[(3, 5)]
        tr = FourierTruncation(k, 2)
        t = toeplitz_compress(hardy_section(tr), g, tr)
        shapes = svd_shapes(monkeypatch)
        sub = toeplitz_small_subspaces(t)
        assert t.matrix.shape == (2 * k + 2, 2 * k + 2)
        assert [shape[-2:] for shape in shapes].count(t.matrix.shape) == 1
        assert sub.kernel_dim + sub.edge_artifacts >= 1


class TestFamilySubspaces:
    """The compressions of a symbol family split as one stack: every
    member, and the one-member view ``toeplitz_small_subspaces`` of its
    own compression, must match the reference split of that compression
    bit for bit."""

    @staticmethod
    def case(name):
        if name == "hardy K=128":
            # the band route, member by member
            trunc = FourierTruncation(128, 2)
            return (hardy_section(trunc),
                    [winding_one_symbol(seed) for seed in range(3)], trunc)
        if name == "dirac-aps":
            # a section whose frame is not a coordinate selection
            pot = SymbolFunction({1: np.array([[0.2]]),
                                  -1: np.array([[0.2]])}, rank=1)
            trunc = FourierTruncation(12, 1)
            g = SymbolFunction.exponential(2)
            return (dirac_aps_section(pot, trunc, 0.0),
                    [g, g.scale(-1.0), g.scale(1j)], trunc)
        # the dense route: the Bott family at K = 8 and 16
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        trunc = FourierTruncation(int(name.split("=")[1]), 2)
        return (hardy_section(trunc), [fam[v] for v in base.vertices[:12]],
                trunc)

    @pytest.mark.parametrize("name", ["hardy K=128", "bott K=8", "bott K=16",
                                      "dirac-aps"])
    def test_members_match_the_reference_split(self, name):
        section, symbols, trunc = self.case(name)
        sub = _small_subspaces(
            section, _compressions(section, symbols, trunc, DEFAULT), trunc,
            DEFAULT)
        for i, g in enumerate(symbols):
            t = toeplitz_compress(section, g, trunc)
            ref = reference_small_subspaces(t)
            view = toeplitz_small_subspaces(t)
            assert_same_subspaces(view, ref)
            assert type(view.kernel_dim) is type(view.edge_artifacts) is int
            assert type(view.gap_ratio) is float
            assert_same_subspaces(SmallSubspaces(*(
                getattr(sub, f.name)[i]
                for f in dataclasses.fields(sub))), ref)

    def test_members_match_their_own_small_subspaces(self):
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        symbols = [fam[v] for v in base.vertices[:12]]
        for k in (4, 8):
            trunc = FourierTruncation(k, 2)
            section = hardy_section(trunc)
            sub = _small_subspaces(
                section, _compressions(section, symbols, trunc, DEFAULT),
                trunc, DEFAULT)
            for i, g in enumerate(symbols):
                ref = reference_small_subspaces(
                    toeplitz_compress(section, g, trunc))
                assert sub.kernel_dim[i] == ref.kernel_dim == 0
                assert sub.cokernel_dim[i] == ref.cokernel_dim == 1
                assert np.array_equal(sub.cokernel_interior[i],
                                      ref.cokernel_interior)
            assert sub.kernel_interior.shape == (12, trunc.dim, 0)

    def test_mixed_windings_keep_per_member_counts(self):
        # raw ranks and interior counts vary: one split per rank group
        # (e^{ix} and e^{-ix} share a rank, with their null lines on
        # opposite sides), counts per member, and no common frame stack
        symbols = [SymbolFunction.exponential(n) for n in (1, -2, -1, 0)]
        trunc = FourierTruncation(8, 1)
        section = hardy_section(trunc)
        sub = _small_subspaces(
            section, _compressions(section, symbols, trunc, DEFAULT), trunc,
            DEFAULT)
        refs = [reference_small_subspaces(toeplitz_compress(section, g, trunc))
                for g in symbols]
        assert sub.kernel_dim.tolist() == [r.kernel_dim for r in refs] \
            == [0, 2, 1, 0]
        assert sub.cokernel_dim.tolist() == [r.cokernel_dim for r in refs] \
            == [1, 0, 0, 0]
        assert sub.kernel_interior is None and sub.cokernel_interior is None

    def test_gather_scatters_groups_in_member_order(self):
        a, b = np.ones((2, 3, 1)), 2 * np.ones((1, 3, 1))
        out = _gather([(np.array([0, 2]), a), (np.array([1]), b)], 3, 3)
        assert out[:, 0, 0].tolist() == [1.0, 2.0, 1.0]
        assert _gather([(np.array([0]), a[:1]),
                        (np.array([1]), np.ones((1, 3, 2)))], 2, 3) is None
        assert _gather([(np.array([0, 1]), None)], 2, 3) is None


class TestWinding:
    @pytest.mark.parametrize("n,expected", [(2, 2), (0, 0), (-5, -5)])
    def test_pure_phase(self, n, expected):
        w = winding(SymbolFunction.exponential(n))
        assert w.winding == expected
        assert abs(w.raw_integral - expected) <= 1e-10

    def test_identity(self):
        assert winding(SymbolFunction.constant(np.eye(2), unitary=True)).winding == 0

    def test_block_additivity(self):
        g = SymbolFunction({1: np.diag([1.0, 0.0]), -4: np.diag([0.0, 1.0])},
                           rank=2, unitary=True)
        w = winding(g)
        assert w.winding == -3
        assert abs(w.raw_integral - (-3)) <= 0.01   # contract at grid 512

    def test_rounding_ambiguous(self, rng):
        # rough random-phase samples are unitary pointwise but nowhere near
        # a continuous winding
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=128))
        g = SymbolFunction.from_samples(phases, unitary=True)
        with pytest.raises(RoundingAmbiguous):
            winding(g, DEFAULT.with_(winding_grid=128))

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="64"):
            winding(SymbolFunction.exponential(1),
                    DEFAULT.with_(winding_grid=32))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            winding(SymbolFunction.constant(0.5))


class TestIndexEqualsPathFlow:
    """Compression index against the conjugation-path crossing count,
    computed through fully independent code paths."""

    @pytest.mark.parametrize("n", [1, -2])
    def test_pure_phase_paths(self, n):
        tr = FourierTruncation(10, 1)
        g = SymbolFunction.exponential(n)
        idx = fredholm_index(toeplitz_compress(hardy_section(tr), g, tr))
        pot = gauge_transformed_potential(g)
        curve = OperatorCurve.from_potentials([0.0, 1.0],
                                              [pot.scale(0.0), pot], tr)
        assert idx == spectral_flow(curve)

    def test_symbol_only_dependence(self):
        # perturbing the base operator by a bounded Hermitian band-limited
        # potential changes neither side
        rng = rng_for(4242)
        tr = FourierTruncation(12, 2)
        g, total = random_trig_unitary(2, rng, max_winding=1)
        v = random_hermitian_symbol(2, 2, rng, scale=0.15)
        sec = dirac_aps_section(v, tr, 0.0)
        idx = fredholm_index(toeplitz_compress(sec, g, tr))
        pot1 = gauge_transformed_potential(g, v)
        curve = OperatorCurve.from_potentials(
            [0.0, 1.0], [v, pot1], tr)
        assert idx == -total == spectral_flow(curve)


class TestOddChernIntegral:
    def test_degree0_constant_phase_family(self):
        base = BaseGrid.torus(8)
        fam = {v: SymbolFunction.exponential(1) for v in base.vertices}
        c = odd_chern_integral(fam, base, n=0)
        assert all(val == -1.0 for val in c.values.values())

    def test_degree0_refuses_a_jump_at_one_vertex(self):
        # the windings are integers, so one vertex of winding 2 among
        # winding 1 is refused at its first edge
        base = BaseGrid.torus(8)
        fam = {v: SymbolFunction.exponential(2 if v == (3, 5) else 1)
               for v in base.vertices}
        with pytest.raises(GridResolutionError,
                           match=r"jumps across edge \(2, 5\) -> \(3, 5\)"):
            odd_chern_integral(fam, base, n=0)

    def test_degree1_constant_family_vanishes(self):
        base = BaseGrid.torus(8)
        g = SymbolFunction({0: qwz_projector(0.3, 0.9) @ np.eye(2),
                            1: np.eye(2) - qwz_projector(0.3, 0.9)},
                           rank=2)
        # constant in base: every plaquette value is zero
        fam = {v: SymbolFunction.exponential(2, rank=2) for v in base.vertices}
        c = odd_chern_integral(fam, base, n=1)
        assert max(abs(v) for v in c.values.values()) <= 1e-10

    def test_bott_total_matches_reference(self):
        base = BaseGrid.torus(12)
        c = odd_chern_integral(bott_symbol_family(base), base, n=1)
        assert abs(c.total - (-1.0)) <= 0.02

    @pytest.mark.parametrize("kind", ["rank 1", "rank 2", "rank 3",
                                      "callable"])
    def test_degree1_matches_the_per_vertex_reference(self, kind):
        # every rank is inverted by the adjoint, the reference by
        # np.linalg.inv
        base = BaseGrid.torus(8 if kind == "rank 1" else 12)
        if kind == "rank 1":
            # a phase e^{i(b_1 + 2 b_2)} e^{ix} of the base point: scalars
            # commute, so every plaquette value vanishes
            fam = {v: SymbolFunction(
                {1: [[np.exp(1j * (base.coordinates(v)[0]
                                   + 2 * base.coordinates(v)[1]))]]},
                rank=1, unitary=True)
                for v in base.vertices}
        elif kind == "rank 2":
            fam = bott_symbol_family(base)
        elif kind == "rank 3":
            # the Bott symbol plus a trivial line: the same class
            fam = {v: SymbolFunction(
                {k: np.pad(c, (0, 1)) + np.diag([0.0, 0.0, k == 0])
                 for k, c in g.coefficients.items()}, rank=3, unitary=True)
                for v, g in bott_symbol_family(base).items()}
        else:
            bott = bott_symbol_family(base)
            u = SymbolFunction.constant(random_unitary(2, rng_for(3)),
                                        unitary=True)
            fam = lambda v: u.product(bott[v], unitary=True)  # noqa: E731
        values, total = reference_odd_chern_cochain(fam, base)
        c = odd_chern_integral(fam, base, n=1)
        assert c.values.keys() == values.keys()
        assert max(abs(c.values[p] - values[p]) for p in values) <= 1e-12
        assert abs(c.total - total) <= 1e-12
        if kind != "rank 1":
            assert round(c.total) == -1

    @pytest.mark.parametrize("stretch, refused", [
        (1 + 4e-11, False), (1 + 6e-11, True), (0.5, True)],
        ids=["inside", "outside", "far outside"])
    def test_degree1_refuses_a_non_unitary_symbol(self, stretch, refused):
        # (1 + d) g of a unitary g has defect (1 + d)^2 - 1, about 2d,
        # against the guard's 1e-10; refused like winding, before any
        # inverse is taken
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        fam[3, 5] = fam[3, 5].scale(stretch)
        assert abs(fam[3, 5].unitarity_defect
                   - abs(stretch ** 2 - 1)) <= 1e-15
        if refused:
            with pytest.raises(ValueError, match="unitary-valued"):
                odd_chern_integral(fam, base, n=1)
        else:
            assert round(odd_chern_integral(fam, base, n=1).total) == -1

    def test_degree1_refuses_a_singular_symbol(self):
        # diag((1 + e^{ix}) / 2, 1) is singular at x = pi, a fiber grid
        # point: a ValueError from the guard, not LinAlgError from inv
        base = BaseGrid.torus(8)
        g = SymbolFunction({0: np.diag([0.5, 1.0]), 1: np.diag([0.5, 0.0])},
                           rank=2)
        fam = {v: g for v in base.vertices}
        with pytest.raises(ValueError, match="unitary-valued"):
            odd_chern_integral(fam, base, n=1)

    @pytest.mark.parametrize("block", [32, 48])
    def test_fiber_blocks_match_one_block(self, block, monkeypatch):
        # the fiber integral taken block by block, 48 leaving a short
        # last block, against all fiber points at once
        base = BaseGrid.torus(12)
        fam = bott_symbol_family(base)
        monkeypatch.setattr(specflow.toeplitz, "_FIBER_BLOCK", block)
        blocked = odd_chern_integral(fam, base, n=1)
        monkeypatch.setattr(specflow.toeplitz, "_FIBER_BLOCK", _FIBER_GRID)
        whole = odd_chern_integral(fam, base, n=1)
        assert blocked.values.keys() == whole.values.keys()
        assert max(abs(blocked.values[p] - whole.values[p])
                   for p in whole.values) <= 1e-12
        assert abs(blocked.total - whole.total) <= 1e-12

    def test_normalization_constant_frozen(self):
        assert CH1_NORMALIZATION == 1.0 / (4.0 * np.pi ** 2)

    def test_degree_validation(self):
        base = BaseGrid.loop(8)
        fam = {v: SymbolFunction.exponential(1) for v in base.vertices}
        with pytest.raises(ValueError, match="torus"):
            odd_chern_integral(fam, base, n=1)
        with pytest.raises(ValueError, match="degrees"):
            odd_chern_integral(fam, base, n=2)


class TestInteriorCompression:
    def test_shift_has_clean_null_data(self):
        tr = FourierTruncation(8, 1)
        m = interior_compression(SymbolFunction.exponential(1), tr)
        assert m.shape == (9, 8)
        s = np.linalg.svd(m, compute_uv=False)
        assert s.min() > 0.9          # injective: no kernel at all
        # cokernel is the lowest mode
        resid = np.linalg.norm(m.conj().T @ np.eye(9)[:, 0])
        assert resid <= 1e-12
