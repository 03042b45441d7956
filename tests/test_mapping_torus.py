import numpy as np
import pytest

import specflow.mapping_torus
import specflow.operators
from specflow import (FourierTruncation, OperatorCurve, SymbolFunction,
                      TwistedLoopSpec, build_dirac, build_mapping_torus,
                      gauge_transformed_potential, mapping_torus_index,
                      spectral_flow)
from specflow.config import DEFAULT
from specflow.errors import GluingInconsistent, IllConditioned
from specflow.mapping_torus import (MappingTorusOperator, _interior_index,
                                    _small_singular_vectors)
from specflow.models import constant_shift_potential
from conftest import (assert_matches_reference_assembly, dense_of_band,
                      hermitian_guard_edge, random_hermitian,
                      random_hermitian_symbol, rng_for,
                      sine_of_largest_angle)


def flux_spec(flux: int, k: int = 16) -> TwistedLoopSpec:
    """Path -i d/dx - flux*u with gluing e^{i flux x}: the endpoint is the
    conjugate of the start, exactly at the symbol level."""
    tr = FourierTruncation(k, 1)
    curve = OperatorCurve.from_potentials(
        [0.0, 1.0],
        [constant_shift_potential(0.0), constant_shift_potential(-float(flux))],
        tr)
    glue = SymbolFunction.exponential(flux) if flux else None
    return TwistedLoopSpec(curve, glue)


def three_sample_spec() -> TwistedLoopSpec:
    """A three-sample identity-glued loop whose middle potential varies
    in x."""
    return TwistedLoopSpec(OperatorCurve.from_potentials(
        [0.0, 0.4, 1.0],
        [constant_shift_potential(0.3),
         random_hermitian_symbol(1, 2, rng_for(5), scale=0.5),
         constant_shift_potential(0.3)],
        FourierTruncation(6, 1)))


def cancelling_spec() -> TwistedLoopSpec:
    """A loop through cos x, -cos x and cos x at u = 0, 1/8 and 1: on 8
    slices the first one is the segment's midpoint, where the cosine
    cancels exactly and leaves zeros inside the samples' pattern."""
    cos = SymbolFunction({1: 0.5, -1: 0.5}, rank=1)
    return TwistedLoopSpec(OperatorCurve.from_potentials(
        [0.0, 0.125, 1.0], [cos, cos.scale(-1.0), cos],
        FourierTruncation(6, 1)))


def constant_loop_spec(k: int = 8) -> TwistedLoopSpec:
    """The constant path -i d/dx + 0.3 with identity gluing."""
    curve = OperatorCurve.from_potentials(
        [0.0, 1.0], [constant_shift_potential(0.3)] * 2,
        FourierTruncation(k, 1))
    return TwistedLoopSpec(curve)


class TestSpecValidation:
    def test_identity_gluing_constant_path(self):
        constant_loop_spec()   # no error

    @pytest.mark.parametrize("flux", [1, 2])
    def test_conjugation_identity_exact(self, flux):
        flux_spec(flux)   # constructor checks D_1 = g D_0 g^{-1}

    def test_inconsistent_gluing_rejected(self):
        tr = FourierTruncation(8, 1)
        curve = OperatorCurve.from_potentials(
            [0.0, 1.0],
            [constant_shift_potential(0.0), constant_shift_potential(-1.0)],
            tr)
        with pytest.raises(GluingInconsistent):
            TwistedLoopSpec(curve, SymbolFunction.exponential(2))

    @pytest.mark.parametrize("loose", [True, False])
    def test_gluing_unitarity_reads_the_symbol_record(self, loose):
        # g = (1 + 1e-9) e^{ix} is unitary up to 2e-9, inside the guard
        # of the record it is built with only when that record is loosened
        record = DEFAULT.with_(unitary=1e-6) if loose else DEFAULT
        g = SymbolFunction({1: [[1 + 1e-9]]}, rank=1, unitary=loose,
                           tolerances=record)
        assert abs(g.unitarity_defect - 2e-9) <= 1e-15
        start = constant_shift_potential(0.0)
        curve = OperatorCurve.from_potentials(
            [0.0, 1.0], [start, gauge_transformed_potential(g, start)],
            FourierTruncation(4, 1), record)
        if loose:
            assert TwistedLoopSpec(curve, g).glue is g
        else:
            with pytest.raises(ValueError, match="defect 2.000e-09"):
                TwistedLoopSpec(curve, g)

    def test_potentials_are_not_a_constructor_argument(self):
        # a path D(0) -> D(-1/2) that claimed the potentials [V0, V0]
        # would pass the gluing check while its operators do not close
        tr = FourierTruncation(4, 1)
        ops = [build_dirac(constant_shift_potential(a), tr)
               for a in (0.0, -0.5)]
        with pytest.raises(TypeError, match="potentials"):
            OperatorCurve([0.0, 1.0], ops,
                          potentials=[constant_shift_potential(0.0)] * 2)

    def test_requires_potentials(self):
        tr = FourierTruncation(4, 1)
        op = build_dirac(constant_shift_potential(0.3), tr)
        curve = OperatorCurve([0.0, 1.0], [op, op])
        with pytest.raises(ValueError, match="potential"):
            TwistedLoopSpec(curve)


class TestBuild:
    def test_shape_and_blocks(self):
        spec = flux_spec(1, k=6)
        op = build_mapping_torus(spec, 12)
        dim = spec.truncation.dim
        assert op.shape == (12 * dim, 12 * dim)
        # Cayley stencil: slice j couples only to itself and to slice j + 1,
        # the last one wrapping to the first; the two blocks of a row differ
        # by -2/h times the identity (the twist enters on the wrap row only)
        a = op.matrix.toarray().reshape(12, dim, 12, dim)
        coupled = {(i, j) for i in range(12) for j in range(12)
                   if np.abs(a[i, :, j, :]).max() > 0}
        assert coupled == ({(j, j) for j in range(12)}
                           | {(j, (j + 1) % 12) for j in range(12)})
        for j in range(11):
            assert np.allclose(a[j, :, j, :] - a[j, :, j + 1, :],
                               -2.0 * 12 * np.eye(dim))

    def test_minimum_slices(self):
        with pytest.raises(ValueError, match="8"):
            build_mapping_torus(flux_spec(1, k=4), 4)

    @pytest.mark.parametrize("spec", [
        flux_spec(1, k=6), flux_spec(2, k=8), three_sample_spec()])
    @pytest.mark.parametrize("m_u", [8, 13])
    def test_sigma_max_bound_covers_every_slice(self, spec, m_u):
        # the sample norms bound every midpoint slice of the affine path
        op = build_mapping_torus(spec, m_u)
        h = 1.0 / m_u
        slices = max(np.linalg.norm(spec.path.at((j + 0.5) * h).matrix, 2)
                     for j in range(m_u))
        assert op.sigma_max_bound >= 2.0 / h + slices + 1.0


class TestReferenceAssembly:
    @pytest.mark.parametrize("spec", [
        flux_spec(0, k=6), flux_spec(1, k=6), flux_spec(2, k=8),
        constant_loop_spec(), three_sample_spec(), cancelling_spec()])
    @pytest.mark.parametrize("m_u", [8, 13])
    def test_matches_block_assembly(self, spec, m_u):
        op = build_mapping_torus(spec, m_u)
        assert_matches_reference_assembly(op)
        doubled = TwistedLoopSpec(spec.path._doubled(DEFAULT), spec.glue)
        assert_matches_reference_assembly(build_mapping_torus(doubled, m_u))

    @staticmethod
    def _guard_spec(delta: float) -> TwistedLoopSpec:
        # the constant rank-3 potentials X + E, -X + E, X + E at u = 0,
        # 1/2, 1 with E = i delta I, a loop under the identity gluing: the
        # samples pass the Hermiticity test at the scale of X, ||X||_max =
        # 1e4, and the slices between them are +-(3/4) X + E (slices 0, 3,
        # 4, 7) and +-(1/4) X + E (slices 1, 2, 5, 6), where the allowed
        # defect shrinks with the scale
        tr = FourierTruncation(1, 3)
        x = random_hermitian(3, rng_for(11))
        x *= 1e4 / np.abs(x).max()
        e = 1j * delta * np.eye(3)
        record = DEFAULT.with_(potential_hermitian=1e-6)
        curve = OperatorCurve.from_potentials(
            [0.0, 0.5, 1.0], [SymbolFunction.constant(m)
                              for m in (x + e, -x + e, x + e)], tr, record)
        return TwistedLoopSpec(curve)

    def test_every_slice_is_checked_hermitian(self):
        # defect 2 delta on the diagonal: allowed 1e-12 (1 + ||M||_max),
        # about 1e-8 at the samples, 7.5e-9 at slice 0 and 2.5e-9 at
        # slice 1, so delta = 1.3e-9 fails there first and 1.2e-9 passes
        with pytest.raises(ValueError, match="u-slice 1 is not Hermitian"):
            build_mapping_torus(self._guard_spec(1.3e-9), 8)
        build_mapping_torus(self._guard_spec(1.2e-9), 8)
        build_mapping_torus(self._guard_spec(0.0), 8)

    def test_hermiticity_test_reads_the_given_tolerances(self):
        # defect 2e-11, inside the default guard everywhere; the slices at
        # the scale 2500 are the worst, and a guard just below their edge
        # refuses slice 1
        spec = self._guard_spec(1e-11)
        build_mapping_torus(spec, 8)
        slices = dense_of_band(spec.path._bands((np.arange(8) + 0.5) / 8))
        edge = hermitian_guard_edge(slices)
        assert edge == hermitian_guard_edge(slices[1])
        build_mapping_torus(spec, 8, DEFAULT.with_(hermitian_max=edge
                                                   * (1 + 1e-6)))
        with pytest.raises(ValueError, match="u-slice 1 is not Hermitian"):
            build_mapping_torus(spec, 8, DEFAULT.with_(hermitian_max=edge
                                                       * (1 - 1e-6)))


class TestSmallSingularVectors:
    @pytest.mark.parametrize("spec, m_u", [
        (flux_spec(0, k=6), 12),
        (flux_spec(1, k=6), 12),
        (flux_spec(2, k=8), 16),
        # the doubled-truncation operator of flux_spec(1, k=10) at m_u = 12,
        # n = 492, where the unread top of the block converges slowest
        (flux_spec(1, k=20), 12)])
    def test_matches_dense_svd(self, spec, m_u):
        op = build_mapping_torus(spec, m_u)
        threshold = DEFAULT.mapping_torus_rank_rtol * op.sigma_max_bound
        right, left, s_small, s_next = _small_singular_vectors(op, threshold)

        u, s, vh = np.linalg.svd(op.matrix.toarray())
        n = len(s)
        ns = int(np.count_nonzero(s < threshold))
        assert len(s_small) == right.shape[1] == left.shape[1] == ns
        assert abs(s_next - s[n - ns - 1]) <= 1e-8 * s[n - ns - 1]
        # residual norms read the small values to roundoff in ||A||
        assert np.all(np.abs(s_small - s[n - ns:][::-1])
                      <= 1e-12 * op.sigma_max_bound)
        assert sine_of_largest_angle(right, vh.conj().T[:, n - ns:]) <= 1e-6
        assert sine_of_largest_angle(left, u[:, n - ns:]) <= 1e-6

    @pytest.mark.parametrize("spec, dtype", [
        (flux_spec(1, k=6), np.float64), (flux_spec(2, k=8), np.float64),
        (three_sample_spec(), np.complex128)])
    def test_real_loops_take_real_frames(self, spec, dtype):
        # the flux loops' samples and e^{i flux x} gluing are real matrices
        # (stored as complex); the three-sample loop has a complex potential
        op = build_mapping_torus(spec, 12)
        threshold = DEFAULT.mapping_torus_rank_rtol * op.sigma_max_bound
        right, left, _, _ = _small_singular_vectors(op, threshold)
        assert right.dtype == left.dtype == dtype


class TestIndex:
    def test_trivial_loop(self):
        op = build_mapping_torus(constant_loop_spec(k=10), 16)
        assert mapping_torus_index(op) == 0

    @pytest.mark.parametrize("flux", [1, 2])
    def test_flux_index_equals_path_flow(self, flux):
        # oracle 1: the crossing count of the open path (independent code)
        # oracle 2: the twisted-torus null-state count, flux states in the
        # adjoint kernel and none in the kernel, so the index is -flux
        spec = flux_spec(flux)
        op = build_mapping_torus(spec, 24)
        idx = mapping_torus_index(op)
        assert idx == spectral_flow(spec.path) == -flux

    def test_two_factorizations_per_count(self, monkeypatch):
        # A*A and A A* once each, at its own grid and both doubled ones
        calls = []
        splu = specflow.operators.spla.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(specflow.operators.spla, "splu", counted)
        assert mapping_torus_index(build_mapping_torus(flux_spec(1), 16)) == -1
        assert len(calls) == 6

    def test_doubled_operators_get_the_given_tolerances(self, monkeypatch):
        seen = []
        build = specflow.mapping_torus.build_mapping_torus

        def recorded(spec, m_u, tolerances=DEFAULT):
            seen.append(tolerances)
            return build(spec, m_u, tolerances)

        monkeypatch.setattr(specflow.mapping_torus, "build_mapping_torus",
                            recorded)
        loose = DEFAULT.with_(hermitian_max=2e-12)
        op = build_mapping_torus(flux_spec(1, k=6), 12, loose)
        assert mapping_torus_index(op, loose) == -1
        assert seen == [loose, loose]

    def test_doubling_stability_runs(self):
        spec = flux_spec(1, k=10)
        op = build_mapping_torus(spec, 12)
        assert mapping_torus_index(op) == -1

    def test_adjoint_negates(self):
        spec = flux_spec(2, k=12)
        op = build_mapping_torus(spec, 16)
        adjoint = MappingTorusOperator(op.matrix.getH().tocsc(), op.spec,
                                       op.m_u, op.truncation,
                                       op.sigma_max_bound)
        # the doubling checks rebuild from the spec, which describes A and
        # not its adjoint, so this hand-built operator is counted at its
        # own grid only
        a = _interior_index(op, DEFAULT)
        b = _interior_index(adjoint, DEFAULT)
        assert a == -b == -2

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_clustered_split_raises(self, monkeypatch, factor):
        # one small singular value at a tenth of the threshold and the first
        # retained one just below or just above svd_gap_factor times it
        op = build_mapping_torus(flux_spec(1, k=4), 8)

        def fake(op, threshold):
            # sized by the operator it is given, so the doubled copies that
            # the index checks get their own
            dropped = 0.1 * threshold
            vector = np.zeros((op.shape[0], 1), dtype=complex)
            vector[op.truncation.dim // 2] = 1.0     # mode 0 of the first slice
            return (vector, vector, np.array([dropped]),
                    factor * DEFAULT.svd_gap_factor * dropped)

        monkeypatch.setattr(specflow.mapping_torus, "_small_singular_vectors",
                            fake)
        if factor < 1:
            with pytest.raises(IllConditioned, match="cluster"):
                mapping_torus_index(op)
        else:
            assert mapping_torus_index(op) == 0

    def test_refinement_invariance(self):
        spec = flux_spec(1, k=12)
        coarse = mapping_torus_index(build_mapping_torus(spec, 16))
        fine = mapping_torus_index(build_mapping_torus(spec, 32))
        spec2 = flux_spec(1, k=24)
        finer_k = mapping_torus_index(build_mapping_torus(spec2, 16))
        assert coarse == fine == finer_k == -1
