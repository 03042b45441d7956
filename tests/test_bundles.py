import re
from collections import Counter

import numpy as np
import pytest

from specflow import (BaseGrid, CurveOfFamilies, FourierTruncation,
                      OperatorCurve, OperatorFamily, ProjectorFamily,
                      SpectralSection, SymbolFunction, aps_projection,
                      aps_section_family,
                      chern_number,
                      difference_element, gap_partition,
                      gauge_transformed_potential,
                      higher_spectral_flow, kernel_bundle, spectral_flow,
                      toeplitz_family_index)
import specflow.bundles
from specflow.bundles import _FrameMeasures
from specflow.config import DEFAULT
from specflow.errors import (IllConditioned, InvalidSection, RankJump,
                             RoundingAmbiguous, SingularOverlap,
                             UnstableIndex)
from specflow.models import (bott_symbol_family, qwz_projector,
                             qwz_projector_family)
from specflow.toeplitz import hardy_section, toeplitz_compress
from conftest import (berry_chern_oracle, dense_of_band, hermitian_guard_edge,
                      random_unitary, rng_for, skewed_shift_potential)


def interior_compression(symbol, trunc):
    """Hardy compression with the top bandwidth modes dropped from the
    domain, so every retained column equals the untruncated operator's."""
    t = toeplitz_compress(hardy_section(trunc), symbol, trunc)
    return t.matrix[:, :t.rank - symbol.bandwidth * trunc.bundle_rank]


def constant_family(base, projector):
    return ProjectorFamily.from_projectors(
        base, {v: projector for v in base.vertices})


def complement(fam):
    """Family of the orthogonal complements of a family's ranges."""
    eye = np.eye(fam.dim)
    return ProjectorFamily.from_projectors(
        fam.base, {v: eye - fam.frame(v) @ fam.frame(v).conj().T
                   for v in fam.base.vertices})


class TestBaseGrid:
    def test_consistency(self):
        BaseGrid.loop(6).check_consistency()
        BaseGrid.torus(8).check_consistency()

    def test_counts(self):
        g = BaseGrid.torus(5)
        assert len(g.vertices) == 25
        assert len(g.edges) == 50
        assert len(g.plaquettes) == 25
        assert len(BaseGrid.loop(7).edges) == 7

    def test_parse(self):
        assert BaseGrid.parse("torus:12") == BaseGrid.torus(12)
        assert BaseGrid.parse("loop:6") == BaseGrid.loop(6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BaseGrid("sphere", 4)


class TestKernelBundle:
    def test_full_rank_family_is_empty(self, rng):
        base = BaseGrid.loop(6)
        mats = {v: np.eye(4) + 0.1 * rng.normal(size=(4, 4))
                for v in base.vertices}
        fam = kernel_bundle(base, mats)
        assert fam.rank == 0

    def test_constant_shift_compression(self):
        # the interior Hardy compression of e^{ix} has no kernel and a
        # one-dimensional cokernel (SVD oracle on the adjoint family)
        base = BaseGrid.loop(6)
        tr = FourierTruncation(8, 1)
        m = interior_compression(SymbolFunction.exponential(1), tr)
        ker = kernel_bundle(base, {v: m for v in base.vertices})
        cok = kernel_bundle(base, {v: m.conj().T for v in base.vertices})
        assert ker.rank == 0
        assert cok.rank == 1

    def test_rotating_kernel_line_recovers_wrap_bundle(self):
        # kernel of (I - q(b)) is the wrap line bundle; extraction must
        # reproduce its Chern number
        base = BaseGrid.torus(8)
        mats = {v: np.eye(2) - qwz_projector(*base.coordinates(v))
                for v in base.vertices}
        ker = kernel_bundle(base, mats)
        assert ker.rank == 1
        assert chern_number(ker) == 1

    def test_rank_jump_reported(self):
        base = BaseGrid.loop(4)
        mats = {(0,): np.array([[1.0, 0.0]]), (1,): np.array([[1.0, 0.0]]),
                (2,): np.array([[0.0, 0.0]]), (3,): np.array([[1.0, 0.0]])}
        with pytest.raises(RankJump, match="perturb"):
            kernel_bundle(base, mats)

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_clustered_split_raises(self, factor):
        # tol 1e-6 drops 1e-7 and keeps the value just below or just above
        # svd_gap_factor times it
        base = BaseGrid.loop(4)
        m = np.diag([1.0, factor * DEFAULT.svd_gap_factor * 1e-7, 1e-7])
        mats = {v: m for v in base.vertices}
        if factor < 1:
            with pytest.raises(IllConditioned, match="cluster"):
                kernel_bundle(base, mats, DEFAULT.with_(rank_rtol=1e-6))
        else:
            ker = kernel_bundle(base, mats, DEFAULT.with_(rank_rtol=1e-6))
            assert ker.rank == 1
            assert abs(abs(ker.frame((0,))[2, 0]) - 1.0) <= 1e-12


class TestProjectorFamily:
    def test_neighbor_continuity_enforced(self):
        base = BaseGrid.loop(4)
        flip = {v: np.diag([1.0, 0.0]) if v[0] % 2 else np.diag([0.0, 1.0])
                for v in base.vertices}
        with pytest.raises(InvalidSection, match="refine"):
            ProjectorFamily.from_projectors(base, flip)

    def test_rank_constancy(self):
        base = BaseGrid.loop(4)
        mats = {v: np.diag([1.0, 0.0]) for v in base.vertices}
        mats[(2,)] = np.diag([1.0, 1.0])
        with pytest.raises(RankJump, match="perturb"):
            ProjectorFamily.from_projectors(base, mats)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_frame_gram_defect_guard(self, factor):
        base = BaseGrid.loop(4)
        frames = np.stack([np.eye(3)[:, :1]] * 4)
        frames[base.positions[(2,)]] *= np.sqrt(
            1.0 + factor * DEFAULT.projector_idempotent)
        if factor < 1:
            assert ProjectorFamily(base, frames).rank == 1
        else:
            with pytest.raises(InvalidSection, match="orthonormal"):
                ProjectorFamily(base, frames)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_from_projectors_hermiticity_guard(self, factor):
        base = BaseGrid.loop(4)
        p = np.diag([1.0, 0.0]).astype(complex)
        p[0, 1] = factor * DEFAULT.projector_hermitian    # ||P - P*|| = that
        if factor < 1:
            fam = ProjectorFamily.from_projectors(
                base, {v: p for v in base.vertices})
            assert fam.rank == 1
        else:
            with pytest.raises(InvalidSection, match="Hermitian"):
                ProjectorFamily.from_projectors(
                    base, {v: p for v in base.vertices})

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_from_projectors_idempotency_guard(self, factor):
        # eigenvalue 1 + e gives |w^2 - w| = e + e^2 = ||P^2 - P||
        base = BaseGrid.loop(4)
        mats = {v: np.diag([1.0, 0.0]) for v in base.vertices}
        mats[(1,)] = np.diag([1.0 + factor * DEFAULT.projector_idempotent, 0.0])
        if factor < 1:
            assert ProjectorFamily.from_projectors(base, mats).rank == 1
        else:
            with pytest.raises(InvalidSection, match="not a projector"):
                ProjectorFamily.from_projectors(base, mats)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("step", [0.49, 0.51])
    def test_principal_angle_step(self, rank, step):
        # odd vertices turn the frame by theta (and the second column of
        # the rank-2 frame by theta / 2), so every edge moves the
        # projector by sin(theta) in the spectral norm
        base = BaseGrid.loop(4)
        theta = np.arcsin(step)
        twist = np.exp(0.3j)

        def frame(angle):
            f = np.zeros((2 * rank, rank), dtype=complex)
            for j in range(rank):
                a = angle / (j + 1)
                f[j, j] = np.cos(a)
                f[rank + j, j] = twist * np.sin(a)
            return f

        frames = np.stack([frame(theta if v[0] % 2 else 0.0)
                           for v in base.vertices])
        a, b = frames[base.positions[(0,)]], frames[base.positions[(1,)]]
        dense = np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2)
        assert abs(dense - step) <= 1e-12
        assert base.edges[0] == ((0,), (1,))
        assert abs(_FrameMeasures.of(base, frames).steps[0] - dense) <= 1e-12
        if step < DEFAULT.neighbor_continuity:
            assert ProjectorFamily(base, frames).rank == rank
        else:
            with pytest.raises(InvalidSection, match="refine"):
                ProjectorFamily(base, frames)

    def test_direct_sum(self):
        base = BaseGrid.torus(8)
        fam = qwz_projector_family(base)
        both = fam.direct_sum(complement(fam))
        assert both.rank == 2
        assert both.dim == 4

    def test_direct_sum_keeps_the_tolerances(self):
        # a line in C^2 turning by 2 pi / 10 per step moves by 0.588 on
        # every edge, inside a loosened continuity guard only
        base = BaseGrid.loop(10)
        angles = 2 * np.pi * np.arange(10) / 10
        frames = np.stack([np.cos(angles), np.sin(angles)], axis=1)[..., None]
        with pytest.raises(InvalidSection, match="moves by 0.588"):
            ProjectorFamily(base, frames)
        loose = DEFAULT.with_(neighbor_continuity=0.9)
        fam = ProjectorFamily(base, frames, loose)
        both = fam.direct_sum(fam)
        assert (both.rank, both.dim) == (2, 4)
        assert both.tolerances is loose


    def test_direct_sum_measures_match_its_frames(self):
        # Gram defects, steps and link determinants of a sum assembled
        # from its parts' are those of its frames; the summed Chern number
        # is the sum of the parts'
        base = BaseGrid.torus(8)
        fam = qwz_projector_family(base)
        both = fam.direct_sum(fam.direct_sum(complement(fam)))
        fresh = ProjectorFamily(base, both._frames)
        assert both.rank == fresh.rank == 3
        assert np.abs(both._measures.defects
                      - fresh._measures.defects).max() <= 1e-12
        assert np.abs(both._measures.steps ** 2
                      - fresh._measures.steps ** 2).max() <= 1e-12
        assert np.abs(both._measures.links
                      - fresh._measures.links).max() <= 1e-12
        assert chern_number(both) == chern_number(fresh) == 1

    def test_direct_sum_applies_its_own_guards(self):
        # a line turned by arcsin(0.6) at the odd vertices moves by 0.6 on
        # every edge: accepted on its own under a loosened continuity
        # guard, refused inside a sum validated at the default 0.5
        base = BaseGrid.loop(4)
        theta = np.arcsin(0.6)
        frames = np.stack([np.array([[np.cos(theta)], [np.sin(theta)]])
                           if v[0] % 2 else np.array([[1.0], [0.0]])
                           for v in base.vertices])
        part = ProjectorFamily(base, frames,
                               DEFAULT.with_(neighbor_continuity=0.9))
        still = constant_family(base, np.diag([1.0, 0.0]))
        with pytest.raises(InvalidSection, match=r"^projector family moves "
                           r"by 0\.600 across edge \(0,\) -> \(1,\); "
                           r"refine the base grid$"):
            still.direct_sum(part)
        assert part.direct_sum(still).rank == 2

    def test_direct_sum_applies_its_own_gram_guard(self):
        # one frame of length sqrt(1 + 2e-9): Gram defect 2e-9, accepted
        # on its own under a loosened idempotency guard, refused inside a
        # sum validated at the default 1e-9
        base = BaseGrid.loop(4)
        frames = np.stack([np.eye(2)[:, :1]] * 4)
        frames[base.positions[(2,)]] *= np.sqrt(1.0 + 2e-9)
        part = ProjectorFamily(base, frames,
                               DEFAULT.with_(projector_idempotent=1e-8))
        still = constant_family(base, np.diag([1.0, 0.0]))
        with pytest.raises(InvalidSection, match=r"^frame at \(2,\) is not "
                           r"orthonormal \(Gram defect 2\.00e-09\), so its "
                           r"projector is not idempotent$"):
            still.direct_sum(part)
        assert part.direct_sum(still).rank == 2


class TestChernNumber:
    def test_constant_family(self):
        base = BaseGrid.torus(8)
        fam = constant_family(base, np.diag([1.0, 0.0]))
        assert chern_number(fam) == 0

    @pytest.mark.parametrize("m", [8, 12])
    def test_reference_wrap(self, m):
        fam = qwz_projector_family(BaseGrid.torus(m))
        assert chern_number(fam) == 1

    def test_berry_oracle_agrees(self):
        # independent Riemann-sum oracle at 64 x 64
        oracle = berry_chern_oracle(qwz_projector, grid=64)
        assert round(oracle) == 1
        assert abs(oracle - 1) < 0.05
        assert chern_number(qwz_projector_family(BaseGrid.torus(16))) \
            == round(oracle)

    def test_complement_negates(self):
        fam = qwz_projector_family(BaseGrid.torus(10))
        assert chern_number(complement(fam)) == -1
        assert chern_number(fam) + chern_number(complement(fam)) == 0

    def test_grid_doubling_stable(self):
        a = chern_number(qwz_projector_family(BaseGrid.torus(8)))
        b = chern_number(qwz_projector_family(BaseGrid.torus(16)))
        assert a == b

    def test_family_index_grid_doubling_stable(self):
        tr = FourierTruncation(10, 2)
        ch1 = [toeplitz_family_index(
            bott_symbol_family(BaseGrid.torus(m)), BaseGrid.torus(m), tr).ch1
            for m in (8, 16)]
        assert ch1[0] == ch1[1] == -1

    @pytest.mark.parametrize("phase", [1e-9, 1e-3])
    def test_non_integer_total_is_refused(self, phase):
        # every recorded link determinant turned by one phase, both
        # directions alike: the phases of the two directions of a link no
        # longer cancel, and the plaquette sum moves by 4 * 64 * phase /
        # (2 pi), 4e-8 or 0.04
        fam = qwz_projector_family(BaseGrid.torus(8))
        fam._measures = fam._measures._replace(
            links=fam._measures.links * np.exp(1j * phase))
        if phase < 1e-6:
            assert chern_number(fam) == 1
        else:
            with pytest.raises(RoundingAmbiguous, match="not an integer"):
                chern_number(fam)

    def test_backward_links_are_the_conjugates(self):
        # each edge's overlap is factored once: det O* = conj(det O)
        fam = qwz_projector_family(BaseGrid.torus(8))
        links, edges = fam._measures.links, len(fam.base.edges)
        assert links.shape == (2 * edges,)
        assert np.array_equal(links[edges:], links[:edges].conj())
        assert chern_number(fam) == 1

    def test_minimum_grid(self):
        fam = constant_family(BaseGrid.torus(6), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="8 x 8"):
            chern_number(fam)

    def test_torus_only(self):
        base = BaseGrid.loop(8)
        fam = constant_family(base, np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="torus"):
            chern_number(fam)

    def test_singular_overlap_guard(self):
        # a continuity bound above 1 admits an orthogonal jump, which is
        # what reaches the overlap determinant: a family that passes the
        # default bound 0.5 has |det| >= cos(theta_max)^rank >= 0.866^rank
        base = BaseGrid.torus(8)
        mats = {v: np.diag([1.0, 0.0]) for v in base.vertices}
        mats[(3, 3)] = np.diag([0.0, 1.0])
        fam = ProjectorFamily.from_projectors(
            base, mats, DEFAULT.with_(neighbor_continuity=2.0))
        with pytest.raises(SingularOverlap):
            chern_number(fam)


class TestToeplitzFamilyIndex:
    def test_bott_family_class(self):
        base = BaseGrid.torus(8)
        tr = FourierTruncation(10, 2)
        cls = toeplitz_family_index(bott_symbol_family(base), base, tr)
        assert cls.ch0 == -1
        assert cls.ch1 == -1
        assert cls.positive.rank == 0
        assert cls.negative.rank == 1

    def test_base_constant_symbol(self):
        base = BaseGrid.torus(8)
        tr = FourierTruncation(8, 1)
        fam = {v: SymbolFunction.exponential(1) for v in base.vertices}
        cls = toeplitz_family_index(fam, base, tr)
        assert (cls.ch0, cls.ch1) == (-1, 0)

    def test_block_symbol_scales_with_rank(self):
        # e^{ix} I_N: block decomposition gives ch0 = -N and a flat bundle
        base = BaseGrid.torus(8)
        tr = FourierTruncation(8, 2)
        fam = {v: SymbolFunction.exponential(1, rank=2) for v in base.vertices}
        cls = toeplitz_family_index(fam, base, tr)
        assert (cls.ch0, cls.ch1) == (-2, 0)

    def test_pointwise_index_matches_minus_winding(self):
        from specflow import winding
        base = BaseGrid.torus(8)
        tr = FourierTruncation(10, 2)
        fam = bott_symbol_family(base)
        cls = toeplitz_family_index(fam, base, tr)
        for v in base.vertices:
            assert cls.meta["pointwise_index"] == -winding(fam[v]).winding

    def test_one_unitarity_check_per_vertex_symbol(self, monkeypatch):
        # symbols built without the unitary flag are not checked at
        # construction, so every defect evaluation here is the
        # compression's; K and 2K share the one of each symbol
        base = BaseGrid.torus(8)
        tr = FourierTruncation(8, 2)
        fam = {v: SymbolFunction(g.coefficients, rank=g.rank)
               for v, g in bott_symbol_family(base).items()}
        evaluate = SymbolFunction.evaluate
        calls = []

        def counted(self, xs):
            calls.append(id(self))
            return evaluate(self, xs)

        monkeypatch.setattr(SymbolFunction, "evaluate", counted)
        cls = toeplitz_family_index(fam, base, tr)
        assert (cls.ch0, cls.ch1) == (-1, -1)
        assert sorted(calls) == sorted(id(g) for g in fam.values())

    @staticmethod
    def loop_with_one_double_winding(n):
        """e^{ix} over the loop of four vertices, but e^{inx} at (2,)."""
        base = BaseGrid.loop(4)
        return base, {v: SymbolFunction.exponential(n if v == (2,) else 1)
                      for v in base.vertices}

    def test_unstable_vertex_index_is_refused(self):
        # at K = 2 the compression of e^{2ix} keeps one interior cokernel
        # line; the doubling check sees its second at K = 4
        base, fam = self.loop_with_one_double_winding(2)
        with pytest.raises(UnstableIndex,
                           match=re.escape("index -1 at K=2 but -2 at K=4")):
            toeplitz_family_index(fam, base, FourierTruncation(2, 1))

    def test_pointwise_index_must_be_constant(self):
        base, fam = self.loop_with_one_double_winding(2)
        with pytest.raises(RankJump, match=re.escape(
                "pointwise Toeplitz index is not constant: [-2, -1]")):
            toeplitz_family_index(fam, base, FourierTruncation(8, 1))
        base, fam = self.loop_with_one_double_winding(1)
        cls = toeplitz_family_index(fam, base, FourierTruncation(8, 1))
        assert cls.ch0 == cls.meta["pointwise_index"] == -1


class TestHigherSpectralFlow:
    def qsections(self, cf):
        return (aps_section_family(cf.family_at(0.0)),
                aps_section_family(cf.family_at(1.0)))

    def test_base_constant_curve_is_pullback(self):
        base = BaseGrid.torus(8)
        tr = FourierTruncation(6, 1)
        pot = SymbolFunction.constant(-0.25), SymbolFunction.constant(0.25)
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: pot[0].scale(1 - t) + pot[1].scale(t),
            [0.0, 1.0], tr)
        point_curve = OperatorCurve.from_potentials([0.0, 1.0], list(pot), tr)
        q0, q1 = self.qsections(cf)
        cls = higher_spectral_flow(cf, q0, q1)
        assert cls.ch0 == spectral_flow(point_curve) == 1
        assert cls.ch1 == 0

    def test_bott_conjugation_path_equals_family_index(self):
        base = BaseGrid.torus(8)
        tr = FourierTruncation(10, 2)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0], tr)
        q0, q1 = self.qsections(cf)
        cls = higher_spectral_flow(cf, q0, q1)
        ref = toeplitz_family_index(fam, base, tr)
        assert cls.equivalent(ref)
        assert (cls.ch0, cls.ch1) == (-1, -1)

    def test_rotated_endpoint_frames_give_the_same_class(self):
        # each member of the q0 stack times a random unitary spans the
        # same range, so the projectors, and with them the class, do not
        # change
        base = BaseGrid.torus(8)
        tr = FourierTruncation(4, 2)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0], tr)
        q0, q1 = self.qsections(cf)
        rng = rng_for(390)
        rotated = SpectralSection(
            np.stack([b @ random_unitary(q0.rank, rng) for b in q0.basis]),
            q0.threshold_window, q0.provenance)
        for sections in (q0, rotated):
            cls = higher_spectral_flow(cf, sections, q1)
            assert (cls.ch0, cls.ch1) == (-1, -1)

    def test_caller_tolerances_reach_every_family(self):
        # c_{-1} = c_1* + 1e-8 i at every vertex: within a loosened
        # potential guard, and Hermitian only at a loosened matrix guard;
        # the eigenvalue -1 + shift crosses zero upward once
        base = BaseGrid.loop(4)
        loose = DEFAULT.with_(hermitian_max=1e-6, potential_hermitian=1e-6)
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: skewed_shift_potential(
                0.75 + 0.5 * t + 0.01 * v[0], 1e-8),
            [0.0, 1.0], FourierTruncation(4), loose)
        q0, q1 = (aps_section_family(cf.family_at(t, loose),
                                     tolerances=loose) for t in (0.0, 1.0))
        assert higher_spectral_flow(cf, q0, q1, loose).ch0 == 1
        with pytest.raises(ValueError, match="defect 1.000e-08"):
            higher_spectral_flow(cf, q0, q1)
        # ||M||_max grows with the shift and the defect stays 1e-8, so
        # the first sample holds the worst member on the curve
        edge = hermitian_guard_edge(dense_of_band(cf.samples[0]))
        assert hermitian_guard_edge(dense_of_band(cf.samples)) == edge
        inside = loose.with_(hermitian_max=edge * (1 + 1e-6))
        outside = loose.with_(hermitian_max=edge * (1 - 1e-6))
        assert higher_spectral_flow(cf, q0, q1, inside).ch0 == 1
        with pytest.raises(ValueError, match="not Hermitian"):
            higher_spectral_flow(cf, q0, q1, outside)

    def test_empty_parts_keep_the_caller_tolerances(self):
        # a constant curve has no crossing, so between endpoint sections
        # at the level of its partition both parts of its class are empty
        # families; -i d/dx + diag(0.4, 0.6) on modes -1..1 has the
        # eigenvalues -0.6, -0.4, 0.4, 0.6, 1.4, 1.6, and the level 1.0
        # in the widest gap of their moduli
        base = BaseGrid.loop(4)
        tr = FourierTruncation(1, 2)
        loose = DEFAULT.with_(neighbor_continuity=0.9)
        v = SymbolFunction.constant(np.diag([0.4, 0.6]))
        cf = CurveOfFamilies.from_potentials(base, lambda b, t: v,
                                             [0.0, 1.0], tr)
        q0, q1 = (aps_section_family(cf.family_at(t), 1.0, tolerances=loose)
                  for t in (0.0, 1.0))
        cls = higher_spectral_flow(cf, q0, q1, loose)
        assert (cls.ch0, cls.positive.rank, cls.negative.rank) == (0, 0, 0)
        assert cls.positive.tolerances is loose
        assert cls.negative.tolerances is loose

    def bott_curve(self, k=3):
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        return CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0],
            FourierTruncation(k, 2))

    def test_one_eigh_per_vertex_and_breakpoint(self, monkeypatch):
        # counts decomposed matrices, not calls: the operators decomposed
        # are exactly the family at each breakpoint, each member once, and
        # each breakpoint's family in one decomposition (the diagonal
        # family at t = 0 without LAPACK, the others by one LAPACK call)
        cf = self.bott_curve()
        q0, q1 = self.qsections(cf)
        factored, calls = Counter(), []
        original = specflow.flow.eigh

        def counted(operator, *args, **kwargs):
            stack = operator.matrix
            calls.append(stack.shape)
            factored.update(m.tobytes() for m in stack)
            return original(operator, *args, **kwargs)

        monkeypatch.setattr(specflow.flow, "eigh", counted)
        cls = higher_spectral_flow(cf, q0, q1)
        assert (cls.ch0, cls.ch1) == (-1, -1)
        breaks = gap_partition(cf).breakpoints
        assert len(breaks) == cls.meta["partitions"] + 1
        assert factored == Counter(m.tobytes() for t in breaks
                                   for m in cf.at(t).matrix)
        assert calls == [(len(cf.base.vertices),) + (cf.truncation.dim,) * 2
                         ] * len(breaks)

    def test_partition_reads_the_breakpoint_decompositions(self,
                                                           monkeypatch):
        # the partition's spectra are the eigenvalues of the one stacked
        # eigh per breakpoint; eigvalsh sees the segment differences only
        cf = self.bott_curve()
        q0, q1 = self.qsections(cf)
        solved, factored = [], []
        spectrum, eigh = specflow.flow._band_spectrum, specflow.flow.eigh

        def counted_spectrum(a, vectors=False):
            solved.append(np.array(a))
            return spectrum(a, vectors)

        def counted_eigh(a, *args, **kwargs):
            factored.append(a.matrix)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(specflow.flow, "_band_spectrum", counted_spectrum)
        monkeypatch.setattr(specflow.flow, "eigh", counted_eigh)
        cls = higher_spectral_flow(cf, q0, q1)
        assert (cls.ch0, cls.ch1) == (-1, -1)
        steps = [cf.samples[k + 1] - cf.samples[k]
                 for k in range(len(cf.ts) - 1)]
        assert solved and all(any(np.array_equal(a, d) for d in steps)
                              for a in solved)
        breaks = gap_partition(cf).breakpoints
        assert len(factored) == len(breaks)
        for t in breaks:
            assert sum(np.array_equal(a, cf.at(t).matrix)
                       for a in factored) == 1

    def test_decomposed_operators_are_dropped(self):
        # with its spectra read off the decompositions the cache holds no
        # operator at a decomposed t, and the partition is the one the
        # eigvalsh spectra give
        cf = self.bott_curve()
        cache = specflow.flow._SpectrumCache(cf, DEFAULT,
                                             _spectra_from_eigh=True)
        part = gap_partition(cf, _cache=cache)
        assert cache._decs and not cache._ops
        plain = gap_partition(cf)
        assert part.breakpoints == plain.breakpoints
        assert len(part.intervals) == len(plain.intervals)
        q0, q1 = self.qsections(cf)
        cls = higher_spectral_flow(cf, q0, q1)
        assert (cls.ch0, cls.ch1) == (-1, -1)
        assert cls.meta["partitions"] == len(plain.intervals)

    def test_one_null_split_per_vertex_and_bracket(self, monkeypatch):
        # counts split matrices, not calls: one stack of comparison maps
        # per end bracket, one member per vertex; an interior bracket is
        # framed by eigenvectors and splits nothing
        cf = self.bott_curve()
        q0, q1 = self.qsections(cf)
        members = []
        original = specflow.bundles.null_splits

        def counted(stack, *args, **kwargs):
            members.append(len(stack))
            return original(stack, *args, **kwargs)

        monkeypatch.setattr(specflow.bundles, "null_splits", counted)
        cls = higher_spectral_flow(cf, q0, q1)
        assert (cls.ch0, cls.ch1) == (-1, -1)
        assert cls.meta["partitions"] > 1
        assert members == [len(cf.base.vertices)] * 2

    @pytest.mark.parametrize("seed", range(3))
    def test_periodic_family_section_independent(self, seed):
        # a closed loop of families: the class does not depend on the
        # common endpoint section
        rng = rng_for(seed + 60)
        base = BaseGrid.loop(6)
        tr = FourierTruncation(5, 1)
        amps = {v: 0.35 * float(rng.uniform(0.5, 1.0)) for v in base.vertices}

        def pot(v, t):
            return SymbolFunction.constant(
                amps[v] * np.cos(2 * np.pi * t)
                + 0.05 * np.cos(base.coordinates(v)[0]))

        cf = CurveOfFamilies.from_potentials(base, pot,
                                             list(np.linspace(0, 1, 5)), tr)
        results = []
        for cutoff in (0.6, 1.45, -0.55):
            q = aps_section_family(cf.family_at(0.0), cutoff=cutoff)
            cls = higher_spectral_flow(cf, q, q)
            results.append(cls.ch0)
        assert results[0] == results[1] == results[2]


class TestDifferenceElementFamilies:
    @pytest.mark.parametrize("seed", range(5))
    def test_generalized_additivity_vertexwise(self, seed):
        rng = rng_for(seed + 81)
        dim = 10
        secs = [SpectralSection(random_unitary(dim, rng)[:, :r], 0.0,
                                "explicit")
                for r in rng.integers(2, 9, size=3)]
        q1, q2, q3 = secs
        assert difference_element(q1, q2).value \
            + difference_element(q2, q3).value \
            == difference_element(q1, q3).value

    @pytest.mark.parametrize("seed", range(5))
    def test_homotopy_invariance(self, seed):
        # rotate a section along a sampled unitary path: difference
        # elements against a fixed third section are unchanged
        rng = rng_for(seed + 120)
        dim = 8
        q = SpectralSection(random_unitary(dim, rng)[:, :3], 0.0, "explicit")
        ref = SpectralSection(random_unitary(dim, rng)[:, :5], 0.0, "explicit")
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x = 0.05 * (x - x.conj().T)
        import scipy.linalg
        values = []
        for s in np.linspace(0.0, 1.0, 9):
            u = scipy.linalg.expm(s * x)
            qs = SpectralSection(u @ q.basis, 0.0, "explicit")
            values.append(difference_element(qs, ref).value)
        assert len(set(values)) == 1


class TestStackedFamilies:
    """One factorization per stack over the base: every member must come
    out as on its own (the autouse ``stacked_calls_match_members`` also
    checks that), and a refusal must name the first failing vertex."""

    @staticmethod
    def bott_curve(k=3, grid=8):
        base = BaseGrid.torus(grid)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        return CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0],
            FourierTruncation(k, 2))

    def test_samples_are_one_read_only_stack(self):
        cf = self.bott_curve()
        n = cf.truncation.dim
        samples = dense_of_band(cf.samples)
        assert samples.shape == (3, len(cf.base.vertices), n, n)
        assert not cf.samples.flags.writeable
        # at a sample point the family is the sample; between samples it
        # is each member's OperatorCurve interpolation, bit for bit
        assert np.array_equal(cf.at(0.5).matrix, samples[1])
        curve = OperatorCurve([0.0, 0.5, 1.0], [
            specflow.bundles.TruncatedOperator(m, cf.truncation)
            for m in samples[:, 11]])
        for t in (0.25, 0.375, 0.8):
            assert np.array_equal(cf.at(t).matrix[11], curve.at(t).matrix)
        assert np.array_equal(cf.family_at(0.8)[cf.base.vertices[11]].matrix,
                              curve.at(0.8).matrix)

    def test_family_at_is_a_view_of_the_stack(self):
        cf = self.bott_curve()
        for t in (0.0, 0.25, 0.5):
            stack = cf.at(t).matrix
            fam = cf.family_at(t)
            assert np.array_equal(fam.matrices, stack)
            for i, v in enumerate(cf.base.vertices):
                assert np.array_equal(fam[v].matrix, stack[i])
        assert np.array_equal(cf.family_at(0.5).matrices,
                              dense_of_band(cf.samples[1]))
        with pytest.raises(ValueError, match="shape"):
            OperatorFamily(cf.base, specflow.bundles.TruncatedOperator
                           ._of_band(cf.samples[0, 1:], cf.truncation,
                                     DEFAULT))

    def test_non_hermitian_member_refused(self):
        # entry (0, 1) of the potentials of vertices 5 and 9 at t = 1/2 is
        # pushed off by 1e-6 and 1e-3, inside a loosened potential guard:
        # the band test of the samples names the first one, vertex 5
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        push = {base.vertices[5]: 1e-6, base.vertices[9]: 1e-3}

        def potential(v, t):
            if t != 0.5 or v not in push:
                return pots[v].scale(t)
            return pots[v].scale(t) + SymbolFunction.constant(
                [[0.0, push[v]], [0.0, 0.0]])

        with pytest.raises(ValueError, match="defect 1.000e-06"):
            CurveOfFamilies.from_potentials(
                base, potential, [0.0, 0.5, 1.0], FourierTruncation(3, 2),
                DEFAULT.with_(potential_hermitian=1e-2))

    def test_degenerate_clusters_of_the_free_operator(self, monkeypatch):
        # at t = 0 every member is -i d/dx on C^2: each eigenvalue is
        # double, and the 1 x 1 blocks give the standard basis vectors in
        # index order for every member, with no LAPACK call
        cf = self.bott_curve(k=4)
        stack = cf.at(0.0).matrix
        dec = specflow.operators.eigh(stack)
        n = cf.truncation.dim
        assert np.array_equal(dec.eigenvalues,
                              np.tile(np.repeat(np.arange(-4.0, 5.0), 2),
                                      (len(stack), 1)))
        assert np.array_equal(dec.eigenvectors,
                              np.broadcast_to(np.eye(n), stack.shape))
        for i in (0, 17, len(stack) - 1):
            alone = specflow.operators.eigh(stack[i])
            assert np.array_equal(alone.eigenvectors, dec.eigenvectors[i])
        # at t = 0.5 the members are 2 x 2 blocks k + c_0, so the mixed
        # stack splits into them, which are solved in closed form with no
        # LAPACK call
        bands, dense = [], []
        monkeypatch.setattr(specflow.operators, "_banded_eigvals",
                            lambda band: bands.append(band.shape)
                            or scipy_banded(band))
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: dense.append(np.shape(a))
                            or original(a))
        wide = cf.at(0.5).matrix[[9, 10]]
        assert np.all(16 * (specflow.operators.half_bandwidth(wide) + 1) > n)
        mixed = np.concatenate([stack[:3], wide])
        w = specflow.operators.eigvalsh(mixed)
        assert bands == []
        assert dense == []
        for i, m in enumerate(mixed):
            assert np.array_equal(w[i], specflow.operators.eigvalsh(m))

    def test_random_clusters_per_member(self):
        rng = rng_for(77)
        values = np.repeat([-2.0, -0.5, 0.0, 1.0, 3.0], [3, 1, 4, 2, 2])
        stack = []
        for _ in range(6):
            u = random_unitary(12, rng)
            m = (u * values[None, :]) @ u.conj().T
            stack.append(0.5 * (m + m.conj().T))
        stack = np.stack(stack).reshape(2, 3, 12, 12)
        dec = specflow.operators.eigh(stack)
        assert dec.eigenvectors.shape == (2, 3, 12, 12)
        for i in range(2):
            for j in range(3):
                alone = specflow.operators.eigh(stack[i, j])
                assert np.array_equal(alone.eigenvalues,
                                      dec.eigenvalues[i, j])
                assert np.array_equal(alone.eigenvectors,
                                      dec.eigenvectors[i, j])

    @pytest.mark.parametrize("policy", ["inclusive", "exclusive"])
    def test_section_family_is_aps_projection_per_vertex(self, policy):
        # the t = 0 operators are diagonal with degenerate clusters, and
        # zero modes at the cutoff, where the policies differ
        fam = self.bott_curve().family_at(0.0)
        sections = aps_section_family(fam, policy=policy)
        assert sections.basis.shape[:-2] == (len(fam.base.vertices),)
        for i, v in enumerate(fam.base.vertices):
            alone = aps_projection(fam[v], 0.0, policy=policy)
            assert np.array_equal(sections.basis[i], alone.basis)
            assert sections.threshold_window[i] == alone.threshold_window
            assert sections.provenance == alone.provenance
        with pytest.raises(ValueError, match="unknown cutoff policy"):
            aps_section_family(fam, policy="bogus")
        with pytest.raises(ValueError, match="unknown cutoff policy"):
            aps_projection(fam[fam.base.vertices[0]], 0.0, policy="bogus")

    def test_ragged_section_family_raises_rank_jump(self):
        # the spectrum k + a_v of -i d/dx + a_v: shifting a from 0.25 to
        # -0.25 at (2,) moves the eigenvalue 0.25 below the cutoff 0, so
        # (2,) keeps one mode fewer; above the cutoff 0.5 every vertex
        # keeps the modes k >= 1, and the family has a rank
        base, trunc = BaseGrid.loop(6), FourierTruncation(4)
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: SymbolFunction.constant(
                -0.25 if v == (2,) else 0.25), [0.0, 1.0], trunc)
        fam = cf.family_at(0.0)
        with pytest.raises(RankJump, match=r"section rank varies over the "
                           r"base: e\.g\. at \[\(2,\)\] \(got \[4, 5\]\); "
                           r"perturb the family"):
            aps_section_family(fam)
        sections = aps_section_family(fam, cutoff=0.5)
        assert sections.rank == trunc.max_mode
        for i, v in enumerate(base.vertices):
            alone = aps_projection(fam[v], 0.5, policy="inclusive")
            assert np.array_equal(sections.basis[i], alone.basis)

    def test_endpoint_stack_needs_one_member_per_vertex(self):
        # a stack that drops the last vertex's member, and a single
        # section, are refused; the full stacks give the class
        cf = self.bott_curve()
        q0 = aps_section_family(cf.family_at(0.0))
        q1 = aps_section_family(cf.family_at(1.0))
        short = SpectralSection(q0.basis[:-1], q0.threshold_window[:-1],
                                q0.provenance)
        single = aps_projection(cf.family_at(0.0)[(0, 0)], 0.0,
                                policy="inclusive")
        for bad in (short, single):
            with pytest.raises(ValueError, match="one member per base "
                               "vertex"):
                higher_spectral_flow(cf, bad, q1)
            with pytest.raises(ValueError, match="one member per base "
                               "vertex"):
                higher_spectral_flow(cf, q0, bad)
        assert higher_spectral_flow(cf, q0, q1).ch0 == -1

    def test_first_failing_vertex_in_order_is_reported(self):
        # q0 fails at (5, 1), q1 at (2, 3): (2, 3) comes first in
        # base.vertices, so its Gram defect is the one reported
        cf = self.bott_curve()
        q0 = aps_section_family(cf.family_at(0.0))
        q1 = aps_section_family(cf.family_at(1.0))

        def scaled(s, vertex, factor):
            basis = np.array(s.basis)
            basis[cf.base.positions[vertex]] *= factor
            return SpectralSection(basis, s.threshold_window, "explicit")

        q0 = scaled(q0, (5, 1), 1 + 4e-9)
        q1 = scaled(q1, (2, 3), 1 + 2e-9)
        with pytest.raises(InvalidSection, match="Gram defect 4.00e-09"):
            higher_spectral_flow(cf, q0, q1)

    def test_first_non_unitary_symbol_is_reported(self):
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        for v, scale in (((3, 4), 1 + 1e-6), ((1, 2), 1 + 1e-3)):
            fam[v] = SymbolFunction({k: scale * c for k, c
                                     in fam[v].coefficients.items()}, rank=2)
        with pytest.raises(ValueError, match=r"defect 2\.00[0-9]e-03"):
            toeplitz_family_index(fam, base, FourierTruncation(4, 2))

    def test_first_ill_conditioned_vertex_is_reported(self):
        base = BaseGrid.loop(4)
        mats = {v: np.diag([1.0, 1e-4, 1e-7]) for v in base.vertices}
        mats[(1,)] = np.diag([1.0, 50 * 1e-7, 1e-7])
        mats[(3,)] = np.diag([1.0, 20 * 1e-7, 1e-7])
        with pytest.raises(IllConditioned, match=r"= 50\.0 <"):
            kernel_bundle(base, mats, DEFAULT.with_(rank_rtol=1e-6))

    def test_ragged_kernel_ranks_raise_rank_jump(self):
        base = BaseGrid.loop(4)
        mats = {v: np.diag([1.0, 1.0, 0.0]) for v in base.vertices}
        mats[(2,)] = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(RankJump, match=r"\[\(2,\)\] \(got \[1, 2\]\)"):
            kernel_bundle(base, mats)

    def test_grid_indices_match_the_lists(self):
        for base in (BaseGrid.torus(5), BaseGrid.loop(6)):
            vs = base.vertices
            tails, heads = base.edge_index
            assert [(vs[a], vs[b]) for a, b in zip(tails, heads)] \
                == base.edges
            assert [[vs[c] for c in row] for row in base.plaquette_index] \
                == [base.plaquette_corners(p) for p in base.plaquettes]


def scipy_banded(band):
    import scipy.linalg
    return scipy.linalg.eigvals_banded(band, lower=True)
