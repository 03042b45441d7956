import re

import numpy as np
import pytest

from specflow import (FourierTruncation, OperatorCurve, SpectralSection,
                      SymbolFunction, TruncatedOperator, aps_projection,
                      build_dirac, difference_element, eigvalsh,
                      gap_partition, gauge_transformed_potential, sf_pairs,
                      spectral_flow, spectral_flow_result,
                      validate_section_for)
import specflow.flow
from specflow.config import DEFAULT
from specflow.errors import (EigenvalueAtCutoff, IllConditioned,
                             InvalidSection, NoGapFound, RankJump)
from specflow.flow import DifferenceElement, _SpectrumCache, certify_level
from conftest import (count_eigh, dense_of_band, flow_symbols,
                      hermitian_guard_edge, random_hermitian_symbol,
                      random_unitary, rng_for, section_family_of,
                      skewed_shift_potential)

TR8 = FourierTruncation(8, 1)


def shift_curve(a0, a1, trunc=TR8, samples=(0.0, 1.0)):
    pots = [SymbolFunction.constant((1 - t) * a0 + t * a1) for t in samples]
    return OperatorCurve.from_potentials(list(samples), pots, trunc)


def diag_operator(values):
    values = np.asarray(values, dtype=complex)
    k = (len(values) - 1) // 2
    return TruncatedOperator(np.diag(values), FourierTruncation(k, 1))


class TestApsProjection:
    def test_rank2_example(self):
        sec = aps_projection(diag_operator([-1, 0, 1]), -0.5)
        assert sec.rank == 2
        expected = np.diag([0.0, 1.0, 1.0])
        assert np.allclose(sec.basis @ sec.basis.conj().T, expected)

    def test_shifted_rank(self):
        k = 5
        d = build_dirac(SymbolFunction.constant(0.25), FourierTruncation(k, 1))
        assert aps_projection(d, 0.0).rank == k + 1

    def test_policies_differ_by_multiplicity(self):
        d = diag_operator([-1, 0, 0, 0, 1])
        inc = aps_projection(d, 0.0, policy="inclusive")
        exc = aps_projection(d, 0.0, policy="exclusive")
        assert inc.rank - exc.rank == 3

    def test_strict_raises_on_cutoff_hit(self):
        with pytest.raises(EigenvalueAtCutoff):
            aps_projection(diag_operator([-1, 0, 1]), 0.0)

    def test_section_condition(self):
        d = diag_operator([-2, -1, 0, 1, 2])
        sec = aps_projection(d, 0.0, policy="inclusive")
        validate_section_for(d, sec)
        bad = SpectralSection(np.eye(5)[:, :1], 0.1, "explicit")
        with pytest.raises(InvalidSection):
            validate_section_for(d, bad)


    def test_a_ragged_stack_names_its_first_bad_members(self):
        # k + 0.25 over k = -2..2 keeps 3 modes above the cutoff 0, and
        # k - 0.25 keeps 2: the members (1, 0) and (1, 2) of the (2, 3)
        # stack keep one fewer
        shifts = np.full((2, 3), 0.25)
        shifts[1, 0] = shifts[1, 2] = -0.25
        stack = np.diag(np.arange(-2.0, 3.0))[None, None] \
            + shifts[..., None, None] * np.eye(5)
        with pytest.raises(RankJump, match=re.escape(
                "section rank varies over the family: e.g. at [(1, 0), "
                "(1, 2)] (got [2, 3]); perturb the family")):
            aps_projection(stack, 0.0)
        assert aps_projection(stack, 0.5).basis.shape == (2, 3, 5, 2)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_basis_gram_defect_guard(self, factor):
        # B* B - I = diag(factor * tol, 0): the projector B B* is idempotent
        # exactly when the frame is orthonormal
        tol = DEFAULT.projector_idempotent
        basis = np.eye(5)[:, :2]
        basis[:, 0] *= np.sqrt(1.0 + factor * tol)
        sec = SpectralSection(basis, 0.0, "explicit")
        if factor < 1:
            sec.validate()
        else:
            with pytest.raises(InvalidSection, match="orthonormal"):
                sec.validate()


class TestDifferenceElement:
    def test_nested_spans(self):
        p = SpectralSection(np.eye(4)[:, :2], 0.0, "explicit")
        q = SpectralSection(np.eye(4)[:, :1], 0.0, "explicit")
        d = difference_element(p, q)
        assert (d.value, d.kernel_dim, d.cokernel_dim) == (1, 1, 0)

    @pytest.mark.parametrize("members", [1, 2])
    def test_a_family_of_sections_is_refused(self, members):
        # a stack of copies of one frame is a family of sections, on
        # either side; the single sections keep their element
        p = SpectralSection(np.eye(4)[:, :2], 0.0, "explicit")
        q = SpectralSection(np.eye(4)[:, :1], 0.0, "explicit")
        for args in ((section_family_of(p, members), q),
                     (p, section_family_of(q, members))):
            with pytest.raises(ValueError, match="^difference_element takes "
                               "single sections, not a family$"):
                difference_element(*args)
        d = difference_element(p, q)
        assert (d.value, d.kernel_dim, d.cokernel_dim) == (1, 1, 0)

    def test_value_must_be_kernel_minus_cokernel(self):
        assert DifferenceElement(1, 3, 2).value == 1
        with pytest.raises(ValueError, match="does not match"):
            DifferenceElement(1, 2, 2)

    def test_equal_projectors(self, rng):
        b = random_unitary(6, rng)[:, :3]
        p = SpectralSection(b, 0.0, "explicit")
        assert difference_element(p, p).value == 0

    @staticmethod
    def sections_with_cosines(kept, dropped):
        """Sections of C^6 whose comparison map has singular values
        1, kept and dropped (cosines of the principal angles)."""
        e = np.eye(6)
        p = SpectralSection(e[:, :3], 0.0, "explicit")
        q = SpectralSection(np.stack([
            e[:, 0],
            kept * e[:, 1] + np.sqrt(1 - kept ** 2) * e[:, 3],
            dropped * e[:, 2] + np.sqrt(1 - dropped ** 2) * e[:, 4]], axis=1),
            0.0, "explicit")
        return p, q

    @pytest.mark.parametrize("ratio", [0.99, 1.01])
    def test_rank_split_needs_the_gap_factor(self, ratio):
        # tol 1e-6 drops the cosine 5e-7 and keeps the one just below or
        # just above svd_gap_factor times it
        dropped = 5e-7
        kept = ratio * DEFAULT.svd_gap_factor * dropped
        p, q = self.sections_with_cosines(kept, dropped)
        if ratio < 1:
            with pytest.raises(IllConditioned, match="cluster"):
                difference_element(p, q, DEFAULT.with_(rank_rtol=1e-6))
        else:
            d = difference_element(p, q, DEFAULT.with_(rank_rtol=1e-6))
            assert (d.value, d.kernel_dim, d.cokernel_dim) == (0, 1, 1)

    def test_empty_comparison_map_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("an empty comparison map was factored")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        p = SpectralSection(np.eye(5)[:, :0], 0.0, "explicit")
        q = SpectralSection(np.eye(5)[:, :2], 0.0, "explicit")
        for a, b in ((p, q), (q, p), (p, p)):
            d = difference_element(a, b)
            assert (d.kernel_dim, d.cokernel_dim) == (a.rank, b.rank)
        with pytest.raises(ValueError, match="rank tolerance"):
            difference_element(p, q, DEFAULT.with_(rank_rtol=1.0))

    def test_full_rank_needs_no_split(self):
        # every singular value kept: no split to certify, however small
        p, q = self.sections_with_cosines(2e-6, 1.5e-6)
        d = difference_element(p, q, DEFAULT.with_(rank_rtol=1e-6))
        assert (d.value, d.kernel_dim, d.cokernel_dim) == (0, 0, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_commuting_rank_difference(self, seed):
        rng = rng_for(seed)
        dim = 12
        u = random_unitary(dim, rng)
        rp, rq = rng.integers(1, dim), rng.integers(1, dim)
        cols_p = rng.permutation(dim)[:rp]
        cols_q = rng.permutation(dim)[:rq]
        p = SpectralSection(u[:, cols_p], 0.0, "explicit")
        q = SpectralSection(u[:, cols_q], 0.0, "explicit")
        assert difference_element(p, q).value == rp - rq

    @pytest.mark.parametrize("seed", range(20))
    def test_cocycle(self, seed):
        rng = rng_for(seed + 500)
        dim = 10
        secs = [SpectralSection(
            random_unitary(dim, rng)[:, :rng.integers(1, dim)], 0.0,
            "explicit")
            for _ in range(3)]
        p1, p2, p3 = secs
        lhs = difference_element(p3, p1).value
        rhs = difference_element(p3, p2).value + difference_element(p2, p1).value
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(20))
    def test_conjugation_invariance(self, seed):
        rng = rng_for(seed + 900)
        dim = 9
        p = SpectralSection(random_unitary(dim, rng)[:, :4], 0.0, "explicit")
        q = SpectralSection(random_unitary(dim, rng)[:, :6], 0.0, "explicit")
        u = random_unitary(dim, rng)
        pu = SpectralSection(u @ p.basis, 0.0, "explicit")
        qu = SpectralSection(u @ q.basis, 0.0, "explicit")
        a, b = difference_element(p, q), difference_element(pu, qu)
        assert (a.value, a.kernel_dim, a.cokernel_dim) \
            == (b.value, b.kernel_dim, b.cokernel_dim)


class TestCertifyLevel:
    @pytest.mark.parametrize("shift,expected", [
        (0.0, 2.0),          # an exact tie: the smaller level
        (4e-12, 2.0),        # the larger margin leads by roundoff only
        (4e-9, 4.0 + 2e-9),  # it leads by more than cutoff_atol
    ], ids=["tie", "roundoff", "beyond-atol"])
    def test_near_ties_take_the_smallest_level(self, shift, expected):
        # candidates 0.5, 2 and 4 + shift/2 with margins 0.5, 1 and
        # 1 + shift/2
        evals = np.array([1.0, 3.0, 5.0 + shift])
        level, margin = certify_level(evals, evals, 0.0, 0.1)
        assert level == expected
        assert margin == pytest.approx(1.0 + (expected > 2) * shift / 2,
                                       rel=0, abs=1e-15)

    def test_member_counts_must_agree(self):
        # the widest gap, around 5.25, separates the members' top
        # eigenvalues, so the members disagree on the count above it
        a, b = np.array([1.0, 1.5]), np.array([1.0, 9.0])
        assert certify_level([a, b], [a, b], 0.0, 0.1) == (0.5, 0.5)
        assert certify_level(b, b, 0.0, 0.1) == (5.0, 4.0)

    def test_no_level_beats_the_drift(self):
        evals = np.array([-1.0, 1.0])
        assert certify_level(evals, evals, 10.0, 1.0) is None


class TestOperatorCurve:
    @pytest.mark.parametrize("t", [0.1, 0.25, 0.4, 0.55, 0.9])
    def test_affine_in_matrices(self, t):
        rng = rng_for(730)
        tr = FourierTruncation(4, 2)
        ts = [0.0, 0.4, 1.0]
        pots = [random_hermitian_symbol(2, 2, rng, scale=0.5) for _ in ts]
        curve = OperatorCurve.from_potentials(ts, pots, tr)
        i = 0 if t < 0.4 else 1
        lam = (t - ts[i]) / (ts[i + 1] - ts[i])
        a, b = dense_of_band(curve.samples[i:i + 2])
        assert np.array_equal(curve.at(t).matrix, (1 - lam) * a + lam * b)
        # build_dirac is affine in the potential: the same operator
        interpolated = pots[i].scale(1 - lam) + pots[i + 1].scale(lam)
        assert np.abs(curve.at(t).matrix
                      - build_dirac(interpolated, tr).matrix).max() <= 1e-12

    def test_samples_are_one_read_only_stack(self, monkeypatch):
        rng = rng_for(731)
        tr = FourierTruncation(4, 2)
        ts = [0.0, 0.4, 1.0]
        pots = [random_hermitian_symbol(2, 2, rng, scale=0.5) for _ in ts]
        built = []
        original = specflow.flow._dirac_bands

        def recorded(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(specflow.flow, "_dirac_bands", recorded)
        curve = OperatorCurve.from_potentials(ts, pots, tr)
        # one build of every sample, held as it was built: the band of
        # the exact half-bandwidth (2 + 1) N - 1 of rank-2 potentials of
        # Fourier bandwidth 2
        assert len(built) == 1 and curve.samples is built[0]
        assert curve.samples.shape == (3, 2 * 5 + 1, tr.dim)
        assert not curve.samples.flags.writeable
        assert not hasattr(curve, "operators")
        assert not hasattr(curve, "_cache")
        # between samples, test_affine_in_matrices checks the arithmetic
        for i, t in enumerate(ts):
            assert np.array_equal(curve.at(t).matrix,
                                  dense_of_band(curve.samples[i]))
        # every call builds a fresh operator
        assert curve.at(0.25) is not curve.at(0.25)
        assert curve.at(0.4) is not curve.at(0.4)

    @pytest.mark.parametrize("count", [0, 1])
    def test_too_few_operators(self, count):
        op = build_dirac(SymbolFunction.constant(0.3), FourierTruncation(4))
        with pytest.raises(ValueError, match="at least 2 samples"):
            OperatorCurve([0.0, 1.0][:count], [op] * count)


class TestCurveTolerances:
    """A curve honours the caller's tolerances: c_{-1} = c_1* + 1e-8 i is
    within a loosened potential guard and Hermitian only at a loosened
    matrix guard."""

    loose = DEFAULT.with_(hermitian_max=1e-6, potential_hermitian=1e-6)

    def curve(self, tolerances):
        # the eigenvalue -1 + shift crosses zero upward once
        return OperatorCurve.from_potentials(
            [0.0, 1.0],
            [skewed_shift_potential(a, 1e-8) for a in (0.75, 1.25)],
            FourierTruncation(4), tolerances)

    def test_loose_record_reaches_every_operator(self):
        curve = self.curve(self.loose)
        assert curve.at(0.5, self.loose).tolerances is self.loose
        assert spectral_flow(curve, tolerances=self.loose) == 1
        with pytest.raises(ValueError, match="defect 1.000e-08"):
            curve.at(0.5)
        with pytest.raises(ValueError, match="defect 1.000e-08"):
            spectral_flow(curve)
        with pytest.raises(ValueError, match="defect 1.000e-08"):
            self.curve(DEFAULT.with_(potential_hermitian=1e-6))

    def test_just_inside_and_just_outside_the_guard(self):
        curve = self.curve(self.loose)
        # ||M||_max grows with the shift and the defect stays 1e-8, so
        # the first sample is the worst operator on the curve
        edge = hermitian_guard_edge(dense_of_band(curve.samples[0]))
        assert hermitian_guard_edge(dense_of_band(curve.samples)) == edge
        inside = self.loose.with_(hermitian_max=edge * (1 + 1e-6))
        outside = self.loose.with_(hermitian_max=edge * (1 - 1e-6))
        assert spectral_flow(curve, tolerances=inside) == 1
        with pytest.raises(ValueError, match="not Hermitian"):
            spectral_flow(curve, tolerances=outside)
        # from_potentials checks its samples with its own record
        assert spectral_flow(self.curve(inside), tolerances=inside) == 1
        with pytest.raises(ValueError, match="not Hermitian"):
            self.curve(outside)


class TestSpectralFlow:
    def test_constant_curve(self):
        assert spectral_flow(shift_curve(0.25, 0.25)) == 0

    def test_single_upward_crossing(self):
        res = spectral_flow_result(shift_curve(-0.25, 0.25))
        assert res.sf == 1
        assert res.partitions >= 1
        assert res.min_gap > 0

    @pytest.mark.parametrize("k", [8, 12])
    def test_conjugation_path_three_down(self, k):
        tr = FourierTruncation(k, 1)
        g = SymbolFunction.exponential(3)
        pot = gauge_transformed_potential(g)
        curve = OperatorCurve.from_potentials(
            [0.0, 1.0], [pot.scale(0.0), pot], tr)
        assert spectral_flow(curve) == -3

    def test_index_flow_paths_at_k_4096(self):
        # the seed-0 paths of the index_flow benchmark run through the
        # constant potentials -t U diag(n_1, n_2) U*, a band of b = 1
        # that splits into its 2 x 2 mode blocks; every certified level
        # is checked against the reference, and the flow, the interval
        # count and the smallest margin against their exact values
        tr = FourierTruncation(4096, 2)
        ts = [0.0, 0.5, 1.0]
        for windings, g, _ in flow_symbols(0):
            end = gauge_transformed_potential(g)
            curve = OperatorCurve.from_potentials(
                ts, [end.scale(t) for t in ts], tr)
            assert curve.samples.shape == (3, 3, tr.dim)
            res = spectral_flow_result(curve)
            assert res.sf == -sum(windings) and res.partitions == 5
            assert abs(res.min_gap - 0.125) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_difference_oracle(self, seed):
        # independent oracle: the count of nonnegative eigenvalues can only
        # change through zero crossings, so sf equals the endpoint count
        # difference
        rng = rng_for(seed + 40)
        tr = FourierTruncation(5, 1)
        ts = [0.0, 0.3, 0.7, 1.0]
        pots = [random_hermitian_symbol(1, 2, rng, scale=0.45)
                for _ in ts]
        curve = OperatorCurve.from_potentials(ts, pots, tr)
        oracle = int((eigvalsh(curve.at(1.0)) >= -1e-9).sum()
                     - (eigvalsh(curve.at(0.0)) >= -1e-9).sum())
        assert spectral_flow(curve) == oracle

    @pytest.mark.parametrize("seed", range(20))
    def test_additivity(self, seed):
        rng = rng_for(seed + 77)
        tr = FourierTruncation(4, 1)
        ts = np.linspace(0.0, 1.0, 5)
        pots = [random_hermitian_symbol(1, 2, rng, scale=0.5) for _ in ts]
        curve = OperatorCurve.from_potentials(ts, pots, tr)
        tau_idx = int(rng.integers(1, len(ts) - 1))
        left = OperatorCurve.from_potentials(
            ts[:tau_idx + 1] / ts[tau_idx], pots[:tau_idx + 1], tr)
        right = OperatorCurve.from_potentials(
            (ts[tau_idx:] - ts[tau_idx]) / (1 - ts[tau_idx]),
            pots[tau_idx:], tr)
        assert spectral_flow(curve) == spectral_flow(left) + spectral_flow(right)

    def test_reparametrization_invariance(self):
        tr = FourierTruncation(6, 1)
        ts = np.linspace(0.0, 1.0, 5)
        pots = [SymbolFunction.constant(-0.4 + 0.8 * t + 0.05 * t * t)
                for t in ts]
        curve = OperatorCurve.from_potentials(ts, pots, tr)
        warped = OperatorCurve(ts ** 2, [TruncatedOperator(m, tr)
                                         for m in dense_of_band(
                                             curve.samples)])
        assert spectral_flow(curve) == spectral_flow(warped)

    def test_refinement_stability(self):
        curve = shift_curve(-0.25, 0.25)
        base = spectral_flow(curve)
        finer = shift_curve(-0.25, 0.25, samples=np.linspace(0.0, 1.0, 9))
        assert spectral_flow(finer) == base

    def test_endpoint_cutoffs(self):
        curve = shift_curve(-0.25, 0.25)
        # moving the right cutoff above m eigenvalues lowers sf by m
        assert spectral_flow(curve, 0.0, 1.5) == 1 - 2
        assert spectral_flow(curve, -1.5, 0.0) == 1 - 2

    def test_no_gap_found(self):
        curve = shift_curve(-0.25, 0.25)
        # widen the certification demand so no level can certify on the
        # initial segments and bisection immediately hits the floor
        tight = DEFAULT.with_(min_interval_width=0.6, lipschitz_safety=1e6)
        with pytest.raises(NoGapFound):
            gap_partition(curve, tight)

    def test_resolution_exceeded(self):
        from specflow.errors import ResolutionExceeded
        curve = shift_curve(-2.25, 0.25)   # needs several subintervals
        with pytest.raises(ResolutionExceeded):
            gap_partition(curve, DEFAULT.with_(max_partitions=2))

    def test_curve_validation(self):
        tr = FourierTruncation(2, 1)
        op = build_dirac(SymbolFunction.constant(0.1), tr)
        with pytest.raises(ValueError, match="strictly increasing"):
            OperatorCurve([0.0, 0.0, 1.0], [op, op, op])
        with pytest.raises(ValueError, match="endpoints"):
            OperatorCurve([0.1, 1.0], [op, op])
        op2 = build_dirac(SymbolFunction.constant(0.1), FourierTruncation(3, 1))
        with pytest.raises(ValueError, match="truncation"):
            OperatorCurve([0.0, 1.0], [op, op2])


def window_count_flow(curve, cutoff0, cutoff1, tolerances=DEFAULT):
    """Reference: the per-interval count of eigenvalues in the window
    [0, a) of each gap interval, changed between its ends, plus the
    endpoint cutoff corrections, on the same partition."""
    atol = tolerances.cutoff_atol

    def at_least(t, level):
        return int(np.count_nonzero(eigvalsh(curve.at(t)) >= level - atol))

    def window(t, level):
        evals = eigvalsh(curve.at(t))
        return int(np.count_nonzero((evals >= -atol) & (evals < level)))

    total = sum(window(iv.t_right, iv.level) - window(iv.t_left, iv.level)
                for iv in gap_partition(curve, tolerances).intervals)
    total += at_least(1.0, cutoff1) - at_least(1.0, 0.0)
    total -= at_least(0.0, cutoff0) - at_least(0.0, 0.0)
    return total


class TestBracketSum:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_window_counts_with_cutoffs(self, seed):
        rng = rng_for(seed + 4100)
        tr = FourierTruncation(int(rng.integers(3, 7)),
                               int(rng.integers(1, 3)))
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]])
        pots = [random_hermitian_symbol(tr.bundle_rank, 2, rng, scale=0.6)
                for _ in ts]
        curve = OperatorCurve.from_potentials(ts, pots, tr)
        cutoff0, cutoff1 = rng.uniform(-1.5, 1.5, size=2)
        res = spectral_flow_result(curve, cutoff0, cutoff1)
        assert res.sf == window_count_flow(curve, cutoff0, cutoff1)
        assert res.partitions == len(gap_partition(curve).intervals)

    def test_eigenvalues_on_a_cutoff_count_as_nonnegative(self):
        # an eigenvalue that ends on zero has crossed, one that starts on
        # zero has not, and one on an endpoint cutoff is in that section
        assert spectral_flow(shift_curve(-0.5, 0.0)) == 1
        assert spectral_flow(shift_curve(0.0, 0.5)) == 0
        assert spectral_flow(shift_curve(-0.25, 0.25), 0.0, 1.25) == 1 - 1
        assert spectral_flow(shift_curve(-0.25, 0.25), -1.25, 0.0) == 1 - 2

    def test_sf_pairs_takes_one_difference_element_per_bracket(
            self, monkeypatch):
        curve = shift_curve(-2.25, 0.25)
        q0 = aps_projection(curve.at(0.0), 0.0)
        q1 = aps_projection(curve.at(1.0), 0.0)
        calls = []
        original = specflow.flow.difference_element

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(specflow.flow, "difference_element", counted)
        assert sf_pairs(curve, q0, q1) == spectral_flow(curve) == 3
        part = gap_partition(curve)
        finer = [t for iv in part.intervals
                 for t in (iv.t_left, 0.5 * (iv.t_left + iv.t_right))] + [1.0]
        refined = gap_partition(curve, initial_breaks=finer)
        assert len(part.intervals) > 1
        assert len(calls) == len(part.intervals) + 1 \
            + len(refined.intervals) + 1


class TestLipschitzBound:
    @staticmethod
    def curves(seed):
        rng = rng_for(seed + 700)
        tr = FourierTruncation(4, 2)
        ts = [0.0, 0.3, 0.7, 1.0]
        pots = [random_hermitian_symbol(2, 2, rng, scale=0.5) for _ in ts]
        by_symbol = OperatorCurve.from_potentials(ts, pots, tr)
        by_matrix = OperatorCurve(ts, [by_symbol.at(t) for t in ts])
        return by_symbol, by_matrix

    @staticmethod
    def secant(curve, u, v):
        du = curve.at(v).matrix - curve.at(u).matrix
        return np.linalg.norm(du, 2) / (v - u)

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_secant_on_random_subintervals(self, seed):
        rng = rng_for(seed + 710)
        for curve in self.curves(seed):
            cache = _SpectrumCache(curve)
            for _ in range(20):
                u, v = np.sort(rng.uniform(0.0, 1.0, size=2))
                assert cache.lipschitz(u, v, 1.0) >= \
                    self.secant(curve, u, v) * (1 - 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_inside_a_segment(self, seed):
        curve = self.curves(seed)[0]
        cache = _SpectrumCache(curve)
        assert cache.lipschitz(0.35, 0.6, 1.0) == \
            pytest.approx(self.secant(curve, 0.35, 0.6), rel=1e-10)
        assert cache.lipschitz(0.35, 0.6, 1.5) == \
            pytest.approx(1.5 * cache.lipschitz(0.35, 0.6, 1.0), rel=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_initial_break_straddling_a_sample(self, seed, monkeypatch):
        # [0.1, 0.45] straddles t = 0.3: the bound the partition uses there
        # covers both segments, so it bounds the eigenvalue speed between
        # any two points inside
        curve = self.curves(seed)[0]
        used = {}
        original = _SpectrumCache.lipschitz

        def recorded(cache, u, v, safety):
            used[u, v] = original(cache, u, v, safety) / safety
            return safety * used[u, v]

        monkeypatch.setattr(_SpectrumCache, "lipschitz", recorded)
        gap_partition(curve, initial_breaks=[0.0, 0.1, 0.45, 1.0])
        for (u, v), lip in used.items():
            assert lip >= self.secant(curve, u, v) * (1 - 1e-12)
        lip = used[0.1, 0.45]
        grid = np.linspace(0.1, 0.45, 15)
        evals = [eigvalsh(curve.at(t)) for t in grid]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                speed = np.abs(evals[j] - evals[i]).max() / (grid[j] - grid[i])
                assert speed <= lip * (1 + 1e-12)
        cache = _SpectrumCache(curve)
        assert lip == max(original(cache, 0.1, 0.3, 1.0),
                          original(cache, 0.3, 0.45, 1.0))

    def test_returning_curve_is_not_a_zero_secant(self):
        # D(0) = D(1): the secant over [0, 1] is zero, the eigenvalues move
        tr = FourierTruncation(3, 1)
        pots = [SymbolFunction.constant(a) for a in (0.0, 0.4, 0.0)]
        curve = OperatorCurve.from_potentials([0.0, 0.5, 1.0], pots, tr)
        assert self.secant(curve, 0.0, 1.0) == 0.0
        assert _SpectrumCache(curve).lipschitz(0.0, 1.0, 1.0) == \
            pytest.approx(0.8, rel=1e-12)


class TestSfPairs:
    def test_one_eigh_per_operator(self, monkeypatch):
        tr = FourierTruncation(8, 1)
        pot = gauge_transformed_potential(SymbolFunction.exponential(3))
        curve = OperatorCurve.from_potentials(
            [0.0, 0.5, 1.0], [pot.scale(t) for t in (0.0, 0.5, 1.0)], tr)
        q0 = aps_projection(curve.at(0.0), 0.0, policy="inclusive")
        q1 = aps_projection(curve.at(1.0), 0.0, policy="inclusive")
        calls = count_eigh(monkeypatch)
        assert sf_pairs(curve, q0, q1) == -3
        breaks = set(gap_partition(curve).breakpoints)
        assert len(calls) > len(breaks)     # the refined run adds midpoints
        assert max(calls.values()) == 1

    def test_matches_spectral_flow_with_aps_ends(self):
        curve = shift_curve(-0.25, 0.25)
        q0 = aps_projection(curve.at(0.0), 0.0)
        q1 = aps_projection(curve.at(1.0), 0.0)
        assert sf_pairs(curve, q0, q1) == spectral_flow(curve)

    def test_cutoff_section_shifts_by_captured_count(self):
        curve = shift_curve(-0.25, 0.25)
        q0 = aps_projection(curve.at(0.0), 0.0)
        # cutoff 1.5 drops the m = 2 eigenvalues in [0, 1.5)
        q1 = aps_projection(curve.at(1.0), 1.5)
        assert sf_pairs(curve, q0, q1) == spectral_flow(curve) - 2

    def test_constant_curve_equal_sections(self):
        curve = shift_curve(0.25, 0.25)
        q = aps_projection(curve.at(0.0), 0.0)
        assert sf_pairs(curve, q, q) == 0

    @pytest.mark.parametrize("members", [1, 2])
    def test_a_family_of_sections_is_refused(self, members):
        # each member is the valid endpoint section, yet a family is not
        # an endpoint section of one operator
        curve = shift_curve(-0.25, 0.25)
        q0 = aps_projection(curve.at(0.0), 0.0)
        q1 = aps_projection(curve.at(1.0), 0.0)
        for args in ((section_family_of(q0, members), q1),
                     (q0, section_family_of(q1, members))):
            with pytest.raises(ValueError, match="^sf_pairs takes single "
                               "sections, not a family$"):
                sf_pairs(curve, *args)
        assert sf_pairs(curve, q0, q1) == spectral_flow(curve) == 1

    def test_invalid_section_rejected(self):
        curve = shift_curve(-0.25, 0.25)
        q0 = aps_projection(curve.at(0.0), 0.0)
        bad = SpectralSection(np.eye(curve.truncation.dim)[:, :1], 0.0,
                              "explicit")
        with pytest.raises(InvalidSection):
            sf_pairs(curve, q0, bad)
