"""Band storage: every operator, curve sample and Hardy compression is
written from coefficients and equals, bit for bit, the dense matrices the
library built before (the conftest reference builders); the band keeps
both triangles for the Hermiticity guard; and the peak memory of the
flows and indices stays O(dim b)."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import specflow.bundles
import specflow.flow
import specflow.operators
from specflow import (BaseGrid, CurveOfFamilies, FourierTruncation,
                      OperatorCurve, SymbolFunction, TruncatedOperator,
                      TwistedLoopSpec, aps_projection, aps_section_family,
                      build_dirac, build_mapping_torus, eigh, eigvalsh,
                      gauge_transformed_potential, hardy_section,
                      higher_spectral_flow, sf_pairs)
from specflow.config import DEFAULT
from specflow.models import bott_symbol_family
from specflow.operators import (_band_of, _band_spectrum, _exact_band,
                                half_bandwidth)
from specflow.toeplitz import _compressions, dirac_aps_section
from conftest import (assert_matches_reference_assembly, dense_of_band,
                      hermitian_guard_edge, random_hermitian_symbol,
                      random_trig_unitary, reference_dirac,
                      reference_interpolation, reference_multiplications,
                      rng_for, skewed_shift_potential)


def conjugation_path(rank: int, seed: int, ts=(0.0, 0.5, 1.0)):
    """The potentials t (i g' g*) of an index_flow-style path from -i d/dx
    to its conjugate by a seeded unitary symbol g: the one at t = 0 has no
    coefficients at all."""
    symbol, winding = random_trig_unitary(rank, rng_for(seed))
    end = gauge_transformed_potential(symbol)
    return symbol, winding, [end.scale(t) for t in ts]


def assert_bit_identical(x, y):
    assert x.shape == y.shape and x.dtype == y.dtype
    assert np.array_equal(x, y)
    # signed zeros too: LAPACK reads the sign of a zero
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(x)), np.signbit(part(y)))


class TestAgainstDenseReference:
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_build_dirac(self, rank, width):
        tr = FourierTruncation(6, rank)
        pot = random_hermitian_symbol(rank, width, rng_for(40 + 10 * rank
                                                           + width))
        op = build_dirac(pot, tr)
        dense = reference_dirac([pot], tr)[0]
        assert_bit_identical(op.matrix, dense)
        assert half_bandwidth(op.matrix) == half_bandwidth(dense)
        assert_bit_identical(eigvalsh(op), eigvalsh(dense))

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("k", [4, 32, 128])
    def test_curve_at(self, rank, k):
        ts = (0.0, 0.5, 1.0)
        _, _, pots = conjugation_path(rank, 50 + k + rank, ts)
        tr = FourierTruncation(k, rank)
        curve = OperatorCurve.from_potentials(ts, pots, tr)
        dense = reference_dirac(pots, tr)
        assert_bit_identical(dense_of_band(curve.samples), dense)
        for t in (0.0, 0.5, 1.0, 0.25, 0.7):
            op = curve.at(t)
            expected = reference_interpolation(ts, dense, t)
            assert_bit_identical(op.matrix, expected)
            assert half_bandwidth(op.matrix) == half_bandwidth(expected)
            assert_bit_identical(eigvalsh(op), eigvalsh(expected))
        for j in range(len(ts) - 1):
            assert_bit_identical(
                _band_spectrum(curve.samples[j + 1] - curve.samples[j])[0],
                eigvalsh(dense[j + 1] - dense[j]))

    def test_curve_of_families_at(self):
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        ts = (0.0, 0.5, 1.0)
        tr = FourierTruncation(4, 2)
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), ts, tr)
        dense = reference_dirac([pots[v].scale(t) for t in ts
                                 for v in base.vertices], tr)
        dense = dense.reshape(len(ts), len(base.vertices), tr.dim, tr.dim)
        for t in (0.0, 0.5, 1.0, 0.3, 0.9):
            assert_bit_identical(cf.at(t).matrix,
                                 reference_interpolation(ts, dense, t))
        assert_bit_identical(_band_spectrum(cf.samples[1] - cf.samples[0])[0],
                             eigvalsh(dense[1] - dense[0]))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_hardy_compressions(self, rank):
        symbols = [random_trig_unitary(rank, rng_for(60 + i + 5 * rank),
                                       max_winding=3)[0] for i in range(4)]
        for tr in (FourierTruncation(16, rank), FourierTruncation(32, rank)):
            rows = np.flatnonzero(tr.modes() >= 0)
            expected = reference_multiplications(symbols, tr)[
                :, rows[:, None], rows]
            bands = _compressions(hardy_section(tr), symbols, tr, DEFAULT)
            assert_bit_identical(_exact_band(bands), _band_of(expected))
            assert_bit_identical(dense_of_band(bands), expected)

    def test_non_coordinate_compressions(self):
        tr = FourierTruncation(6, 1)
        section = dirac_aps_section(SymbolFunction.constant(0.3), tr)
        symbols = [SymbolFunction.exponential(n) for n in (-1, 2)]
        basis = section.basis
        expected = basis.conj().T @ reference_multiplications(symbols, tr) \
            @ basis
        assert_bit_identical(_compressions(section, symbols, tr, DEFAULT),
                             _band_of(expected))

    @pytest.mark.parametrize("m_u", [8, 13])
    def test_mapping_torus_csc(self, m_u):
        symbol = SymbolFunction.exponential(2)
        ts = (0.0, 0.5, 1.0)
        pots = [gauge_transformed_potential(symbol).scale(t) for t in ts]
        tr = FourierTruncation(6, 1)
        spec = TwistedLoopSpec(OperatorCurve.from_potentials(ts, pots, tr),
                               symbol)
        op = build_mapping_torus(spec, m_u)
        assert_matches_reference_assembly(op, reference_dirac(pots, tr))


class TestBandGuard:
    def test_upper_triangle_defect_is_refused(self):
        # the lower triangle is diagonal, so only a band that keeps the
        # upper triangle sees the defect
        tr = FourierTruncation(4, 1)
        m = np.diag(tr.modes().astype(complex))
        m[0, 5] = 1e-3
        with pytest.raises(ValueError,
                           match="matrix is not Hermitian: defect 1.000e-03"):
            TruncatedOperator(m, tr)

    def test_eigh_checks_the_band_it_holds(self, monkeypatch):
        tr = FourierTruncation(4, 1)
        pot = SymbolFunction({0: np.array([[0.3]]), 1: np.array([[0.1]]),
                              -1: np.array([[0.1 + 1e-8j]])}, rank=1)
        loose = DEFAULT.with_(hermitian_max=1e-6, potential_hermitian=1e-6)
        op = build_dirac(pot, tr, loose)
        expected = eigh(op.matrix, loose).eigenvalues

        def dense_check(*args):
            raise AssertionError("band re-derived from a dense matrix")

        monkeypatch.setattr(specflow.operators, "_band_of", dense_check)
        assert np.array_equal(eigh(op, loose).eigenvalues, expected)
        with pytest.raises(ValueError, match="eigh requires a Hermitian"):
            eigh(op)

    def test_family_solves_read_their_bands(self, monkeypatch):
        # every operator the Bott curve's class and endpoint sections
        # factor reaches eigh as the operator of its family, whose band
        # carries its check: none is read back from a dense stack
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), (0.0, 0.5, 1.0),
            FourierTruncation(3, 2))
        solved = []

        def recorded(original):
            def eigh(operator, *args):
                solved.append(operator)
                return original(operator, *args)
            return eigh

        for module in (specflow.flow, specflow.bundles):
            monkeypatch.setattr(module, "eigh", recorded(module.eigh))

        def dense_read(*args):
            raise AssertionError("band re-derived from a dense matrix")

        monkeypatch.setattr(specflow.operators, "_band_of", dense_read)
        q0, q1 = (aps_section_family(cf.family_at(t)) for t in (0.0, 1.0))
        cls = higher_spectral_flow(cf, q0, q1)
        assert (cls.ch0, cls.ch1) == (-1, -1)
        assert len(solved) == cls.meta["partitions"] + 3
        assert all(isinstance(op, TruncatedOperator)
                   and op.band.shape[0] == len(base.vertices)
                   for op in solved)

    def test_family_operator_and_its_dense_stack_share_an_edge(self):
        # the skewed family of test_caller_tolerances_reach_every_family,
        # between its samples: its band and its dense stack are refused
        # just outside one hermitian_max and factored alike just inside
        loose = DEFAULT.with_(hermitian_max=1e-6, potential_hermitian=1e-6)
        cf = CurveOfFamilies.from_potentials(
            BaseGrid.loop(4), lambda v, t: skewed_shift_potential(
                0.75 + 0.5 * t + 0.01 * v[0], 1e-8),
            [0.0, 1.0], FourierTruncation(4), loose)
        op = cf.at(0.3, loose)
        stack = op.matrix
        edge = hermitian_guard_edge(stack)
        inside = loose.with_(hermitian_max=edge * (1 + 1e-6))
        outside = loose.with_(hermitian_max=edge * (1 - 1e-6))
        of_band, of_stack = eigh(op, inside), eigh(stack, inside)
        assert_bit_identical(of_band.eigenvalues, of_stack.eigenvalues)
        assert_bit_identical(of_band.eigenvectors, of_stack.eigenvectors)
        for operator in (op, stack):
            with pytest.raises(ValueError,
                               match="^eigh requires a Hermitian matrix$"):
                eigh(operator, outside)


class TestDoubled:
    """``_doubled`` is the curve's own ``from_potentials`` at doubled
    truncation, bit for bit, on the same grid, base and potential objects,
    checked at the record it is given; a curve built from matrices has no
    potentials to rebuild it from."""

    loose = DEFAULT.with_(hermitian_max=1e-6, potential_hermitian=1e-6)

    def test_operator_curve(self):
        tr = FourierTruncation(4)
        pots = [skewed_shift_potential(a, 1e-8) for a in (0.75, 1.0, 1.25)]
        curve = OperatorCurve.from_potentials([0.0, 0.4, 1.0], pots, tr,
                                              self.loose)
        doubled = curve._doubled(self.loose)
        assert type(doubled) is OperatorCurve
        assert doubled.truncation == tr.doubled() != curve.truncation
        assert_bit_identical(doubled.samples, OperatorCurve.from_potentials(
            curve.ts, pots, tr.doubled(), self.loose).samples)
        assert doubled.ts is curve.ts
        assert all(a is b for a, b in zip(doubled.potentials, pots))
        with pytest.raises(ValueError, match="defect 1.000e-08"):
            curve._doubled(DEFAULT)

    def test_curve_of_families(self):
        base = BaseGrid.torus(8)
        fam = bott_symbol_family(base)
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        ts, tr = (0.0, 0.5, 1.0), FourierTruncation(3, 2)

        def potential(v, t):
            return pots[v].scale(t)

        cf = CurveOfFamilies.from_potentials(base, potential, ts, tr)
        doubled = cf._doubled(DEFAULT)
        assert type(doubled) is CurveOfFamilies
        assert doubled.truncation == tr.doubled()
        assert_bit_identical(doubled.samples, CurveOfFamilies.from_potentials(
            base, potential, ts, tr.doubled()).samples)
        assert doubled.base is base and doubled.ts is cf.ts
        assert doubled.potentials.shape == (len(ts), len(base.vertices))
        assert all(a is b for a, b in zip(doubled.potentials.ravel(),
                                          cf.potentials.ravel()))

    def test_matrix_built_curve_refused(self):
        op = build_dirac(SymbolFunction.constant(0.25), FourierTruncation(4))
        curve = OperatorCurve([0.0, 1.0], [op, op])
        assert curve.potentials is None
        with pytest.raises(ValueError, match="no potentials"):
            curve._doubled(DEFAULT)


class TestNonFiniteEntries:
    """A NaN or infinite entry fails the one Hermiticity test wherever it
    is read, as a ValueError of that test rather than a failure of the
    eigensolver later."""

    tr = FourierTruncation(4, 1)

    def matrix(self, entry=(3, 3), value=np.nan):
        m = np.diag(self.tr.modes().astype(complex))
        m[entry] = value
        return m

    def curve(self) -> OperatorCurve:
        """A constant loop whose middle sample band is given a NaN after
        construction: no constructor lets one through, so the curve's own
        guards are reached only this way."""
        curve = OperatorCurve.from_potentials(
            [0.0, 0.5, 1.0], [SymbolFunction.constant(0.25)] * 3, self.tr)
        samples = np.array(curve.samples)
        samples[1, 0, 3] = np.nan
        samples.setflags(write=False)
        curve.samples = samples
        return curve

    @pytest.mark.parametrize("entry, value", [
        ((3, 3), np.nan), ((3, 3), np.inf), ((0, 5), np.inf),
        ((5, 0), complex(np.nan, 0))])
    def test_truncated_operator(self, entry, value):
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            TruncatedOperator(self.matrix(entry, value), self.tr)

    @pytest.mark.parametrize("t", [0.5, 0.25])
    def test_operator_curve(self, t):
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            self.curve().at(t)

    def test_mapping_torus_slice(self):
        with pytest.raises(ValueError, match="u-slice 0 is not Hermitian: "
                                             "defect nan"):
            build_mapping_torus(TwistedLoopSpec(self.curve()), 8)

    def test_eigh_of_a_raw_array(self):
        with pytest.raises(ValueError, match="eigh requires a Hermitian"):
            eigh(self.matrix())
        with pytest.raises(ValueError, match="eigh requires a Hermitian"):
            eigh(np.stack([self.matrix(value=0.0), self.matrix()]))


class TestOneOperatorPerParameter:
    def test_sf_pairs_builds_each_operator_once(self, monkeypatch):
        _, winding, pots = conjugation_path(2, 70)
        tr = FourierTruncation(8, 2)
        curve = OperatorCurve.from_potentials((0.0, 0.5, 1.0), pots, tr)
        q0, q1 = (aps_projection(curve.at(t), 0.0, policy="inclusive")
                  for t in (0.0, 1.0))
        built = Counter()
        original = OperatorCurve.at

        def counted(self, t, *args, **kwargs):
            built[float(t)] += 1
            return original(self, t, *args, **kwargs)

        monkeypatch.setattr(OperatorCurve, "at", counted)
        assert sf_pairs(curve, q0, q1) == -winding
        assert built and set(built.values()) == {1}


#: Run in a fresh interpreter, so the suite's autouse checks, which repeat
#: every stacked split and decomposition, are not traced with the library.
PEAK_SCRIPT = """
import json, tracemalloc
import numpy as np
from conftest import random_trig_unitary, random_unitary, rng_for
from specflow import (FourierTruncation, OperatorCurve, SymbolFunction,
                      fredholm_index, gauge_transformed_potential,
                      hardy_section, spectral_flow, toeplitz_compress)

def traced(fn):
    tracemalloc.start()
    value = fn()
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    return value, peak

symbol, winding = random_trig_unitary(2, rng_for(80))
tr = FourierTruncation(128, 2)
end = gauge_transformed_potential(symbol)
curve = OperatorCurve.from_potentials(
    [0.0, 0.5, 1.0], [end.scale(t) for t in (0.0, 0.5, 1.0)], tr)
t = toeplitz_compress(hardy_section(tr), symbol, tr)
sf, sf_peak = traced(lambda: spectral_flow(curve))
index, index_peak = traced(lambda: fredholm_index(t))
# U diag(e^{ix}, 1) V, the index_flow workload's first symbol: its
# compression has half-bandwidths 3 and 1, so both truncations take the
# band route
u, v = random_unitary(2, rng_for(81)), random_unitary(2, rng_for(82))
band_symbol = SymbolFunction({1: u @ np.diag([1.0, 0.0]) @ v,
                              0: u @ np.diag([0.0, 1.0]) @ v},
                             rank=2, unitary=True)
t = toeplitz_compress(hardy_section(tr), band_symbol, tr)
band_index, band_peak = traced(lambda: fredholm_index(t))
print(json.dumps(dict(winding=winding, sf=sf, sf_peak=sf_peak, index=index,
                      index_peak=index_peak, band_index=band_index,
                      band_peak=band_peak)))
"""


@pytest.fixture(scope="module")
def peaks() -> dict:
    """The integers and traced peaks (MB) of ``PEAK_SCRIPT``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(specflow.__file__).parents[1]), str(Path(__file__).parent)]))
    done = subprocess.run([sys.executable, "-c", PEAK_SCRIPT], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


class TestPeakMemory:
    """The index_flow solves at K = 128 on rank 2 (dim 514), traced by
    tracemalloc from the call: the flow of the conjugation path reads
    O(dim b) bands, and the Toeplitz index reads its compressions as
    bands over the Hardy index set, at K and at 2K, with no dim x dim
    matrix and no frame of the section.  The symbol of
    ``test_fredholm_index`` (lower half-bandwidth 5, interleaved b = 9)
    takes the band route (``null_splits``) at K as well as at 2K, so no
    258 x 258 singular-vector pair is formed."""

    def test_spectral_flow(self, peaks):
        assert peaks["sf"] == -peaks["winding"]
        assert peaks["sf_peak"] <= 2.0

    def test_fredholm_index(self, peaks):
        assert peaks["index"] == -peaks["winding"]
        assert peaks["index_peak"] <= 2.0

    def test_fredholm_index_on_the_band_route(self, peaks):
        assert peaks["band_index"] == -1
        assert peaks["band_peak"] <= 2.0
