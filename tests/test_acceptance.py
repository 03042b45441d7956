"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s``.

All integer identities are exact; analytic comparisons carry the
tolerances written next to them.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import scipy.linalg

from specflow import (BaseGrid, CurveOfFamilies, FourierTruncation,
                      OperatorCurve, SpectralSection, SymbolFunction,
                      aps_projection, aps_section_family, build_dirac,
                      difference_element, eta_form_degree0, eta_heat,
                      eta_shifted_derivative, fredholm_index,
                      gauge_transformed_potential, hardy_section,
                      higher_spectral_flow, odd_chern_integral,
                      sf_via_eta_result, shifted_model_spectrum,
                      shifted_path_profile, spectral_flow,
                      toeplitz_compress, toeplitz_family_index,
                      TwistedLoopSpec, build_mapping_torus,
                      mapping_torus_index, dirac_aps_section)
from specflow.models import bott_symbol_family, constant_shift_potential
from conftest import (random_hermitian_symbol, random_trig_unitary,
                      random_unitary, rng_for)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({time.time() - start:.1f}s): "
              f"{description}")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_s, (f"criterion {number} took {elapsed:.1f}s, "
                                f"budget {budget_s}s")
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {description}")


def conjugation_curve(g, trunc, base_potential=None, samples=(0.0, 0.5, 1.0)):
    """Linear path from D to g D g^{-1} realized at the symbol level."""
    end = gauge_transformed_potential(g, base_potential)
    start = base_potential if base_potential is not None \
        else end.scale(0.0)
    pots = [start.scale(1 - t) + end.scale(t) for t in samples]
    return OperatorCurve.from_potentials(list(samples), pots, trunc)


def test_criterion_1_toeplitz_index_law():
    with criterion(1, "Toeplitz index of unit phases and blocks is minus "
                      "the winding at K=64 with doubled-truncation "
                      "agreement", 10.0):
        tr1 = FourierTruncation(64, 1)
        sec1 = hardy_section(tr1)
        for n in (1, 2, 3):
            t = toeplitz_compress(sec1, SymbolFunction.exponential(n), tr1)
            assert fredholm_index(t) == -n
        tr2 = FourierTruncation(64, 2)
        sec2 = hardy_section(tr2)
        blocks = {
            -3: SymbolFunction({1: np.diag([1.0, 0.0]),
                                2: np.diag([0.0, 1.0])}, rank=2, unitary=True),
            -1: SymbolFunction({2: np.diag([1.0, 0.0]),
                                -1: np.diag([0.0, 1.0])}, rank=2, unitary=True),
        }
        for expected, g in blocks.items():
            assert fredholm_index(toeplitz_compress(sec2, g, tr2)) == expected


FIVE_SYMBOLS = []
for _seed in range(5):
    _rng = rng_for(1000 + _seed)
    FIVE_SYMBOLS.append(random_trig_unitary(
        2, _rng, max_winding=2, product_factors=1 + _seed % 2)[0])


def test_criterion_2_index_equals_spectral_flow():
    with criterion(2, "compression index equals the conjugation-path "
                      "crossing count for five seeded unitary symbols",
                   60.0):
        tr = FourierTruncation(24, 2)
        sec = hardy_section(tr)
        for g in FIVE_SYMBOLS:
            idx = fredholm_index(toeplitz_compress(sec, g, tr))
            sf = spectral_flow(conjugation_curve(g, tr))
            assert idx == sf, (idx, sf)


def test_criterion_3_symbol_only_dependence():
    with criterion(3, "the index/flow identity is unchanged by bounded "
                      "Hermitian band-limited perturbations of the base "
                      "operator", 120.0):
        tr = FourierTruncation(24, 2)
        sec = hardy_section(tr)
        reference = [fredholm_index(toeplitz_compress(sec, g, tr))
                     for g in FIVE_SYMBOLS]
        for pseed in range(3):
            v = random_hermitian_symbol(2, 2, rng_for(7000 + pseed),
                                        scale=0.12)
            sec_v = dirac_aps_section(v, tr, 0.0)
            for g, expected in zip(FIVE_SYMBOLS, reference):
                idx = fredholm_index(toeplitz_compress(sec_v, g, tr))
                sf = spectral_flow(conjugation_curve(g, tr, base_potential=v))
                assert idx == sf == expected, (idx, sf, expected)


def test_criterion_4_eta_closed_form():
    with criterion(4, "eta of the shifted operator equals 1 - 2a to 1e-6 "
                      "by both the Hurwitz and heat routes", 5.0):
        for a in (0.1, 0.25, 0.7):
            closed = 1.0 - 2.0 * a
            assert abs(eta_shifted_derivative(a).eta - closed) <= 1e-6
            heat = eta_heat(shifted_model_spectrum(a))
            assert abs(heat.eta - closed) <= 1e-6


def test_criterion_5_variation_formula():
    with criterion(5, "the reduced-eta variation formula reproduces the "
                      "crossing count on the non-crossing and crossing "
                      "paths", 5.0):
        tr = FourierTruncation(8, 1)
        cases = {(0.25, 0.75): 0, (-0.25, 0.25): 1}
        for (a0, a1), expected in cases.items():
            via_eta = sf_via_eta_result(shifted_path_profile(a0, a1)).sf
            curve = OperatorCurve.from_potentials(
                [0.0, 1.0], [constant_shift_potential(a0),
                             constant_shift_potential(a1)], tr)
            assert via_eta == spectral_flow(curve) == expected


def test_criterion_6_eta_form_difference():
    with criterion(6, "the section difference element equals the degree-0 "
                      "eta-form difference for m in {1, 2, 5}", 10.0):
        tr = FourierTruncation(16, 1)
        d = build_dirac(constant_shift_potential(0.25), tr)
        spec = shifted_model_spectrum(0.25)
        p0 = aps_projection(d, 0.0, policy="inclusive")
        base = eta_form_degree0(spec, 1e-6)
        for m in (1, 2, 5):
            cutoff = m - 0.5
            pc = aps_projection(d, cutoff)
            rank_side = difference_element(p0, pc).value
            eta_side = base.reduced - eta_form_degree0(spec, cutoff).reduced
            assert rank_side == m
            assert round(eta_side) == m and abs(eta_side - m) <= 1e-8


def test_criterion_7_bott_family_class():
    with criterion(7, "the rank-one twist family over the 12x12 torus has "
                      "ch0 = -1 at every vertex, plaquette ch1 of "
                      "magnitude one, and a matching calibrated integral",
                   300.0):
        base = BaseGrid.torus(12)
        tr = FourierTruncation(16, 2)
        fam = bott_symbol_family(base)

        sec = hardy_section(tr)
        from specflow.toeplitz import toeplitz_small_subspaces
        for v in base.vertices:
            sub = toeplitz_small_subspaces(toeplitz_compress(sec, fam[v], tr))
            assert sub.kernel_dim - sub.cokernel_dim == -1

        cls = toeplitz_family_index(fam, base, tr)
        assert cls.ch0 == -1
        assert abs(cls.ch1) == 1
        assert cls.ch1 == -1    # orientation fixed by the reference wrap

        cochain = odd_chern_integral(fam, base, n=1)
        assert abs(cochain.total - cls.ch1) <= 0.02

        # the transported-section route assembles the same class
        pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
        cf = CurveOfFamilies.from_potentials(
            base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0], tr)
        q0 = aps_section_family(cf.family_at(0.0))
        q1 = aps_section_family(cf.family_at(1.0))
        hsf = higher_spectral_flow(cf, q0, q1)
        assert hsf.equivalent(cls)


def test_criterion_8_periodic_family_identity():
    with criterion(8, "the twisted-loop operator index equals the path "
                      "crossing count for flux 1 and 2 at (m_u, K) = "
                      "(64, 32) with doubling stability", 300.0):
        tr = FourierTruncation(32, 1)
        for flux in (1, 2):
            curve = OperatorCurve.from_potentials(
                [0.0, 1.0], [constant_shift_potential(0.0),
                             constant_shift_potential(-float(flux))], tr)
            spec = TwistedLoopSpec(curve, SymbolFunction.exponential(flux))
            op = build_mapping_torus(spec, 64)
            idx = mapping_torus_index(op)   # includes doubling checks
            assert idx == spectral_flow(curve) == -flux


def _random_piecewise_curve(rng, trunc, samples=5, scale=0.5):
    ts = np.linspace(0.0, 1.0, samples)
    pots = [random_hermitian_symbol(trunc.bundle_rank, 2, rng, scale=scale)
            for _ in ts]
    return ts, pots, OperatorCurve.from_potentials(ts, pots, trunc)


def test_criterion_9_property_suites():
    with criterion(9, "additivity, cocycle, generalized-section and "
                      "conjugation identities, homotopy invariance, and "
                      "periodic section-independence over 20 seeded "
                      "instances each", 300.0):
        tr = FourierTruncation(5, 1)

        # flow additivity over a split of the parameter interval
        for seed in range(20):
            rng = rng_for(seed)
            ts, pots, curve = _random_piecewise_curve(rng, tr)
            i = int(rng.integers(1, len(ts) - 1))
            left = OperatorCurve.from_potentials(ts[:i + 1] / ts[i],
                                                 pots[:i + 1], tr)
            right = OperatorCurve.from_potentials(
                (ts[i:] - ts[i]) / (1.0 - ts[i]), pots[i:], tr)
            assert spectral_flow(curve) \
                == spectral_flow(left) + spectral_flow(right)

        # cocycle identity for section triples on one operator
        for seed in range(20):
            rng = rng_for(200 + seed)
            dim = 11
            p1, p2, p3 = (SpectralSection(
                random_unitary(dim, rng)[:, :int(rng.integers(1, dim))],
                0.0, "explicit")
                for _ in range(3))
            assert difference_element(p3, p1).value \
                == difference_element(p3, p2).value \
                + difference_element(p2, p1).value

        # generalized-section additivity (arbitrary projectors)
        for seed in range(20):
            rng = rng_for(400 + seed)
            dim = 9
            q1, q2, q3 = (SpectralSection(
                random_unitary(dim, rng)[:, :int(rng.integers(2, dim - 1))],
                0.0, "explicit")
                for _ in range(3))
            assert difference_element(q1, q2).value \
                + difference_element(q2, q3).value \
                == difference_element(q1, q3).value

        # homotopy invariance of difference elements
        for seed in range(20):
            rng = rng_for(600 + seed)
            dim = 8
            q = SpectralSection(random_unitary(dim, rng)[:, :3], 0.0,
                                "explicit")
            ref = SpectralSection(random_unitary(dim, rng)[:, :5], 0.0,
                                  "explicit")
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            x = 0.04 * (x - x.conj().T)
            vals = {difference_element(
                SpectralSection(scipy.linalg.expm(s * x) @ q.basis, 0.0,
                                "explicit"),
                ref).value for s in np.linspace(0, 1, 7)}
            assert len(vals) == 1

        # unitary-conjugation invariance of difference elements
        for seed in range(20):
            rng = rng_for(800 + seed)
            dim = 9
            p = SpectralSection(random_unitary(dim, rng)[:, :4], 0.0,
                                "explicit")
            q = SpectralSection(random_unitary(dim, rng)[:, :6], 0.0,
                                "explicit")
            u = random_unitary(dim, rng)
            a = difference_element(p, q)
            b = difference_element(
                SpectralSection(u @ p.basis, 0.0, "explicit"),
                SpectralSection(u @ q.basis, 0.0, "explicit"))
            assert (a.value, a.kernel_dim, a.cokernel_dim) \
                == (b.value, b.kernel_dim, b.cokernel_dim)

        # section-independence of the loop class for periodic families
        for seed in range(20):
            rng = rng_for(1000 + seed)
            base = BaseGrid.loop(4)
            amp = {v: float(rng.uniform(0.2, 0.4)) for v in base.vertices}

            def pot(v, t):
                return SymbolFunction.constant(
                    amp[v] * np.cos(2 * np.pi * t)
                    + 0.03 * np.sin(base.coordinates(v)[0]))

            cf = CurveOfFamilies.from_potentials(
                base, pot, list(np.linspace(0, 1, 5)), tr)
            values = []
            # cutoffs sit in gaps of the spectrum {k + c(v)}, c in (0.17, 0.43)
            for cutoff in (0.55, 1.45, float(rng.uniform(1.55, 2.1))):
                q = aps_section_family(cf.family_at(0.0), cutoff=cutoff)
                values.append(higher_spectral_flow(cf, q, q).ch0)
            assert values[0] == values[1] == values[2]
