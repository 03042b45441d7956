import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specflow
from specflow import (FiniteRankShift, FourierTruncation, OperatorCurve,
                      SymbolFunction, build_dirac, eta_form_degree0, eta_heat,
                      eta_shifted_derivative, sf_via_eta_result,
                      shifted_model_spectrum, shifted_path_profile,
                      spectral_flow)
from specflow.errors import AmbiguousJump, NonconvergentExtrapolation
from specflow.eta import reduced_eta_shifted_model
from conftest import rng_for


class TestShiftedDerivative:
    def test_symmetric_point(self):
        assert abs(eta_shifted_derivative(0.5).eta) < 1e-12

    @pytest.mark.parametrize("a", [0.25, 0.1, 0.9, 0.37])
    def test_closed_form(self, a):
        # Hurwitz oracle: zeta_H(0, q) = 1/2 - q gives eta = 1 - 2a
        v = eta_shifted_derivative(a)
        assert abs(v.eta - (1 - 2 * a)) < 1e-10
        assert v.kernel_dim == 0
        assert v.reduced == pytest.approx(0.5 - a, abs=1e-10)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.1, 1.3])
    def test_domain(self, a):
        with pytest.raises(ValueError):
            eta_shifted_derivative(a)

    def test_reduced_invariant_exact(self):
        v = eta_shifted_derivative(0.3)
        assert v.reduced - v.eta / 2 - v.kernel_dim / 2 == 0.0


class TestHeat:
    @pytest.mark.parametrize("a", [0.25, 0.1, 0.7])
    def test_model_spectrum(self, a):
        v = eta_heat(shifted_model_spectrum(a))
        assert abs(v.eta - (1 - 2 * a)) <= 1e-6
        assert v.method == "heat-extrapolation"

    def test_symmetric_spectrum(self):
        spec = np.concatenate([np.arange(1.0, 1500.0),
                               -np.arange(1.0, 1500.0)])
        assert abs(eta_heat(spec).eta) <= 1e-10

    def test_single_flip_changes_eta_by_two(self):
        spec = shifted_model_spectrum(0.25)
        flipped = spec.copy()
        i = int(np.argmin(np.abs(spec - 3.25)))
        flipped[i] = -spec[i]
        delta = eta_heat(flipped).eta - eta_heat(spec).eta
        assert abs(delta - (-2.0)) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_flip_rule_random(self, seed):
        rng = rng_for(seed + 11)
        spec = shifted_model_spectrum(0.37, window=4000)
        m = int(rng.integers(1, 5))
        positives = np.flatnonzero(spec > 0)
        picks = rng.choice(positives[:40], size=m, replace=False)
        flipped = spec.copy()
        flipped[picks] = -spec[picks]
        delta = eta_heat(flipped).eta - eta_heat(spec).eta
        assert abs(delta - (-2.0 * m)) <= 1e-6

    def test_agreement_with_hurwitz(self):
        for a in np.linspace(0.05, 0.95, 7):
            heat = eta_heat(shifted_model_spectrum(float(a))).eta
            hurwitz = eta_shifted_derivative(float(a)).eta
            assert abs(heat - hurwitz) <= 1e-6

    def test_operator_input_with_declared_tail(self):
        tr = FourierTruncation(400, 1)
        d = build_dirac(SymbolFunction.constant(0.25), tr)
        v = eta_heat(d)
        assert abs(v.eta - 0.5) <= 1e-4

    def test_kernel_counted(self):
        spec = np.concatenate([[0.0], np.arange(1.0, 2000.0),
                               -np.arange(1.0, 2000.0)])
        v = eta_heat(spec)
        assert v.kernel_dim == 1
        assert v.reduced == pytest.approx(0.5, abs=1e-9)

    def test_floor_violation(self):
        spec = shifted_model_spectrum(0.25, window=50)
        bad = [4.0 ** -j for j in range(8)]   # reaches far below the floor
        with pytest.raises(NonconvergentExtrapolation):
            eta_heat(spec, t_grid=bad)

    def test_grid_validation(self):
        spec = shifted_model_spectrum(0.25)
        with pytest.raises(ValueError, match="geometric"):
            eta_heat(spec, t_grid=[1e-2, 1e-3, 1e-4, 2e-5])
        with pytest.raises(ValueError, match="decrease"):
            eta_heat(spec, t_grid=[1e-6, 1e-5, 1e-4, 1e-3])


class TestSfViaEta:
    def test_no_crossing_path(self):
        res = sf_via_eta_result(shifted_path_profile(0.25, 0.75))
        assert res.sf == 0
        assert res.smooth_integral == pytest.approx(-0.5, abs=1e-9)
        assert res.endpoint_difference == pytest.approx(-0.5, abs=1e-9)

    def test_single_crossing_path(self):
        assert sf_via_eta_result(shifted_path_profile(-0.25, 0.25)).sf == 1

    def test_constant_path(self):
        assert sf_via_eta_result(shifted_path_profile(0.3, 0.3)).sf == 0

    def test_multi_crossing(self):
        assert sf_via_eta_result(shifted_path_profile(-2.25, 0.25)).sf == 3
        assert sf_via_eta_result(shifted_path_profile(0.25, -1.75)).sf == -2

    @pytest.mark.parametrize("a0,a1", [(0.25, 0.75), (-0.25, 0.25),
                                       (-1.6, 1.3)])
    def test_matches_spectral_flow(self, a0, a1):
        tr = FourierTruncation(8, 1)
        curve = OperatorCurve.from_potentials(
            [0.0, 1.0], [SymbolFunction.constant(a0),
                         SymbolFunction.constant(a1)], tr)
        assert sf_via_eta_result(shifted_path_profile(a0, a1)).sf \
            == spectral_flow(curve)

    def test_sampling_floor(self):
        with pytest.raises(ValueError, match="64"):
            sf_via_eta_result(shifted_path_profile(0.0, 0.5), samples=16)

    def test_ambiguous_jump(self):
        # a profile with a genuine half-integer discontinuity cannot be
        # read as a crossing count
        profile = lambda s: 0.0 if s < 0.5 else 0.7
        with pytest.raises(AmbiguousJump):
            sf_via_eta_result(profile)


class TestEtaFormDegree0:
    SPEC = shifted_model_spectrum(0.25)

    def test_no_flip_matches_plain_reduced(self):
        plain = eta_heat(self.SPEC)
        e0 = eta_form_degree0(self.SPEC, cutoff=1e-6)
        assert abs(e0.reduced - plain.reduced) <= 1e-9

    def test_two_flips_lower_reduced_by_two(self):
        e0 = eta_form_degree0(self.SPEC, cutoff=1e-6)
        e2 = eta_form_degree0(self.SPEC, cutoff=1.75)
        assert e0.reduced - e2.reduced == pytest.approx(2.0, abs=1e-9)

    def test_independent_of_shift_targets(self):
        a = eta_form_degree0(self.SPEC, cutoff=1.75,
                             shift=FiniteRankShift(1.75, (-3.0, -4.5)))
        b = eta_form_degree0(self.SPEC, cutoff=1.75,
                             shift=FiniteRankShift(1.75, (-0.9, -11.0)))
        assert abs(a.reduced - b.reduced) <= 1e-9

    def test_section_difference_identity(self):
        # rank of the section comparison equals the eta-form difference
        from specflow import aps_projection, difference_element
        tr = FourierTruncation(16, 1)
        d = build_dirac(SymbolFunction.constant(0.25), tr)
        for m in (1, 2, 5):
            cutoff = m - 0.5
            p0 = aps_projection(d, 0.0, policy="inclusive")
            pc = aps_projection(d, cutoff)
            rank_side = difference_element(p0, pc).value
            eta_side = eta_form_degree0(self.SPEC, 1e-6).reduced \
                - eta_form_degree0(self.SPEC, cutoff).reduced
            assert rank_side == m
            assert eta_side == pytest.approx(m, abs=1e-8)

    def test_shift_validation(self):
        with pytest.raises(ValueError, match="negative"):
            FiniteRankShift(1.0, (-1.0, 0.0))
        with pytest.raises(ValueError, match="targets"):
            eta_form_degree0(self.SPEC, cutoff=1.75,
                             shift=FiniteRankShift(1.75, (-2.0,)))
        with pytest.raises(ValueError, match="different cutoff"):
            eta_form_degree0(self.SPEC, cutoff=1.75,
                             shift=FiniteRankShift(0.75, (-2.0,)))


class TestReducedShiftedModel:
    def test_matches_branch_closed_form(self):
        assert reduced_eta_shifted_model(0.3) == pytest.approx(0.2, abs=1e-10)
        assert reduced_eta_shifted_model(-0.7) == pytest.approx(0.2, abs=1e-10)

    def test_integer_point(self):
        assert reduced_eta_shifted_model(0.0) == 0.5
        assert reduced_eta_shifted_model(3.0) == 0.5


def _fresh(code: str):
    """The JSON value that ``code``, run in a fresh interpreter on this
    package, prints on its last line."""
    env = dict(os.environ, PYTHONPATH=str(Path(specflow.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_eta_dependency():
    # mpmath and scipy.special are loaded by the eta functions that use
    # them, so importing the package, in a fresh interpreter, loads neither
    code = ("import json, sys, specflow; print(json.dumps([m for m in "
            "('mpmath', 'scipy.special') if m in sys.modules]))")
    assert _fresh(code) == []


#: The family path: a plaquette Chern number, then a Toeplitz family class
#: and a higher spectral flow on the 8x8 Bott family.
FAMILY_PATH = """
import json, sys
from specflow import (BaseGrid, CurveOfFamilies, FourierTruncation,
                      aps_section_family, chern_number,
                      gauge_transformed_potential, higher_spectral_flow,
                      toeplitz_family_index)
from specflow.models import bott_symbol_family, qwz_projector_family

base = BaseGrid.torus(8)
chern = chern_number(qwz_projector_family(base))
fam = bott_symbol_family(base)
tr = FourierTruncation(4, 2)
cls = toeplitz_family_index(fam, base, tr)
pots = {v: gauge_transformed_potential(fam[v]) for v in base.vertices}
curve = CurveOfFamilies.from_potentials(
    base, lambda v, t: pots[v].scale(t), [0.0, 0.5, 1.0], tr)
hsf = higher_spectral_flow(curve, aps_section_family(curve.family_at(0.0)),
                           aps_section_family(curve.family_at(1.0)))
print(json.dumps(dict(
    integers=[chern, cls.ch0, cls.ch1, hsf.ch0, hsf.ch1],
    equivalent=hsf.equivalent(cls),
    scipy=sorted(m for m in sys.modules if m.startswith("scipy")))))
"""

#: Set-up and call of a Toeplitz index whose compressions at K = 80 and at
#: 2K take the band route of ``null_splits``, and of a flux-1 mapping torus.
SPARSE_PATHS = {
    "band_route": ("""
import numpy as np
from specflow import (FourierTruncation, SymbolFunction, fredholm_index,
                      hardy_section, toeplitz_compress)
c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
u = np.array([[c, -s], [s, c]])
v = np.diag([1.0, 1j]) @ u
# u diag(e^{ix}, 1) v: winding 1, half-bandwidths 3 and 1
g = SymbolFunction({1: u @ np.diag([1.0, 0.0]) @ v,
                    0: u @ np.diag([0.0, 1.0]) @ v}, rank=2, unitary=True)
tr = FourierTruncation(80, 2)
t = toeplitz_compress(hardy_section(tr), g, tr)
""", "fredholm_index(t)"),
    "mapping_torus": ("""
from specflow import (FourierTruncation, OperatorCurve, SymbolFunction,
                      TwistedLoopSpec, build_mapping_torus,
                      mapping_torus_index)
from specflow.models import constant_shift_potential
curve = OperatorCurve.from_potentials(
    [0.0, 1.0], [constant_shift_potential(0.0),
                 constant_shift_potential(-1.0)], FourierTruncation(16, 1))
spec = TwistedLoopSpec(curve, SymbolFunction.exponential(1))
""", "mapping_torus_index(build_mapping_torus(spec, 16))"),
}


def test_family_path_loads_no_scipy():
    # scipy is loaded by the kernels that call it (band LAPACK, sparse LU,
    # Householder QR), none of which a Chern number or a family class
    # reaches
    done = _fresh(FAMILY_PATH)
    assert done["integers"] == [1, -1, -1, -1, -1]
    assert done["equivalent"]
    assert done["scipy"] == []


@pytest.mark.parametrize("path", sorted(SPARSE_PATHS))
def test_sparse_paths_load_scipy_when_they_solve(path):
    setup, call = SPARSE_PATHS[path]
    code = ("import json, sys\n" + setup
            + "before = 'scipy.sparse.linalg' in sys.modules\n"
            + f"value = {call}\n"
            + "print(json.dumps([before, value, "
              "'scipy.sparse.linalg' in sys.modules]))")
    assert _fresh(code) == [False, -1, True]
