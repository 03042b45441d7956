import numpy as np
import pytest

from specflow import BaseGrid, FourierTruncation, SymbolFunction
from specflow.errors import ConfigError
from specflow.jsonio import (canonical_json, config_hash, curve_from_json,
                             curve_to_json, family_from_json, family_to_json,
                             matrix_to_json_debug, symbol_from_json,
                             symbol_to_json)
from specflow.models import bott_symbol
from conftest import derivative_matrix, random_hermitian_symbol


class TestSymbolRoundTrip:
    def test_scalar_modes(self):
        s = SymbolFunction({2: np.array([[0.5 + 0.25j]]),
                            -2: np.array([[0.5 - 0.25j]])}, rank=1)
        back = symbol_from_json(symbol_to_json(s))
        assert back.coefficients.keys() == s.coefficients.keys()
        for k in s.coefficients:
            assert np.allclose(back.coefficients[k], s.coefficients[k])

    def test_matrix_modes(self, rng):
        s = random_hermitian_symbol(2, 2, rng)
        back = symbol_from_json(symbol_to_json(s))
        for k in s.coefficients:
            assert np.allclose(back.coefficients[k], s.coefficients[k])

    def test_samples_form(self):
        xs = 2 * np.pi * np.arange(64) / 64
        payload = {"rank": 1,
                   "samples": [{"re": float(np.cos(x)), "im": float(np.sin(x))}
                               for x in xs]}
        s = symbol_from_json(payload)
        assert abs(s.coefficients[1][0, 0] - 1.0) < 1e-12

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="invalid symbol"):
            symbol_from_json({"rank": 1, "modes": [], "extra": 1})

    def test_needs_exactly_one_form(self):
        with pytest.raises(ConfigError, match="exactly one"):
            symbol_from_json({"rank": 1})

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match="rank"):
            symbol_from_json({"rank": 2, "modes": [{"k": 0, "re": 1.0}]})


class TestCurveRoundTrip:
    def test_round_trip(self):
        pots = [SymbolFunction.constant(-0.25), SymbolFunction.constant(0.25)]
        payload = curve_to_json([0.0, 1.0], pots)
        trunc = FourierTruncation(4, 1)
        curve = curve_from_json(payload, trunc)
        # the midpoint of the shift path -0.25 -> 0.25 is -i d/dx itself
        assert np.abs(curve.at(0.5).matrix
                      - derivative_matrix(trunc)).max() < 1e-12
        assert np.allclose(curve.potentials[-1].evaluate([0.0]), 0.25)

    def test_interpolation_required(self):
        with pytest.raises(ConfigError):
            curve_from_json({"samples": []}, FourierTruncation(2, 1))


class TestFamilyRoundTrip:
    def test_explicit_vertices(self):
        base = BaseGrid.torus(8)
        fam = {v: bott_symbol(*base.coordinates(v)) for v in base.vertices}
        base2, fam2 = family_from_json(family_to_json(base, fam))
        assert base2 == base
        v = (3, 5)
        for k in fam[v].coefficients:
            assert np.allclose(fam2[v].coefficients[k],
                               fam[v].coefficients[k])

    def test_builtin(self):
        base, fam = family_from_json({"base": "torus:8", "builtin": "bott"})
        assert base == BaseGrid.torus(8)
        assert len(fam) == 64

    def test_missing_vertices(self):
        with pytest.raises(ConfigError, match="missing"):
            family_from_json({"base": "torus:8", "vertices": []})

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            family_from_json({"base": "torus:8", "builtin": "nope"})

    def test_builtin_bott_needs_torus(self):
        with pytest.raises(ConfigError, match="needs a torus base"):
            family_from_json({"base": "loop:8", "builtin": "bott"})


class TestHashing:
    def test_canonical_order_independent(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        assert config_hash({"b": 1, "a": [1, 2]}) == config_hash({"a": [1, 2], "b": 1})

    def test_matrix_debug_serializer(self):
        out = matrix_to_json_debug(np.array([[1 + 2j]]))
        assert out == {"shape": [1, 1], "entries": [[1.0, 2.0]]}
