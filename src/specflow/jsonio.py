"""JSON formats for symbols, curves, and families.

Symbols travel either as coefficient tables
``{"modes": [{"k": int, "re": [[...]], "im": [[...]]}], "rank": N}``
or as uniform sample lists ``{"samples": [{"re": .., "im": ..}], "rank": N}``
(scalars allowed at rank 1).  Curves are ``{t, symbol}`` pairs of Hermitian
potentials with the interpolation mode spelled out; families attach one
symbol per base vertex.  Matrices are never serialized except through the
explicit debug helper.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from jsonschema import Draft202012Validator

from .basegrid import BaseGrid
from .config import DEFAULT, Tolerances
from .errors import ConfigError
from .operators import FourierTruncation, SymbolFunction

_MATRIX = {"type": "array",
           "items": {"type": "array", "items": {"type": "number"}}}
_RE_IM = {"oneOf": [{"type": "number"}, _MATRIX]}

SYMBOL_SCHEMA = {
    "type": "object",
    "properties": {
        "rank": {"type": "integer", "minimum": 1},
        "unitary": {"type": "boolean"},
        "modes": {"type": "array",
                  "items": {"type": "object",
                            "properties": {"k": {"type": "integer"},
                                           "re": _RE_IM, "im": _RE_IM},
                            "required": ["k"],
                            "additionalProperties": False}},
        "samples": {"type": "array",
                    "items": {"type": "object",
                              "properties": {"re": _RE_IM, "im": _RE_IM},
                              "additionalProperties": False}},
    },
    "required": ["rank"],
    "additionalProperties": False,
}

CURVE_SCHEMA = {
    "type": "object",
    "properties": {
        "interpolation": {"const": "linear-in-symbol"},
        "samples": {"type": "array", "minItems": 2,
                    "items": {"type": "object",
                              "properties": {"t": {"type": "number"},
                                             "symbol": SYMBOL_SCHEMA},
                              "required": ["t", "symbol"],
                              "additionalProperties": False}},
    },
    "required": ["interpolation", "samples"],
    "additionalProperties": False,
}

FAMILY_SCHEMA = {
    "type": "object",
    "properties": {
        "base": {"type": "string"},
        "builtin": {"type": "string"},
        "m0": {"type": "number"},
        "vertices": {"type": "array",
                     "items": {"type": "object",
                               "properties": {"b": {"type": "array",
                                                    "items": {"type": "integer"}},
                                              "symbol": SYMBOL_SCHEMA},
                               "required": ["b", "symbol"],
                               "additionalProperties": False}},
    },
    "required": ["base"],
    "additionalProperties": False,
}


def validate(payload: dict, schema: dict, what: str):
    errors = sorted(Draft202012Validator(schema).iter_errors(payload),
                    key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"invalid {what}: {first.message} at "
                          f"{first.json_path}")


def _block_to_lists(block: np.ndarray):
    if block.shape == (1, 1):
        return float(block[0, 0].real), float(block[0, 0].imag)
    return ([[float(x) for x in row] for row in block.real],
            [[float(x) for x in row] for row in block.imag])


def _block_from_payload(entry: dict, rank: int) -> np.ndarray:
    re = np.asarray(entry.get("re", 0.0), dtype=float)
    im = np.asarray(entry.get("im", 0.0), dtype=float)
    block = re + 1j * im
    if block.ndim == 0:
        if rank != 1:
            raise ConfigError("scalar coefficients need rank 1")
        block = block.reshape(1, 1)
    if block.shape != (rank, rank):
        raise ConfigError(f"coefficient shape {block.shape} does not match "
                          f"rank {rank}")
    return block


def symbol_to_json(symbol: SymbolFunction) -> dict:
    modes = []
    for k in sorted(symbol.coefficients):
        re, im = _block_to_lists(symbol.coefficients[k])
        modes.append({"k": int(k), "re": re, "im": im})
    return {"rank": symbol.rank, "unitary": bool(symbol.unitary),
            "modes": modes}


def symbol_from_json(payload: dict) -> SymbolFunction:
    validate(payload, SYMBOL_SCHEMA, "symbol")
    rank = payload["rank"]
    unitary = payload.get("unitary", False)
    if ("modes" in payload) == ("samples" in payload):
        raise ConfigError("symbol needs exactly one of 'modes' or 'samples'")
    if "modes" in payload:
        coeffs = {}
        for entry in payload["modes"]:
            coeffs[int(entry["k"])] = coeffs.get(int(entry["k"]), 0) \
                + _block_from_payload(entry, rank)
        return SymbolFunction(coeffs, rank=rank, unitary=unitary)
    samples = np.stack([_block_from_payload(e, rank)
                        for e in payload["samples"]])
    return SymbolFunction.from_samples(samples, unitary=unitary)


def curve_to_json(ts, potentials) -> dict:
    return {"interpolation": "linear-in-symbol",
            "samples": [{"t": float(t), "symbol": symbol_to_json(p)}
                        for t, p in zip(ts, potentials)]}


def curve_from_json(payload: dict, trunc: FourierTruncation,
                    tolerances: Tolerances = DEFAULT):
    from .flow import OperatorCurve
    validate(payload, CURVE_SCHEMA, "curve")
    entries = sorted(payload["samples"], key=lambda e: e["t"])
    ts = [e["t"] for e in entries]
    potentials = [symbol_from_json(e["symbol"]) for e in entries]
    if any(p.rank != trunc.bundle_rank for p in potentials):
        raise ConfigError("curve symbol rank does not match the requested "
                          "bundle rank")
    return OperatorCurve.from_potentials(ts, potentials, trunc, tolerances)


def family_from_json(payload: dict):
    """Returns (base, vertex -> SymbolFunction)."""
    validate(payload, FAMILY_SCHEMA, "family")
    base = BaseGrid.parse(payload["base"])
    if "builtin" in payload:
        from .models import bott_symbol_family
        name = payload["builtin"]
        if name != "bott":
            raise ConfigError(f"unknown builtin family {name!r}")
        if not base.is_torus:
            raise ConfigError("builtin family 'bott' needs a torus base, "
                              f"got {payload['base']!r}")
        return base, bott_symbol_family(base, m0=payload.get("m0", 1.0))
    if "vertices" not in payload:
        raise ConfigError("family needs 'vertices' or 'builtin'")
    fam = {}
    for entry in payload["vertices"]:
        fam[tuple(entry["b"])] = symbol_from_json(entry["symbol"])
    missing = [v for v in base.vertices if v not in fam]
    if missing:
        raise ConfigError(f"family is missing vertices, e.g. {missing[:3]}")
    return base, fam


def family_to_json(base: BaseGrid, fam: dict) -> dict:
    return {"base": f"{base.topology}:{base.size}",
            "vertices": [{"b": list(v), "symbol": symbol_to_json(fam[v])}
                         for v in base.vertices]}


def matrix_to_json_debug(matrix: np.ndarray) -> dict:
    """Row-major complex pair lists; debug only, never part of results."""
    m = np.asarray(matrix, dtype=complex)
    return {"shape": list(m.shape),
            "entries": [[float(x.real), float(x.imag)] for x in m.ravel()]}


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
