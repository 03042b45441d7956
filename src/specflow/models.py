"""Reference families used across tests, the CLI builtins, and calibration.

The two-band wrap ``qwz_projector`` is the standard degree-one map from
the two-torus to projectors in C^2; it fixes every orientation convention
in the package (its Chern number is +1 by definition of the plaquette
circulation).  The rank-one twist family ``bott_symbol`` couples that wrap
to a unit winding on the circle fiber and is the reference example with
nonzero first Chern number of the Toeplitz index bundle.
"""

from __future__ import annotations

import numpy as np

from .basegrid import BaseGrid
from .bundles import ProjectorFamily
from .config import DEFAULT, Tolerances
from .operators import SymbolFunction

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def qwz_hamiltonian_vector(b1: float, b2: float, m0: float = 1.0) -> np.ndarray:
    v = np.array([np.sin(b1), np.sin(b2), m0 - np.cos(b1) - np.cos(b2)])
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError(f"degenerate wrap at ({b1}, {b2}); choose m0 away "
                         "from 0 and +-2")
    return v / norm


def qwz_projector(b1: float, b2: float, m0: float = 1.0) -> np.ndarray:
    """(1 + n . sigma)/2 for the normalized wrap vector n(b1, b2)."""
    n = qwz_hamiltonian_vector(b1, b2, m0)
    return 0.5 * (np.eye(2) + n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)


def qwz_projector_family(base: BaseGrid, m0: float = 1.0,
                         tolerances: Tolerances = DEFAULT) -> ProjectorFamily:
    return ProjectorFamily.from_projectors(
        base, {v: qwz_projector(*base.coordinates(v), m0)
               for v in base.vertices}, tolerances)


def bott_symbol(b1: float, b2: float, m0: float = 1.0) -> SymbolFunction:
    """g(b, x) = e^{ix} q(b) + (1 - q(b)): unit fiber winding on the wrap
    line, constant elsewhere."""
    q = qwz_projector(b1, b2, m0)
    return SymbolFunction({0: np.eye(2) - q, 1: q}, rank=2, unitary=True)


def bott_symbol_family(base: BaseGrid, m0: float = 1.0) -> dict:
    return {v: bott_symbol(*base.coordinates(v), m0=m0)
            for v in base.vertices}


def constant_shift_potential(a: float) -> SymbolFunction:
    """The scalar potential V = a, spectrum {k + a} after quantization."""
    return SymbolFunction.constant(np.array([[a]], dtype=complex))
