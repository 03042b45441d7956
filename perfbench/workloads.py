"""The three benchmark workloads.

Each workload has a set-up step that builds its plain inputs (symbols,
potentials, sample grids, the base grid) and a solve step that builds
every program object anew from those inputs, computes the workload's
certified integers and checks each one against a value the benchmark
derives on its own.  The expected values never come from the code paths
they check: they follow from how the inputs are built, or from the
plain-numpy Berry-curvature sum below.

This module imports neither numpy nor specflow at import time, so that
``run.py`` can pin the linear-algebra pools first and time the import of
specflow as part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("family_class", "index_flow", "twisted_loop")

#: Problem sizes.  ``full`` is what the benchmark measures; ``toy`` keeps
#: the same structure at sizes that finish in about a second (self-test).
SIZES = {
    "full": {
        "family_class": {"grid": 12, "k": 8},
        "index_flow": {"k": 128, "k_pairs": 32},
        "twisted_loop": {"m_u": 64, "k": 64},
    },
    "toy": {
        "family_class": {"grid": 8, "k": 4},
        "index_flow": {"k": 16, "k_pairs": 8},
        "twisted_loop": {"m_u": 16, "k": 8},
    },
}

#: Windings (n_1, n_2) of each index_flow symbol U diag(e^{i n_1 x},
#: e^{i n_2 x}) V.  The conjugation path runs through the constant
#: potentials -t U diag(n_1, n_2) U*, so its spectrum {k - t n_j} depends
#: on the windings alone: the seed draws U and V, which move eigenvectors
#: and null vectors but neither the amount of work nor any count.  No n_j
#: is even, so no eigenvalue crosses zero exactly at a dyadic bisection
#: point, where roundoff would decide the partition.
INDEX_FLOW_WINDINGS = ((1, 0), (0, -1))
PATH_SAMPLES = (0.0, 0.5, 1.0)
TWISTED_FLUXES = (1, 2)
COCHAIN_TOLERANCE = 0.02


class Tally:
    """Operations attempted and failed over a run.

    One operation is one certified integer.  A refusal (the library
    raising its typed error) counts as failed; a wrong integer counts as
    failed and is also listed in ``wrong``, which makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.refused: list[str] = []

    def attempt(self, names, compute):
        """Run ``compute``; if the library refuses, count every operation
        in ``names`` as failed and return None."""
        from specflow.errors import SpecflowError
        try:
            return compute()
        except SpecflowError as exc:
            self.attempted += len(names)
            self.failed += len(names)
            self.refused.append(f"{', '.join(names)}: "
                                f"{type(exc).__name__}: {exc}")
            return None

    def check(self, name, got, expected):
        self.attempted += 1
        if got != expected:
            self.failed += 1
            self.wrong.append(f"{name}: got {got!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# independent values
# ---------------------------------------------------------------------------

def _qwz_projectors(b1, b2, m0=1.0):
    """(1 + n . sigma)/2 for the normalized two-band wrap, on arrays of
    angles; shape (..., 2, 2)."""
    import numpy as np
    n = np.stack([np.sin(b1), np.sin(b2), m0 - np.cos(b1) - np.cos(b2)])
    n = n / np.linalg.norm(n, axis=0)
    p = np.empty(np.shape(b1) + (2, 2), dtype=complex)
    p[..., 0, 0] = 0.5 * (1 + n[2])
    p[..., 1, 1] = 0.5 * (1 - n[2])
    p[..., 0, 1] = 0.5 * (n[0] - 1j * n[1])
    p[..., 1, 0] = 0.5 * (n[0] + 1j * n[1])
    return p


def berry_chern(grid: int = 96, m0: float = 1.0) -> float:
    """Riemann sum of the Berry curvature -Tr(P [d1 P, d2 P]) / (2 pi i)
    of the QWZ wrap, with central differences on a periodic grid."""
    import numpy as np
    bs = 2 * np.pi * np.arange(grid) / grid
    h = 2 * np.pi / grid
    p = _qwz_projectors(*np.meshgrid(bs, bs, indexing="ij"), m0=m0)
    d1 = (np.roll(p, -1, axis=0) - np.roll(p, 1, axis=0)) / (2 * h)
    d2 = (np.roll(p, -1, axis=1) - np.roll(p, 1, axis=1)) / (2 * h)
    curv = np.trace(p @ (d1 @ d2 - d2 @ d1), axis1=-2, axis2=-1)
    return float((-curv.sum() * h * h / (2j * np.pi)).real)


def bott_det_winding(grid: int, samples: int = 64) -> set[int]:
    """Windings of det g over the fiber at every base vertex, for
    g = e^{ix} q + (1 - q) built from the benchmark's own wrap."""
    import numpy as np
    bs = 2 * np.pi * np.arange(grid) / grid
    q = _qwz_projectors(*np.meshgrid(bs, bs, indexing="ij"))
    xs = 2 * np.pi * np.arange(samples) / samples
    eye = np.eye(2)
    g = (np.exp(1j * xs)[:, None, None, None, None] * q
         + (eye - q)[None])
    det = np.linalg.det(g)
    turns = np.angle(np.roll(det, -1, axis=0) / det).sum(axis=0) / (2 * np.pi)
    return {int(round(float(w))) for w in turns.ravel()}


# ---------------------------------------------------------------------------
# family_class
# ---------------------------------------------------------------------------

@dataclass
class FamilyInputs:
    base: object
    trunc: object
    symbols: dict
    potentials: dict
    ts: tuple
    expected_index: int = 0
    expected_ch1: int = 0


def setup_family_class(size: dict, seed: int) -> FamilyInputs:
    from specflow import BaseGrid, FourierTruncation, gauge_transformed_potential
    from specflow.models import bott_symbol_family
    base = BaseGrid.torus(size["grid"])
    symbols = bott_symbol_family(base)
    potentials = {v: gauge_transformed_potential(symbols[v])
                  for v in base.vertices}
    return FamilyInputs(base, FourierTruncation(size["k"], 2), symbols,
                        potentials, PATH_SAMPLES)


def expect_family_class(inp: FamilyInputs):
    chern = berry_chern()
    if abs(chern - 1.0) > 0.05:
        raise RuntimeError(f"Berry-curvature sum of the QWZ wrap is {chern}, "
                           f"not +1")
    windings = bott_det_winding(inp.base.size)
    if len(windings) != 1:
        raise RuntimeError(f"det of the Bott symbol winds {windings} over "
                           f"the base, not one constant")
    # Toeplitz index sign: index(T_g) = -winding(det g)
    inp.expected_index = -windings.pop()
    inp.expected_ch1 = -round(chern)


def solve_family_class(inp: FamilyInputs, tally: Tally):
    from specflow import (CurveOfFamilies, aps_section_family,
                          higher_spectral_flow, odd_chern_integral,
                          toeplitz_family_index)
    cls = tally.attempt(
        ("toeplitz_family_index.ch0", "toeplitz_family_index.ch1"),
        lambda: toeplitz_family_index(inp.symbols, inp.base, inp.trunc))
    if cls is not None:
        tally.check("toeplitz_family_index.ch0", cls.ch0, inp.expected_index)
        tally.check("toeplitz_family_index.ch1", cls.ch1, inp.expected_ch1)

    cochain = tally.attempt(
        ("odd_chern_integral",),
        lambda: odd_chern_integral(inp.symbols, inp.base, n=1))
    if cochain is not None:
        tally.check("odd_chern_integral",
                    abs(cochain.total - inp.expected_ch1) <= COCHAIN_TOLERANCE,
                    True)

    def transported_class():
        pots = inp.potentials
        curve = CurveOfFamilies.from_potentials(
            inp.base, lambda v, t: pots[v].scale(t), list(inp.ts), inp.trunc)
        q0 = aps_section_family(curve.family_at(0.0))
        q1 = aps_section_family(curve.family_at(1.0))
        return higher_spectral_flow(curve, q0, q1)

    hsf = tally.attempt(
        ("higher_spectral_flow.ch0", "higher_spectral_flow.ch1"),
        transported_class)
    if hsf is not None:
        tally.check("higher_spectral_flow.ch0", hsf.ch0, inp.expected_index)
        equivalent = cls is not None and hsf.equivalent(cls)
        tally.check("higher_spectral_flow.ch1", (hsf.ch1, equivalent),
                    (inp.expected_ch1, True))


# ---------------------------------------------------------------------------
# index_flow
# ---------------------------------------------------------------------------

@dataclass
class FlowSymbol:
    symbol: object
    winding: int
    path: list          # potentials of the conjugation path at PATH_SAMPLES


@dataclass
class FlowInputs:
    trunc: object
    trunc_pairs: object
    symbols: list = field(default_factory=list)


def _haar_unitary(rng):
    import numpy as np
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def index_flow_symbol(rng, windings):
    """U diag(e^{i n_1 x}, e^{i n_2 x}) V with Haar-random U, V; returns
    the symbol and its winding n_1 + n_2."""
    import numpy as np
    from specflow import SymbolFunction
    u, v = _haar_unitary(rng), _haar_unitary(rng)
    coefficients = {}
    for j, n in enumerate(windings):
        e = np.zeros((2, 2), dtype=complex)
        e[j, j] = 1.0
        coefficients[n] = coefficients.get(n, 0) + u @ e @ v
    return (SymbolFunction(coefficients, rank=2, unitary=True),
            int(sum(windings)))


def setup_index_flow(size: dict, seed: int) -> FlowInputs:
    import numpy as np
    from specflow import FourierTruncation, gauge_transformed_potential
    rng = np.random.default_rng(seed)
    inp = FlowInputs(FourierTruncation(size["k"], 2),
                     FourierTruncation(size["k_pairs"], 2))
    for windings in INDEX_FLOW_WINDINGS:
        symbol, w = index_flow_symbol(rng, windings)
        end = gauge_transformed_potential(symbol)
        inp.symbols.append(FlowSymbol(symbol, w,
                                      [end.scale(t) for t in PATH_SAMPLES]))
    return inp


def solve_index_flow(inp: FlowInputs, tally: Tally):
    from specflow import (OperatorCurve, aps_projection, fredholm_index,
                          hardy_section, sf_pairs, spectral_flow,
                          toeplitz_compress)
    for j, s in enumerate(inp.symbols):
        expected = -s.winding
        tr, trp = inp.trunc, inp.trunc_pairs
        idx = tally.attempt(
            (f"fredholm_index[{j}]",),
            lambda: fredholm_index(toeplitz_compress(hardy_section(tr),
                                                     s.symbol, tr)))
        if idx is not None:
            tally.check(f"fredholm_index[{j}]", idx, expected)
        sf = tally.attempt(
            (f"spectral_flow[{j}]",),
            lambda: spectral_flow(OperatorCurve.from_potentials(
                list(PATH_SAMPLES), s.path, tr)))
        if sf is not None:
            tally.check(f"spectral_flow[{j}]", sf, expected)

        def pairs():
            curve = OperatorCurve.from_potentials(list(PATH_SAMPLES), s.path,
                                                  trp)
            q0 = aps_projection(curve.at(0.0), 0.0, policy="inclusive")
            q1 = aps_projection(curve.at(1.0), 0.0, policy="inclusive")
            return sf_pairs(curve, q0, q1)

        sp = tally.attempt((f"sf_pairs[{j}]",), pairs)
        if sp is not None:
            tally.check(f"sf_pairs[{j}]", sp, expected)


# ---------------------------------------------------------------------------
# twisted_loop
# ---------------------------------------------------------------------------

@dataclass
class LoopInputs:
    trunc: object
    m_u: int
    loops: list          # (flux, path potentials, gluing symbol)


def setup_twisted_loop(size: dict, seed: int) -> LoopInputs:
    from specflow import FourierTruncation, SymbolFunction
    from specflow.models import constant_shift_potential
    loops = [(flux, [constant_shift_potential(0.0),
                     constant_shift_potential(-float(flux))],
              SymbolFunction.exponential(flux))
             for flux in TWISTED_FLUXES]
    return LoopInputs(FourierTruncation(size["k"], 1), size["m_u"], loops)


def solve_twisted_loop(inp: LoopInputs, tally: Tally):
    from specflow import (OperatorCurve, TwistedLoopSpec, build_mapping_torus,
                          mapping_torus_index, spectral_flow)
    for flux, path, glue in inp.loops:
        curve = OperatorCurve.from_potentials([0.0, 1.0], path, inp.trunc)
        idx = tally.attempt(
            (f"mapping_torus_index[{flux}]",),
            lambda: mapping_torus_index(build_mapping_torus(
                TwistedLoopSpec(curve, glue), inp.m_u)))
        if idx is not None:
            tally.check(f"mapping_torus_index[{flux}]", idx, -flux)
        sf = tally.attempt((f"spectral_flow[{flux}]",),
                           lambda: spectral_flow(curve))
        if sf is not None:
            tally.check(f"spectral_flow[{flux}]", sf, -flux)


SETUP = {"family_class": setup_family_class,
         "index_flow": setup_index_flow,
         "twisted_loop": setup_twisted_loop}
EXPECT = {"family_class": expect_family_class}
SOLVE = {"family_class": solve_family_class,
         "index_flow": solve_index_flow,
         "twisted_loop": solve_twisted_loop}
