"""Eta invariants of Dirac-type spectra and their variation.

A truncated matrix has a finite spectrum, and its raw sign-sum is not the
regularized eta of the underlying operator on the circle.  Eta is therefore
computed only in two honest regimes:

* exact model spectra {k + a : k in Z} through the Hurwitz-zeta
  continuation of the spectral asymmetry, and
* explicit spectra (from a truncated operator or a model window) paired
  with a declared tail: beyond the supplied window the spectrum is the free
  Dirac tail {+-k}, whose contribution cancels by symmetry.  The heat path
  then evaluates eta(t) = sum sign(lambda) erfc(|lambda| sqrt(t)), the
  exact time-integral of the heat regularizer from t upward, and
  extrapolates t -> 0 with a convergence guard.

Mod-Z structure: the reduced eta (eta + dim ker)/2 is smooth away from
eigenvalue crossings and jumps by integers at them; crossing counts are
read off those jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import mpmath
import numpy as np
from scipy.special import erfc

from .config import DEFAULT, Tolerances
from .errors import AmbiguousJump, NonconvergentExtrapolation
from .operators import TruncatedOperator, eigvalsh


@dataclass(frozen=True)
class EtaValue:
    """Regularized spectral asymmetry with its kernel bookkeeping."""

    eta: float
    kernel_dim: int
    method: str
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def reduced(self) -> float:
        return 0.5 * (self.eta + self.kernel_dim)


def eta_shifted_derivative(a: float) -> EtaValue:
    """Eta of -i d/dx + a, spectrum {k + a}, for a strictly inside (0, 1).

    The asymmetry continues to eta(0) = zeta_H(0, a) - zeta_H(0, 1 - a);
    the closed form is 1 - 2a.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"shift must lie strictly in (0, 1), got {a}; "
                         "at the endpoints a kernel appears")
    eta = float(mpmath.zeta(0, a) - mpmath.zeta(0, 1.0 - a))
    return EtaValue(eta=eta, kernel_dim=0, method="hurwitz",
                    meta={"shift": a})


def reduced_eta_shifted_model(a: float,
                              tolerances: Tolerances = DEFAULT) -> float:
    """Reduced eta of the spectrum {k + a} for any real a.

    Away from integers this is 1/2 - frac(a); at an integer the kernel is
    one-dimensional and the symmetric remainder gives 1/2.
    """
    frac = a - math.floor(a)
    if min(frac, 1.0 - frac) <= tolerances.eta_kernel_atol:
        return 0.5
    return eta_shifted_derivative(frac).reduced


def shifted_model_spectrum(a: float, window: int = 10000) -> np.ndarray:
    """Explicit spectrum {k + a : |k| <= window}."""
    return np.arange(-window, window + 1, dtype=float) + a


def _spectrum_of(spectrum_or_operator) -> np.ndarray:
    if isinstance(spectrum_or_operator, TruncatedOperator):
        return eigvalsh(spectrum_or_operator)
    return np.asarray(spectrum_or_operator, dtype=float).ravel()


def eta_heat(spectrum_or_operator, t_grid: Sequence[float] | None = None,
             tolerances: Tolerances = DEFAULT) -> EtaValue:
    """Heat-regularized eta with small-time Richardson extrapolation.

    The exact time-integral from t upward gives
    eta(t) = sum sign(lambda) erfc(|lambda| sqrt(t)); in the window-safe
    regime (sqrt(t) above 6 / |lambda|_max, so the truncation edge is
    invisible) this is an odd analytic series in sqrt(t) around the
    regularized value.  A geometric ladder in sqrt(t) eliminates the
    first four odd-order terms and the residual must stabilize;
    the default grid keeps the coarse end close to the floor so that even
    eigenvalues flipped far from zero stay inside the series' useful
    range.

    Beyond the supplied window the spectrum is taken to be the symmetric
    free-Dirac tail, whose net contribution is zero.  Matches the Hurwitz
    path to within 1e-6 on model spectra.
    """
    spec = _spectrum_of(spectrum_or_operator)
    if spec.size == 0:
        raise ValueError("empty spectrum")
    kernel = int(np.count_nonzero(np.abs(spec) <= tolerances.eta_kernel_atol))
    nonzero = spec[np.abs(spec) > tolerances.eta_kernel_atol]
    lam_max = float(np.abs(spec).max())
    t_floor = (6.0 / lam_max) ** 2
    if t_grid is None:
        levels = 7
        t_grid = [t_floor * 2.0 ** j for j in range(levels - 1, -1, -1)]
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size < 4:
        raise ValueError("the extrapolation ladder needs at least 4 t values")
    if np.any(np.diff(ts) >= 0):
        raise ValueError("t_grid must decrease toward zero")
    ratios = ts[:-1] / ts[1:]
    if np.abs(ratios - ratios[0]).max() > 1e-9 * ratios[0]:
        raise ValueError("t_grid must be geometric for the odd-power ladder")
    if ts[-1] < t_floor * (1 - 1e-12):
        raise NonconvergentExtrapolation(
            f"t = {ts[-1]:.3e} is below the window floor {t_floor:.3e}; the "
            f"supplied spectrum (|lambda| <= {lam_max:.3g}) cannot resolve it")
    eps_ratio = float(np.sqrt(ratios[0]))

    def eta_at(t: float) -> float:
        return float(np.sum(np.sign(nonzero) * erfc(np.abs(nonzero) * np.sqrt(t))))

    column = [eta_at(t) for t in ts]   # coarse (large t) first
    table = [list(column)]
    for power in (1, 3, 5, 7):
        if len(table[-1]) < 2:
            break
        prev = table[-1]
        factor = eps_ratio ** power
        table.append([(factor * prev[j + 1] - prev[j]) / (factor - 1.0)
                      for j in range(len(prev) - 1)])
    best = table[-1][-1]
    err = abs(table[-1][-1] - table[-1][-2]) if len(table[-1]) >= 2 \
        else abs(table[-1][-1] - table[-2][-1])
    scale = 1.0 + abs(best)
    if err > tolerances.eta_extrapolation_rtol * scale:
        raise NonconvergentExtrapolation(
            f"heat extrapolation did not stabilize: ladder residual "
            f"{err:.3e} exceeds {tolerances.eta_extrapolation_rtol:g}")
    return EtaValue(eta=float(best), kernel_dim=kernel,
                    method="heat-extrapolation",
                    meta={"t_grid": ts.tolist(), "ladder_residual": float(err),
                          "window_max": lam_max, "tail": "symmetric"})


# ---------------------------------------------------------------------------
# spectral flow from the variation of reduced eta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaFlowResult:
    sf: int
    smooth_integral: float
    endpoint_difference: float


def sf_via_eta_result(profile, samples: int = 128,
                      tolerances: Tolerances = DEFAULT) -> EtaFlowResult:
    """Crossing count from a sampled reduced-eta profile on [0, 1].

    The profile is smooth mod Z; differences beyond the jump threshold are
    rounded to integers (AmbiguousJump if they are not near one), and the
    flow is minus the integral of the smooth variation plus the endpoint
    difference, i.e. the sum of the integer jumps.
    """
    if callable(profile):
        if samples < 64:
            raise ValueError("need at least 64 samples to isolate jumps")
        ss = np.linspace(0.0, 1.0, samples)
        vals = np.array([float(profile(s)) for s in ss])
    else:
        vals = np.asarray(profile, dtype=float).ravel()
        if vals.size < 64:
            raise ValueError("need at least 64 samples to isolate jumps")
    diffs = np.diff(vals)
    jumps = np.abs(diffs) > tolerances.jump_threshold
    smooth = 0.0
    total_jump = 0
    for d, is_jump in zip(diffs, jumps):
        if not is_jump:
            smooth += d
            continue
        nearest = int(np.round(d))
        if abs(d - nearest) > tolerances.jump_ambiguity:
            raise AmbiguousJump(
                f"discontinuity {d:.4f} is {abs(d - nearest):.3f} away from "
                f"an integer")
        total_jump += nearest
        smooth += d - nearest
    endpoint = float(vals[-1] - vals[0])
    return EtaFlowResult(sf=int(total_jump), smooth_integral=float(smooth),
                         endpoint_difference=endpoint)


def shifted_path_profile(a0: float, a1: float) -> Callable[[float], float]:
    """Reduced-eta profile of the path a(s) = (1-s) a0 + s a1 in the
    shifted model."""
    return lambda s: reduced_eta_shifted_model((1 - s) * a0 + s * a1)


# ---------------------------------------------------------------------------
# degree-0 eta form of a threshold section
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteRankShift:
    """Finite-rank Hermitian perturbation specified spectrally: move the
    eigenvalues inside [0, cutoff) to the given negative targets, making
    the operator invertible with the cutoff section as its positive
    projector."""

    cutoff: float
    targets: tuple[float, ...]

    def __post_init__(self):
        for t in self.targets:
            if t >= -1e-9:
                raise ValueError(f"shift target {t} must be strictly "
                                 "negative: it may not leave an eigenvalue "
                                 "at zero")


def eta_form_degree0(spectrum_or_operator, cutoff: float,
                     shift: FiniteRankShift | None = None,
                     tolerances: Tolerances = DEFAULT) -> EtaValue:
    """Scalar part of the eta form attached to the cutoff section: the
    reduced eta of the operator perturbed so that its positive projector
    is exactly the cutoff section.

    The perturbation flips the eigenvalues in [0, cutoff) below zero; the
    result does not depend on the chosen targets because each flip changes
    eta by exactly -2 in the regularized limit.
    """
    spec = _spectrum_of(spectrum_or_operator)
    flip = (spec >= -tolerances.eta_kernel_atol) & (spec < cutoff)
    n_flip = int(np.count_nonzero(flip))
    if shift is None:
        shift = FiniteRankShift(cutoff, tuple(-(cutoff + 1.0 + 0.25 * i)
                                              for i in range(n_flip)))
    if abs(shift.cutoff - cutoff) > 1e-12:
        raise ValueError("shift was specified for a different cutoff")
    if len(shift.targets) != n_flip:
        raise ValueError(f"shift provides {len(shift.targets)} targets but "
                         f"{n_flip} eigenvalues lie in [0, {cutoff:g})")
    perturbed = spec.copy()
    perturbed[np.flatnonzero(flip)] = shift.targets
    if np.any(np.abs(perturbed) <= tolerances.eta_kernel_atol):
        raise ValueError("perturbed operator has an eigenvalue at zero")
    value = eta_heat(perturbed, tolerances=tolerances)
    meta = dict(value.meta, cutoff=cutoff, flips=n_flip)
    return EtaValue(eta=value.eta, kernel_dim=value.kernel_dim,
                    method=value.method, meta=meta)
