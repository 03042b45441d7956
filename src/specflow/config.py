"""Centralized numerical tolerances.

Every operation in the package reads its thresholds from a single
``Tolerances`` record so that the contracts stay consistent across modules.
The defaults below are the contract values; override by passing a modified
record into the operation that needs it.  No operation takes a threshold
or a guard switch of its own.

No field groups eigenvalues into degenerate clusters: ``operators.eigh``
returns the eigenbasis its solver gives, and every consumer reads the
span of a cluster (a section, a rank, a projector), never a frame of it.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # matrix-level invariants
    hermitian_max: float = 1e-12        # ||M - M*||_max <= tol * (1 + ||M||_max)
    unitary: float = 1e-10              # ||U U* - I||_2
    potential_hermitian: float = 1e-10  # max_k ||c_{-k} - c_k*|| of a Dirac potential

    # projectors and spectral sections
    projector_idempotent: float = 1e-9  # ||P^2 - P||, or ||B* B - I|| of a frame
    projector_hermitian: float = 1e-10  # ||P - P*|| of a projector input
    section_condition: float = 1e-8     # eigenvector test above/below the window
    cutoff_atol: float = 1e-9           # eigenvalue-at-cutoff detection

    # rank / SVD decisions
    rank_rtol: float = 1e-8             # default relative singular-value cutoff
    svd_gap_factor: float = 100.0       # required ratio across the zero/nonzero split
    localization_mass: float = 0.5      # interior-mass threshold for genuine vectors

    # spectral-flow partition machinery
    min_interval_width: float = 1e-6
    max_partitions: int = 10000
    lipschitz_safety: float = 1.5

    # winding / Chern integrals
    winding_grid: int = 512
    winding_ambiguity: float = 0.1      # |raw - nearest integer| beyond this is an error
    chern_integer_guard: float = 0.1    # plaquette/cochain totals must be this close to Z

    # eta regularization
    eta_kernel_atol: float = 1e-9
    eta_extrapolation_rtol: float = 1e-8
    jump_threshold: float = 0.5
    jump_ambiguity: float = 0.2

    # projector families on base grids
    neighbor_continuity: float = 0.5
    overlap_min_det: float = 1e-6

    # mapping torus: the threshold must clear the O(h^2) stencil residual
    # of genuine null states while staying far below the first spectral gap
    mapping_torus_rank_rtol: float = 1e-4

    def __post_init__(self):
        for rtol in (self.rank_rtol, self.mapping_torus_rank_rtol):
            if not 0.0 < rtol < 1.0:
                raise ValueError(
                    f"rank tolerance must lie in (0, 1), got {rtol}")

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT = Tolerances()
