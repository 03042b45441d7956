"""Numerical spectral flow, Toeplitz indices, eta invariants, and index
bundles for Fourier-truncated Dirac-type operators on the circle."""

__version__ = "0.1.0"

from .basegrid import BaseGrid
from .bundles import (CurveOfFamilies, KClassNumeric, OperatorFamily,
                      ProjectorFamily, aps_section_family, chern_number,
                      higher_spectral_flow, kernel_bundle,
                      toeplitz_family_index)
from .config import DEFAULT, Tolerances
from .eta import (EtaValue, FiniteRankShift, eta_form_degree0, eta_heat,
                  eta_shifted_derivative, sf_via_eta_result,
                  shifted_model_spectrum, shifted_path_profile)
from .flow import (DifferenceElement, GapInterval, OperatorCurve, Partition,
                   SpectralSection, aps_projection, difference_element,
                   gap_partition, sf_pairs, spectral_flow,
                   spectral_flow_result, validate_section_for)
from .mapping_torus import (MappingTorusOperator, TwistedLoopSpec,
                            build_mapping_torus)
from .mapping_torus import index as mapping_torus_index
from .operators import (EigenDecomposition, FourierTruncation, SymbolFunction,
                        TruncatedOperator, build_dirac, build_multiplication,
                        eigh, eigvalsh, gauge_transformed_potential)
from .toeplitz import (CH1_NORMALIZATION, OddChernCochain, ToeplitzOperator,
                       WindingData, dirac_aps_section, fredholm_index,
                       hardy_section, odd_chern_integral, toeplitz_compress,
                       winding)

__all__ = [name for name in dir() if not name.startswith("_")]
