"""Flexural-wave cavity scattering: direct solver and sampling-method imaging.

Forward problem: a Nystrom boundary-integral solver for time-harmonic
flexural (thin-plate) scattering from a clamped cavity, split into coupled
Helmholtz and modified-Helmholtz parts, with synthetic far-field data
generation on equiangular direction grids.

Inverse problem: the linear sampling method (full-aperture shape
reconstruction) and the extended sampling method (location/size from one
or a few incident directions, including multilevel, multi-direction and
multi-frequency variants).
"""

from .exceptions import (
    BhsError,
    ConfigError,
    DataError,
    FormatError,
    GeometryError,
    IllConditionedSystemError,
    NearBoundaryError,
    OracleError,
)
from .geometry import BoundaryDiscretization, ParametricCurve, discretize, make_named_curve
from .grids import IndicatorMap, SamplingGrid, equiangular_angles, equiangular_directions
from .disk import analytic_disk_far_field, disk_far_field
from .forward import (
    ClampedSolver,
    add_noise,
    assemble_system,
    evaluate_scattered,
    far_field,
    far_field_columns,
    far_field_matrix,
    plane_wave_data,
    reciprocity_residual,
)
from .linalg import TikhonovFactorization
from .lsm import classify, lsm_indicator, phi_infinity_rhs
from .esm import (
    LocalizationResult,
    build_disk_kernel,
    esm_indicator,
    multilevel_esm,
    translated_kernel,
)
from .scenario import Scenario, load_scenario, parse_scenario, run

__version__ = "0.1.0"
