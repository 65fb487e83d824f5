"""Jiles-Atherton magnetization curves: models, fitting and simulation.

The names below are the supported API; the submodules are internal.
"""

from .anfit import AnhystereticFitConfig, FitReport, fit_anhysteretic
from .core import (
    KB,
    MU0,
    AnhystereticParams,
    MaterialSpec,
    alpha_from_susceptibilities,
    anhysteretic_explicit,
    anhysteretic_implicit,
    anhysteretic_slope,
    langevin,
    langevin_prime,
    moment_from_susceptibility,
    shape_param_from_moment,
)
from .dataio import (
    CurveKind,
    LoopFeatures,
    MagnetizationCurve,
    Unit,
    extract_features,
    parse_curve,
    split_branches,
)
from .errors import (
    DataError,
    JamagError,
    NonPhysicalParameterWarning,
    ParseError,
    SingularDenominator,
    UnstableParams,
)
from .jiles92 import Jiles92Config, Jiles92Result, estimate
from .simulate import FieldWaveform, HysteresisParams, dM_dH, integrate
from .validation import RowResult, run_grid

__version__ = "0.1.0"

__all__ = [
    "KB",
    "MU0",
    "AnhystereticFitConfig",
    "AnhystereticParams",
    "CurveKind",
    "DataError",
    "FieldWaveform",
    "FitReport",
    "HysteresisParams",
    "JamagError",
    "Jiles92Config",
    "Jiles92Result",
    "LoopFeatures",
    "MagnetizationCurve",
    "MaterialSpec",
    "NonPhysicalParameterWarning",
    "ParseError",
    "RowResult",
    "SingularDenominator",
    "Unit",
    "UnstableParams",
    "alpha_from_susceptibilities",
    "anhysteretic_explicit",
    "anhysteretic_implicit",
    "anhysteretic_slope",
    "dM_dH",
    "estimate",
    "extract_features",
    "fit_anhysteretic",
    "integrate",
    "langevin",
    "langevin_prime",
    "moment_from_susceptibility",
    "parse_curve",
    "run_grid",
    "shape_param_from_moment",
    "split_branches",
]
