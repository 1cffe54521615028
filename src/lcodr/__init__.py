"""Levelised cost of demand response (LCODR) toolkit.

Sizes direct-load-control fleets against storage applications, builds
discounted lifetime cash flows, computes availability-profile value factors
from time series, and propagates input uncertainty by Monte-Carlo — as a
deterministic library plus a batch CLI (``lcodr``).
"""

import os
import sys
# lcodr makes no BLAS call and an idle OpenBLAS worker only spins: load numpy
# with one BLAS thread unless the caller set a thread count or loaded numpy.
if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]  # child processes see the caller's

from .model import (
    ApplicationSpec,
    Assumptions,
    BindingConstraint,
    CostBreakdown,
    EconomicParameters,
    EvParameters,
    HeatParameters,
    LcodrError,
    ParameterSet,
    ParseError,
    SchemeKind,
    SizingResult,
    TimeSeries,
    ValidationError,
    ValueFactorTable,
    default_applications,
    default_parameters,
    load_config,
)
from .sizing import size_pairing
from .costing import PairingEvaluation, evaluate_pairing
from .valuefactor import AvailabilityProfile, value_factor, vf_subsample_mc
from .uncertainty import (
    McConfig,
    McDistribution,
    cheapest_probability,
    perturb_parameters,
    run_monte_carlo,
)
from .data import DataBundle, default_bundle, load_lcos_reference

__version__ = "0.1.0"

__all__ = [
    "ApplicationSpec", "Assumptions", "AvailabilityProfile", "BindingConstraint",
    "CostBreakdown", "DataBundle", "EconomicParameters",
    "EvParameters", "HeatParameters", "LcodrError", "McConfig", "McDistribution",
    "PairingEvaluation", "ParameterSet", "ParseError", "SchemeKind",
    "SizingResult", "TimeSeries", "ValidationError", "ValueFactorTable",
    "__version__", "cheapest_probability",
    "default_applications", "default_bundle", "default_parameters",
    "evaluate_pairing", "load_config",
    "load_lcos_reference", "perturb_parameters", "run_monte_carlo", "size_pairing",
    "value_factor", "vf_subsample_mc",
]
