"""Exact-arithmetic curvature engine for homogeneous frame geometries, dims 1-4.

Builds Levi-Civita and semi-symmetric non-metric connections from constant
structure data, computes the full curvature apparatus, machine-checks a
catalog of identities, and evaluates gradient-soliton residuals, all in
exact rational arithmetic.
"""

from ._version import __version__
from .catalog import BUILTIN_NAMES, builtin
from .connection import (Connection, ConnectionKind, alpha_star, is_parallel,
                         is_semi_symmetric, levi_civita, non_metricity, ssnmc,
                         torsion)
from .curvature import (CurvatureBundle, conformal, constant_sectional,
                        curvature, projective, sectional)
from .errors import (DegenerateMetricError, DegeneratePlaneError, GeometryError,
                     InputError, InvalidJetError, SscurvError, UnknownGeometryError,
                     UnknownProbeError, UnsupportedDimensionError, ValenceError)
from .geometry import (Check, DistinguishedField, FrameAlgebra, GeometrySpec,
                       MetricFrame, ScalarJet, ValidationReport, gradient, validate)
from .geomio import (LoadedGeometry, dumps_geometry, geometry_from_dict,
                     geometry_to_dict, load_geometry, load_jet)
from .probes import (DISCREPANCY_PROBES, GENERAL_SUITE, PARALLEL_SUITE,
                     PROBE_ORDER, SUITES, ProbeContext, ProbeResult, ProbeStatus,
                     run_probe)
from .rat import Rat, format_rat, parse_rat, rat
from .report import build_report, emit_report, exit_code, geometry_digest
from .solitons import (NamedCheck, SolitonKind, SolitonProblem, SolitonVerdict,
                       classify, conclusion_check, hat_hessian, proof_step_probes,
                       residual, xi_derivative)
from .suite import DEFAULT_POOL, FuzzConfig, fuzz, run_suite
from .tensor import DOWN, UP, Tensor

__all__ = [
    "BUILTIN_NAMES", "builtin",
    "Connection", "ConnectionKind", "alpha_star", "is_parallel", "is_semi_symmetric",
    "levi_civita", "non_metricity", "ssnmc", "torsion",
    "CurvatureBundle", "conformal", "constant_sectional", "curvature", "projective",
    "sectional",
    "DegenerateMetricError", "DegeneratePlaneError", "GeometryError", "InputError",
    "InvalidJetError", "SscurvError", "UnknownGeometryError", "UnknownProbeError",
    "UnsupportedDimensionError", "ValenceError",
    "Check", "DistinguishedField", "FrameAlgebra", "GeometrySpec", "MetricFrame",
    "ScalarJet", "ValidationReport", "gradient", "validate",
    "LoadedGeometry", "dumps_geometry", "geometry_from_dict", "geometry_to_dict",
    "load_geometry", "load_jet",
    "DISCREPANCY_PROBES", "GENERAL_SUITE", "PARALLEL_SUITE", "PROBE_ORDER", "SUITES",
    "ProbeContext", "ProbeResult", "ProbeStatus", "run_probe",
    "Rat", "format_rat", "parse_rat", "rat",
    "build_report", "emit_report", "exit_code", "geometry_digest",
    "NamedCheck", "SolitonKind", "SolitonProblem", "SolitonVerdict", "classify",
    "conclusion_check", "hat_hessian", "proof_step_probes", "residual", "xi_derivative",
    "DEFAULT_POOL", "FuzzConfig", "fuzz", "run_suite",
    "DOWN", "UP", "Tensor",
]
