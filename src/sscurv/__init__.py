"""Exact-arithmetic curvature engine for homogeneous frame geometries, dims 1-4.

Builds Levi-Civita and semi-symmetric non-metric connections from constant
structure data, computes the full curvature apparatus, machine-checks a
catalog of identities, and evaluates gradient-soliton residuals, all in
exact rational arithmetic.

The public names load their submodule on first use (PEP 562), so a command
that checks one soliton never compiles the probe registry or the fuzzer.
The package keeps each home module once loaded, in a table no larger than
__all__, but no name: each access reads the name from its module.
"""

from importlib import import_module

from ._version import __version__

# Each public name, under the submodule that defines it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "catalog": ("BUILTIN_NAMES", "builtin"),
    "connection": ("Connection", "ConnectionKind", "alpha_star", "is_parallel",
                   "levi_civita", "non_metricity", "ssnmc", "torsion"),
    "curvature": ("CurvatureBundle", "conformal", "constant_sectional", "curvature",
                  "projective", "sectional"),
    "errors": ("DegenerateMetricError", "DegeneratePlaneError", "GeometryError", "InputError",
               "InvalidJetError", "SscurvError", "UnknownGeometryError", "UnknownProbeError",
               "UnsupportedDimensionError", "ValenceError"),
    "geometry": ("Check", "DistinguishedField", "FrameAlgebra", "GeometrySpec", "MetricFrame",
                 "ScalarJet", "ValidationReport", "gradient", "validate"),
    "geomio": ("LoadedGeometry", "dumps_geometry", "geometry_from_dict", "geometry_to_dict",
               "load_geometry", "load_jet"),
    "context": ("ProbeContext", "ProbeResult", "ProbeStatus"),
    "probes": ("DISCREPANCY_PROBES", "GENERAL_SUITE", "PARALLEL_SUITE", "PROBE_ORDER",
               "SUITES", "run_probe"),
    "rat": ("Rat", "format_rat", "parse_rat", "rat"),
    "report": ("build_report", "emit_report", "exit_code"),
    "solitons": ("NamedCheck", "SolitonKind", "SolitonProblem", "SolitonVerdict", "classify",
                 "conclusion_check", "hat_hessian", "proof_step_probes", "residual"),
    "suite": ("DEFAULT_POOL", "FuzzConfig", "fuzz", "run_suite"),
    "tensor": ("DOWN", "UP", "Tensor"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# `curvature` and `rat` name both a function and the submodule defining it.
# The first import of a submodule binds the module on the package, so these
# two load now and their functions are bound after: a later import of either
# submodule finds it loaded and rebinds nothing.
from .curvature import curvature  # noqa: E402
from .rat import rat  # noqa: E402


# Each public name's home module, once a first access has loaded it.
_loaded: dict[str, object] = {}


def __getattr__(name: str):
    # The home module object is kept, the name is not: it is read from the
    # module on every access, so a name rebound there (as a test or a tracer
    # does) reads through here as rebound.
    try:
        module = _loaded[name]
    except KeyError:
        try:
            home = _HOME[name]
        except KeyError:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
        module = _loaded[name] = import_module(f".{home}", __name__)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
