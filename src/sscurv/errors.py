"""Exception types shared across the engine."""

from __future__ import annotations


class SscurvError(Exception):
    """Base class for all engine errors."""


class ValenceError(SscurvError):
    """Slot kind or shape mismatch in a tensor operation."""


class DegenerateMetricError(SscurvError):
    """Metric is singular or not positive-definite where required."""


class DegeneratePlaneError(SscurvError):
    """Sectional curvature requested for a degenerate plane."""


class UnsupportedDimensionError(SscurvError):
    """A formula undefined in the geometry's dimension."""


class GeometryError(SscurvError):
    """Structurally invalid geometry (antisymmetry, Jacobi, compatibility)."""


class InvalidJetError(SscurvError):
    """Scalar 2-jet violates the bracket-commutator consistency constraint."""


class UnknownProbeError(SscurvError):
    """Probe id not present in the registry."""


class UnknownGeometryError(SscurvError):
    """Built-in geometry name not recognised."""


class InputError(SscurvError):
    """Malformed input file; carries field-level diagnostics."""

    def __init__(self, message: str, *, path: str | None = None, field: str | None = None):
        self.path = path
        self.field = field
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if field is not None:
            prefix += f"[{field}] "
        super().__init__(prefix + message)
