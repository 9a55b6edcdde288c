"""Built-in oracle geometries."""

from __future__ import annotations

from .errors import UnknownGeometryError
from .geometry import DistinguishedField, FrameAlgebra, GeometrySpec, MetricFrame
from .rat import ONE, ZERO, rat
from .tensor import Tensor

BUILTIN_NAMES = ("example1", "h2xr", "flat")


def _standard(name: str, entries: dict) -> GeometrySpec:
    frame = FrameAlgebra.from_entries(3, entries)
    metric = MetricFrame.identity(3)
    xi = Tensor.vector([ZERO, ZERO, ONE])
    return GeometrySpec(name, frame, metric, DistinguishedField.from_xi(xi, metric))


def builtin(name: str) -> GeometrySpec:
    """Look up a built-in geometry by name.

    example1: [e1,e3] = -e1, [e2,e3] = -e2 (hyperbolic space, xi not parallel).
    h2xr:     [e1,e2] = -e1 (hyperbolic plane times a line, xi parallel).
    flat:     abelian frame.
    All carry the identity metric and xi = e3.
    """
    if name == "example1":
        return _standard("example1", {(0, 0, 2): rat(-1), (1, 1, 2): rat(-1)})
    if name == "h2xr":
        return _standard("h2xr", {(0, 0, 1): rat(-1)})
    if name == "flat":
        return _standard("flat", {})
    raise UnknownGeometryError(
        f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
