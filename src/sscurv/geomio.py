"""Geometry and jet JSON files, and the canonical strings of every value.

Rationals are encoded as strings "p/q" (or bare integers); float literals
are rejected outright since the engine admits no rounding. Structure
constants are a list of {i, j, k, value} entries for C^k_ij with 1-based
indices; conflicts are diagnosed field by field and FrameAlgebra.from_entries
fills in each antisymmetric partner. serialize_value, which reports use too,
writes rationals and tensors as canonical (nested) strings.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DegenerateMetricError, InputError
from .geometry import (DistinguishedField, FrameAlgebra, GeometrySpec,
                       MetricFrame, ScalarJet)
from .rat import Rat, format_rat, parse_rat, rat
from .record import Record
from .tensor import DOWN, UP, Tensor


class LoadedGeometry(Record):
    def __init__(self, spec: GeometrySpec, notes: tuple[str, ...]):
        fields = self.__dict__
        fields["spec"] = spec
        fields["notes"] = notes


def rat_value(value, *, path, field) -> Rat:
    if isinstance(value, str):  # first: file values are strings, and a Rat check is slower
        try:
            return parse_rat(value)
        except ValueError as exc:
            raise InputError(str(exc), path=path, field=field) from None
    if isinstance(value, bool):
        raise InputError("expected a rational, got a boolean", path=path, field=field)
    if isinstance(value, (int, Rat)):
        return rat(value) if isinstance(value, int) else value
    if isinstance(value, float):
        raise InputError(
            f"float literal {value!r} rejected; use an exact string like \"1/2\"",
            path=path, field=field)
    raise InputError(f"expected a rational, got {type(value).__name__}",
                     path=path, field=field)


def _index(value, dim, *, path, field) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"expected a 1-based index, got {value!r}", path=path, field=field)
    if not 1 <= value <= dim:
        raise InputError(f"index {value} out of range 1..{dim}", path=path, field=field)
    return value - 1


def _square_array(data, dim, variance, *, path, field) -> Tensor:
    if not isinstance(data, list) or len(data) != dim:
        raise InputError(f"expected a {dim}x{dim} array", path=path, field=field)
    comps = []
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"expected a {dim}x{dim} array", path=path,
                             field=f"{field}[{r}]")
        for c, value in enumerate(row):
            comps.append(rat_value(value, path=path, field=f"{field}[{r}][{c}]"))
    return Tensor(variance, dim, comps)


def _flat_array(data, dim, variance, *, path, field) -> Tensor:
    if not isinstance(data, list) or len(data) != dim:
        raise InputError(f"expected an array of length {dim}", path=path, field=field)
    comps = [rat_value(v, path=path, field=f"{field}[{c}]") for c, v in enumerate(data)]
    return Tensor(variance, dim, comps)


def geometry_from_dict(data: dict, *, path: str | None = None,
                       default_name: str = "geometry") -> LoadedGeometry:
    if not isinstance(data, dict):
        raise InputError("top-level value must be an object", path=path)
    notes: list[str] = []

    dim = data.get("dim", 3)
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 4:
        raise InputError(f"dim must be an integer in 1..4, got {dim!r}",
                         path=path, field="dim")
    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise InputError("name must be a non-empty string", path=path, field="name")

    entries = data.get("structure_constants", [])
    if not isinstance(entries, list):
        raise InputError("structure_constants must be a list", path=path,
                         field="structure_constants")
    explicit: dict[tuple[int, int, int], Rat] = {}
    for pos, entry in enumerate(entries):
        field = f"structure_constants[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "k", "value"}:
            raise InputError("entry must be an object with keys i, j, k, value",
                             path=path, field=field)
        i = _index(entry["i"], dim, path=path, field=f"{field}.i")
        j = _index(entry["j"], dim, path=path, field=f"{field}.j")
        k = _index(entry["k"], dim, path=path, field=f"{field}.k")
        v = rat_value(entry["value"], path=path, field=f"{field}.value")
        if i == j and v != 0:
            raise InputError(f"antisymmetry forces C^{k + 1}_({i + 1},{j + 1}) = 0",
                             path=path, field=field)
        key = (k, i, j)
        if key in explicit and explicit[key] != v:
            raise InputError(
                f"conflicting values for C^{k + 1}_({i + 1},{j + 1}): "
                f"{format_rat(explicit[key])} vs {format_rat(v)}",
                path=path, field=field)
        explicit[key] = v

    for (k, i, j), v in sorted(explicit.items()):
        mirror = (k, j, i)
        if mirror in explicit:
            if explicit[mirror] != -v:
                raise InputError(
                    f"antisymmetry conflict: C^{k + 1}_({i + 1},{j + 1}) = {format_rat(v)} "
                    f"but C^{k + 1}_({j + 1},{i + 1}) = {format_rat(explicit[mirror])}",
                    path=path, field="structure_constants")
        elif v != 0:
            notes.append(
                f"completed C^{k + 1}_({j + 1},{i + 1}) = {format_rat(-v)} by antisymmetry")
    frame = FrameAlgebra.from_entries(dim, explicit)

    if "metric" not in data:
        raise InputError("missing required field", path=path, field="metric")
    g = _square_array(data["metric"], dim, (DOWN, DOWN), path=path, field="metric")
    try:
        metric = MetricFrame.from_tensor(g)
    except DegenerateMetricError as exc:
        raise InputError(f"metric not invertible: {exc}", path=path, field="metric") from None

    if "xi" not in data:
        raise InputError("missing required field", path=path, field="xi")
    xi = _flat_array(data["xi"], dim, (UP,), path=path, field="xi")
    dist = DistinguishedField.from_xi(xi, metric)

    jet = None
    if "jet" in data and data["jet"] is not None:
        jet = jet_from_dict(data["jet"], dim, path=path, field="jet")

    known = {"name", "dim", "structure_constants", "metric", "xi", "jet"}
    for key in data:
        if key not in known:
            raise InputError(f"unknown field {key!r}", path=path, field=key)

    return LoadedGeometry(GeometrySpec(name, frame, metric, dist, jet), tuple(notes))


def jet_from_dict(data, dim: int, *, path: str | None = None,
                  field: str = "jet") -> ScalarJet:
    if not isinstance(data, dict) or set(data) - {"d", "dd"}:
        raise InputError("jet must be an object with keys d and dd", path=path, field=field)
    if "d" not in data or "dd" not in data:
        raise InputError("jet needs both d and dd", path=path, field=field)
    d = _flat_array(data["d"], dim, (DOWN,), path=path, field=f"{field}.d")
    dd = _square_array(data["dd"], dim, (DOWN, DOWN), path=path, field=f"{field}.dd")
    return ScalarJet(d, dd)


def _read_json(path: Path):
    if not path.exists():
        raise InputError("file not found", path=str(path))
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                         path=str(path)) from None


def load_geometry(path: str | Path) -> LoadedGeometry:
    path = Path(path)
    return geometry_from_dict(_read_json(path), path=str(path), default_name=path.stem)


def load_jet(path: str | Path, dim: int) -> ScalarJet:
    path = Path(path)
    return jet_from_dict(_read_json(path), dim, path=str(path), field="jet")


def serialize_value(value):
    """Rationals to strings, tensors to nested lists, dicts recursively."""
    if value is None:
        return None
    if isinstance(value, Tensor):
        return _nested(value)
    if isinstance(value, dict):
        return {k: serialize_value(value[k]) for k in sorted(value)}
    return format_rat(value)


def _nested(t: Tensor):
    """Canonical strings of the components, nested by slot in row-major order."""
    out = t.strings()
    if t.rank == 0:
        return out[0]
    for _ in range(t.rank - 1):
        out = [out[i:i + t.dim] for i in range(0, len(out), t.dim)]
    return out


def geometry_to_dict(spec: GeometrySpec) -> dict:
    """Canonical emission: entries with i < j only, sorted, lowest-term strings."""
    dim, values = spec.dim, spec.frame.c.strings()
    entries = [{"i": i + 1, "j": j + 1, "k": k + 1, "value": v}
               for i in range(dim) for j in range(i + 1, dim) for k in range(dim)
               if (v := values[(k * dim + i) * dim + j]) != "0"]
    out = {
        "name": spec.name,
        "dim": dim,
        "structure_constants": entries,
        "metric": serialize_value(spec.metric.g),
        "xi": serialize_value(spec.distinguished.xi),
    }
    if spec.jet is not None:
        out["jet"] = {"d": serialize_value(spec.jet.d), "dd": serialize_value(spec.jet.dd)}
    return out


def dumps_geometry(spec: GeometrySpec) -> str:
    return json.dumps(geometry_to_dict(spec), indent=2) + "\n"
