"""Geometry and jet JSON files, and the canonical strings of every value.

Rationals are encoded as strings "p/q" (or bare integers); float literals
are rejected outright since the engine admits no rounding. The loaders read
every number through rat: a JSON integer of any length with rat.read_int,
and each literal or bare integer of an array to its integers (p, q) with
rat.read_rat_pair, whose pairs tensor._packed puts over the lcm of their
denominators for Tensor.from_ints; what that reader refuses goes to
rat_value, which names the fault and the field. Structure constants are a
list of {i, j, k, value} entries for C^k_ij with 1-based indices; conflicts
are diagnosed field by field and FrameAlgebra.from_entries fills in each
antisymmetric partner.
serialize_value, which reports use too, writes rationals and tensors as
canonical (nested) strings, and, given a report's memo, one shared nested
list per distinct tensor. dumps_json, the one JSON writer of reports and
geometry files, writes the result and renders each list object once per
indent, however often the tree holds it, a tensor's nested list in one join
and a table of counts in one %-format.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import DegenerateMetricError, InputError
from .geometry import (DistinguishedField, FrameAlgebra, GeometrySpec,
                       MetricFrame, ScalarJet)
from .rat import Rat, format_rat, parse_rat, rat, read_int, read_rat_pair
from .record import Record
from .tensor import DOWN, UP, Tensor, _packed


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
        return rat(value)
    if isinstance(value, float):
        raise InputError(
            f"float literal {value!r} rejected; use an exact string like \"1/2\"",
            path=path, field=field)
    raise InputError(f"expected a rational, got {type(value).__name__}",
                     path=path, field=field)


def _shown(value) -> str:
    """repr(value) for a diagnostic; CPython refuses it for an int past its int/str digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def _index(value, dim, *, path, field) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"expected a 1-based index, got {_shown(value)}", path=path, field=field)
    if not 1 <= value <= dim:
        raise InputError(f"index {_shown(value)} out of range 1..{dim}", path=path, field=field)
    return value - 1


def _square_array(data, dim, variance, *, path, field) -> Tensor:
    if not isinstance(data, list) or len(data) != dim:
        raise InputError(f"expected a {dim}x{dim} array", path=path, field=field)
    pairs = []
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"expected a {dim}x{dim} array", path=path,
                             field=f"{field}[{r}]")
        for c, value in enumerate(row):  # the field is named only when the reader refuses
            pairs.append(read_rat_pair(value) or rat_value(
                value, path=path, field=f"{field}[{r}][{c}]").as_integer_ratio())
    return Tensor.from_ints(variance, dim, *_packed(pairs))


def _flat_array(data, dim, variance, *, path, field) -> Tensor:
    if not isinstance(data, list) or len(data) != dim:
        raise InputError(f"expected an array of length {dim}", path=path, field=field)
    pairs = [read_rat_pair(v) or rat_value(
                 v, path=path, field=f"{field}[{c}]").as_integer_ratio()
             for c, v in enumerate(data)]
    return Tensor.from_ints(variance, dim, *_packed(pairs))


def geometry_from_dict(data: dict, *, path: str | None = None,
                       default_name: str = "geometry") -> LoadedGeometry:
    if not isinstance(data, dict):
        raise InputError("top-level value must be an object", path=path)
    notes: list[str] = []

    dim = data.get("dim", 3)
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 4:
        raise InputError(f"dim must be an integer in 1..4, got {_shown(dim)}",
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
        value = entry["value"]
        pair = read_rat_pair(value)
        v = Rat(*pair) if pair else rat_value(value, path=path, field=f"{field}.value")
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
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_int=read_int)
    except FileNotFoundError:
        raise InputError("file not found", path=str(path)) from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                         path=str(path)) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text at byte {exc.start}", path=str(path)) from None
    except OSError as exc:
        raise InputError(f"cannot read: {exc.strerror}", path=str(path)) from None


def load_geometry(path: str | Path) -> LoadedGeometry:
    path = Path(path)
    return geometry_from_dict(_read_json(path), path=str(path), default_name=path.stem)


def load_jet(path: str | Path, dim: int) -> ScalarJet:
    path = Path(path)
    return jet_from_dict(_read_json(path), dim, path=str(path), field="jet")


def serialize_value(value, memo: dict | None = None):
    """Rationals to strings, tensors to nested lists, dicts recursively.

    Given a memo, a dict that one report owns, equal tensors come out as one
    shared nested list: the memo maps each tensor value to its serialisation.
    """
    if value is None:
        return None
    if isinstance(value, Tensor):
        if memo is None:
            return _nested(value)
        out = memo.get(value)
        if out is None:
            out = memo[value] = _nested(value)
        return out
    if isinstance(value, dict):
        return {k: serialize_value(value[k], memo) for k in sorted(value)}
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
    dim, c = spec.dim, _nested(spec.frame.c)  # c[k][i][j] = C^k_ij
    entries = [{"i": i + 1, "j": j + 1, "k": k + 1, "value": v}
               for i in range(dim) for j in range(i + 1, dim) for k in range(dim)
               if (v := c[k][i][j]) != "0"]
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
    return dumps_json(geometry_to_dict(spec)) + "\n"


def dumps_json(value) -> str:
    """The bytes of json.dumps(value, indent=2), for report values only.

    Report values are str, int, bool, None, lists and tuples of them, and
    dicts with str keys; anything else, a float included, raises TypeError.
    Strings are escaped by the stdlib's C escaper, as json.dumps does by
    default. A uniform grid (every level lists of one nonzero length, str
    leaves), as a tensor's nested list is, is written in one join: its
    leaves are quoted once per list object and the text around them is
    built once per shape and indent. Anything else (a tuple, an empty or
    ragged level, a leaf that is not a str) is written item by item, so no
    output goes through json's pure-Python indenting encoder. Each list
    object is rendered once per indent: a report that shares one list
    between equal tensors writes its text once and copies it. A table (a
    dict whose every value is a dict with one non-empty tuple of str keys,
    every leaf an int and not a bool), as a fuzz report's probe_counts is,
    is written by one %-format of its leaves. The text that depends on no
    leaf is kept across calls, each kind in a bounded functools.lru_cache:
    a grid's frame per shape and indent, a dict's quoted key prefixes per
    key tuple and indent, and a table's format per key tuples and indent.
    """
    parts: list[str] = []
    _write_json(value, parts, "\n", {})
    return "".join(parts)


def _write_json(value, parts: list[str], newline: str, written: dict) -> None:
    # Recursion with the output list passed in: a self-referencing closure
    # would be a reference cycle holding every chunk until cyclic GC runs.
    # written maps (id(list), newline) to the list's text and id(list) to its
    # grid (None if it is none); the tree keeps every list alive for the
    # whole call, so no id is reused within it.
    if isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        key = (id(value), newline)
        text = written.get(key)
        if text is None:
            text = written[key] = _list_text(value, newline, written)
        parts.append(text)
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        table = _table(value)
        if table is not None:
            keys, cols, leaves = table
            parts.append(_table_frame(keys, cols, newline) % leaves)
            return
        inner = newline + "  "
        for prefix, item in zip(_key_prefixes(tuple(value), newline), value.values()):
            if isinstance(item, str):  # no call for a string or count field
                parts.append(prefix + _quote(item))
            elif type(item) is int:  # not bool, whose type is bool
                parts.append(prefix + int.__repr__(item))
            else:
                parts.append(prefix)
                _write_json(item, parts, inner, written)
        parts.append(newline + "}")
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


def _list_text(value, newline: str, written: dict) -> str:
    """The text of a non-empty list or tuple whose closing bracket sits after newline."""
    grid = written.get(id(value), False)
    if grid is False:
        grid = written[id(value)] = _grid(value)
    if grid is not None:
        text = list(_grid_frame(grid[0], newline))
        text[1::2] = grid[1]
        return "".join(text)
    inner = newline + "  "
    parts: list[str] = []
    sep = "[" + inner
    for item in value:
        parts.append(sep)
        _write_json(item, parts, inner, written)
        sep = "," + inner
    parts.append(newline + "]")
    return "".join(parts)


def _grid(value) -> tuple[tuple[int, ...], list[str]] | None:
    """(shape, quoted leaves in row-major order) if value is a list whose every
    level holds lists of one nonzero length and whose leaves are all str, else None."""
    if type(value) is not list:
        return None
    shape, level = [len(value)], value
    while type(level[0]) is list:
        width = len(level[0])
        if not width or set(map(type, level)) != {list} or set(map(len, level)) != {width}:
            return None
        shape.append(width)
        level = list(chain.from_iterable(level))
    try:
        return tuple(shape), list(map(_quote, level))
    except TypeError:  # a leaf that is not a str
        return None


@functools.lru_cache(maxsize=128)
def _grid_frame(shape: tuple[int, ...], newline: str) -> tuple[str, ...]:
    """The text of a grid of this shape whose closing bracket sits after newline,
    with an empty slot for each leaf at the odd positions; built from the frame
    of the shape one level down."""
    inner = newline + "  "
    if len(shape) == 1:
        return ("[" + inner, "", *("," + inner, "") * (shape[0] - 1), newline + "]")
    sub = _grid_frame(shape[1:], inner)
    head, body, close = sub[0], sub[1:-1], sub[-1]
    return ("[" + inner + head, *body,
            *((close + "," + inner + head,) + body) * (shape[0] - 1),
            close + newline + "]")


@functools.lru_cache(maxsize=256)
def _key_prefixes(keys: tuple, newline: str) -> tuple[str, ...]:
    """The text before each value of a dict with these keys whose closing brace
    sits after newline: the separator, the quoted key and the colon."""
    inner = newline + "  "
    prefixes, sep = [], "{" + inner
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, got {type(key).__name__}")
        prefixes.append(sep + _quote(key) + ": ")
        sep = "," + inner
    return tuple(prefixes)


def _table(value: dict) -> tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]] | None:
    """(row keys, column keys, leaves row by row) if every value of the non-empty
    dict value is a dict with one non-empty tuple of str keys, every key is a
    str and every leaf an int (not a bool), else None."""
    rows = list(value.values())
    if type(rows[0]) is not dict or set(map(type, rows)) != {dict}:
        return None
    shapes = set(map(tuple, rows))  # each row's key tuple; one if they all agree
    if len(shapes) != 1:
        return None
    cols = shapes.pop()
    keys = tuple(value)
    leaves = tuple(chain.from_iterable(map(dict.values, rows)))
    if not cols or set(map(type, leaves)) != {int} or set(map(type, keys + cols)) != {str}:
        return None
    return keys, cols, leaves


@functools.lru_cache(maxsize=32)
def _table_frame(keys: tuple[str, ...], cols: tuple[str, ...], newline: str) -> str:
    """The text of a table whose closing brace sits after newline, as a %-format
    with one %d per leaf, row by row (a key's own % is written %%)."""
    inner = newline + "  "
    cell = inner + "  "
    cols = [_quote(col).replace("%", "%%") for col in cols]
    row = ": {" + cell + cols[0] + ": %d" + "".join("," + cell + col + ": %d" for col in cols[1:])
    body = (inner + "}," + inner).join(_quote(key).replace("%", "%%") + row for key in keys)
    return "{" + inner + body + inner + "}" + newline + "}"
