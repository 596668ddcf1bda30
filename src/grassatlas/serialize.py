"""JSON and CSV exchange formats shared by all modules.

The matrix wire format is
``{"rows": n, "cols": m, "scalar": "complex", "data": [[re, im], ...]}``
with ``data`` flat in row-major order.  Subspaces travel as the matrix JSON of
their basis; charts as a pair of such objects plus a flavor tag; fiber objects
as a chart-point reference plus their matrix or term list.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from .atlas import ChartId, ChartPoint, Subspace
from .bundles import Covector, TangentVector, TensorCovector
from .operators import Operator


def operator_to_json(op: Operator) -> dict:
    mat = op.matrix if isinstance(op, Operator) else Operator(op).matrix
    data = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    return {"rows": mat.shape[0], "cols": mat.shape[1], "scalar": "complex", "data": data}


def _field(obj, key: str):
    """``obj[key]`` of a JSON object; a payload that is no object or lacks ``key`` raises."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key]


def _list_field(obj, key: str) -> list:
    value = _field(obj, key)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"field {key!r} must be a list, got {type(value).__name__}")
    return value


def _number(part):
    """A data entry part, unless it is a boolean, which ``complex`` would read as 0 or 1."""
    if isinstance(part, (bool, np.bool_)):
        raise TypeError(f"boolean {part!r} is not a number")
    return part


def operator_from_json(obj: dict) -> Operator:
    """Read the matrix wire format; a malformed payload raises ``ValueError`` naming its field."""
    shape = []
    for key in ("rows", "cols"):
        value = _field(obj, key)
        # a JSON boolean loads as a Python bool, which is an int
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"field {key!r} must be a nonnegative integer, got {value!r}")
        shape.append(int(value))
    if obj.get("scalar") != "complex":
        raise ValueError(f"unsupported scalar field {obj.get('scalar')!r}")
    data = _list_field(obj, "data")
    if len(data) != shape[0] * shape[1]:
        raise ValueError(f"field 'data' needs {shape[0] * shape[1]} entries, got {len(data)}")
    try:
        flat = np.array([complex(_number(re), _number(im)) for re, im in data], dtype=complex)
    except (TypeError, ValueError):
        # canonical_json writes a non-finite number as null
        raise ValueError("field 'data' must hold [re, im] pairs of numbers") from None
    return Operator(flat.reshape(shape))


def operator_from_csv(source) -> Operator:
    """Real-only CSV import, one matrix row per line, from a path, CSV text or a file."""
    if isinstance(source, os.PathLike):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source if isinstance(source, str) else source.read()
    rows = []
    for record in csv.reader(io.StringIO(text)):
        if not record:
            continue
        rows.append([float(cell) for cell in record])
    if not rows:
        raise ValueError("empty CSV input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("CSV rows have inconsistent lengths")
    return Operator(np.array(rows, dtype=float))


def _vector_to_json(vec: np.ndarray) -> dict:
    return operator_to_json(Operator(np.asarray(vec, dtype=complex).reshape(-1, 1)))


def _vector_from_json(obj: dict) -> np.ndarray:
    op = operator_from_json(obj)
    if op.cols != 1:
        raise ValueError(f"expected a column vector, got shape {op.shape}")
    return op.matrix.reshape(-1)


def subspace_to_json(s: Subspace) -> dict:
    return operator_to_json(s.basis)


def subspace_from_json(obj: dict) -> Subspace:
    return Subspace(operator_from_json(obj))


def chart_to_json(chart: ChartId) -> dict:
    return {"flavor": chart.flavor,
            "f": subspace_to_json(chart.f),
            "g": subspace_to_json(chart.g)}


def chart_from_json(obj: dict) -> ChartId:
    return ChartId(subspace_from_json(_field(obj, "f")), subspace_from_json(_field(obj, "g")),
                   flavor=_field(obj, "flavor"))


def chart_point_to_json(pt: ChartPoint) -> dict:
    return {"chart": chart_to_json(pt.chart), "coord": operator_to_json(pt.coord)}


def chart_point_from_json(obj: dict) -> ChartPoint:
    return ChartPoint(chart_from_json(_field(obj, "chart")),
                      operator_from_json(_field(obj, "coord")))


def tangent_to_json(v: TangentVector) -> dict:
    return {"at": chart_point_to_json(v.at), "direction": operator_to_json(v.direction)}


def tangent_from_json(obj: dict) -> TangentVector:
    return TangentVector(chart_point_from_json(_field(obj, "at")),
                         operator_from_json(_field(obj, "direction")))


def covector_to_json(c: Covector) -> dict:
    return {"at": chart_point_to_json(c.at), "form": operator_to_json(c.form)}


def covector_from_json(obj: dict) -> Covector:
    """Read ``{"at", "form"}``; any other key, as in older payloads, is ignored."""
    return Covector(chart_point_from_json(_field(obj, "at")),
                    operator_from_json(_field(obj, "form")))


def tensor_covector_to_json(tc: TensorCovector) -> dict:
    return {"at": chart_point_to_json(tc.at),
            "terms": [{"x": _vector_to_json(x), "y": _vector_to_json(y)}
                      for x, y in tc.terms]}


def tensor_covector_from_json(obj: dict) -> TensorCovector:
    terms = tuple((_vector_from_json(_field(t, "x")), _vector_from_json(_field(t, "y")))
                  for t in _list_field(obj, "terms"))
    return TensorCovector(chart_point_from_json(_field(obj, "at")), terms)


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    return _render(obj)


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(str(k))}:{_render(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} canonically")
