"""Strict matrix JSON format, canonical report serialization, CSV history.

The matrix interchange format is a JSON object with exactly the keys
"rows", "cols", and "data", where data is the row-major flattened list of
entries and every entry is a two-element [re, im] array of finite
numbers.  Everything else is rejected: the format is meant to be written
by programs, and silent coercion of malformed input hides bugs.

Reports are serialized canonically (sorted keys, fixed float format) so
that byte-identical inputs produce byte-identical output files.
"""

import csv
import hashlib
import json
import math
from itertools import chain
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, ParseError


def _reject_constant(token):
    raise ParseError(f"non-finite JSON token not allowed: {token}")


def _entry_to_complex(entry, index):
    if (not isinstance(entry, list) or len(entry) != 2
            or any(isinstance(p, bool) or not isinstance(p, (int, float))
                   for p in entry)):
        raise ParseError(
            f"data[{index}] must be a [re, im] pair of numbers")
    try:
        re, im = float(entry[0]), float(entry[1])
    except OverflowError:
        raise ParseError(
            f"data[{index}] has a component out of float range") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"data[{index}] has a non-finite component")
    return complex(re, im)


def matrix_from_payload(payload):
    """Build a complex matrix from an already-decoded JSON object."""
    if not isinstance(payload, dict):
        raise ParseError("matrix payload must be a JSON object")
    if set(payload.keys()) != {"rows", "cols", "data"}:
        raise ParseError(
            'matrix payload must have exactly the keys "rows", "cols", '
            '"data"')
    rows, cols = payload["rows"], payload["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f'"{name}" must be an integer')
        if value < 1:
            raise ParseError(f'"{name}" must be >= 1')
    data = payload["data"]
    if not isinstance(data, list):
        raise ParseError('"data" must be a list of [re, im] pairs')
    if len(data) != rows * cols:
        raise DimensionMismatch(
            f"data has {len(data)} entries, expected rows * cols = "
            f"{rows * cols}")
    values = _bulk_pairs(data)
    if values is None:
        # Not plain JSON numbers, or some entry is bad: the entry-wise
        # check names the first offending entry.
        values = np.array(
            [_entry_to_complex(entry, i) for i, entry in enumerate(data)],
            dtype=np.complex128)
    return values.reshape(rows, cols)


def _flat_pairs(items):
    """The components of a list of two-element lists, in order, or None."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    return tuple(chain.from_iterable(items))


def _bulk_pairs(data):
    """Complex vector of a list of finite [re, im] int/float pairs, or None.

    Checks and converts the whole list at once; returns None for anything
    else (including subclasses of list, int or float), leaving the
    diagnosis to _entry_to_complex.
    """
    flat = _flat_pairs(data)
    if flat is None or not set(map(type, flat)) <= {int, float}:
        return None
    try:
        parts = np.array(flat, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(parts).all():
        return None
    return parts.view(np.complex128)


def parse_matrix(text):
    """Parse the strict matrix JSON format from a string."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:   # JSONDecodeError, or an over-long integer
        raise ParseError(f"invalid JSON: {exc}") from exc
    return matrix_from_payload(payload)


def load_matrix(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read())


def serialize_matrix(M):
    """Encode a matrix as the payload dict of the strict format."""
    M = np.ascontiguousarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("expected a 2d array")
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": M.view(np.float64).reshape(-1, 2).tolist(),
    }


def _format_float(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _float_pairs(obj):
    """Text of a list of finite [re, im] float pairs, or None.

    One "%.17g" template and one % call format the whole list, giving the
    bytes the generic _canonical recursion gives.
    """
    flat = _flat_pairs(obj)
    if (flat is None or set(map(type, flat)) != {float}
            or not all(map(math.isfinite, flat))):
        return None
    return ("[" + ", ".join(["[%.17g, %.17g]"] * len(obj)) + "]") % flat


def _canonical(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, Integral):
        return str(int(obj))
    if isinstance(obj, Real):
        return _format_float(float(obj))
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        z = complex(obj)
        return f"[{_format_float(z.real)}, {_format_float(z.imag)}]"
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if type(obj) is list and obj and type(obj[0]) is list:
            text = _float_pairs(obj)
            if text is not None:
                return text
        return "[" + ", ".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("report keys must be strings")
            items.append(f"{json.dumps(key)}: {_canonical(obj[key])}")
        return "{" + ", ".join(items) + "}"
    raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, 17-digit floats, LF newline."""
    return _canonical(obj) + "\n"


def payload_digest(obj):
    """Hex SHA-256 of the canonical serialization, used to tag reports."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_report(path, report):
    text = canonical_json(report)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return text


def write_history_csv(path, history):
    """Write (exponent, defect_bound) rows with a fixed header, LF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["exponent", "defect_bound"])
        for exponent, bound in history:
            writer.writerow([int(exponent), format(float(bound), ".17g")])
