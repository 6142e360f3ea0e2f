"""JSON/CSV serialization helpers.

Complex scalars are [re, im] pairs, complex vectors lists of pairs, and
complex matrices row-major nested lists of pairs, so the files are
unambiguous across languages.  Floats are emitted with 17 significant
digits, which round-trips IEEE doubles exactly; the CSV writers use the
same number text.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


_number = "{:.17g}".format


def _non_finite(value) -> ValueError:
    return ValueError(f"cannot write {value!r}: the output holds a non-finite number")


def complex_texts(values) -> tuple[list[str], list[str]]:
    """Number texts of the real and of the imaginary parts, flattened row-major;
    a ValueError on NaN or an infinity, which RFC 8259 JSON cannot hold."""
    values = np.asarray(values, dtype=complex).reshape(-1)
    finite = np.isfinite(values)
    if not finite.all():
        raise _non_finite(complex(values[~finite][0]))
    return list(map(_number, values.real.tolist())), list(map(_number, values.imag.tolist()))


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cvec_to_json(v: np.ndarray) -> list:
    return [complex_pair(z) for z in np.asarray(v).reshape(-1)]


def cmat_to_json(m: np.ndarray) -> list:
    return [[complex_pair(z) for z in row] for row in np.asarray(m)]


def rmat_to_json(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _from_json(build, field: str, expected: str) -> np.ndarray:
    """Array from untrusted JSON data; a fault of type, shape or range names `field`."""
    try:
        arr = build()
    except OverflowError as exc:
        raise ValueError(f"field {field!r}: entries must be finite numbers") from exc
    except (TypeError, IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"field {field!r}: expected {expected}") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"field {field!r}: entries must be finite numbers")
    return arr


def int_from_json(value, field: str) -> int:
    """An integer-valued JSON number (2 and 2.0 alike); anything else names `field`."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"field {field!r}: expected an integer")
    return int(value)


def cvec_from_json(data, field: str = "vector") -> np.ndarray:
    return _from_json(lambda: np.array([complex(p[0], p[1]) for p in data], dtype=complex),
                      field, "a list of [re, im] pairs")


def cmat_from_json(data, field: str = "matrix") -> np.ndarray:
    return _from_json(
        lambda: np.array([[complex(p[0], p[1]) for p in row] for row in data], dtype=complex),
        field, "nested lists of [re, im] pairs")


def rmat_from_json(data, field: str = "matrix") -> np.ndarray:
    return _from_json(lambda: np.array(data, dtype=float), field, "nested lists of reals")


def dumps(obj: Any) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    A complex ndarray is written as `complex_pair`s, nested like the array.
    Raises ValueError on NaN or an infinity, which RFC 8259 JSON cannot hold.
    """
    return _render(obj)


def _render(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise _non_finite(x)
        return _number(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "c":
        return "[" + ", ".join([f"[{r}, {i}]" for r, i in zip(*complex_texts(obj))]) + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):  # a complex matrix goes row by row
        return "[" + ", ".join([_render(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")

