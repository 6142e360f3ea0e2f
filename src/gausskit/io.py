"""JSON/CSV serialization helpers.

Complex scalars are [re, im] pairs, complex vectors lists of pairs, and
complex matrices row-major nested lists of pairs, so the files are
unambiguous across languages.  Floats are emitted with 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


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


def _render(obj: Any, out: list[str]) -> None:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        out.append(json.dumps(bool(obj)) if obj is not None else "null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot write {x!r} as JSON: the output holds a non-finite number")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    Raises ValueError on NaN or an infinity, which RFC 8259 JSON cannot hold.
    """
    out: list[str] = []
    _render(obj, out)
    return "".join(out)
