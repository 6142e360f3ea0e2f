"""JSON/CSV serialization helpers.

Complex scalars are [re, im] pairs, complex vectors lists of pairs, and
complex matrices row-major nested lists of pairs, so the files are
unambiguous across languages.  Floats are emitted with 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
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


def _finite(arr: np.ndarray, field: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"field {field!r}: entries must be finite numbers")
    return arr


def cvec_from_json(data, field: str = "vector") -> np.ndarray:
    try:
        arr = np.array([complex(p[0], p[1]) for p in data], dtype=complex)
    except (TypeError, IndexError) as exc:
        raise ValueError(f"field {field!r}: expected a list of [re, im] pairs") from exc
    return _finite(arr, field)


def cmat_from_json(data, field: str = "matrix") -> np.ndarray:
    try:
        arr = np.array(
            [[complex(p[0], p[1]) for p in row] for row in data], dtype=complex
        )
    except (TypeError, IndexError) as exc:
        raise ValueError(f"field {field!r}: expected nested lists of [re, im] pairs") from exc
    return _finite(arr, field)


def rmat_from_json(data, field: str = "matrix") -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {field!r}: expected nested lists of reals") from exc
    return _finite(arr, field)


def _render(obj: Any, out: list[str]) -> None:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        out.append(json.dumps(bool(obj)) if obj is not None else "null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".17g") if np.isfinite(x) else json.dumps(x))
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
    """Deterministic JSON text with 17-significant-digit floats."""
    out: list[str] = []
    _render(obj, out)
    return "".join(out)
