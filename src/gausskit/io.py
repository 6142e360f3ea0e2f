"""JSON/CSV serialization helpers.

Complex scalars are [re, im] pairs, complex vectors lists of pairs, and
complex matrices row-major nested lists of pairs, so the files are
unambiguous across languages.  A float's text is `_number`'s, "{:.17g}":
17 significant digits, which round-trips IEEE doubles exactly.

Scalars are formatted one at a time.  A complex ndarray (a Fock window's
entries) goes through one array writer (`gausskit._writer`), which computes
the same bytes as `_number` with elementwise numpy arithmetic, a block of
entries at a time; it writes both the JSON pair lists of `dumps` and the
rows of `csv_table`.  It is imported on the first array written, so a
process that writes none does not compile it.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


_number = "{:.17g}".format  # a float's text; the array writer reproduces it byte for byte


def _non_finite(value) -> ValueError:
    return ValueError(f"cannot write {value!r}: the output holds a non-finite number")


def _finite_pairs(values) -> np.ndarray:
    """The real and imaginary part of each entry, row-major, as a (size, 2)
    float array; a ValueError on NaN or an infinity, which RFC 8259 JSON
    cannot hold."""
    values = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    finite = np.isfinite(values)
    if not finite.all():
        raise _non_finite(complex(values[~finite][0]))
    return values.view(np.float64).reshape(-1, 2)


def _pair_list(values: np.ndarray) -> list[str]:
    """dumps of a nonempty complex ndarray, in pieces: [re, im] pairs, nested
    like the array."""
    from . import _writer

    pairs = _finite_pairs(values)
    last, axes = len(pairs) - 1, values.ndim
    spans = np.cumprod(values.shape[::-1])[::-1].tolist()  # entries per list at each depth
    opens = _writer.lookup(["[" * c for c in range(axes + 1)],
                           lambda i: sum(i % span == 0 for span in spans))
    closes = _writer.lookup(["]" * c + ", " for c in range(axes + 1)] + ["]" * axes],
                            lambda i: sum((i + 1) % span == 0 for span in spans) + (i == last))
    return _writer.rows(len(pairs), [opens, b"[", _writer.numbers(pairs, b", "), b"]", closes])


def csv_table(columns: list[str], labels: list[str], values) -> str:
    """A CSV table of a complex array: the header line of `columns`, then one
    line per entry, row-major, with the label of its index along each axis
    and its real and imaginary parts.  A ValueError on NaN or an infinity."""
    from . import _writer

    values = np.asarray(values)
    pairs = _finite_pairs(values)
    fields = []
    for axis, size in enumerate(values.shape):
        step = math.prod(values.shape[axis + 1:])
        fields += [_writer.lookup(labels, lambda i, step=step, size=size: i // step % size), b","]
    rows = _writer.rows(len(pairs), fields + [_writer.numbers(pairs, b","), b"\n"])
    return "".join([",".join(columns) + "\n", *rows])


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
    out: list[str] = []
    _render(obj, out)
    return "".join(out)


def _render(obj: Any, out: list[str]) -> None:
    """Append the JSON text of obj to `out`, piece by piece, so that the
    text is copied once, by dumps."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise _non_finite(x)
        out.append(_number(x))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{', ' if i else ''}{json.dumps(str(k))}: ")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "c" and obj.ndim and obj.size:
        out.extend(_pair_list(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")

