"""Span recorder for the traced run.

A span is one call into a layer's public function: its name, start, end,
parent span, request id and optional counters.  Spans stay in memory and
are written out once, when the run ends.  A layer's self time is its
spans' duration minus the part of each span that its child spans cover.

The wrapping is done from outside the program: each entry of SPANS names
the module and attribute through which a caller looks the function up,
and `Recorder.install` replaces that attribute with a timed wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


def _window_meta(op):
    return {"entries": op.dim * op.dim, "zeros": int(op.entries.size - np.count_nonzero(op.entries))}


def _bytes_meta(text):
    return {"bytes": len(text)}


# (module, attribute the caller looks the function up by, span name, counter function)
SPANS = [
    ("gausskit.params", "E2Params.from_json_dict", "params.parse", None),
    ("gausskit.params", "CovarianceParams.from_json_dict", "params.parse", None),
    ("gausskit.params", "cov_to_e2", "params.convert", None),
    ("gausskit.params", "e2_to_cov", "params.convert", None),
    ("gausskit.states", "cov_to_e2", "params.convert", None),
    ("gausskit.states", "e2_to_cov", "params.convert", None),
    ("gausskit.states", "GaussianState.__init__", "states.validate", None),
    ("gausskit.states", "is_completely_entangled_pure", "states.entanglement", None),
    ("gausskit.states", "marginal", "states.marginal", None),
    ("gausskit.states", "normal_form", "states.normal_form", None),
    ("gausskit.states", "characteristic_function", "states.charfn", None),
    ("gausskit.states", "conjugate_by_gamma", "semigroup.conjugate", None),
    ("gausskit.states", "conjugate_by_weyl", "semigroup.conjugate", None),
    ("gausskit.semigroup", "compose", "semigroup.compose", None),
    ("gausskit.semigroup", "conjugate_by_gamma", "semigroup.conjugate", None),
    ("gausskit.semigroup", "conjugate_by_weyl", "semigroup.conjugate", None),
    ("gausskit.core", "m_matrix", "core", None),
    ("gausskit.core", "c_factor", "core", None),
    ("gausskit.core", "takagi", "core", None),
    ("gausskit.core", "gaussian_integral", "core", None),
    ("gausskit.fock", "dmf", "fock.window", _window_meta),
    ("gausskit.fock", "general_truncate", "fock.window", _window_meta),
    ("gausskit.fock", "TruncatedOperator.element", "fock.read", None),
    ("gausskit.fock", "TruncatedOperator.index", "fock.read", None),
    ("gausskit.fock", "matrix_element", "fock.read", None),
    ("gausskit.fock", "TruncatedOperator.to_json_dict", "fock.serialize", None),
    ("gausskit.fock", "TruncatedOperator.to_csv", "fock.serialize", None),
    ("gausskit.io", "dumps", "io.dumps", _bytes_meta),
    ("gausskit.tomography", "general_truncate", "tomography.window", _window_meta),
    ("gausskit.tomography", "sample", "tomography.sample", None),
    ("gausskit.cli", "dmf", "fock.window", _window_meta),
    ("gausskit.cli", "general_truncate", "fock.window", _window_meta),
    ("gausskit.cli", "simulate_battery", "tomography.simulate", None),
    ("gausskit.cli", "estimate", "tomography.estimate", None),
]


class Recorder:
    """In-memory span list.  Each span is [name, start, end, parent, request, meta].

    Wrapped calls made while `on` is false (the benchmark's own input
    generation and output checks) record nothing.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.on = True
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, meta=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if meta is not None:
                span[5] = meta(result)
            return result

        return traced

    def install(self, table=SPANS) -> None:
        """Replace every attribute in `table` with a traced wrapper."""
        # import first: a module imported after patching would bind wrapped names
        modules = {m: importlib.import_module(m) for m, _, _, _ in table}
        for module_name, path, name, meta in table:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, meta)))
            else:
                setattr(owner, attr, self.wrap(raw, name, meta))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def extend(self, spans: list[list], request: int) -> None:
        """Append spans recorded in another process, re-based onto this list."""
        base = len(self.spans)
        for name, start, end, parent, _, meta in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               request, meta])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total self time and summed counters."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, meta = span[0], span[5]
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in (meta or {}).items():
            row[key] = row.get(key, 0) + value
    return out
