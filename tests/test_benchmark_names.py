"""The benchmark's span table names functions by module attribute.

`perfbench/spans.py` replaces each `(module, attribute)` of its SPANS
table with a timed wrapper, so a refactor that renames or stops importing
one of those names breaks the traced benchmark run.  The table is read,
never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from gausskit import fock
from gausskit.params import E2Params

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_table() -> list:
    return _spans_module().SPANS


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_span_target_resolves():
    table = _span_table()
    assert table
    missing = [f"{m}.{p}" for m, p, _, _ in table if not _resolves(m, p)]
    assert missing == []


def test_each_traced_window_build_is_one_span():
    spans = _spans_module()
    recorder = spans.Recorder()
    recorder.install([row for row in spans.SPANS if row[2] == "fock.window"])
    try:
        a, lam = np.array([[0.1, 0.02], [0.02, -0.05]]), np.diag([0.2, 0.1])
        p = E2Params(1.0, np.array([0.1, 0.2j]), a, lam)
        for build in (lambda: fock.dmf(a, lam, 3), lambda: fock.z1_matrix(p, 3),
                      lambda: fock.general_truncate(p.as_general(), 3)):
            recorder.spans.clear()
            build()
            assert [s[0] for s in recorder.spans] == ["fock.window"]
    finally:
        recorder.uninstall()
