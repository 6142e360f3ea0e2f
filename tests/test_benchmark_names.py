"""The benchmark's span table names functions by module attribute.

`perfbench/spans.py` replaces each `(module, attribute)` of its SPANS
table with a timed wrapper, so a refactor that renames or stops importing
one of those names breaks the traced benchmark run.  The table is read,
never installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_table() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


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
