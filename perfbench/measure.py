"""Statistics and metric tables shared by the runner and its tests."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
# thread pools capped at one thread in the runner and in every CLI process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GAUSSKIT_THREADS")

# per-layer metric -> (span name, summary field, unit); values are per pass
PER_LAYER = {
    "cli.self_s": ("cli.main", "self_s", "s"),
    "io.dumps_s": ("io.dumps", "self_s", "s"),
    "io.dumps_calls": ("io.dumps", "calls", "count"),
    "io.bytes_out": ("io.dumps", "bytes", "bytes"),
    "fock.serialize_s": ("fock.serialize", "self_s", "s"),
    "fock.serialize_calls": ("fock.serialize", "calls", "count"),
    "fock.read_s": ("fock.read", "self_s", "s"),
    "fock.read_calls": ("fock.read", "calls", "count"),
    "tomography.simulate_s": ("tomography.simulate", "self_s", "s"),
    "tomography.estimate_s": ("tomography.estimate", "self_s", "s"),
    "tomography.sample_s": ("tomography.sample", "self_s", "s"),
    "tomography.window_s": ("tomography.window", "self_s", "s"),
    "tomography.window_calls": ("tomography.window", "calls", "count"),
    "states.validate_s": ("states.validate", "self_s", "s"),
    "states.validate_calls": ("states.validate", "calls", "count"),
    "states.entanglement_s": ("states.entanglement", "self_s", "s"),
    "states.entanglement_calls": ("states.entanglement", "calls", "count"),
    "states.marginal_s": ("states.marginal", "self_s", "s"),
    "states.marginal_calls": ("states.marginal", "calls", "count"),
    "states.normal_form_s": ("states.normal_form", "self_s", "s"),
    "states.normal_form_calls": ("states.normal_form", "calls", "count"),
    "states.charfn_s": ("states.charfn", "self_s", "s"),
    "states.charfn_calls": ("states.charfn", "calls", "count"),
    "semigroup.compose_s": ("semigroup.compose", "self_s", "s"),
    "semigroup.compose_calls": ("semigroup.compose", "calls", "count"),
    "semigroup.conjugate_s": ("semigroup.conjugate", "self_s", "s"),
    "semigroup.conjugate_calls": ("semigroup.conjugate", "calls", "count"),
    "params.convert_s": ("params.convert", "self_s", "s"),
    "params.convert_calls": ("params.convert", "calls", "count"),
    "params.parse_s": ("params.parse", "self_s", "s"),
    "params.parse_calls": ("params.parse", "calls", "count"),
    "core.self_s": ("core", "self_s", "s"),
    "core.calls": ("core", "calls", "count"),
}

# window spans, whichever layer asked for the window
WINDOW_SPANS = ("fock.window", "tomography.window")


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count).  The sample at sorted
    position n - beyond - 1 has exactly `beyond` samples after it and
    100 (n - beyond) / n percent of the samples at or below it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"{n} samples: no percentile has {beyond} samples beyond it")
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def median(values) -> float:
    return float(statistics.median(values))


def per_layer(summary: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass of the mix, from a span summary."""
    def field(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    out = {name: (field(span, key) / passes, unit)
           for name, (span, key, unit) in PER_LAYER.items()}
    calls = sum(field(s, "calls") for s in WINDOW_SPANS)
    entries = sum(field(s, "entries") for s in WINDOW_SPANS)
    zeros = sum(field(s, "zeros") for s in WINDOW_SPANS)
    out["fock.window_s"] = (sum(field(s, "self_s") for s in WINDOW_SPANS) / passes, "s")
    out["fock.window_calls"] = (calls / passes, "count")
    out["fock.window_entries"] = (entries / passes, "count")
    # complex128 entries of the returned matrices, computed, not measured
    out["fock.window_bytes"] = (16 * entries / passes, "bytes")
    out["fock.zero_entry_ratio"] = (zeros / entries if entries else 0.0, "ratio")
    return out
