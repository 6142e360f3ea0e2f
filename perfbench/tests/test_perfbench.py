"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from measure import per_layer, tail  # noqa: E402
from spans import Recorder, self_times, summarize  # noqa: E402
from workloads import Op, check_cli, check_window, sha256_file  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = tail([5.0] + [1.0] * 10)
    assert value == 1.0 and n == 11 and pct == pytest.approx(100 / 11)
    assert tail(list(range(1000)))[0] == 989


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1, None],
        ["a", 1.0, 3.0, 0, 1, None],
        ["b", 2.0, 4.0, 0, 1, None],      # overlaps a: the union counts once
        ["c", 5.0, 6.0, 0, 1, None],
        ["d", 5.2, 5.8, 3, 1, None],      # grandchild: only its parent loses it
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.4, 0.6])


def test_recorder_nests_wrapped_calls():
    rec = Recorder()
    inner = rec.wrap(lambda: sum(range(1000)), "inner")
    outer = rec.wrap(lambda: inner() + inner(), "outer", lambda r: {"bytes": r})
    rec.request = 7
    outer()
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert all(s[4] == 7 for s in rec.spans)
    summary = summarize(rec.spans)
    assert summary["inner"]["calls"] == 2 and summary["outer"]["bytes"] == 2 * 499500
    outer_span = rec.spans[0]
    assert 0 < summary["outer"]["self_s"] < outer_span[2] - outer_span[1]


def test_per_layer_metrics_are_per_pass():
    summary = {"fock.window": {"calls": 4, "self_s": 2.0, "entries": 100, "zeros": 25},
               "tomography.window": {"calls": 2, "self_s": 1.0, "entries": 20, "zeros": 5}}
    metrics = per_layer(summary, passes=2)
    assert metrics["fock.window_calls"] == (3.0, "count")
    assert metrics["fock.window_s"] == (1.5, "s")
    assert metrics["fock.window_bytes"] == (16 * 60.0, "bytes")
    assert metrics["fock.zero_entry_ratio"] == (0.25, "ratio")
    assert metrics["tomography.window_calls"] == (1.0, "count")
    assert metrics["io.dumps_s"] == (0.0, "s")


def test_corrupted_cli_output_is_a_failure(tmp_path):
    out = tmp_path / "stdout"
    out.write_bytes(b'{"min_eig_M": 0.5}\n')
    sha = sha256_file(out)
    assert check_cli((0, b""), out, sha) is None
    out.write_bytes(b'{"min_eig_M": NaN}\n')
    assert "sha256" in check_cli((0, b""), out, sha)
    assert "traceback" in check_cli((0, b"Traceback (most recent call last)"), out, sha)
    assert "exit 1" in check_cli((1, b"error: bad"), out, sha)


def test_corrupted_window_is_a_failure():
    from gausskit import dmf
    from gausskit.params import state_params

    a = np.array([[0.1, 0.05], [0.05, -0.1]], dtype=complex)
    state = state_params(a, 0.2 * np.eye(2))
    op = dmf(state.a, state.lam, 6)
    ref = {"trace": float(np.trace(op.entries).real), "fro": float(np.linalg.norm(op.entries))}
    t, s = op.basis[1], op.basis[1]
    assert check_window(op, ref, [(t, s, op.element(t, s))]) is None
    op.entries[2, 2] *= 1 + 1e-9
    assert "trace" in check_window(op, ref, [])


class FakeWorkload:
    process = "self"
    PASS_SECONDS = 1.0

    def ops(self, p, traced):
        def boom():
            raise RuntimeError("broken")
        return [Op("good", lambda: 1, lambda r: None),
                Op("corrupt", lambda: 2, lambda r: None if r == 1 else "wrong output"),
                Op("raises", boom, lambda r: None)]


def test_failures_are_counted_not_fatal():
    res = run.run_passes(FakeWorkload(), 0, 2)
    assert res["attempted"] == 6 and res["failed"] == 4 and res["passes"] == 2
    assert len(res["samples"]) == 6
    assert any("wrong output" in f for f in res["failures"])
    assert any("RuntimeError: broken" in f for f in res["failures"])


def test_pass_count_depends_only_on_seconds():
    wl = FakeWorkload()
    assert run.pass_count(wl, 25) == 25
    assert run.pass_count(wl, 0.2) == run.MIN_PASSES
