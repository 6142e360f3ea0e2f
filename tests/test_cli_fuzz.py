"""Property test of the CLI contract on random requests, run in process.

Requests mix every subcommand with random subsets of all flags (flags a
subcommand does not take included), malformed flag values, and state and
counts files with one node replaced, dropped or re-nested.  Whatever the
request, the exit code is 0, 1 or 2; a failure writes one `error:` line to
stderr and nothing to stdout (`validate`'s report of an invalid state is
the one exit-2 answer on stdout); and JSON on stdout is strict RFC 8259.
Cutoffs stay at most 4 apart from the preflight sentinels, states have at
most 3 modes and simulations at most 100 shots, so the test stays fast.
"""

import contextlib
import copy
import io as stdio
import json
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gausskit import io
from gausskit.cli import main
from gausskit.params import e2_to_cov, state_params
from gausskit.states import GaussianState, smsv, tmsv
from gausskit.tomography import simulate_battery

_BIG = "__1e400__"  # written to the file as the literal 1e400, which overflows to inf
_DROP, _WRAP = object(), object()


def _mixed3() -> dict:
    a = np.array([[0.05, 0.02, 0.0], [0.02, -0.03, 0.01], [0.0, 0.01, 0.04]])
    lam = np.diag([0.1, 0.05, 0.2]) + 0.01
    return state_params(a, lam, mu=[0.2, -0.1j, 0.0]).to_json_dict()


def _counts(params) -> dict:
    runs = simulate_battery(GaussianState(params), 100, seed=5)
    return {"n": params.n, "shots": 100, "seed": 5, "measurements": [
        {"spec": r["spec"].to_json_dict(), "counts": [int(x) for x in r["counts"]],
         "shots": r["shots"]} for r in runs]}


STATES = [json.loads(io.dumps(d)) for d in (
    smsv(0.3).params.to_json_dict(), tmsv(0.35).params.to_json_dict(), _mixed3(),
    e2_to_cov(tmsv(0.35).params).to_json_dict())]
COUNTS = [json.loads(io.dumps(_counts(p))) for p in (smsv(0.3).params, tmsv(0.2).params)]

COMMANDS = ["convert", "validate", "dmf", "statevec", "marginal", "entanglement",
            "charfn", "tomo-simulate", "tomo-estimate"]
OWN_FLAGS = {
    "convert": ["--state", "--tol"],
    "validate": ["--state", "--tol"],
    "dmf": ["--state", "--tol", "--cutoff", "--format"],
    "statevec": ["--state", "--tol", "--cutoff", "--format"],
    "marginal": ["--state", "--tol", "--split"],
    "entanglement": ["--state", "--tol", "--split"],
    "charfn": ["--state", "--tol", "--z"],
    "tomo-simulate": ["--state", "--tol", "--seed", "--shots"],
    "tomo-estimate": ["--counts"],
}
ALL_FLAGS = sorted({f for flags in OWN_FLAGS.values() for f in flags})
GOOD = {
    "--tol": ["1e-10", "1e-6"],
    "--cutoff": ["0", "2", "4"],
    "--format": ["json", "csv"],
    "--split": ["0", "1", "0,1"],
    "--z": ["[[0.1, 0.2]]", "[0.1, 0.2]", "[[0.1, 0.2], [0.3, 0.4]]"],
    "--seed": ["0", "7", "-1", "18446744073709551617"],
    "--shots": ["1", "100"],
}
BAD = {
    "--tol": ["0", "-1", "nan", "inf", "x", ""],
    "--cutoff": ["-1", "abc", "1.5", "171", "100000"],
    "--format": ["xml", ""],
    "--split": ["5", "-1", "0,0", "a", ""],
    "--z": ["[]", "5", "[", "[[1e400, 0]]", '[["a", 1]]', '[{"0": 1}]', "[[0.1, 0.2, 0.3]]"],
    "--seed": ["x", "1.5"],
    "--shots": ["0", "-3", "1e2", "abc"],
}
REPLACEMENTS = [None, "x", _BIG, float("inf"), float("nan"), 10**400, 1e300, -1, 0.5,
                True, [], {}, [[0, 0]], _DROP, _WRAP]


@st.composite
def mutated(draw, bases, mutate: bool):
    """A base document, with one node replaced, dropped or wrapped if `mutate`."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    if not mutate:
        return doc
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 5)):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    new = draw(st.sampled_from(REPLACEMENTS))
    if parent is None:
        return [doc] if new is _WRAP else (None if new is _DROP else new)
    if new is _DROP:
        del parent[key]
    else:
        parent[key] = [node] if new is _WRAP else new
    return doc


def _text(doc) -> str:
    return json.dumps(doc).replace(f'"{_BIG}"', "1e400")


@st.composite
def requests(draw, workdir):
    """argv and stdin text of one request with at most one kind of fault.

    The fault is in the flag set (a flag of another subcommand, a missing
    flag, a flag without its value), in one flag's value, or in the input
    file; a request without one reaches the subcommand's computation.
    """
    fault = draw(st.sampled_from(["none", "flags", "value", "file"]))
    command = draw(st.sampled_from(COMMANDS))
    flags = OWN_FLAGS[command]
    if fault == "flags":
        # --cutoff stays: at its default of 20 a 3-mode window takes seconds
        flags = [f for f in flags if f == "--cutoff" or draw(st.booleans())]
        flags += draw(st.lists(st.sampled_from(ALL_FLAGS), max_size=2))
        flags = draw(st.permutations(list(dict.fromkeys(flags))))
    bad = draw(st.sampled_from(flags)) if fault == "value" and flags else None
    state_path, counts_path = workdir / "state.json", workdir / "counts.json"
    state_text = _text(draw(mutated(STATES, fault == "file")))
    counts_text = _text(draw(mutated(COUNTS, fault == "file")))
    state_path.write_text(state_text)
    counts_path.write_text(counts_text)
    argv = [command]
    for flag in flags:
        if flag in ("--state", "--counts"):
            path = str(state_path if flag == "--state" else counts_path)
            bad_paths = [str(workdir / "missing"), str(workdir)]
            value = draw(st.sampled_from(bad_paths if flag == bad else [path, "-"]))
        else:
            value = draw(st.sampled_from((BAD if flag == bad else GOOD)[flag]))
        argv += [flag, value]
    if fault == "flags" and len(argv) > 1 and draw(st.booleans()):
        argv = argv[:-1]
    return argv, counts_text if command == "tomo-estimate" else state_text


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-RFC 8259 constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_request_keeps_the_contract(workdir, data):
    argv, stdin = data.draw(requests(workdir))
    out, err = stdio.StringIO(), stdio.StringIO()
    with mock.patch.object(sys, "stdin", stdio.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be one more stderr line
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 0:
        if not (argv[0] in ("dmf", "statevec") and "csv" in argv):
            _strict_json(out)
    elif argv[0] == "validate" and code == 2 and not err:
        assert _strict_json(out)["valid"] is False
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert out == "", argv
