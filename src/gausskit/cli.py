"""Command-line front end.

Subcommands map 1:1 onto library operations and each takes only the flags
its handler reads.  State files are the JSON schemas from the params
module, `-` means stdin, and outputs are deterministic for fixed inputs
and seed.  Flags are checked while parsing and each input file by one
loader, so every failure is one `error:` line on stderr.  Exit codes:
0 success, 1 usage or input error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import io
from .config import DEFAULT_CUTOFF, DEFAULT_SEED, DEFAULT_TOL
from .errors import GausskitError
from .fock import dmf, general_truncate, pure_state_vector
from .params import CovarianceParams, E2Params, cov_to_e2, validity
from .states import (
    GaussianState,
    characteristic_function,
    is_pure_separable,
    marginal,
    weakest_split,
)
from .tomography import MeasurementSpec, estimate, simulate_battery

_USAGE_EXIT = 1
_INVALID_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so `main` reports them as one `error:` line."""

    def error(self, message):
        raise ValueError(message)


def _flag_type(convert, expected: str, ok=lambda value: True):
    """An argparse `type=`: `convert` the text and require `ok` of the result."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON in {where}: {exc}") from exc


def _points(text: str) -> np.ndarray:
    zdata = _parse_json(text, "--z")
    if not isinstance(zdata, list):
        raise ValueError("not a list")
    return io.cvec_from_json(zdata if zdata and isinstance(zdata[0], list) else [zdata], "z")


_cutoff = _flag_type(int, "an integer >= 0", lambda v: v >= 0)
_tol = _flag_type(float, "a finite number > 0", lambda v: math.isfinite(v) and v > 0)
_shots = _flag_type(int, "an integer >= 1", lambda v: v >= 1)
_modes = _flag_type(lambda t: [int(x) for x in t.split(",") if x.strip()],
                    "a comma-separated mode list")
_z = _flag_type(_points, "a JSON list of [re, im] pairs")


def _load_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _parse_json(text, repr(path))


def _load_params(path: str) -> E2Params | CovarianceParams:
    """The parameters in a state file, checked for form but not for validity."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError("state file must hold a JSON object")
    if "S" in data and "m" in data:
        return CovarianceParams.from_json_dict(data)
    if "c" in data:
        return E2Params.from_json_dict(data)
    raise ValueError("field 'c' or 'S'/'m': state file is neither E2 nor covariance form")


def _load_state(args) -> GaussianState:
    params = _load_params(args.state)
    if isinstance(params, CovarianceParams):
        return GaussianState.from_cov(params, args.tol)
    return GaussianState(params, args.tol)


def _numbers(values, field: str, i: int) -> np.ndarray:
    if not isinstance(values, list) or any(
            isinstance(x, bool) or not isinstance(x, (int, float)) for x in values):
        raise ValueError(f"field {field!r}: measurement {i} must hold JSON numbers")
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"field {field!r}: measurement {i} holds a number beyond "
                         "double range") from exc


def _load_counts(path: str) -> tuple[list, list[dict]]:
    """A counts file's measurement list as read, and its runs for `estimate`.

    Checks the JSON structure only; `estimate` checks the numbers.
    """
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("measurements"), list):
        raise ValueError("field 'measurements': counts file needs a list of measurements")
    runs = []
    for i, m in enumerate(data["measurements"]):
        if not isinstance(m, dict) or not isinstance(m.get("spec"), dict):
            raise ValueError(f"field 'spec': measurement {i} needs a spec object")
        counts = _numbers(m.get("counts"), "counts", i)
        shots = m.get("shots", sum(m["counts"]))
        _numbers([shots], "shots", i)
        runs.append({"spec": MeasurementSpec.from_json_dict(m["spec"]),
                     "counts": counts, "shots": shots})
    return data["measurements"], runs


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_window(carrier, fmt: str) -> None:
    _emit(carrier.to_csv() if fmt == "csv" else io.dumps(carrier.to_json_dict()))


def _cmd_convert(args) -> int:
    params = _load_params(args.state)
    if isinstance(params, CovarianceParams):
        _emit(io.dumps(cov_to_e2(params, args.tol).to_json_dict()))
    else:
        _emit(io.dumps(GaussianState(params, args.tol).cov.to_json_dict()))
    return 0


def _cmd_validate(args) -> int:
    params = _load_params(args.state)
    if isinstance(params, CovarianceParams):
        if not params.is_valid(args.tol):
            _emit(io.dumps({"valid": False, "form": "covariance"}))
            return _INVALID_EXIT
        params = cov_to_e2(params, args.tol)
    valid, min_eig = validity(params, args.tol)
    _emit(io.dumps({"valid": bool(valid), "min_eig_M": min_eig}))
    return 0 if valid else _INVALID_EXIT


def _cmd_dmf(args) -> int:
    p = _load_state(args).params
    if np.any(p.mu):
        op = general_truncate(p.as_general(), args.cutoff)
    else:
        op = dmf(p.a, p.lam, args.cutoff, args.tol)
    _emit_window(op, args.fmt)
    return 0


def _cmd_statevec(args) -> int:
    state = _load_state(args)
    if not state.is_pure():
        raise GausskitError("statevec requires a pure state (Lambda = 0)")
    p = state.params
    _emit_window(pure_state_vector(p.a, args.cutoff, args.tol, mu=p.mu), args.fmt)
    return 0


def _cmd_marginal(args) -> int:
    sub = marginal(_load_state(args), args.split)
    _emit(io.dumps(sub.params.to_json_dict()))
    return 0


def _cmd_entanglement(args) -> int:
    state = _load_state(args)
    split = weakest_split(state) if args.split is None else (
        args.split, [m for m in range(state.n) if m not in args.split])
    report = {}
    if split is not None:  # a one-mode state has no split
        left, right = split
        label = ",".join(map(str, left)) + "|" + ",".join(map(str, right))
        sep = is_pure_separable(state, left, args.tol)  # rejects a bad --split before indexing
        off = float(np.linalg.norm(state.params.a[np.ix_(left, right)]))
        report[label] = {"separable": sep, "offdiag_norm": off}
    _emit(io.dumps(report))
    return 0


def _cmd_charfn(args) -> int:
    state = _load_state(args)
    if args.z.shape[0] % state.n:
        raise ValueError("--z length must be a multiple of the mode count")
    values = [io.complex_pair(characteristic_function(state, row))
              for row in args.z.reshape(-1, state.n)]
    _emit(io.dumps({"values": values}))
    return 0


def _cmd_tomo_simulate(args) -> int:
    state = _load_state(args)
    runs = simulate_battery(state, args.shots, args.seed)
    out = {
        "n": state.n,
        "shots": args.shots,
        "seed": args.seed,
        "measurements": [
            {"spec": r["spec"].to_json_dict(), "counts": [int(x) for x in r["counts"]],
             "shots": r["shots"]}
            for r in runs
        ],
    }
    _emit(io.dumps(out))
    return 0


def _cmd_tomo_estimate(args) -> int:
    measurements, runs = _load_counts(args.counts)
    out = estimate(runs).to_json_dict()
    out["measurements"] = measurements
    _emit(io.dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: `--cut` or `--to` is an error, not --cutoff or --tol
    parser = _Parser(prog="gausskit", description="Gaussian-state toolkit", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    def reads_state(p):
        p.add_argument("--state", required=True, help="state JSON file, or - for stdin")
        p.add_argument("--tol", type=_tol, default=DEFAULT_TOL,
                       help="relative positivity tolerance")
        return p

    def window(p):
        reads_state(p)
        p.add_argument("--cutoff", type=_cutoff, default=DEFAULT_CUTOFF,
                       help="total particle-number truncation")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    reads_state(command("convert", _cmd_convert, "E2 <-> covariance parameter conversion"))
    reads_state(command("validate", _cmd_validate, "validity / uncertainty check"))
    window(command("dmf", _cmd_dmf, "truncated density matrix"))
    window(command("statevec", _cmd_statevec, "truncated pure-state vector"))
    p = reads_state(command("marginal", _cmd_marginal, "reduced state on a mode subset"))
    p.add_argument("--split", type=_modes, required=True,
                   help="comma-separated kept modes, 0-based")
    p = reads_state(command("entanglement", _cmd_entanglement,
                            "pure-state separability of a split, by default the weakest"))
    p.add_argument("--split", type=_modes, help="comma-separated left modes, 0-based")
    p = reads_state(command("charfn", _cmd_charfn, "quantum characteristic function values"))
    p.add_argument("--z", type=_z, required=True,
                   help="JSON [re, im] pair list (length = modes per point)")
    p = reads_state(command("tomo-simulate", _cmd_tomo_simulate,
                            "sample the full measurement battery"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="64-bit sampling seed")
    p.add_argument("--shots", type=_shots, required=True)
    p = command("tomo-estimate", _cmd_tomo_estimate, "estimate parameters from counts")
    p.add_argument("--counts", default="-", help="simulation JSON, or - for stdin")
    return parser


def _fail(exc: Exception, code: int) -> int:
    print("error:", " ".join(str(exc).split()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # floating-point warnings would be extra stderr lines; a non-finite
        # result fails validation or io.dumps instead
        with np.errstate(all="ignore"):
            return args.handler(args)
    except SystemExit:  # --help, after printing the usage
        return 0
    except GausskitError as exc:
        return _fail(exc, _INVALID_EXIT)
    except (ValueError, OSError) as exc:
        return _fail(exc, _USAGE_EXIT)


if __name__ == "__main__":
    sys.exit(main())
