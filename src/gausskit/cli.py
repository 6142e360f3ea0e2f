"""Command-line front end.

Subcommands map 1:1 onto library operations; state files are the JSON
schemas from the params module, `-` means stdin, and outputs are
deterministic for fixed inputs and seed.  Exit codes: 0 success, 1 usage
or input error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .config import Config
from .core import is_positive_definite, m_matrix
from .errors import GausskitError
from .fock import dmf, general_truncate, pure_state_vector
from .params import CovarianceParams, E2Params, cov_to_e2, is_normalized
from .states import (
    GaussianState,
    characteristic_function,
    entanglement_report,
    is_pure_separable,
    marginal,
)
from .tomography import MeasurementSpec, estimate, simulate_battery

_USAGE_EXIT = 1
_INVALID_EXIT = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path!r}: {exc}") from exc


def _load_state_dict(path: str):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError("state file must hold a JSON object")
    if "S" in data and "m" in data:
        return CovarianceParams.from_json_dict(data)
    if "c" in data:
        return E2Params.from_json_dict(data)
    raise ValueError("field 'c' or 'S'/'m': state file is neither E2 nor covariance form")


def _as_state(params, tol: float) -> GaussianState:
    if isinstance(params, CovarianceParams):
        return GaussianState.from_cov(params, tol)
    return GaussianState(params, tol)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_convert(args, cfg: Config) -> int:
    params = _load_state_dict(args.state)
    if isinstance(params, CovarianceParams):
        _emit(io.dumps(cov_to_e2(params, cfg.tol).to_json_dict()))
    else:
        _emit(io.dumps(_as_state(params, cfg.tol).cov.to_json_dict()))
    return 0


def _cmd_validate(args, cfg: Config) -> int:
    params = _load_state_dict(args.state)
    if isinstance(params, CovarianceParams):
        valid = params.is_valid(cfg.tol)
        report = {"valid": bool(valid), "form": "covariance"}
        if not valid:
            _emit(io.dumps(report))
            return _INVALID_EXIT
        params = cov_to_e2(params, cfg.tol)
    m = m_matrix(params.a, params.lam, cfg.tol)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    valid = is_positive_definite(m, cfg.tol) and is_normalized(params, cfg.tol)
    _emit(io.dumps({"valid": bool(valid), "min_eig_M": min_eig}))
    return 0 if valid else _INVALID_EXIT


def _window(args, cfg: Config):
    params = _load_state_dict(args.state)
    state = _as_state(params, cfg.tol)
    p = state.params
    if np.any(p.mu):
        return general_truncate(p.as_general(), cfg.cutoff)
    return dmf(p.a, p.lam, cfg.cutoff, cfg.tol)


def _cmd_dmf(args, cfg: Config) -> int:
    op = _window(args, cfg)
    _emit(op.to_csv() if cfg.fmt == "csv" else io.dumps(op.to_json_dict()))
    return 0


def _cmd_statevec(args, cfg: Config) -> int:
    params = _load_state_dict(args.state)
    state = _as_state(params, cfg.tol)
    if not state.is_pure():
        raise GausskitError("statevec requires a pure state (Lambda = 0)")
    vec = pure_state_vector(state.params.a, cfg.cutoff, cfg.tol)
    _emit(vec.to_csv() if cfg.fmt == "csv" else io.dumps(vec.to_json_dict()))
    return 0


def _parse_split(raw: str) -> list[int]:
    try:
        modes = [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError("--split expects a comma-separated mode list") from exc
    return modes


def _cmd_marginal(args, cfg: Config) -> int:
    params = _load_state_dict(args.state)
    state = _as_state(params, cfg.tol)
    if args.split is None:
        raise ValueError("marginal requires --split")
    modes = _parse_split(args.split)
    sub = marginal(state, modes)
    _emit(io.dumps(sub.params.to_json_dict()))
    return 0


def _cmd_entanglement(args, cfg: Config) -> int:
    params = _load_state_dict(args.state)
    state = _as_state(params, cfg.tol)
    if args.split is not None:
        modes = _parse_split(args.split)
        right = [m for m in range(state.n) if m not in modes]
        label = ",".join(map(str, modes)) + "|" + ",".join(map(str, right))
        sep = is_pure_separable(state, modes, cfg.tol)
        off = float(np.linalg.norm(state.params.a[np.ix_(modes, right)]))
        _emit(io.dumps({label: {"separable": bool(sep), "offdiag_norm": off}}))
    else:
        report = entanglement_report(state, cfg.tol)
        _emit(io.dumps(report))
    return 0


def _cmd_charfn(args, cfg: Config) -> int:
    params = _load_state_dict(args.state)
    state = _as_state(params, cfg.tol)
    if args.z is None:
        raise ValueError("charfn requires --z with a JSON list of [re, im] pairs")
    try:
        zdata = json.loads(args.z)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in --z: {exc}") from exc
    if not isinstance(zdata, list):
        raise ValueError("--z: expected a JSON list of [re, im] pairs")
    pts = io.cvec_from_json(zdata, "z") if zdata and isinstance(zdata[0], list) \
        else io.cvec_from_json([zdata], "z")
    if pts.shape[0] % state.n:
        raise ValueError("--z length must be a multiple of the mode count")
    values = []
    for row in pts.reshape(-1, state.n):
        values.append(io.complex_pair(characteristic_function(state, row)))
    _emit(io.dumps({"values": values}))
    return 0


def _cmd_tomo_simulate(args, cfg: Config) -> int:
    params = _load_state_dict(args.state)
    state = _as_state(params, cfg.tol)
    runs = simulate_battery(state, args.shots, cfg.seed)
    out = {
        "n": state.n,
        "shots": int(args.shots),
        "seed": int(cfg.seed),
        "measurements": [
            {"spec": r["spec"].to_json_dict(), "counts": [int(x) for x in r["counts"]],
             "shots": r["shots"]}
            for r in runs
        ],
    }
    _emit(io.dumps(out))
    return 0


def _cmd_tomo_estimate(args, cfg: Config) -> int:
    data = _load_json(args.counts)
    if not isinstance(data, dict) or not isinstance(data.get("measurements"), list):
        raise ValueError("field 'measurements': counts file needs a list of measurements")
    runs = []
    for i, m in enumerate(data["measurements"]):
        if not isinstance(m, dict) or not isinstance(m.get("spec"), dict):
            raise ValueError(f"field 'spec': measurement {i} needs a spec object")
        if not isinstance(m.get("counts"), list):
            raise ValueError(f"field 'counts': measurement {i} needs a list of counts")
        spec = MeasurementSpec.from_json_dict(m["spec"])
        runs.append({"spec": spec, "counts": np.asarray(m["counts"], dtype=float),
                     "shots": m.get("shots", sum(m["counts"]))})
    report = estimate(runs)
    out = report.to_json_dict()
    out["measurements"] = data["measurements"]
    _emit(io.dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gausskit",
                                     description="Gaussian-state toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True):
        if state:
            p.add_argument("--state", required=True, help="state JSON file, or - for stdin")
        p.add_argument("--cutoff", type=int, default=Config.cutoff)
        p.add_argument("--tol", type=float, default=Config.tol)
        p.add_argument("--seed", type=int, default=Config.seed)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    common(sub.add_parser("convert", help="E2 <-> covariance parameter conversion"))
    common(sub.add_parser("validate", help="validity / uncertainty check"))
    common(sub.add_parser("dmf", help="truncated density matrix"))
    common(sub.add_parser("statevec", help="truncated pure-state vector"))
    p = sub.add_parser("marginal", help="reduced state on a mode subset")
    common(p)
    p.add_argument("--split", help="comma-separated kept modes, 0-based")
    p = sub.add_parser("entanglement", help="pure-state separability report")
    common(p)
    p.add_argument("--split", help="comma-separated left modes, 0-based")
    p = sub.add_parser("charfn", help="quantum characteristic function values")
    common(p)
    p.add_argument("--z", help="JSON [re, im] pair list (length = modes per point)")
    p = sub.add_parser("tomo-simulate", help="sample the full measurement battery")
    common(p)
    p.add_argument("--shots", type=int, required=True)
    p = sub.add_parser("tomo-estimate", help="estimate parameters from counts")
    p.add_argument("--counts", default="-", help="simulation JSON, or - for stdin")
    common(p, state=False)
    return parser


_HANDLERS = {
    "convert": _cmd_convert,
    "validate": _cmd_validate,
    "dmf": _cmd_dmf,
    "statevec": _cmd_statevec,
    "marginal": _cmd_marginal,
    "entanglement": _cmd_entanglement,
    "charfn": _cmd_charfn,
    "tomo-simulate": _cmd_tomo_simulate,
    "tomo-estimate": _cmd_tomo_estimate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        cfg = Config(cutoff=args.cutoff, tol=args.tol, seed=args.seed,
                     fmt=getattr(args, "fmt", "json"))
        return _HANDLERS[args.command](args, cfg)
    except GausskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INVALID_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
